"""The overq benchmark: end-to-end and per-layer metrics of the command line.

    python3 bench/run.py --workload {scan,rewrite,crosscheck} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository; overq is imported from ``src/``.  Each
job runs its CLI steps one after another, each step in a fresh interpreter
(``child.py``), because a command-line user pays cold caches on every run.
Jobs form a closed loop with one client: the next job starts when the last
has ended, and no job starts that would end more than ``--seconds`` after
the run began (the first always runs).  Every job's verdicts are checked
against ``expected.py`` and its reports must be byte-identical to the first
job's.

With ``--trace 0`` the end-to-end metrics come from untraced jobs, after a
few set-up-only probes that count towards ``--seconds``.  With ``--trace 1``
jobs alternate between traced and untraced, and the per-layer metrics are
medians over the traced jobs.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import expected as exp
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_PROBES = 8
# A two-step job that hangs still ends within 180 s of the run's start.
STEP_TIMEOUT_S = 60

END_TO_END = {"verdict_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class JobError(Exception):
    """A job whose program output or exit status is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise JobError(message)


# --- workloads: seed -> CLI steps ----------------------------------------------


def scan_steps(rng: random.Random) -> list[list[str]]:
    keys = list(exp.SCAN)
    rng.shuffle(keys)
    grid = [a for k, v in exp.GRID.items() for a in (f"--{k.replace('_', '-')}", str(v))]
    return [["verify", *keys, *grid, "--format", "json"]]


def rewrite_steps(rng: random.Random) -> list[list[str]]:
    keys = list(exp.IDENTITIES)
    rng.shuffle(keys)
    return [
        ["identities", "--only", ",".join(keys), "--order", str(exp.IDENTITY_ORDER),
         "--format", "json"],
        ["replay", "--order", str(exp.REPLAY_ORDER), "--format", "json"],
    ]


def oracle_sizes(rng: random.Random) -> list[int]:
    """Tuple sizes in 0..ORACLE_MAX_SIZE summing to ORACLE_TOTAL.

    The oracle's work is linear in the sum of the sizes, so every seed costs
    it the same.
    """
    sizes = [0] * exp.ORACLE_SIZES
    for _ in range(exp.ORACLE_TOTAL):
        sizes[rng.choice([i for i, s in enumerate(sizes) if s < exp.ORACLE_MAX_SIZE])] += 1
    return sizes


def crosscheck_steps(rng: random.Random) -> list[list[str]]:
    argv = ["oracle", "--upto", str(exp.ORACLE_UPTO)]
    for flag in ("--t", "--opt"):
        for size in oracle_sizes(rng):
            argv += [flag, str(size)]
    return [argv + ["--format", "json"]]


# --- checks against the expected answers ---------------------------------------


def results(out: dict, command: str) -> list[dict]:
    expect(out["exit"] == 0, f"{command} exited with {out['exit']}: {out['stderr'][:200]}")
    doc = json.loads(out["report"])
    expect(
        doc.get("schema") == "overq-report/1" and doc.get("command") == command,
        f"{command}: not an overq-report/1 {command} report",
    )
    return doc["results"]


def check_scan(steps: list[list[str]], outs: list[dict]) -> None:
    (out,) = outs
    for line in out["stderr"].splitlines():
        expect(exp.SCAN_STDERR_MARK in line, f"verify: unexpected stderr {line!r}")
    rows = {row["key"]: row for row in results(out, "verify")}
    expect(sorted(rows) == sorted(exp.SCAN), f"verify: reported keys {sorted(rows)}")
    for key, (verdict, points) in exp.SCAN.items():
        row = rows[key]
        got = (row["verdict"], row["params_tried"], row["coeffs_checked"], row["failures"])
        want = (verdict, points, points * (exp.GRID["n_max"] + 1), exp.SCAN_FAILING.get(key, 0))
        expect(got == want, f"verify {key}: got {got}, expected {want}")


def check_rewrite(steps: list[list[str]], outs: list[dict]) -> None:
    identities, replay = outs
    for out in outs:
        expect(not out["stderr"], f"unexpected stderr {out['stderr'][:200]!r}")
    rows = results(identities, "identities")
    expect(
        sorted(row["key"] for row in rows) == sorted(exp.IDENTITIES),
        "identities: reported keys differ",
    )
    for row in rows:
        got = (row["status"], row["order"], row["first_mismatch"], row["error"])
        want = ("PASS", exp.IDENTITY_ORDER, None, None)
        expect(got == want, f"identity {row['key']}: got {got}, expected {want}")
    rows = results(replay, "replay")
    for row in rows:
        expect(row["status"] == "PASS", f"replay: {row} did not pass")
    tables = {row["width"]: (row["rows"], row["entries"]) for row in rows if row["type"] == "table"}
    expect(tables == exp.TABLES, f"replay tables: got {tables}")
    step_rows = [row for row in rows if row["type"] == "step"]
    counts = dict(collections.Counter(row["key"] for row in step_rows))
    expect(counts == exp.STEPS, f"replay steps: got {counts}")
    expect(all(row["order"] == exp.REPLAY_ORDER for row in step_rows), "replay: wrong order")


def check_crosscheck(steps: list[list[str]], outs: list[dict]) -> None:
    (out,) = outs
    expect(not out["stderr"], f"unexpected stderr {out['stderr'][:200]!r}")
    argv = steps[0]
    family = {"--t": "overpartition-tuples", "--opt": "opt-tuples"}
    requested = [
        (family[flag], int(value))
        for flag, value in zip(argv, argv[1:])
        if flag in family
    ]
    rows = results(out, "oracle")
    expect(
        [(row["family"], row["parameter"]) for row in rows] == requested,
        "oracle: rows differ from the requested sizes",
    )
    for row in rows:
        name = f"oracle {row['family']} {row['parameter']}"
        counts = row["counts"]
        expect(row["matches_gf"] is True, f"{name}: counts do not match the GF")
        expect(row["upto"] == exp.ORACLE_UPTO and len(counts) == exp.ORACLE_UPTO + 1,
               f"{name}: wrong range")
        expect(tuple(counts[:3]) == exp.small_counts(row["family"], row["parameter"]),
               f"{name}: counts at n <= 2 are {counts[:3]}")
        # Toggling the overline on the first part of the first non-empty
        # colour pairs up the tuples of every n >= 1.
        expect(all(c % 2 == 0 for c in counts[1:]), f"{name}: an odd count at n >= 1")
        known = exp.KNOWN_COUNTS.get((row["family"], row["parameter"]))
        if known is not None:
            expect(tuple(counts[: len(known)]) == known, f"{name}: first counts differ")


WORKLOADS = {
    "scan": (scan_steps, check_scan),
    "rewrite": (rewrite_steps, check_rewrite),
    "crosscheck": (crosscheck_steps, check_crosscheck),
}


# --- running jobs ----------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_step(argv: list[str], trace: bool, env: dict[str, str]) -> dict:
    """Run one CLI step in a fresh interpreter; add set-up and CPU time."""
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), "1" if trace else "0", *argv],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )

    def kill() -> None:
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    # The child is reaped only after the timer is done with it, so its pid
    # cannot have been reused when the timer fires.
    timer = threading.Timer(STEP_TIMEOUT_S, kill)
    timer.start()
    try:
        data = proc.stdout.read()
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - spawn
    if proc.returncode != 0:
        raise JobError(f"{' '.join(argv[:1]) or 'setup'}: child exited with {proc.returncode}")
    out = json.loads(data)
    out.update(
        setup_s=out["ready"] - spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        wall_s=wall,
    )
    return out


def run_job(steps, check, trace: bool, env) -> dict:
    job = {"traced": trace, "error": None, "wall_s": 0.0, "setups": []}
    start = time.monotonic()
    try:
        outs = [run_step(argv, trace, env) for argv in steps]
        job["setups"] = [out["setup_s"] for out in outs]
        job.update(
            verdict_s=sum(out["end"] - out["start"] for out in outs),
            cpu_s=sum(out["cpu_s"] for out in outs),
            peak_rss_mb=max(out["rss_kb"] for out in outs) / 1024,
            reports=[out["report"] for out in outs],
        )
        if trace:
            totals = collections.Counter()
            for out in outs:
                totals.update(out["trace"])
            layers = spans.finish(totals)
            layers["cli.report_bytes"] = sum(len(r.encode()) for r in job["reports"])
            job["layers"] = layers
        check(steps, outs)
    except (JobError, ValueError, KeyError, TypeError) as exc:
        job["error"] = f"{type(exc).__name__}: {exc}"
    job["wall_s"] = time.monotonic() - start
    return job


def compare_jobs(jobs: list[dict]) -> None:
    """Reports must be byte-identical, and exact counts equal, across jobs."""
    good = [job for job in jobs if job["error"] is None]
    if not good:
        return
    first = good[0]
    first_traced = next((job for job in good if job["traced"]), None)
    for job in good[1:]:
        if job["reports"] != first["reports"]:
            job["error"] = "report differs from the first job's"
        elif job["traced"] and job is not first_traced:
            for name in spans.REPEATED_COUNTS:
                if job["layers"][name] != first_traced["layers"][name]:
                    job["error"] = f"{name} differs between jobs of one seed"


def highest_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"none (needs more than 10 jobs, have {n})"
    k = n - 10
    return f"p{100 * k / n:.0f}={sorted(values)[k - 1]:.4f} s"


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{(q3 - q1) / statistics.median(values):.1%}"


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            models = (line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "overq" / "cli.py").is_file():
        print(f"error: no overq sources under {SRC}", file=sys.stderr)
        return 2

    make_steps, check = WORKLOADS[args.workload]
    steps = make_steps(random.Random(args.seed))
    trace = args.trace == 1
    env = child_env()
    print(f"overq benchmark: workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {json.dumps(machine(args.seed))}")

    start = time.monotonic()
    setups, probe_errors = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            try:
                setups.append(run_step([], False, env)["setup_s"])
            except (JobError, ValueError, KeyError) as exc:
                probe_errors.append(str(exc))

    jobs: list[dict] = []
    while True:
        if len(jobs) >= (2 if trace else 1):
            estimate = statistics.median(job["wall_s"] for job in jobs)
            if time.monotonic() - start + estimate > args.seconds:
                break
        jobs.append(run_job(steps, check, trace and len(jobs) % 2 == 0, env))
    compare_jobs(jobs)

    for i, job in enumerate(jobs, 1):
        kind = "traced" if job["traced"] else "plain"
        timing = (
            f"verdict_s={job['verdict_s']:.4f} cpu_s={job['cpu_s']:.4f} "
            f"peak_rss_mb={job['peak_rss_mb']:.1f}" if "verdict_s" in job else ""
        )
        print(f"job {i} {kind}: {timing} {job['error'] or 'ok'}")
    for error in probe_errors:
        print(f"setup probe: {error}")

    attempted = len(jobs) + SETUP_PROBES * (not trace)
    failed = sum(job["error"] is not None for job in jobs) + len(probe_errors)
    timed = [job for job in jobs if "verdict_s" in job]
    plain = [job for job in timed if not job["traced"]]
    traced = [job for job in timed if job["traced"] and "layers" in job]
    if not plain or (trace and not traced):
        print("error: no job produced timings", file=sys.stderr)
        return 1

    verdicts = [job["verdict_s"] for job in plain]
    if trace:
        metrics = {
            name: statistics.median(job["layers"][name] for job in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.verdict_s"] = statistics.median(job["verdict_s"] for job in traced)
        metrics["trace.overhead_s"] = metrics["trace.verdict_s"] - statistics.median(verdicts)
        units = spans.METRICS
    else:
        setups += [s for job in timed for s in job["setups"]]
        metrics = {
            "verdict_s": statistics.median(verdicts),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(job["cpu_s"] for job in plain),
            "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in plain),
        }
        units = END_TO_END
        print(
            f"verdict_s: median of {len(verdicts)} jobs; highest percentile with ten "
            f"samples beyond it: {highest_percentile(verdicts)}; job-to-job spread "
            f"(IQR / median) {spread(verdicts)}"
        )
        print(f"setup_s: median of {len(setups)} set-ups; spread {spread(setups)}")
    for name, unit in units.items():
        print(f"{name:40} {metrics[name]:.6g} {unit}")
    print(f"{'error_share':40} {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
