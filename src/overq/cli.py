"""Batch verification front end.

Subcommands:

* ``identities`` -- run the identity registry to a truncation order.
* ``verify``     -- scan congruence families over parameter grids.
* ``oracle``     -- cross-check generating functions against the
                    combinatorial counts, or dump counts as CSV.
* ``replay``     -- recompute the binomial coefficient tables and the
                    registered dissection steps.

Each command accepts only the options it reads.  Exit codes: 0 all checks
passed, 1 mathematical mismatch (witness printed), 2 usage or configuration
error, or a run refused up front as over budget (``BudgetError``).  Output
is deterministic: rows are sorted, and JSON reports are byte-identical
across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

from .series import EXACT
from .eta import family_gf, gf_mismatch
from .identities import builtin_identities, identity_registry, verify_identity
from .oracle import count_opt_tuples, count_overpartition_tuples
from .congruences import (
    GRID_CAPS,
    BudgetError,
    RunConfig,
    builtin_steps,
    family_registry,
    replay_binomial_tables,
    run_families,
    verify_dissection_step,
)

SCHEMA = "overq-report/1"
COMMANDS = {
    "identities": "run the identity registry",
    "verify": "scan congruence families",
    "oracle": "cross-check counts against the series engine",
    "replay": "recompute coefficient tables and dissection steps",
}
FORMATS = {"table": "txt", "json": "json", "csv": "csv"}  # format -> report file extension

# Fixed fields of the overq-report/1 config block: runs are serial and
# deterministic, so there is no worker count or random seed to record.
FIXED_CONFIG = {"jobs": 1, "seed": 0}


# Largest `identities --order` and `oracle --upto`.  Both are exact-ring work
# that grows about quadratically: on a 2-vCPU host `identities --order 10000`
# took 1.3-1.7 s and `oracle --upto 2400` 1.7-1.9 s (0.3 s of it checking the
# counts against the generating functions, the rest counting), so runs at the
# budget end within seconds, while `identities --only D1 --order 5000000` ran
# out of memory.
MAX_EXACT_ORDER = 10_000

# Largest oracle tuple size times (upto + 1).  Both the counts and the packed
# check grow with each: at upto 600, --t 256 took 1.2 s and --t 1000 12.7 s,
# and at upto 10000, --t 16 took 11 s.  The default sizes 0..6 stay admitted
# at every upto.
MAX_ORACLE_WORK = 70_000


class UsageError(Exception):
    pass


def _within_budget(name: str, value: int) -> int:
    """``value`` itself, or a ``BudgetError`` if it is over ``MAX_EXACT_ORDER``."""
    if value > MAX_EXACT_ORDER:
        raise BudgetError(f"{name} {value} exceeds budget {MAX_EXACT_ORDER}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _format(text: str) -> str:
    if text not in FORMATS:
        raise argparse.ArgumentTypeError(f"expected one of {', '.join(FORMATS)}, got {text}")
    return text


def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text}")
    return text.lower() in ("true", "1")


# Settings: dest -> (value parser, default, commands that read it).  Each is a
# flag --dest-with-dashes and a config-file key dest-with-dashes, checked by the
# same parser; a boolean setting is a switch on the command line.  A setting
# that RunConfig holds takes its default from RunConfig.  verify reads no
# order: each family works at the order its progression needs to reach --n-max.
_OPTIONS = {
    "order": (_positive_int, 500, ("identities", "replay")),
    "n_max": (_nonneg_int, RunConfig._field_defaults["n_max"], ("verify",)),
    "t_max": (_nonneg_int, RunConfig._field_defaults["t_max"], ("verify",)),
    "i_max": (_positive_int, RunConfig._field_defaults["i_max"], ("verify",)),
    "j_max": (_positive_int, RunConfig._field_defaults["j_max"], ("verify",)),
    "alpha_max": (_nonneg_int, RunConfig._field_defaults["alpha_max"], ("verify",)),
    "include_conjectures": (_boolean, False, ("verify",)),
    "primes_only": (_boolean, RunConfig._field_defaults["primes_only"], ("verify",)),
    "upto": (_nonneg_int, 60, ("oracle",)),
    "format": (_format, "table", COMMANDS),
}

# verify settings that act on one part of the grid: dest -> what they do.  The
# caps size the axes congruences.GRID_CAPS names; primes_only acts on the
# families tagged prime-scan.  One given by flag or config file when no selected
# family reads it is a usage error.
_GRID_SETTINGS = {
    "t_max": "sizes only families with a t axis",
    "alpha_max": "sizes only families with an alpha axis",
    "i_max": "sizes only families with an i axis",
    "j_max": "sizes only families with a j axis",
    "primes_only": "filters only families tagged prime-scan",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overq",
        description="Verify q-series identities and overpartition-tuple congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {command: sub.add_parser(command, help=text) for command, text in COMMANDS.items()}
    for command, p in commands.items():
        for dest, (parse, default, readers) in _OPTIONS.items():
            if command in readers:
                flag = "--" + dest.replace("_", "-")
                if isinstance(default, bool):
                    p.add_argument(flag, dest=dest, action="store_true", default=None)
                else:
                    p.add_argument(flag, dest=dest, type=parse, default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None, help="directory for report files")

    commands["identities"].add_argument("--only", type=str, default=None,
                                        help="comma-separated keys")
    commands["verify"].add_argument("keys", nargs="*", default=[],
                                    help="family keys, or 'all'")
    p_or = commands["oracle"]
    p_or.add_argument("--t", type=_nonneg_int, action="append", default=None,
                      help="overpartition tuple size (repeatable)")
    p_or.add_argument("--opt", type=_nonneg_int, action="append", default=None,
                      help="odd-part tuple size (repeatable)")
    p_rep = commands["replay"]
    p_rep.add_argument("--width", type=int, choices=(16, 32), default=None)
    p_rep.add_argument("--step", type=str, default=None)
    p_rep.add_argument("--t", type=_nonneg_int, default=None)
    p_rep.add_argument("--i", type=_positive_int, default=None)
    p_rep.add_argument("--r", type=_positive_int, default=None)
    return parser


def _load_config_file(path: str, command: str) -> dict[str, object]:
    keys = {d.replace("_", "-"): d for d, option in _OPTIONS.items() if command in option[2]}
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r} for {command}")
        try:
            values[keys[key]] = _OPTIONS[keys[key]][0](value.strip())
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    """Merge flag values over config-file values over hard defaults.

    A config-file value is also set on ``args`` where no flag gave one, so a
    command's checks on ``args`` see a setting from either source.
    """
    if args.config:
        for dest, value in _load_config_file(args.config, args.command).items():
            if getattr(args, dest) is None:
                setattr(args, dest, value)
    settings = {dest: default for dest, (_, default, _) in _OPTIONS.items()}
    settings.update((d, getattr(args, d)) for d in _OPTIONS if getattr(args, d, None) is not None)
    return settings


# Each command makes one pass over its reports and returns three views of them
# with its exit code: the JSON result rows (the record every other field is
# taken from), the table lines, and the CSV rows, header first.  ``_render``
# picks one.
_Views = tuple[list[dict], list[str], Iterable[tuple], int]


def _render(
    fmt: str, command: str, settings: dict, results: list, lines: list, rows: Iterable[tuple]
) -> str:
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "command": command,
            "config": {**settings, **FIXED_CONFIG},
            "results": results,
        }
        return json.dumps(doc, sort_keys=True, indent=2)
    if fmt == "csv":
        lines = [",".join(map(str, row)) for row in rows]
    return "\n".join(lines)


def _check_keys(keys: list[str], registry: dict, what: str) -> None:
    """Each named key must be registered, and named once."""
    unknown = [k for k in keys if k not in registry]
    if unknown:
        raise UsageError(f"unknown {what} keys: {', '.join(unknown)}")
    repeated = [k for k, count in Counter(keys).items() if count > 1]
    if repeated:
        raise UsageError(f"repeated {what} keys: {', '.join(repeated)}")


# --- identities --------------------------------------------------------------


def cmd_identities(args: argparse.Namespace, settings: dict[str, object]) -> _Views:
    registry = identity_registry()
    if args.only is not None:
        keys = [k.strip() for k in args.only.split(",") if k.strip()]
        if not keys:
            raise UsageError("--only names no identity key")
        _check_keys(keys, registry, "identity")
        cases = [registry[k] for k in keys]
    else:
        cases = list(builtin_identities())
    cases.sort(key=lambda c: c.key)
    order = _within_budget("order", settings["order"])
    results = []
    lines = [f"{'KEY':12} {'MODE':8} {'ORDER':>6} {'STATUS':6} FIRST-MISMATCH"]
    rows = [("key", "mode", "order", "status", "first_mismatch")]
    for case in cases:
        r = verify_identity(case, order)
        results.append(
            {
                "key": r.key,
                "mode": r.mode,
                "order": r.order,
                "status": r.status,
                "first_mismatch": (
                    None
                    if r.mismatch is None
                    else {"exponent": r.mismatch[0], "lhs": r.mismatch[1], "rhs": r.mismatch[2]}
                ),
                "error": r.error,
            }
        )
        cells = (r.key, r.mode, r.order, r.status, r.describe())
        lines.append("{:12} {:8} {:>6} {:6} {}".format(*cells))
        rows.append(cells)
    passed = sum(row["status"] == "PASS" for row in results)
    lines.append(f"{passed}/{len(results)} identities passed at order {order}")
    return results, lines, rows, 0 if passed == len(results) else 1


# --- verify ------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, settings: dict[str, object]) -> _Views:
    registry = family_registry()
    if not args.keys:
        raise UsageError("verify needs family keys or 'all'")
    if args.keys == ["all"]:
        families = list(registry.values())
        if not settings["include_conjectures"]:
            families = [f for f in families if f.status == "theorem"]
    else:
        _check_keys(args.keys, registry, "family")
        families = [registry[k] for k in args.keys]
    read = {GRID_CAPS.get(name) for f in families for name in f.params}
    if any("prime-scan" in f.tags for f in families):
        read.add("primes_only")
    for dest, does in _GRID_SETTINGS.items():
        if getattr(args, dest) is not None and dest not in read:
            raise UsageError(f"--{dest.replace('_', '-')} {does}, and none is selected")
    families.sort(key=lambda f: f.key)
    config = RunConfig(**{name: settings[name] for name in RunConfig._fields})
    reports = run_families(families, config)

    results = []
    lines = [f"{'KEY':42} {'STATUS':10} {'VERDICT':16} {'PARAMS':>7} {'COEFFS':>8} {'FAILS':>6}"]
    rows = [("key", "params", "n", "value", "modulus", "expected")]
    for family, report in zip(families, reports):
        row = {
            **family.describe(),
            "params_tried": report.params_tried,
            "coeffs_checked": report.coeffs_checked,
            "failures": report.failures,
            "verdict": report.verdict,
            "witnesses": [
                {
                    "params": w.params_text(),
                    "n": w.n,
                    "value": w.value,
                    "modulus": w.modulus,
                    "expected": w.expected,
                }
                for w in report.witnesses
            ],
        }
        results.append(row)
        lines.append(
            f"{row['key']:42} {row['status']:10} {row['verdict']:16} "
            f"{row['params_tried']:>7} {row['coeffs_checked']:>8} {row['failures']:>6}"
        )
        for w in row["witnesses"]:
            rows.append((row["key"], w["params"], w["n"], w["value"], w["modulus"], w["expected"]))
        lines += [
            f"    witness {w['params']} n={w['n']}: value {w['value']} != "
            f"{w['expected']} (mod {w['modulus']})"
            for w in row["witnesses"][:3]
        ]
    blockers = sum(r.blocking for r in reports)
    tally = Counter(row["verdict"] for row in results)
    summary = ", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items()))
    lines.append(f"{summary}; {blockers} blocking failure(s)")
    return results, lines, rows, 1 if blockers else 0


# --- oracle ------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace, settings: dict[str, object]) -> _Views:
    upto = _within_budget("upto", settings["upto"])
    default = range(7) if args.t is None and args.opt is None else []
    sizes = [("overpartition-tuples", t) for t in args.t or default]
    sizes += [("opt-tuples", k) for k in args.opt or default]
    for family, param in sizes:
        if param * (upto + 1) > MAX_ORACLE_WORK:
            raise BudgetError(
                f"{family} size {param} at upto {upto} exceeds budget: "
                f"size * (upto + 1) > {MAX_ORACLE_WORK}"
            )

    results = []
    lines = [f"{'FAMILY':24} {'PARAM':>5} {'UPTO':>5} STATUS"]
    # One lazy CSV row per count, made only when CSV is rendered.
    rows = [[("family", "parameter", "n", "count")]]
    first_mismatch: tuple[str, int, int, int, int] | None = None
    # (family, param) -> (table, first mismatching n): a size named twice is checked once
    checked = {}
    for family, param in sizes:
        if (family, param) not in checked:
            if family == "overpartition-tuples":
                table, kind = count_overpartition_tuples(param, upto), "overpartition"
            else:
                table, kind = count_opt_tuples(param, upto), "opt"
            n = gf_mismatch(kind, param, table.counts)
            if n is not None and first_mismatch is None:
                want = family_gf(kind, param, EXACT, n + 1).coeffs[n]
                first_mismatch = (family, param, n, table.counts[n], want)
            checked[family, param] = table, n
        table, n = checked[family, param]
        row = {
            "family": family,
            "parameter": param,
            "upto": table.upto,
            "counts": list(table.counts),
            "matches_gf": n is None,
        }
        results.append(row)
        lines.append(
            f"{family:24} {param:>5} {row['upto']:>5} {'PASS' if row['matches_gf'] else 'FAIL'}"
        )
        rows.append(zip(repeat(family), repeat(param), range(upto + 1), row["counts"]))
    if first_mismatch is None:
        lines.append("all counts match the generating functions")
    else:
        lines.append(
            f"MISMATCH at {first_mismatch[:3]}: "
            f"oracle {first_mismatch[3]} vs series {first_mismatch[4]}"
        )
        print(
            f"oracle mismatch: family={first_mismatch[0]} parameter={first_mismatch[1]} "
            f"n={first_mismatch[2]}",
            file=sys.stderr,
        )
    return results, lines, chain.from_iterable(rows), 0 if first_mismatch is None else 1


# --- replay ------------------------------------------------------------------


def cmd_replay(args: argparse.Namespace, settings: dict[str, object]) -> _Views:
    order = settings["order"]
    step_flags = [name for name in ("t", "i", "r") if getattr(args, name) is not None]
    if args.step is None and step_flags:
        raise UsageError(f"--{step_flags[0]} needs --step")
    if args.step is not None and args.width:
        raise UsageError("--width replays a table, --step a dissection step; give one")
    if args.width and args.order is not None:
        raise UsageError("--width replays only a table, which takes no --order")
    results = []
    lines = []
    rows = [("type", "key", "params", "status")]
    reports = []

    if args.step is not None:
        params = {name: getattr(args, name) for name in step_flags}
        try:
            reports.append(verify_dissection_step(args.step, params, order))
        except (KeyError, ValueError) as exc:
            raise UsageError(exc.args[0]) from None  # str() would quote a KeyError's text
    else:
        for width in (args.width,) if args.width else (16, 32):
            table = replay_binomial_tables(width)
            row = {
                "type": "table",
                "width": width,
                "rows": table.rows_checked,
                "entries": table.entries_checked,
                "status": "PASS" if table.ok else "FAIL",
            }
            results.append(row)
            lines.append(
                f"table mod {width:<3} rows {row['rows']:>3} "
                f"entries {row['entries']:>4} {row['status']}"
            )
            lines += [
                f"    residue {residue} t={t} r={r}: got {got}, expected {want}"
                for residue, t, r, got, want in table.mismatches
            ]
            rows.append(("table", f"mod{width}", "", row["status"]))
        if not args.width:
            for step in builtin_steps():
                for point in step.default_params:
                    reports.append(verify_dissection_step(step.key, dict(point), order))
    for report in reports:
        row = {
            "type": "step",
            "key": report.key,
            "params": report.params_text(),
            "modulus": report.modulus,
            "order": report.order,
            "status": report.status,
        }
        results.append(row)
        lines.append(
            f"step {row['key']:14} {row['params']:12} mod {row['modulus']:<6} "
            f"order {row['order']:>5} {row['status']}"
        )
        rows.append(("step", row["key"], row["params"], row["status"]))
    return results, lines, rows, 1 if any(row["status"] == "FAIL" for row in results) else 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "identities": cmd_identities,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "replay": cmd_replay,
    }
    try:
        settings = _resolve(args)
        if args.out:
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot create report directory {args.out}: {exc}") from None
        results, lines, rows, code = handlers[args.command](args, settings)
    except (UsageError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = settings["format"]
    text = _render(fmt, args.command, settings, results, lines, rows)
    print(text, file=out)
    if args.out:
        path = Path(args.out) / f"{args.command}.{FORMATS[fmt]}"
        try:
            path.write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write report {path}: {exc}", file=sys.stderr)
            return 2
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
