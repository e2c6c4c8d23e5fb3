"""One step of a benchmark job, run in a fresh interpreter.

    python3 bench/child.py TRACE [CLI ARG...]

Imports overq and builds its registries (the set-up a command-line user pays
on every run), then calls ``overq.cli.main`` once with the given arguments,
capturing the report and stderr.  With no CLI arguments it stops after
set-up.  With TRACE=1 the layer tracer is installed after set-up.  Prints one
JSON object on stdout.

Times are CLOCK_MONOTONIC readings, which on Linux share one origin across
processes, so the parent can subtract its own spawn time from ``ready``.
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_kb() -> int:
    """This process's own peak resident set size (VmHWM), in KiB.

    Not ``ru_maxrss``: on Linux a spawned process's ``ru_maxrss`` also counts
    the resident set its parent had when it spawned it.
    """
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


def main() -> None:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]

    import overq
    import overq.cli  # noqa: F401 -- part of a command-line user's set-up
    from overq.congruences import builtin_steps

    overq.builtin_families()
    overq.builtin_identities()
    builtin_steps()
    ready = time.monotonic()
    result = {"ready": ready}
    if argv:
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        cli_main = sys.modules["overq.cli"].main  # the traced binding, if installed
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stderr(err):
            code = cli_main(argv, out=out)
        end = time.monotonic()
        result.update(
            start=start,
            end=end,
            exit=code,
            rss_kb=peak_rss_kb(),
            report=out.getvalue(),
            stderr=err.getvalue(),
        )
        if tracer is not None:
            result["trace"] = tracer.totals()
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
