"""Golden reports: the CLI's output, pinned byte for byte.

The files under ``tests/golden/`` hold the stdout of each command in each
format: ``<command>.json``, ``<command>.txt`` (``--format table``) and
``<command>.csv``.  ``identities`` and ``replay`` run at their default
orders; ``verify`` scans every family, conjectures included, on a small grid
(so the known ``opt-8n+4`` witnesses appear); ``oracle`` runs its default
tuple sizes up to n = 12.  A change that alters any report, even by
whitespace or key order, fails here; regenerate the files only when a report
change is intended.
"""

import io
from pathlib import Path

import pytest

from overq.cli import main

GOLDEN = Path(__file__).parent / "golden"

ARGV = {
    "identities": ["identities"],
    "replay": ["replay"],
    "verify": [
        "verify", "all", "--include-conjectures", "--t-max", "3", "--n-max", "5",
        "--alpha-max", "0", "--i-max", "1", "--j-max", "1",
    ],
    "oracle": ["oracle", "--upto", "12"],
}
EXTENSION = {"json": "json", "table": "txt", "csv": "csv"}


def run_golden(command, fmt):
    out = io.StringIO()
    code = main([*ARGV[command], "--format", fmt], out=out)
    assert code == 0
    assert out.getvalue() == (GOLDEN / f"{command}.{EXTENSION[fmt]}").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["identities", "replay"])
def test_json_report_matches_golden(command):
    run_golden(command, "json")


@pytest.mark.parametrize(
    "command, fmt",
    [
        (command, fmt)
        for command in ARGV
        for fmt in EXTENSION
        if (command, fmt) not in {("identities", "json"), ("replay", "json")}
    ],
)
def test_report_matches_golden(command, fmt):
    run_golden(command, fmt)
