"""Golden reports: the CLI's JSON output at the default orders, pinned byte for byte.

The files under ``tests/golden/`` hold the stdout of
``overq identities --format json`` and ``overq replay --format json``.
A change that alters either report, even by whitespace or key order,
fails here; regenerate the files only when a report change is intended.
"""

import io
from pathlib import Path

import pytest

from overq.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["identities", "replay"])
def test_json_report_matches_golden(command):
    out = io.StringIO()
    code = main([command, "--format", "json"], out=out)
    assert code == 0
    assert out.getvalue() == (GOLDEN / f"{command}.json").read_text(encoding="utf-8")
