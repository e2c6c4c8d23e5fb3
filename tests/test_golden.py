"""Golden reports: the CLI's output, pinned byte for byte.

The files under ``tests/golden/`` hold the stdout of each command in each
format: ``<command>.json``, ``<command>.txt`` (``--format table``) and
``<command>.csv``.  ``identities`` and ``replay`` run at their default
orders; ``verify`` scans every family, conjectures included, on a small grid
(so the known ``opt-8n+4`` witnesses appear); ``oracle`` runs its default
tuple sizes up to n = 12.  ``verify-all.json`` pins ``verify all
--include-conjectures`` at the default grid, where t passes modulus/2 for
every ``pbar`` modulus, so each is served at t mod modulus/2 for some t, as
none from mod 8 up is on the small grid.
``verify-wide.json`` pins a grid off the default on every axis, where the
odd-part families reach the moduli 3^5 * 2^4 and 2^12 and tuple sizes up
to 3^4 * 2^2 * 13.  The
``*-fail`` files pin failing runs, with their exit code and stderr: a false
identity next to a passing one and one that cannot be evaluated, one
corrupted oracle count, a corrupted mod-16 table row (which also fails the
``G16`` steps that read it) and a blocking theorem family.  A change that
alters any report, even by whitespace or key order, fails here; regenerate
the files only when a report change is intended.
"""

import contextlib
import io
from pathlib import Path

import pytest
from conftest import corrupt_mod16_row, family_variant

import overq.cli as cli
import overq.congruences as congruences
from overq.cli import main
from overq.expr import eta_series, theta_series
from overq.identities import IdentityCase, identity_registry

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


def run_golden(command, fmt, argv=None, code=0, stderr=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        got = main([*(argv or ARGV[command]), "--format", fmt], out=out)
    assert got == code
    assert err.getvalue() == stderr
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


def test_default_grid_report_matches_golden():
    run_golden(
        "verify-all",
        "json",
        argv=["verify", "all", "--include-conjectures"],
    )


def test_wide_grid_report_matches_golden():
    run_golden(
        "verify-wide",
        "json",
        argv=[
            "verify", "all", "--include-conjectures", "--n-max", "60", "--t-max", "20",
            "--alpha-max", "1", "--i-max", "4", "--j-max", "2",
        ],
    )


def _false_identities(monkeypatch):
    cases = (
        IdentityCase(key="bogus", lhs=eta_series("f1"), rhs=eta_series("f2")),
        identity_registry()["D1"],
        IdentityCase(key="unevaluable", lhs=theta_series("h", 0), rhs=eta_series("f1")),
    )
    monkeypatch.setattr(cli, "builtin_identities", lambda: cases)


def _corrupted_oracle_count(monkeypatch):
    count = cli.count_overpartition_tuples

    def corrupted(t, upto):
        table = count(t, upto)
        if t != 2:
            return table
        return table._replace(counts=table.counts[:5] + (table.counts[5] + 1,) + table.counts[6:])

    monkeypatch.setattr(cli, "count_overpartition_tuples", corrupted)


def _blocking_family(monkeypatch):
    registry = congruences.family_registry()
    wrong = family_variant(registry["pbar-8n+7-mod32"], key="pbar-wrong", modulus_text="128")
    monkeypatch.setattr(cli, "family_registry", lambda: {**registry, wrong.key: wrong})


# name -> (argv, patch, stderr); every failing run exits 1.
FAILING = {
    "identities-fail": (["identities", "--order", "10"], _false_identities, ""),
    "oracle-fail": (
        ["oracle", "--upto", "12"],
        _corrupted_oracle_count,
        "oracle mismatch: family=overpartition-tuples parameter=2 n=5\n",
    ),
    "replay-fail": (["replay"], corrupt_mod16_row, ""),
    "verify-fail": (
        ["verify", "pbar-wrong", "pbar-8n+7-mod32", "--t-max", "3", "--n-max", "5"],
        _blocking_family,
        "",
    ),
}


@pytest.mark.parametrize("name, fmt", [(name, fmt) for name in FAILING for fmt in EXTENSION])
def test_failing_report_matches_golden(monkeypatch, name, fmt):
    argv, patch, stderr = FAILING[name]
    patch(monkeypatch)
    run_golden(name, fmt, argv=argv, code=1, stderr=stderr)
