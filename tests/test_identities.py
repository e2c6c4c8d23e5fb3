import io
import json
from dataclasses import replace

import pytest

from overq.cli import _OPTIONS, main
from overq.expr import GfRecipe, SubstRecipe, eta_series, evaluate, theta_series
from overq.identities import (
    IdentityCase,
    builtin_identities,
    identity_registry,
    verify_identity,
)
from overq.series import EXACT, Zmod

EXPECTED_KEYS = [
    "B1-p2-k1",
    "B1-p2-k2",
    "B1-p2-k3",
    "B1-p2-k4",
    "B1-p2-k5",
    "B1-p3-k1",
    "B1-p3-k2",
    "B1-p3-k3",
    "B1-p3-k4",
    "B1-p3-k5",
    "D1",
    "D1SQ",
    "D2",
    "D3",
    "D4",
    "JACOBI",
    "R13",
]


def test_registry_is_complete_and_stable():
    cases = builtin_identities()
    assert [c.key for c in cases] == EXPECTED_KEYS
    assert len(cases) == 17
    assert identity_registry().keys() == set(EXPECTED_KEYS)


def test_binomial_cases_have_prime_power_moduli():
    registry = identity_registry()
    assert registry["B1-p2-k3"].modulus == 8
    assert registry["B1-p3-k5"].modulus == 243


def test_two_dissection_passes_at_order_800():
    report = verify_identity(identity_registry()["D1"], order=800)
    assert report.ok and report.status == "PASS"


def test_three_dissections_pass():
    registry = identity_registry()
    assert verify_identity(registry["D2"], order=400).ok
    assert verify_identity(registry["D3"], order=400).ok
    assert verify_identity(registry["D4"], order=400).ok


def test_constant_terms_alone_pass():
    report = verify_identity(identity_registry()["D3"], order=1)
    assert report.ok


def test_triangular_series_identity():
    assert verify_identity(identity_registry()["JACOBI"], order=500).ok


def test_squared_dissection_helper():
    assert verify_identity(identity_registry()["D1SQ"], order=500).ok


def test_collapse_identity_passes_mod_two():
    case = identity_registry()["R13"]
    assert case.modulus == 2
    report = verify_identity(case, order=600)
    assert report.ok


def test_collapse_identity_is_not_exact():
    # The two sides genuinely differ over the integers; the registry entry
    # documents the modulus that actually holds.
    case = identity_registry()["R13"]
    exact_case = IdentityCase(key="R13-exact", lhs=case.lhs, rhs=case.rhs, modulus=None)
    report = verify_identity(exact_case, order=30)
    assert not report.ok
    assert report.mismatch == (1, -2, 4)


def test_binomial_cases_pass():
    registry = identity_registry()
    for p in (2, 3):
        for k in range(1, 6):
            assert verify_identity(registry[f"B1-p{p}-k{k}"], order=200).ok


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("k", range(1, 6))
def test_binomial_mutants_fail(p, k):
    # f1^(p^k) is a plain power of f1, so a B1 case one step off the
    # congruence fails at its first differing coefficient.
    case = identity_registry()[f"B1-p{p}-k{k}"]
    wrong_exponent = replace(case, rhs=eta_series(((p, p ** (k - 1) + 1),)))
    report = verify_identity(wrong_exponent, order=200)
    assert not report.ok and report.mismatch[0] == p  # f_p^(p^(k-1)) * f_p gains -q^p
    wrong_modulus = replace(case, modulus=p ** (k + 1))
    report = verify_identity(wrong_modulus, order=200)
    assert not report.ok and report.mismatch == (1, p ** (k + 1) - p**k, 0)


def test_pass_is_monotone_in_order():
    case = identity_registry()["D1"]
    for order in (1, 10, 100, 250):
        assert verify_identity(case, order=order).ok


def test_failure_reports_first_mismatch():
    bad = IdentityCase(key="bad", lhs=eta_series("f1"), rhs=eta_series("f2"))
    report = verify_identity(bad, order=10)
    assert not report.ok
    assert report.mismatch == (1, -1, 0)
    assert "q^1" in report.describe()


def test_zero_substitution_step_is_reported_not_raised():
    bad = IdentityCase(key="step-zero", lhs=theta_series("h", 0), rhs=eta_series("1"))
    report = verify_identity(bad, order=10)
    assert not report.ok
    assert report.error == "substitution step must be >= 1, got 0"


@pytest.mark.parametrize("step", [0, -1])
def test_bad_substitution_step_names_the_step(step):
    with pytest.raises(ValueError, match=f"substitution step must be >= 1, got {step}"):
        evaluate(SubstRecipe(step, eta_series("f1")), EXACT, 8)


def test_verify_rejects_bad_order():
    with pytest.raises(ValueError):
        verify_identity(identity_registry()["D1"], order=0)


def test_default_order_is_five_hundred():
    # An identities run with no --order takes the CLI default.
    assert _OPTIONS["order"][1] == 500
    out = io.StringIO()
    assert main(["identities", "--only", "D1", "--format", "json"], out=out) == 0
    doc = json.loads(out.getvalue())
    assert doc["config"]["order"] == 500
    assert [row["order"] for row in doc["results"]] == [500]


def test_gf_recipe_of_unknown_kind_is_an_error():
    with pytest.raises(ValueError, match="unknown generating function kind"):
        evaluate(GfRecipe("bogus", 2), Zmod(8), 6)
    case = IdentityCase("BOGUS", GfRecipe("bogus", 2), GfRecipe("opt", 2), modulus=8)
    report = verify_identity(case, 6)
    assert not report.ok and "bogus" in report.error
