import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import plain_check

import overq.congruences as congruences
import overq.identities as identities
from overq.cli import _OPTIONS, main
from overq.eta import EtaQuotient
from overq.expr import (
    DissectRecipe,
    EtaRecipe,
    ScaleRecipe,
    SubstRecipe,
    SumRecipe,
    eta_series,
    evaluate,
    gf_series,
    jacobi_series,
    qshift,
    theta_series,
)
from overq.identities import (
    IdentityCase,
    builtin_identities,
    denominator,
    identity_registry,
    verify_identity,
)
from overq.series import EXACT, Series, Zmod

ETA = sys.modules["overq.eta"]  # the package's eta function shadows the submodule
ROOT = Path(__file__).resolve().parents[1]

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
    wrong_exponent = case._replace(rhs=eta_series(((p, p ** (k - 1) + 1),)))
    report = verify_identity(wrong_exponent, order=200)
    assert not report.ok and report.mismatch[0] == p  # f_p^(p^(k-1)) * f_p gains -q^p
    wrong_modulus = case._replace(modulus=p ** (k + 1))
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


def test_gf_series_of_unknown_kind_is_refused_when_built():
    # the recipe is refused with family_gf's own text, before any evaluation
    with pytest.raises(ValueError) as built:
        gf_series("bogus", 2)
    with pytest.raises(ValueError) as expanded:
        ETA.family_gf("bogus", 2, Zmod(8), 6)
    assert str(built.value) == str(expanded.value) == "unknown generating function kind 'bogus'"


def test_gf_series_of_negative_tuple_size_is_refused_when_built():
    with pytest.raises(ValueError) as built:
        gf_series("opt", -1)
    with pytest.raises(ValueError) as expanded:
        ETA.family_gf("opt", -1, Zmod(8), 6)
    assert str(built.value) == str(expanded.value) == "tuple size must be >= 0, got -1"


def test_recipe_work_is_its_longest_rung_ladder():
    # f1^-4 has a 3-bit exponent; a 2-dissection to order 10 expands it to order 21
    assert DissectRecipe(2, 1, eta_series("f1^-4")).work(10) == 21 * 3
    # under q -> q^3, f1^-7 is expanded to order 10 of 30
    assert SubstRecipe(3, eta_series("f1^-7")).work(30) == 10 * 3
    # a sum takes its longest term: f8^5 is 10 * 3, f2 is 40 * 1, an opaque leaf its order
    assert (eta_series("f8^5 * f2") + 2 * qshift(eta_series("f1^9"), 1)).work(80) == 80 * 4
    assert (eta_series("f8^5 * f2") - jacobi_series()).work(80) == 80
    assert eta_series("f8^5 * f2").work(80) == 40
    assert gf_series("opt", 2).work(50) == 50 * 3  # f1^-4 f2^6 f4^-2


def test_unknown_kind_is_named_when_a_step_is_built(monkeypatch):
    # a step whose side cannot be built is reported, with the kind named
    bogus = congruences.DissectionStep(
        key="BOGUS",
        modulus=lambda p: 8,
        lhs=lambda p: gf_series("bogus", p["t"]),
        rhs=lambda p: gf_series("opt", p["t"]),
        domain=lambda p: True,
        default_params=((("t", 2),),),
    )
    monkeypatch.setattr(congruences, "step_registry", lambda: {"BOGUS": bogus})
    report = congruences.verify_dissection_step("BOGUS", {"t": 2}, 6)
    assert not report.ok and report.error == "unknown generating function kind 'bogus'"


def test_gf_leaves_are_cleared_in_an_exact_case(monkeypatch):
    # GF leaves are eta leaves: the unit clears them, so no exact series is inverted
    inverted = []
    invert = Series.invert
    monkeypatch.setattr(Series, "invert", lambda s: inverted.append(s.ring) or invert(s))
    ETA.euler_product.cache_clear()
    ETA._F1_MEMOS.clear()
    cases = [
        IdentityCase("OPT2", gf_series("opt", 2), eta_series("f1^-4 * f2^6 * f4^-2")),
        IdentityCase(
            "SUM",
            gf_series("overpartition", 3) + gf_series("opt", 1),
            gf_series("opt", 1) + eta_series("f1^-6 * f2^3"),
        ),
    ]
    assert str(denominator(cases[0])) == "f1^4 * f4^2"
    assert str(denominator(cases[1])) == "f1^6 * f4"
    for case in cases:
        assert verify_identity(case, 400).ok, case.key
    assert EXACT not in inverted


def test_zero_substitution_step_is_reported_past_a_denominator():
    case = IdentityCase("step-zero", eta_series("f2^-3"), theta_series("h", 0))
    assert denominator(case) == EtaQuotient(((2, 3),))
    report = verify_identity(case, 10)
    assert report.error == "substitution step must be >= 1, got 0"


def test_denominator_takes_scales_through_substitutions():
    registry = identity_registry()
    assert str(denominator(registry["D4"])) == "f1^3 * f3^12"
    assert str(denominator(registry["D1"])) == "f4^2 * f8 * f16^2"
    assert str(denominator(registry["D3"])) == "f2 * f6 * f9 * f18"
    assert denominator(registry["D2"]) == denominator(registry["JACOBI"]) == EtaQuotient()
    # cleared, the lhs of D4 is f3^12: no negative power of f1 is left
    assert evaluate(registry["D4"].lhs, EXACT, 300, denominator(registry["D4"])) == evaluate(
        eta_series("f3^12"), EXACT, 300
    )


def _terms(recipe):
    """The terms of a (nested) sum, each with its sign and scalar."""
    if isinstance(recipe, SumRecipe):
        return [t for term in recipe.terms for t in _terms(term)]
    return [recipe]


def _mutants(case):
    terms = _terms(case.rhs)
    for i in range(len(terms)):
        flipped = terms[:i] + [ScaleRecipe(-1, terms[i])] + terms[i + 1 :]
        yield f"sign-{i}", case._replace(rhs=SumRecipe(tuple(flipped)))
    factors = case.lhs.quotient.factors
    for i, (scale, exponent) in enumerate(factors):
        for delta in (1, -1):
            bumped = factors[:i] + ((scale, exponent + delta),) + factors[i + 1 :]
            yield f"f{scale}{delta:+d}", case._replace(lhs=EtaRecipe(EtaQuotient(bumped)))


@pytest.mark.parametrize("key", ["D1", "D1SQ", "D3", "D4"])
def test_dissection_mutants_fail_where_the_plain_check_does(key):
    case = identity_registry()[key]
    assert denominator(case).factors  # the check runs cleared
    kinds = set()
    for name, mutant in _mutants(case):
        report = verify_identity(mutant, 300)
        ok, mismatch, error = plain_check(mutant, 300)
        assert not ok and mismatch is not None, name
        assert (report.ok, report.mismatch, report.error) == (ok, mismatch, error), name
        kinds.add(name.split("-")[0][0])
    assert kinds == {"s", "f"}


def test_exact_checks_run_no_power_recurrence(monkeypatch):
    # Cleared sides ask for no negative power, so no exact series is inverted.
    inverted = []
    invert = Series.invert
    monkeypatch.setattr(Series, "invert", lambda s: inverted.append(s.ring) or invert(s))
    ETA.euler_product.cache_clear()
    ETA._F1_MEMOS.clear()
    exact = [case for case in builtin_identities() if case.modulus is None]
    assert {case.key for case in exact} >= {"D1", "D1SQ", "D3", "D4"}
    for case in exact:
        assert verify_identity(case, 500).ok, case.key
    assert EXACT not in inverted


def test_a_cleared_sum_multiplies_by_its_untaken_factors_once(monkeypatch):
    # D4's rhs a(q^3) + 3q b(q^3) + 9q^2 c(q^3) takes the f3^12 of its unit
    # f1^3 f3^12 into every leaf, and f1^3 into none, so the three summands
    # are added first and multiplied by f1^3 once.  With cold memos the check
    # at order 2000 makes 3 full-order products: 2 expand f1^3 and 1
    # multiplies the sum (5 when each summand was multiplied by f1^3).
    ETA.euler_product.cache_clear()
    ETA._F1_MEMOS.clear()
    orders = []
    product = Series.__mul__

    def counted(a, b):
        orders.append(min(a.order, b.order))
        return product(a, b)

    monkeypatch.setattr(Series, "__mul__", counted)
    assert verify_identity(identity_registry()["D4"], 2000).ok
    assert orders.count(2000) == 3


def test_summands_keep_the_unit_factors_they_take(monkeypatch):
    # The eta leaf takes the whole unit, the Jacobi series none of it and
    # a(q^3) its f3^10: each is evaluated with what it takes, and the sum is
    # the plain one times the unit.
    unit = EtaQuotient(((1, 3), (3, 10)))  # clears f1^-3 and a(q^3) = A(q^3)^2 f9^3 / f3^10
    recipe = eta_series("f1^-3") + jacobi_series() + 2 * qshift(theta_series("a", 3), 1)
    inverted = []
    invert = Series.invert
    monkeypatch.setattr(Series, "invert", lambda s: inverted.append(s.ring) or invert(s))
    for ring, order in ((EXACT, 60), (Zmod(9), 40)):
        want = evaluate(recipe, ring, order) * evaluate(eta_series(str(unit)), ring, order)
        assert ring in inverted  # the plain sum expands f1^-3
        ETA.euler_product.cache_clear()
        ETA._F1_MEMOS.clear()
        inverted.clear()
        assert evaluate(recipe, ring, order, unit) == want, ring
        assert inverted == [], ring


def test_congruence_checks_keep_the_empty_unit(monkeypatch):
    units = []
    real = identities.evaluate

    def spy(recipe, ring, order, unit=EtaQuotient()):
        units.append(unit)
        return real(recipe, ring, order, unit)

    monkeypatch.setattr(identities, "evaluate", spy)
    for case in builtin_identities():
        if case.modulus is not None:
            assert verify_identity(case, 100).ok, case.key
    assert main(["replay", "--order", "60", "--format", "json"], out=io.StringIO()) == 0
    assert len(units) > 2 * 11 and set(units) == {EtaQuotient()}


def _cold_convolutions(argv):
    """The exit code and the ``_convolve_mod`` and ``_convolve_packed`` calls
    of one command run in a fresh interpreter, so no memo is warm."""
    script = (
        "import io, overq.series as s, overq.cli as cli\n"
        "n = {}\n"
        "def counted(name):\n"
        "    real = getattr(s, name)\n"
        "    def count(*args):\n"
        "        n[name] = n.get(name, 0) + 1\n"
        "        return real(*args)\n"
        "    setattr(s, name, count)\n"
        "counted('_convolve_mod'), counted('_convolve_packed')\n"
        f"code = cli.main({argv!r} + ['--format', 'json'], out=io.StringIO())\n"
        "print(code, n.get('_convolve_mod', 0), n.get('_convolve_packed', 0))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stderr == ""
    return done.stdout.split()


def test_replay_modular_convolutions_are_pinned():
    # replay --order 500 makes 729 modular convolutions (1,022 when each f_1
    # memo started from f_1 alone) and no exact one; a GF leaf is an eta leaf,
    # so at t = 1 it reuses the f_1 powers the other tuple sizes built
    assert _cold_convolutions(["replay", "--order", "500"]) == ["0", "729", "0"]


def test_identities_convolutions_are_pinned():
    # identities --order 2000 makes 134 modular and 41 exact convolutions
    # (212 and 53 when each f_1 memo started from f_1 alone): each B1
    # right-hand side starts from its left-hand side's memo
    assert _cold_convolutions(["identities", "--order", "2000"]) == ["0", "134", "41"]
