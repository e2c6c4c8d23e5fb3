import inspect
import itertools
import math
import random
import sys
import textwrap
import threading

import pytest
from conftest import corrupt_mod16_row, family_variant

import overq.congruences as congruences
from overq.congruences import (
    BudgetError,
    CongruenceFamily,
    RunConfig,
    SeriesProvider,
    Witness,
    binomial_table,
    builtin_families,
    builtin_steps,
    check_family,
    default_grid,
    family_registry,
    replay_binomial_tables,
    run_families,
    step_registry,
    verify_dissection_step,
)
from overq.eta import (
    GF_BASE,
    EtaQuotient,
    euler_product,
    expand_eta_quotient,
    family_gf,
    overpartition_gf,
)
from overq.expr import evaluate, gf_series
from overq.identities import IdentityCase, verify_identity
from overq.oracle import count_overpartition_tuples
from overq.series import EXACT, Series, Zmod, one

EXPECTED_FAMILY_KEYS = [
    "opt-3n+1-mod-3^i2",
    "opt-3n+1-mod-3^i2-l1",
    "opt-3n+1-mod-3^i2^{j+1}",
    "opt-3n+2-mod-3^{i+1}2",
    "opt-3n+2-mod-3^{i+1}2-l1",
    "opt-3n+2-mod-3^{i+1}2^{j+2}",
    "opt-8n+2-mod-2^{2i+1}",
    "opt-8n+4-mod-2^{2i+4}",
    "opt-8n+6-mod-2^{2i+3}",
    "opt-8n+7-mod-2^{i+4}",
    "pbar-16n+10-mod8",
    "pbar-16n+14-mod16",
    "pbar-2^{2a+2}n+2^{2a+1}-mod4",
    "pbar-2^{2a+2}n+3*2^{2a}-mod4",
    "pbar-2^{2a+3}n+2^{2a}-mod4-tri",
    "pbar-2^{2a+3}n+5*2^{2a}-mod4",
    "pbar-4n+3-mod16",
    "pbar-4n+3-mod8",
    "pbar-8n+1-mod2",
    "pbar-8n+2-mod4",
    "pbar-8n+3-mod8",
    "pbar-8n+4-mod2",
    "pbar-8n+5-mod8",
    "pbar-8n+6-mod16",
    "pbar-8n+6-mod8",
    "pbar-8n+7-mod32",
    "pbar-n-mod2",
]


def test_registry_is_complete_and_stable():
    families = builtin_families()
    assert [f.key for f in families] == EXPECTED_FAMILY_KEYS
    statuses = {f.key: f.status for f in families}
    assert statuses["opt-8n+4-mod-2^{2i+4}"] == "conjecture"
    assert statuses["opt-3n+2-mod-3^{i+1}2-l1"] == "conjecture"
    assert statuses["opt-8n+7-mod-2^{i+4}"] == "theorem"


def test_registry_pinned_keys():
    registry = family_registry()
    f = registry["pbar-8n+7-mod32"]
    assert f.point({"t": 0}) == congruences._Point(
        step=8, offset=7, modulus=32, size=0, params={"t": 0}
    )
    g = registry["opt-3n+2-mod-3^{i+1}2^{j+2}"]
    point = {"i": 1, "j": 1, "k": 1}
    assert g.point(point) == congruences._Point(3, 2, modulus=72, size=6, params=point)
    assert g.point({"i": 1, "j": 1, "k": 3}) is None


def test_describe_carries_registry_metadata():
    info = family_registry()["pbar-8n+7-mod32"].describe()
    assert info["key"] == "pbar-8n+7-mod32"
    assert info["progression"] == "8n+7"
    assert info["modulus"] == "32"
    assert info["status"] == "theorem"
    assert "statement" in info and "pbar" in info["statement"]


def test_check_family_mod_32_progression():
    registry = family_registry()
    config = RunConfig(t_max=8, n_max=40)
    family = registry["pbar-8n+7-mod32"]
    report = check_family(family, default_grid(family, config), config.n_max)
    assert report.ok and report.verdict == "pass"
    assert report.params_tried == 9
    assert report.coeffs_checked == 9 * 41


def test_triangular_residue_family():
    registry = family_registry()
    family = registry["pbar-2^{2a+3}n+2^{2a}-mod4-tri"]
    report = check_family(family, [family.point({"t": 1, "a": 0})], 12)
    assert report.ok
    # spot-check the residues directly against the oracle
    counts = count_overpartition_tuples(1, 8 * 12 + 1)
    for n in range(13):
        residue = counts.count(8 * n + 1) % 4
        assert residue == (2 if n in (0, 1, 3, 6, 10) else 0)


def test_odd_tuple_family_low_point():
    registry = family_registry()
    family = registry["opt-3n+1-mod-3^i2^{j+1}"]
    report = check_family(family, [family.point({"i": 1, "j": 1, "k": 1})], 0)
    assert report.ok  # the n = 0 value is 12, divisible by 12


def test_check_family_exact_cross_check():
    registry = family_registry()
    rng = random.Random(7)
    keys = rng.sample(EXPECTED_FAMILY_KEYS, 3)
    config = RunConfig(t_max=3, i_max=1, j_max=1, alpha_max=0, n_max=8)
    for key in keys:
        family = registry[key]
        grid = default_grid(family, config)[:2]
        check_family(family, grid, config.n_max, exact_check=True)  # raises on disagreement


def test_failing_family_produces_witnesses():
    registry = family_registry()
    base = registry["pbar-8n+7-mod32"]
    wrong = family_variant(base, key="pbar-wrong", modulus_text="128")
    report = check_family(wrong, [wrong.point({"t": 1})], 10)
    assert not report.ok
    assert report.failures > 0
    assert report.witnesses, "fail requires at least one witness"
    w = report.witnesses[0]
    assert w.n == 0 and w.value == 64  # pbar(7) = 64: divisible by 32, not 128


def test_conjecture_families_report_but_never_block():
    registry = family_registry()
    family = registry["opt-8n+4-mod-2^{2i+4}"]
    report = check_family(family, [family.point({"i": 1, "r": 1})], 5)
    assert report.verdict == "conjecture-fail"
    assert not report.blocking
    w = report.witnesses[0]
    assert w.params == (("i", 1), ("r", 1))
    assert (w.n, w.value, w.modulus, w.expected) == (0, 32, 64, 0)


def test_open_conjectures_hold_on_other_progressions():
    registry = family_registry()
    grid = [{"i": i, "r": r} for i in (1, 2) for r in (1, 3)]
    for key in ("opt-8n+2-mod-2^{2i+1}", "opt-8n+6-mod-2^{2i+3}"):
        family = registry[key]
        report = check_family(family, [family.point(p) for p in grid], 30)
        assert report.verdict == "conjecture-pass", key


def test_wide_multiplier_reading_passes_numerically():
    registry = family_registry()
    config = RunConfig(i_max=2, n_max=25)
    for key in ("opt-3n+2-mod-3^{i+1}2-l1", "opt-3n+1-mod-3^i2-l1"):
        family = registry[key]
        grid = [p for p in default_grid(family, config) if p.params["l"] == 1]
        assert grid, "wide reading must include l = 1"
        report = check_family(family, grid, config.n_max)
        assert report.verdict == "conjecture-pass", key


def test_domain_constraints_restrict_grid():
    registry = family_registry()
    family = registry["pbar-4n+3-mod16"]
    config = RunConfig(t_max=11, n_max=4)
    grid = default_grid(family, config)
    assert [p.params["t"] for p in grid] == [0, 2, 3, 4, 6, 7, 8, 10, 11]
    report = check_family(family, grid, config.n_max)
    assert report.ok
    assert report.params_tried == 9


def test_check_family_rejects_out_of_domain_points():
    family = family_registry()["pbar-4n+3-mod16"]
    with pytest.raises(ValueError, match="grid point 0 is outside the domain of pbar-4n"):
        check_family(family, [family.point({"t": 5})], 4)


def test_run_families_evaluates_each_point_once(monkeypatch):
    # The grid evaluates the point expression at every candidate on the
    # axes, and run_families plans the orders and check_family scans from
    # the points it keeps, evaluating nothing again.
    config = RunConfig(n_max=5, t_max=6, alpha_max=1, i_max=2, j_max=1)
    families = builtin_families()
    evaluated = []

    def counted(code, *scope):
        evaluated.append(code.co_filename)
        return eval(code, *scope)

    monkeypatch.setattr(congruences, "eval", counted, raising=False)
    reports = run_families(families, config)
    candidates = sum(
        math.prod(
            getattr(config, congruences.GRID_CAPS[name]) + 1
            if name in congruences.GRID_CAPS else congruences.ODD_MULTIPLIER_CAP + 1
            for name in family.params
        )
        for family in families
    )
    assert len(evaluated) == candidates
    # check_family reads the points it is handed, and a None among them
    # (a point outside the domain) is still an error
    family = next(family for family in families if family.key == "pbar-4n+3-mod16")
    points = [family.point({"t": t}) for t in (2, 2, 7, 5)]
    evaluated.clear()
    check_family(family, points[:3], 5)
    assert evaluated == []
    with pytest.raises(ValueError, match="grid point 3 is outside the domain"):
        check_family(family, points, 5)


def test_default_run_evaluates_2649_points(monkeypatch):
    # All 27 families on the default grid: 2,649 candidates, each evaluated
    # once, of which 1,833 are in their domains and scanned (4,482
    # evaluations when check_family evaluated its points again, and 6,315
    # when the orders were planned from a third pass).
    calls = []
    point = CongruenceFamily.point

    def counted(self, params):
        calls.append(self.key)
        return point(self, params)

    monkeypatch.setattr(CongruenceFamily, "point", counted)
    families = builtin_families()
    reports = run_families(families, RunConfig())
    assert len(families) == 27
    assert sum(report.params_tried for report in reports) == 1833
    assert len(calls) == 2649


def test_mod_two_families_mean_the_gf_is_one():
    # the all-n mod-2 claim is equivalent to GF == 1 over Z/2
    provider = SeriesProvider()
    for t in (0, 1, 4, 9):
        series = provider.gf("overpartition", t, 2, 120)
        assert series.coeff(0) == 1
        assert all(c == 0 for c in series.coeffs[1:])


def test_primes_only_filters_prime_scan_families():
    registry = family_registry()
    config = RunConfig(t_max=12, primes_only=True)
    grid = default_grid(registry["pbar-8n+7-mod32"], config)
    assert [p.params["t"] for p in grid] == [2, 3, 5, 7, 11]
    grid = default_grid(registry["pbar-16n+14-mod16"], config)
    assert [p.params["t"] for p in grid] == list(range(13))  # not a prime-scan family


STEPPED_SIZES = {
    # not a power of 2, so no binomial table: every size is stepped to by the ladder
    ("opt", 72): (0, 1, 2, 3, 6, 9, 30, 36, 42, 66, 78, 180, 252, 468),
    ("opt", 2592): (0, 1, 3, 216, 1080, 1512, 2376, 2808),
    ("overpartition", 2592): (0, 1, 2, 5, 4, 9, 17, 64),
    # a power of 2: every size is read off the binomial table
    ("opt", 1024): (0, 1, 2, 4, 8, 24, 40, 56, 72, 88, 104, 120, 255, 511),
}


def test_provider_steps_powers_incrementally():
    for (kind, modulus), sizes in STEPPED_SIZES.items():
        rng = random.Random(modulus)
        requests = [*sizes, *rng.choices(sizes, k=len(sizes))]
        rng.shuffle(requests)
        provider = SeriesProvider()
        for t in requests:
            want = _reference_gf(kind, t, modulus, 40)
            assert provider.gf(kind, t, modulus, 40) == want, (kind, modulus, t)
        # shrinking the requested order truncates a cached series
        short = provider.gf(kind, requests[0], modulus, 10)
        assert short == _reference_gf(kind, requests[0], modulus, 10), (kind, modulus)


def _reference_gf(kind, t, modulus, order):
    """base^t expanded directly as one eta quotient, bypassing the provider."""
    base = GF_BASE[kind]
    scaled = EtaQuotient(tuple((s, e * t) for s, e in base.factors))
    return expand_eta_quotient(scaled, Zmod(modulus), order)


def _powers(provider, kind, modulus):
    """The memo keys of the bucket expanded mod ``modulus``."""
    return set(provider._buckets[(kind, modulus)]["powers"])


@pytest.mark.parametrize("kind", ["overpartition", "opt"])
@pytest.mark.parametrize("modulus", [2**k for k in range(1, 11)])
def test_provider_period_matches_direct_expansion(kind, modulus):
    # Both bases are 1 + 2q + ..., so base^t mod 2^k is read off the binomial
    # table for every t.  Sweep t to modulus + 3, at most 130.
    provider = SeriesProvider()
    for t in range(min(modulus + 3, 130) + 1):
        assert provider.gf(kind, t, modulus, 60) == _reference_gf(kind, t, modulus, 60), t
    assert provider._buckets[(kind, modulus)]["table"] is not None
    # no t was stepped to; base^1 is in every memo
    assert max(_powers(provider, kind, modulus)) < max(modulus // 2, 2)


@pytest.mark.parametrize("kind", ["overpartition", "opt"])
def test_provider_period_holds_on_the_decimal_path(kind):
    provider = SeriesProvider()
    for t in range(8):
        assert provider.gf(kind, t, 4, 3001) == _reference_gf(kind, t, 4, 3001), t
    assert _powers(provider, kind, 4) == {0, 1}


def test_provider_period_serves_lower_orders_and_is_found_again_on_rebuild():
    provider = SeriesProvider()
    provider.reserve("overpartition", 16, 80)
    for t in (3, 8, 11, 19, 24):
        got = provider.gf("overpartition", t, 16, 25)
        assert got.order == 25
        assert got == _reference_gf("overpartition", t, 16, 25), t
    provider.gf("opt", 5, 32, 20)
    assert provider._buckets[("opt", 32)]["order"] == 20
    for t in (5, 21, 37):
        assert provider.gf("opt", t, 32, 90) == _reference_gf("opt", t, 32, 90), t
    assert provider._buckets[("opt", 32)]["order"] == 90
    assert provider._buckets[("opt", 32)]["table"] is not None
    assert max(_powers(provider, "opt", 32)) < 16  # 5, 21 and 37 came off the table


def test_bucket_refuses_a_base_that_is_not_one_plus_2x(monkeypatch):
    # f1^-1 = 1 + q + 2q^2 + ...: a binomial table of its powers would be wrong
    def base(kind, t, ring, order):
        return expand_eta_quotient(EtaQuotient(((1, -t),)), ring, order)

    monkeypatch.setattr(congruences, "family_gf", base)
    for modulus in (8, 16, 2592):
        with pytest.raises(RuntimeError, match=f"overpartition base mod {modulus} is not 1 \\+ 2X"):
            SeriesProvider().gf("overpartition", 3, modulus, 40)
    # an odd modulus has no binomial table, so any base steps by the ladder
    want = expand_eta_quotient(EtaQuotient(((1, -3),)), Zmod(9), 40)
    assert SeriesProvider().gf("overpartition", 3, 9, 40) == want


@pytest.mark.parametrize("kind", ["overpartition", "opt"])
@pytest.mark.parametrize("modulus", [6, 2592])
def test_provider_gives_no_period_to_other_moduli(kind, modulus):
    provider = SeriesProvider()
    sizes = (0, 1, 2, 5, 4, 9)
    for t in sizes:
        assert provider.gf(kind, t, modulus, 40) == _reference_gf(kind, t, modulus, 40), t
    assert _powers(provider, kind, modulus) >= set(sizes)  # each t served at t itself


# The grid of the wide golden run, off the default on every axis.
WIDE_CONFIG = RunConfig(n_max=60, t_max=20, alpha_max=1, i_max=4, j_max=2)


@pytest.mark.parametrize("config", [RunConfig(), WIDE_CONFIG], ids=["default", "wide"])
def test_default_grid_is_each_axis_as_the_paper_states_it(config):
    # The axes in the paper's words, written out here rather than read off the
    # domain texts: k coprime to 6; l odd, 3 not dividing l, l != 1 (the -l1
    # wide reading admits l = 1); odd r; i, j >= 1; t mod 4 in {0, 2, 3} for
    # the two sharper mod-16 families.  The multipliers run to 15.
    for family in builtin_families():
        axes = {
            "t": [t for t in range(config.t_max + 1)
                  if t % 4 != 1 or family.key not in ("pbar-4n+3-mod16", "pbar-8n+6-mod16")],
            "a": range(config.alpha_max + 1),
            "i": range(1, config.i_max + 1),
            "j": range(1, config.j_max + 1),
            "r": range(1, 16, 2),
            "k": (1, 5, 7, 11, 13),
            "l": (1, 5, 7, 11, 13) if family.key.endswith("-l1") else (5, 7, 11, 13),
        }
        want = [dict(zip(family.params, point))
                for point in itertools.product(*(axes[name] for name in family.params))]
        assert [point.params for point in default_grid(family, config)] == want, family.key


def test_a_parameter_with_no_grid_axis_is_an_error():
    family = family_variant(family_registry()["opt-8n+7-mod-2^{i+4}"], key="opt-s",
                            params=("i", "s"), size_text="2^i * s", domain_text="i >= 1, s odd")
    assert family.point({"i": 1, "s": 3}) is not None
    with pytest.raises(ValueError, match="parameter 's' of opt-s has no grid axis"):
        default_grid(family, RunConfig())


def _power_of_2_moduli(*configs):
    return sorted({
        modulus
        for config in configs
        for family in builtin_families()
        for point in default_grid(family, config)
        if (modulus := point.modulus) & (modulus - 1) == 0
    })


@pytest.mark.parametrize("kind", ["overpartition", "opt"])
def test_binomial_table_is_bit_identical_to_direct_expansion(kind):
    moduli = _power_of_2_moduli(RunConfig(), WIDE_CONFIG)
    assert moduli == [2**k for k in range(1, 13)]
    own, by_multiple, by_mixed = SeriesProvider(), SeriesProvider(), SeriesProvider()
    for modulus in moduli:  # ascending, so each builds a bucket of its own
        own.reserve(kind, modulus, 40)
    by_multiple.reserve(kind, 2 * moduli[-1], 40)
    by_mixed.reserve(kind, 2592, 40)  # 2^5 * 3^4: serves 2 .. 32
    for modulus in moduli:
        providers = [own, by_multiple] + [by_mixed] * (2592 % modulus == 0)
        for t in range(71):
            want = _reference_gf(kind, t, modulus, 40)
            for provider in providers:
                assert provider.gf(kind, t, modulus, 40) == want, (modulus, t)
                got = provider.values(kind, t, modulus, 40, 3, 4, 12)
                assert list(got) == list(want.coeffs[4::3]), (modulus, t)
    assert set(own._buckets) == {(kind, modulus) for modulus in moduli}
    assert set(by_multiple._buckets) == {(kind, 2 * moduli[-1])}
    assert set(by_mixed._buckets) == {(kind, 2592)} and by_mixed._buckets[kind, 2592]["table"]
    for provider in (own, by_multiple, by_mixed):
        assert all(set(bucket["powers"]) == {0, 1} for bucket in provider._buckets.values())


@pytest.mark.parametrize("kind", ["overpartition", "opt"])
@pytest.mark.parametrize("modulus", [16, 1024, 6, 72, 2592])  # table, then ladder
def test_values_is_the_slice_of_gf(kind, modulus):
    provider = SeriesProvider()
    provider.reserve(kind, 2592, 60)  # serves 16, 6 and 72 reduced
    slices = ((3, 7, 10), (8, 23, 5), (2, 5, 100), (1, 0, 60), (5, 59, 3), (4, 61, 3))
    for step, offset, count in slices:  # offset >= step, and slices cut by the order
        for t in (0, 1, 6, 13, 40):
            whole = provider.gf(kind, t, modulus, 60)
            got = provider.values(kind, t, modulus, 60, step, offset, count)
            assert list(got) == list(whole.coeffs[offset::step][:count]), (step, offset, t)
    table = provider._buckets.get((kind, modulus), provider._buckets[kind, 2592])["table"]
    assert (table is not None) == (modulus & (modulus - 1) == 0)


@pytest.mark.parametrize("modulus", [1, 0, -4])
def test_values_rejects_a_modulus_below_2_before_any_bucket(modulus):
    # Once with no bucket of the kind, and once after one is built (a power
    # of 2, so a modulus of 1 would otherwise reach the binomial table).
    provider = SeriesProvider()
    for _ in range(2):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {modulus}"):
            provider.values("opt", 3, modulus, 10, 1, 0, 10)
        provider.reserve("opt", 32, 10)
    assert set(provider._buckets) == {("opt", 32)}


def _check_class_memo(kind, modulus):
    """Every t = 0..4m mod m, read off the binomial table of a bucket mod
    1024, against base^t stepped to by one multiply each; the slice's memo."""
    order = 48
    provider = SeriesProvider()
    provider.reserve(kind, 1024, order)
    base = family_gf(kind, 1, Zmod(modulus), order)
    power = one(Zmod(modulus), order)
    for t in range(4 * modulus + 1):
        got = provider.values(kind, t, modulus, order, 2, 1, 24)
        assert got == list(power.coeffs[1::2]), (kind, modulus, t)
        got[0] += 1  # a copy: the memo keeps its own
        power = power * base
    (entry,) = provider._buckets[kind, 1024]["slices"].values()
    return entry[3]


@pytest.mark.parametrize("kind", ["overpartition", "opt"])
@pytest.mark.parametrize("modulus", [2**k for k in range(1, 11)])
def test_class_memo_matches_stepped_powers(kind, modulus):
    # t = 0..4m runs through every class of t mod m/2 eight times or more
    assert len(_check_class_memo(kind, modulus)) == modulus // 2


@pytest.mark.parametrize("kind", ["overpartition", "opt"])
@pytest.mark.parametrize("modulus", [2**k for k in range(1, 11)])
def test_base_has_period_half_the_modulus(kind, modulus):
    # So t mod m/2 is the coarsest class of t to key the memo by; t mod m,
    # or the weight vector (C(t, j) mod m)_j, is right too but keeps more.
    base = family_gf(kind, 1, Zmod(modulus), 200)
    assert base ** (modulus // 2) == one(Zmod(modulus), 200)
    if modulus >= 4:
        assert base ** (modulus // 4) != one(Zmod(modulus), 200)


@pytest.mark.parametrize("modulus", [8, 1024])
def test_a_memo_keyed_by_too_coarse_a_class_fails(modulus, monkeypatch):
    source = textwrap.dedent(inspect.getsource(SeriesProvider._binomial))
    assert source.count("param % (modulus >> 1)") == 1
    namespace = dict(vars(congruences))
    exec(source.replace("param % (modulus >> 1)", "param % (modulus >> 2)"), namespace)
    monkeypatch.setattr(SeriesProvider, "_binomial", namespace["_binomial"])
    with pytest.raises(AssertionError):
        _check_class_memo("opt", modulus)


def test_a_smaller_multiple_serves_once_it_is_built():
    # _bucket remembers which bucket serves a request; building one forgets
    # that, so the smallest-multiple rule still holds.
    provider = SeriesProvider()
    provider.reserve("opt", 1024, 40)
    assert provider._bucket("opt", 4, 40) is provider._buckets["opt", 1024]
    provider.reserve("opt", 8, 100)  # the bucket mod 1024 is too short to serve it
    assert provider._bucket("opt", 4, 40) is provider._buckets["opt", 8]
    assert provider._bucket("opt", 8, 100) is provider._buckets["opt", 8]
    assert provider._bucket("opt", 1024, 40) is provider._buckets["opt", 1024]
    want = _reference_gf("opt", 5, 4, 40)
    assert provider.values("opt", 5, 4, 40, 1, 0, 40) == list(want.coeffs)


def _expansions(monkeypatch):
    """Record the (kind, modulus, order) of every base the provider expands."""
    calls = []

    def recorder(kind, t, ring, order):
        calls.append((kind, ring.modulus, order))
        return family_gf(kind, t, ring, order)

    monkeypatch.setattr(congruences, "family_gf", recorder)
    return calls


@pytest.mark.parametrize(
    "kind, multiple, modulus",
    [("opt", 1024, 256), ("opt", 1024, 8), ("overpartition", 32, 16), ("opt", 2592, 72),
     ("opt", 2592, 32), ("overpartition", 2592, 6)],
)
def test_bucket_derived_from_a_multiple_matches_expansion(monkeypatch, kind, multiple, modulus):
    calls = _expansions(monkeypatch)
    provider = SeriesProvider()
    provider.reserve(kind, multiple, 70)
    for t in (0, 1, 2, 3, 5, 6, 12, 35, 36, 100):
        assert provider.gf(kind, t, modulus, 60) == _reference_gf(kind, t, modulus, 60), t
    assert calls == [(kind, multiple, 70)]  # the divisor expanded nothing
    assert set(provider._buckets) == {(kind, multiple)}  # and has no bucket of its own


def test_power_of_2_request_is_served_by_a_mixed_multiple(monkeypatch):
    calls = _expansions(monkeypatch)
    provider = SeriesProvider()
    provider.reserve("opt", 2592, 50)
    for modulus in (16, 32, 64):  # 2592 = 2^5 * 3^4, so 64 needs a bucket of its own
        for t in range(41):
            got = provider.gf("opt", t, modulus, 50)
            assert got == _reference_gf("opt", t, modulus, 50), (modulus, t)
    assert calls == [("opt", 2592, 50), ("opt", 64, 50)]
    assert set(provider._buckets) == {("opt", 2592), ("opt", 64)}


@pytest.mark.parametrize("kind", ["overpartition", "opt"])
def test_reserving_ascending_or_descending_gives_the_same_buckets(kind):
    moduli = (6, 8, 32, 72, 128, 1024, 2592)
    providers = {"ascending": SeriesProvider(), "descending": SeriesProvider()}
    for modulus in moduli:
        providers["ascending"].reserve(kind, modulus, 50)
    for modulus in reversed(moduli):
        providers["descending"].reserve(kind, modulus, 50)
    # a divisor reserved after its multiple is served by it; ascending, none is
    assert set(providers["ascending"]._buckets) == {(kind, m) for m in moduli}
    assert set(providers["descending"]._buckets) == {(kind, 1024), (kind, 2592)}
    for modulus in moduli:
        for t in (0, 1, 7, 30, 65, 216):
            want = _reference_gf(kind, t, modulus, 50)
            for name, provider in providers.items():
                assert provider.gf(kind, t, modulus, 50) == want, (name, modulus, t)


def test_bucket_is_expanded_when_no_multiple_serves_it(monkeypatch):
    calls = _expansions(monkeypatch)
    provider = SeriesProvider()
    provider.reserve("opt", 1024, 40)  # a multiple of 256, but of too low an order
    provider.reserve("opt", 96, 100)  # a high order, but 64 does not divide 96
    provider.reserve("overpartition", 64, 100)  # another kind
    for modulus in (64, 256):  # 64 first: it divides 256
        for t in (1, 3, 20, 45):
            got = provider.gf("opt", t, modulus, 80)
            assert got == _reference_gf("opt", t, modulus, 80), (modulus, t)
        assert provider._buckets[("opt", modulus)]["table"] is not None
    assert calls == [
        ("opt", 1024, 40), ("opt", 96, 100), ("overpartition", 64, 100),
        ("opt", 64, 80), ("opt", 256, 80),
    ]


def test_scan_multiply_count_and_expansions_stay_pinned(monkeypatch):
    # A cold run of every family on the default grid (the bench `scan` job)
    # makes 93 multiplies and 181 modular convolutions of total length
    # 96,639, and expands 5 bases; every other modulus is served from a built
    # multiple.  Inverses convolve without multiplying, so both are counted;
    # Newton in q makes many short convolutions, so their total length is
    # capped too.  Working orders are whole blocks of A, so 8n+4, 8n+6 and
    # 8n+7 share 1608 and opt mod 512 and 128 read the mod-1024 bucket.
    eta = sys.modules["overq.eta"]  # the package's eta function shadows the submodule
    series = sys.modules["overq.series"]
    for memo in (euler_product, eta._f1_powers):
        memo.cache_clear()
    calls = _expansions(monkeypatch)
    products, lengths = [], []
    product, convolve = Series.__mul__, series._convolve_mod

    def counted(a, b):
        products.append(None)
        return product(a, b)

    def counted_convolve(a, b, n, m):
        lengths.append(n)
        return convolve(a, b, n, m)

    monkeypatch.setattr(Series, "__mul__", counted)
    monkeypatch.setattr(series, "_convolve_mod", counted_convolve)
    requests, tabled = [], []
    values, binomial = SeriesProvider.values, SeriesProvider._binomial

    def recorded(self, kind, param, modulus, *rest):
        requests.append(modulus)
        return values(self, kind, param, modulus, *rest)

    def from_table(self, bucket, param, modulus, where):
        tabled.append(modulus)
        return binomial(self, bucket, param, modulus, where)

    monkeypatch.setattr(SeriesProvider, "values", recorded)
    monkeypatch.setattr(SeriesProvider, "_binomial", from_table)
    provider = SeriesProvider()
    run_families(builtin_families(), RunConfig(), provider=provider)
    assert len(products) <= 93
    assert len(lengths) == 181
    assert sum(lengths) <= 96_639
    expanded = [
        ("overpartition", 32, 1608), ("overpartition", 16, 3216), ("overpartition", 4, 25728),
        ("opt", 2592, 603), ("opt", 1024, 1608),
    ]
    assert calls == expanded
    assert set(provider._buckets) == {(kind, modulus) for kind, modulus, _ in expanded}
    # every power-of-2 request is read off a binomial table, none off a ladder
    assert tabled == [m for m in requests if m & (m - 1) == 0]
    for (kind, modulus), bucket in provider._buckets.items():
        if modulus & (modulus - 1) == 0:
            assert set(bucket["powers"]) == {0, 1}, (kind, modulus)
        if bucket["table"] is not None:  # N_j for j < v2(M)
            assert len(bucket["table"]) == (modulus & -modulus).bit_length() - 1, (kind, modulus)


def test_scan_sums_once_per_class(monkeypatch):
    # The default grid of every family (the bench `scan` job) asks for 1,689
    # power-of-2 slices.  They fall in 372 weight vectors (C(t, j) mod 2^k)_j
    # and in 148 classes of t mod 2^(k-1): only those make a sum and reduce it.
    requests, sums = [], []
    binomial, residues = SeriesProvider._binomial, congruences._slot_residues

    def counted(self, bucket, param, modulus, where):
        requests.append(modulus)
        return binomial(self, bucket, param, modulus, where)

    def summed(data, width, n, m):
        sums.append(m)
        return residues(data, width, n, m)

    monkeypatch.setattr(SeriesProvider, "_binomial", counted)
    monkeypatch.setattr(congruences, "_slot_residues", summed)
    provider = SeriesProvider()
    run_families(builtin_families(), RunConfig(), provider=provider)
    assert len(requests) == 1689
    assert len(sums) == 148
    slices = [entry for bucket in provider._buckets.values() for entry in bucket["slices"].values()]
    assert sum(len(entry[3]) for entry in slices) == len(sums)


def test_bucket_unit_and_table_step_are_the_plain_series():
    # A bucket's base^0 (``one``) and its table's N_1 are built with no
    # canonicalising pass; they must be the series 1 and base - 1 that the
    # canonicalising constructor and subtraction give.
    provider = SeriesProvider()
    run_families(builtin_families(), RunConfig(), provider=provider)
    tables = 0
    for (kind, modulus), bucket in provider._buckets.items():
        unit, base = bucket["powers"][0], bucket["powers"][1]
        plain = Series(Zmod(modulus), [1] + [0] * (bucket["order"] - 1))
        assert unit.ring == plain.ring and unit.coeffs == plain.coeffs, (kind, modulus)
        if bucket["table"] is not None:
            tables += 1
            step = bucket["table"][1]
            assert step.ring == base.ring and step.coeffs == (base - plain).coeffs, (kind, modulus)
    assert tables == 4  # every bucket of a power-of-2 modulus


def test_run_families_refuses_an_over_budget_order_before_any_build(monkeypatch):
    calls = _expansions(monkeypatch)
    registry = family_registry()
    families = [registry["pbar-n-mod2"], registry["pbar-2^{2a+3}n+5*2^{2a}-mod4"]]
    config = RunConfig(t_max=1, alpha_max=4, n_max=20000)
    provider = SeriesProvider()
    with pytest.raises(BudgetError, match=r"5\*2\^\{2a\}-mod4: working order 2560128 "):
        run_families(families, config, provider=provider)
    assert calls == [] and provider._buckets == {}


def test_provider_exact_matches_modular():
    provider = SeriesProvider()
    for t in (1, 3):
        modular = provider.gf("opt", t, 16, 30)
        exact = provider.gf_exact("opt", t, 30)
        assert exact.reduce_ring(16) == modular


def test_provider_is_thread_safe():
    provider = SeriesProvider()
    results = [None] * 8

    def worker(idx):
        results[idx] = provider.gf("overpartition", idx % 4, 4, 64)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    lone = SeriesProvider()
    for idx in range(8):
        assert results[idx] == lone.gf("overpartition", idx % 4, 4, 64)


def test_provider_rejects_bad_kind():
    with pytest.raises(ValueError):
        SeriesProvider().gf("nope", 1, 4, 10)


def test_provider_exact_rejects_bad_kind_and_negative_parameter():
    with pytest.raises(ValueError, match="unknown generating function kind"):
        SeriesProvider.gf_exact("bogus", 1, 6)
    with pytest.raises(ValueError, match="tuple size"):
        SeriesProvider.gf_exact("overpartition", -1, 6)


def test_every_gf_consumer_reads_the_one_base(monkeypatch):
    # Swap the overpartition base for phi(-q)^-2 = f2^2 / f1^4: the provider,
    # the exact-ring GF, recipes and the public builder must all follow, as
    # they read the phi table.
    monkeypatch.setitem(sys.modules["overq.eta"]._GF_THETAS, "overpartition", ((1, -2),))
    SeriesProvider.gf_exact.cache_clear()
    try:
        provider = SeriesProvider()
        for t in (0, 1, 3):
            want = expand_eta_quotient(EtaQuotient(((1, -4 * t), (2, 2 * t))), EXACT, 30)
            assert provider.gf("overpartition", t, 8, 30) == want.reduce_ring(8), t
            assert SeriesProvider.gf_exact("overpartition", t, 30) == want, t
            assert evaluate(gf_series("overpartition", t), EXACT, 30) == want, t
            assert overpartition_gf(t, EXACT, 30) == want, t
    finally:
        SeriesProvider.gf_exact.cache_clear()


# --- binomial tables -----------------------------------------------------------


def test_table_shapes():
    assert len(binomial_table(16)) == 8
    assert len(binomial_table(32)) == 16
    with pytest.raises(ValueError):
        binomial_table(64)


def test_mod16_row_two():
    import math

    got = tuple((math.comb(14, r) * (-2) ** r) % 16 for r in (1, 2, 3))
    assert got == (4, 12, 0)
    assert binomial_table(16)[2] == (2, 4, 12, 0)


def test_mod32_row_three():
    import math

    got = tuple((math.comb(45, r) * (-2) ** r) % 32 for r in (1, 2, 3, 4))
    assert got == (6, 24, 16, 16)
    assert binomial_table(32)[3] == (3, 6, 24, 16, 16)


def test_mod32_row_zero_is_trivial():
    assert binomial_table(32)[0] == (0, 0, 0, 0, 0)


def test_replay_both_widths():
    for width in (16, 32):
        report = replay_binomial_tables(width)
        assert report.ok
        assert report.rows_checked == (8 if width == 16 else 16)
        # every row is recomputed at two parameters witnessing periodicity
        assert report.entries_checked == report.rows_checked * 2 * (3 if width == 16 else 4)


# --- dissection steps ------------------------------------------------------------


def test_step_registry_keys():
    keys = [s.key for s in builtin_steps()]
    assert keys == [
        "G16",
        "G32",
        "G4-even",
        "G4-odd",
        "M1",
        "opt-2n+1",
        "opt-2n+1-i1",
        "opt-4n+3-i1",
    ]


def test_all_steps_pass_at_default_parameters():
    for step in builtin_steps():
        for point in step.default_params:
            report = verify_dissection_step(step.key, dict(point), 150)
            assert report.ok, (step.key, point)


def test_step_examples():
    assert verify_dissection_step("G4-odd", {"t": 3}, 400).ok
    assert verify_dissection_step("M1", {"t": 5}, 400).ok
    assert verify_dissection_step("G4-even", {"t": 2}, 1).ok


def test_step_rejects_unknown_key():
    with pytest.raises(KeyError):
        verify_dissection_step("nope", {}, 10)


def test_step_rejects_missing_and_out_of_domain_params():
    with pytest.raises(ValueError):
        verify_dissection_step("G4-odd", {}, 10)
    with pytest.raises(ValueError):
        verify_dissection_step("G4-even", {"t": 3}, 10)
    with pytest.raises(ValueError):
        verify_dissection_step("opt-2n+1", {"i": 1, "r": 1}, 10)  # i = 1 has its own step
    with pytest.raises(ValueError):
        verify_dissection_step("G4-odd", {"t": 3, "i": 2}, 50)  # G4-odd takes no i


def test_step_rejects_excessive_order():
    with pytest.raises(ValueError):
        verify_dissection_step("M1", {"t": 1}, 10**9)


def test_step_is_the_identity_case_at_its_point():
    for step in builtin_steps():
        for point in step.default_params:
            params = dict(point)
            modulus = step.modulus(params)
            case = IdentityCase(step.key, step.lhs(params), step.rhs(params), modulus, point)
            report = verify_dissection_step(step.key, params, 150)
            assert report == verify_identity(case, 150), (step.key, point)
            assert (report.params, report.modulus) == (point, modulus)


def test_failing_step_reports_its_first_mismatch(monkeypatch):
    corrupt_mod16_row(monkeypatch)  # the row the replay-fail golden uses
    report = verify_dissection_step("G16", {"t": 3}, 150)
    assert (report.status, report.mismatch, report.error) == ("FAIL", (3, 0, 8), None)
    assert report.describe() == "q^3: 0 != 8"
    assert (report.params_text(), report.mode) == ("t=3", "mod 16")


def test_witness_params_text():
    w = Witness(params=(("i", 1), ("r", 3)), n=2, value=8, modulus=16, expected=0)
    assert w.params_text() == "i=1;r=3"


# --- the scan against a per-coefficient walk ------------------------------------


def _is_triangular(n):
    # n = k(k+1)/2 iff 8n+1 is a perfect square; exact integer test.
    root = math.isqrt(8 * n + 1)
    return root * root == 8 * n + 1


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_tri_residues_match_the_per_n_rule(t):
    tri = family_registry()["pbar-2^{2a+3}n+2^{2a}-mod4-tri"]
    for n_max in range(301):
        want = [2 if t % 2 == 1 and _is_triangular(n) else 0 for n in range(n_max + 1)]
        assert tri.expected({"t": t, "a": 0}, n_max) == want, n_max


def _walk_family(family, grid, n_max, provider, witness_cap):
    """The scan as a plain loop over n: the reference check_family must match."""
    failures, coeffs, witnesses = 0, 0, []
    for params in grid:
        step, offset, modulus, size, _ = family.point(params)
        order = step * n_max + offset + 1
        series = provider.gf(family.kind, size, modulus, order)
        for n in range(n_max + 1):
            value = series.coeff(step * n + offset)
            expected = 0 if family.expected is None else family.expected(params, n_max)[n]
            expected %= modulus
            coeffs += 1
            if value != expected:
                failures += 1
                if len(witnesses) < witness_cap:
                    witnesses.append(
                        Witness(tuple(sorted(params.items())), n, value, modulus, expected)
                    )
    return len(grid), coeffs, failures, tuple(witnesses)


def _wrong_families():
    def twos_at_triangular_for_every_t(p, n_max):
        return [2 if _is_triangular(n) else 0 for n in range(n_max + 1)]

    registry = family_registry()
    tri = registry["pbar-2^{2a+3}n+2^{2a}-mod4-tri"]
    return {
        # Zero residue, modulus too large: most coefficients fail.
        "zero": (family_variant(registry["pbar-8n+7-mod32"], modulus_text="128"),
                 [{"t": t} for t in range(6)]),
        # The -tri rule without its "t odd" condition: even t fail at triangular n.
        "tri": (family_variant(tri, expected=twos_at_triangular_for_every_t),
                [{"t": t, "a": a} for t in range(4) for a in range(2)]),
    }


@pytest.mark.parametrize("name", ["zero", "tri"])
@pytest.mark.parametrize("witness_cap", [0, 3, 10, 1000])
def test_check_family_matches_per_coefficient_walk(name, witness_cap, monkeypatch):
    monkeypatch.setattr(congruences, "WITNESS_CAP", witness_cap)
    family, grid = _wrong_families()[name]
    provider = SeriesProvider()
    report = check_family(family, [family.point(p) for p in grid], 30, provider=provider)
    expected = _walk_family(family, grid, 30, provider, witness_cap)
    got = (report.params_tried, report.coeffs_checked, report.failures, report.witnesses)
    assert got == expected
    assert report.failures > 10  # past the shipped cap of 10, every failure is still counted
    if name == "tri":  # the failures are even t at triangular n: 0 where 2 is expected
        assert all((w.value, w.expected) == (0, 2) for w in report.witnesses)


class _CorruptProvider(SeriesProvider):
    """Serves each progression with the coefficient at q^index changed, or
    with the GF cut short at order index."""

    def __init__(self, index, shorten=False):
        super().__init__()
        self.index, self.shorten = index, shorten

    def values(self, kind, param, modulus, order, step, offset, count):
        if self.shorten:
            return super().values(kind, param, modulus, self.index, step, offset, count)
        values = list(super().values(kind, param, modulus, order, step, offset, count))
        exponents = range(offset, order, step)[:count]
        if self.index in exponents:
            n = exponents.index(self.index)
            values[n] = (values[n] + 1) % modulus
        return values


def test_exact_check_refuses_a_wrong_modular_coefficient():
    family = family_registry()["pbar-8n+7-mod32"]
    points = [family.point({"t": 3})]
    disagreement = r"modular/exact disagreement in pbar-8n\+7-mod32 at params=\{'t': 3\}, n=2$"
    with pytest.raises(RuntimeError, match=disagreement):
        check_family(family, points, 5, provider=_CorruptProvider(8 * 2 + 7), exact_check=True)
    # Without the gate the same corruption is only a failed coefficient.
    report = check_family(family, points, 5, provider=_CorruptProvider(8 * 2 + 7))
    assert [w.n for w in report.witnesses] == [2]


def test_scan_of_a_short_series_is_an_error():
    family = family_registry()["pbar-8n+7-mod32"]
    with pytest.raises(IndexError, match=r"q\^3 is beyond truncation order 3"):
        check_family(
            family, [family.point({"t": 3})], 5, provider=_CorruptProvider(8 * 3, shorten=True)
        )
