import io
import math
import sys

import pytest
from conftest import RING_POOL
from hypothesis import given, strategies as st

from overq.cli import main
from overq.congruences import SeriesProvider
from overq.series import EXACT, Series, Zmod, one
from overq.eta import (
    GF_BASE,
    EtaQuotient,
    borwein_a,
    eta,
    euler_product,
    expand_eta_quotient,
    family_gf,
    jacobi_triangular,
    opt_gf,
    overpartition_gf,
    theta_component,
)
from overq.oracle import count_opt_tuples, count_overpartition_tuples

ETA = sys.modules["overq.eta"]  # the package's eta function shadows the submodule


def direct_product_coeffs(scale, order):
    # multiply out prod (1 - q^{scale*n}) term by term, no pentagonal shortcut
    coeffs = [0] * order
    coeffs[0] = 1
    n = scale
    while n < order:
        for i in range(order - 1, n - 1, -1):
            coeffs[i] -= coeffs[i - n]
        n += scale
    return coeffs


# --- euler products ----------------------------------------------------------


def test_euler_product_low_coefficients():
    f1 = euler_product(1, EXACT, 13)
    assert f1.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)


def test_euler_product_matches_direct_expansion():
    for scale in (1, 2, 3):
        assert list(euler_product(scale, EXACT, 120).coeffs) == direct_product_coeffs(scale, 120)


def test_euler_product_is_a_substitution():
    f1 = euler_product(1, EXACT, 200)
    for scale in (2, 3, 4, 6, 8, 12, 16):
        assert f1.substitute_power(scale) == euler_product(scale, EXACT, 200)


def test_euler_product_support():
    for scale in (2, 5):
        s = euler_product(scale, EXACT, 100)
        assert s.coeff(0) == 1
        assert all(s.coeff(n) == 0 for n in range(1, 100) if n % scale)


def test_euler_cube_is_alternating_triangular_series():
    assert euler_product(1, EXACT, 500) ** 3 == jacobi_triangular(EXACT, 500)


def test_euler_product_rejects_zero_scale():
    with pytest.raises(ValueError):
        euler_product(0, EXACT, 10)


# --- eta quotient type and parser ---------------------------------------------


def test_parse_round_trip():
    q = EtaQuotient.parse("f2^3 * f1^-2 * f4^-1")
    assert q.factors == ((1, -2), (2, 3), (4, -1))
    assert str(q) == "f1^-2 * f2^3 * f4^-1"
    assert EtaQuotient.parse(str(q)) == q


def test_parse_merges_duplicate_scales():
    assert eta("f2 * f2^2") == eta("f2^3")
    assert eta("f2 * f2^-1") == EtaQuotient(())


def test_zero_exponents_are_dropped():
    assert EtaQuotient(((1, 0), (3, 2))) == EtaQuotient(((3, 2),))


def test_unit_quotient_prints_as_one():
    assert str(EtaQuotient(())) == "1"
    assert EtaQuotient.parse("1") == EtaQuotient(())


def test_parse_rejects_garbage():
    for text in ("", "g3", "f0", "f2^^3", "f2 + f3"):
        with pytest.raises(ValueError):
            EtaQuotient.parse(text)


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=20), st.integers(min_value=-5, max_value=5)),
        max_size=6,
    )
)
def test_parser_round_trips_arbitrary_quotients(factors):
    q = EtaQuotient(tuple(factors))
    assert EtaQuotient.parse(str(q)) == q


# --- expansion ----------------------------------------------------------------


def test_expand_unit_quotient():
    assert expand_eta_quotient(EtaQuotient(((1, 0),)), EXACT, 5) == one(EXACT, 5)


def test_expand_overpartition_quotient():
    s = expand_eta_quotient(eta("f2 * f1^-2"), EXACT, 8)
    assert s.coeffs == (1, 2, 4, 8, 14, 24, 40, 64)
    assert list(s.coeffs) == list(count_overpartition_tuples(1, 7).counts)


def test_expand_odd_tuple_quotient_constant_term():
    s = expand_eta_quotient(eta("f2^3 * f1^-2 * f4^-1"), EXACT, 6)
    assert s.coeff(0) == 1


# --- cubic theta series --------------------------------------------------------


def test_borwein_a_counts():
    s = borwein_a(EXACT, 4)
    assert s.coeff(0) == 1
    assert (s.coeff(1), s.coeff(2), s.coeff(3)) == (6, 0, 6)


def test_borwein_a_vanishes_on_2_mod_3():
    s = borwein_a(EXACT, 501)
    assert all(s.coeff(n) == 0 for n in range(2, 501, 3))


def test_borwein_a_is_divisible_by_six():
    s = borwein_a(EXACT, 501)
    assert all(c >= 0 for c in s.coeffs)
    assert all(s.coeff(n) % 6 == 0 for n in range(1, 501))


def test_theta_component_m_is_euler_cube():
    assert theta_component("m", EXACT, 60) == euler_product(3, EXACT, 60) ** 3


def test_theta_component_d_constant_term():
    assert theta_component("d", EXACT, 10).coeff(0) == 1


def test_theta_component_h_low_coefficient():
    assert theta_component("h", EXACT, 4).coeff(1) == 5  # (1 + 6q)(1 - q) = 1 + 5q - ...


def test_theta_component_alias_A():
    assert theta_component("A", EXACT, 20) == borwein_a(EXACT, 20)


def test_theta_component_unknown_name():
    with pytest.raises(ValueError):
        theta_component("z", EXACT, 5)


# --- generating functions -------------------------------------------------------


def test_overpartition_gf_empty_tuple():
    assert overpartition_gf(0, EXACT, 6) == one(EXACT, 6)


def test_overpartition_gf_matches_oracle():
    counts = count_overpartition_tuples(1, 10)
    s = overpartition_gf(1, EXACT, 11)
    assert list(s.coeffs) == list(counts.counts)
    assert s.coeff(7) == 64


def test_overpartition_pairs_value():
    assert overpartition_gf(2, EXACT, 4).coeff(3) == 32
    assert count_overpartition_tuples(2, 3).count(3) == 32


def test_opt_gf_empty_tuple():
    assert opt_gf(0, EXACT, 6) == one(EXACT, 6)


def test_opt_gf_six_colors():
    s = opt_gf(6, EXACT, 3)
    assert s.coeff(1) == 12
    assert s.coeff(2) == 72
    table = count_opt_tuples(6, 2)
    assert table.count(1) == 12 and table.count(2) == 72


def test_gf_coefficients_count_objects():
    for t in range(9):
        s = overpartition_gf(t, EXACT, 200)
        assert all(c >= 0 for c in s.coeffs)
        s = opt_gf(t, EXACT, 200)
        assert all(c >= 0 for c in s.coeffs)


def test_gf_rejects_negative_parameter():
    with pytest.raises(ValueError):
        overpartition_gf(-1, EXACT, 5)
    with pytest.raises(ValueError):
        opt_gf(-2, EXACT, 5)


def test_family_gf_scales_each_base_and_rejects_bad_input():
    assert family_gf("overpartition", 3, EXACT, 40) == expand_eta_quotient(
        eta("f2^3 * f1^-6"), EXACT, 40
    )
    assert family_gf("opt", 2, Zmod(8), 40) == expand_eta_quotient(
        eta("f2^6 * f1^-4 * f4^-2"), Zmod(8), 40
    )
    with pytest.raises(ValueError, match="unknown generating function kind"):
        family_gf("bogus", 1, EXACT, 5)
    with pytest.raises(ValueError, match="tuple size"):
        family_gf("opt", -1, EXACT, 5)


# --- GFs from phi(-q) --------------------------------------------------------


def test_gf_bases_read_as_the_paper_states_them():
    # derived from the phi table by phi(-q^s) = f_s^2 / f_2s
    assert str(GF_BASE["overpartition"]) == "f1^-2 * f2"
    assert str(GF_BASE["opt"]) == "f1^-2 * f2^3 * f4^-1"


def _eta_only(monkeypatch):
    """Make family_gf fail if it expands an eta quotient, so a GF it returns
    came from phi(-q)."""

    def refuse(*args):
        raise AssertionError("expanded as an eta quotient")

    monkeypatch.setattr(ETA, "expand_eta_quotient", refuse)


@pytest.mark.parametrize("kind", sorted(GF_BASE))
@pytest.mark.parametrize("ring", RING_POOL, ids=str)
def test_base_from_theta_matches_eta_expansion(kind, ring, monkeypatch):
    # the eta expansion is the independent reference for the phi route; an
    # exact 7-tuple GF to order 3001 takes seconds, so the exact ring stops at 601
    orders = (1, 2, 70, 3001) if ring.is_modular else (1, 2, 70, 601)
    want = {
        (t, n): expand_eta_quotient(GF_BASE[kind] ** t, ring, n)
        for t in (0, 1, 2, 7)
        for n in orders
    }
    _eta_only(monkeypatch)
    for (t, order), series in want.items():
        assert family_gf(kind, t, ring, order) == series, (t, order)


@pytest.mark.parametrize(
    "kind, modulus, order",
    [("overpartition", 32, 1608), ("overpartition", 16, 3216), ("overpartition", 4, 25728),
     ("opt", 2592, 603), ("opt", 1024, 1608)],
)
def test_base_from_theta_matches_eta_expansion_at_the_scan_buckets(kind, modulus, order):
    ring = Zmod(modulus)
    assert family_gf(kind, 1, ring, order) == expand_eta_quotient(GF_BASE[kind], ring, order)


def test_mod_4_bases_convolve_at_most_once(monkeypatch):
    # 1/phi(-q) mod 4 is a closed form, so at the scan's order 25,728 the
    # overpartition base convolves nothing and opt only phi(-q^2) times it
    series = sys.modules["overq.series"]
    convolve, calls = series._convolve_mod, []

    def counted(*args):
        calls.append(None)
        return convolve(*args)

    monkeypatch.setattr(series, "_convolve_mod", counted)
    for kind, want in (("overpartition", 0), ("opt", 1)):
        calls.clear()
        family_gf(kind, 1, Zmod(4), 25728)
        assert len(calls) == want, kind


def test_prime_power_reduction_instances():
    f1_exact = euler_product(1, EXACT, 500)
    for p in (2, 3):
        for k in range(1, 6):
            modulus = p**k
            lhs = (f1_exact ** (p**k)).reduce_ring(modulus)
            rhs = (f1_exact.substitute_power(p) ** (p ** (k - 1))).reduce_ring(modulus)
            assert lhs == rhs, (p, k)


def test_a_long_rung_ladder_does_not_recurse():
    # f1^(2^k) == f_(2^k) (mod 2), which is 1 below q^10 for k = 600
    ETA._f1_powers.cache_clear()
    assert expand_eta_quotient(EtaQuotient(((1, 2**600),)), Zmod(2), 10) == one(Zmod(2), 10)


def test_every_power_ladder_runs_bottom_up():
    # Exponents of thousands of bits through each caller of the one ladder,
    # past where a ladder recursing once per bit raises RecursionError.  Mod 2
    # the opt base 1 + 2X is 1, and mod 3 every unit 1 + qY to order 10 has
    # (1 + qY)^27 = 1 + q^27 Y^27 = 1, so mod 6 base^(2^1100) is
    # base^(2^1100 mod 27).
    values = SeriesProvider().values("opt", 2**1100, 6, 10, 1, 0, 10)
    assert values == list(family_gf("opt", pow(2, 1100, 27), Zmod(6), 10).coeffs)
    x = Series(Zmod(6), [1, 1] + [0] * 8)
    assert (x ** 2**3000).coeffs == tuple(math.comb(2**3000, j) % 6 for j in range(10))
    ETA._f1_powers.cache_clear()
    assert expand_eta_quotient(EtaQuotient(((1, 2**3000),)), Zmod(2), 10) == one(Zmod(2), 10)


def test_replay_multiply_count_stays_under_the_rung_ladder_ceiling(monkeypatch):
    # A cold in-process `replay --order 500` makes 726 multiplies with f1
    # powers stepped over one memo per ring, order and sign, against 1,163
    # with shared rungs g^(2^k) multiplied at the set bits of each exponent
    # and 2,998 with each power built from f1 afresh; the ceiling is about
    # 10% above the first.
    for memo in (euler_product, ETA._f1_powers):
        memo.cache_clear()
    calls = []
    product = Series.__mul__

    def counted(a, b):
        calls.append(None)
        return product(a, b)

    monkeypatch.setattr(Series, "__mul__", counted)
    assert main(["replay", "--order", "500", "--format", "json"], out=io.StringIO()) == 0
    assert len(calls) <= 800
