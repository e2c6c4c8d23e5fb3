import math
import sys

import pytest

from overq.series import (
    _DECIMAL_CUTOFF,
    EXACT,
    Ring,
    Series,
    Zmod,
    _convolve_packed,
    _convolve_schoolbook,
    _invert_recurrence,
    make_series,
    mismatches,
    one,
    spread,
)
from overq.eta import euler_product


def poly_mul(a, b, n):
    # tiny reference used to derive expected values independently of Series
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


# --- rings -------------------------------------------------------------------


def test_ring_canon():
    assert EXACT.canon(-5) == -5
    assert Zmod(4).canon(5) == 1
    assert Zmod(4).canon(-1) == 3


def test_ring_modulus_must_be_at_least_two():
    with pytest.raises(ValueError):
        Ring(1)
    with pytest.raises(ValueError):
        Zmod(0)


def test_unit_inverse():
    assert EXACT.unit_inverse(-1) == -1
    assert Zmod(9).unit_inverse(2) == 5
    with pytest.raises(ValueError):
        EXACT.unit_inverse(2)
    with pytest.raises(ValueError):
        Zmod(8).unit_inverse(6)


# --- construction ------------------------------------------------------------


def test_make_series_constant():
    s = make_series(EXACT, [1], 4)
    assert s.coeffs == (1, 0, 0, 0)


def test_make_series_canonical_reduction():
    s = make_series(Zmod(4), [5, -1], 3)
    assert s.coeffs == (1, 3, 0)
    assert s.to_text() == "1 + 3*q + 0*q^2 (mod 4; O(q^3))"


def test_make_series_round_trip():
    s = make_series(EXACT, [1, 2, 4, 8], 4)
    assert s.coeff(3) == 8
    assert s[3] == 8


def test_make_series_rejects_zero_order():
    with pytest.raises(ValueError):
        make_series(EXACT, [1], 0)


def test_make_series_rejects_excess_coeffs():
    with pytest.raises(ValueError):
        make_series(EXACT, [1, 2, 3], 2)


def test_series_is_immutable_and_hashable():
    s = make_series(EXACT, [1, 2], 3)
    with pytest.raises(AttributeError):
        s.ring = Zmod(2)
    assert hash(s) == hash(make_series(EXACT, [1, 2], 3))
    assert s == make_series(EXACT, [1, 2], 3)
    assert s != make_series(EXACT, [1, 2], 4)


def test_to_text_negative_coefficients():
    s = make_series(EXACT, [1, -1, 0, 2], 4)
    assert s.to_text() == "1 - 1*q + 0*q^2 + 2*q^3 (exact; O(q^4))"


def test_coeff_out_of_range():
    s = make_series(EXACT, [1], 2)
    with pytest.raises(IndexError):
        s.coeff(2)


# --- add / sub / neg ---------------------------------------------------------


def test_add_cancels():
    a = make_series(EXACT, [1, 1], 2)
    b = make_series(EXACT, [1, -1], 2)
    assert (a + b).coeffs == (2, 0)


def test_add_neg_gives_zero():
    s = make_series(EXACT, [3, -2, 7], 3)
    assert (s + (-s)).is_zero()


def test_characteristic_two():
    s = make_series(Zmod(2), [1, 1], 2)
    assert (s + s).is_zero()


def test_binary_ops_truncate_to_min_order():
    a = make_series(EXACT, [1, 2, 3], 3)
    b = make_series(EXACT, [1, 1], 2)
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert (a - b).order == 2


def test_ring_mismatch_raises():
    a = make_series(EXACT, [1], 2)
    b = make_series(Zmod(2), [1], 2)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError):
            op()


# --- mul ---------------------------------------------------------------------


def test_mul_telescopes():
    a = make_series(EXACT, [1, -1], 4)
    b = make_series(EXACT, [1, 1, 1, 1], 4)
    assert (a * b).coeffs == (1, 0, 0, 0)


def test_mul_square():
    s = make_series(EXACT, [1, 1], 3)
    assert (s * s).coeffs == (1, 2, 1)


def test_mul_f1_squared_low_coefficient():
    # expand prod_{n<=2} (1 - q^n) = 1 - q - q^2 + q^3 and square it
    hand = poly_mul([1, -1, -1, 1], [1, -1, -1, 1], 3)
    assert hand[2] == -1
    f1 = euler_product(1, EXACT, 3)
    assert (f1 * f1).coeff(2) == -1


def test_kernels_agree_on_fixed_cases():
    cases = [
        ([1, -1, 2], [3, 0, -5], 3),
        (list(range(40)), list(range(40, 0, -1)), 40),
        ([10**30, -(10**31), 7], [1, 2, 3], 3),
        ([0, 0, 0], [1, 2, 3], 3),
    ]
    for a, b, n in cases:
        assert _convolve_packed(a, b, n) == _convolve_schoolbook(a, b, n)


# --- invert ------------------------------------------------------------------


def test_invert_geometric():
    s = make_series(EXACT, [1, -1], 8)
    assert s.invert().coeffs == (1,) * 8


def test_invert_is_involution_on_euler_product():
    f1 = euler_product(1, EXACT, 50)
    assert f1.invert().invert() == f1


def test_invert_gives_partition_numbers():
    # independent DP: p(n) by bounded-part counting
    upto = 5
    table = [1] + [0] * upto
    for part in range(1, upto + 1):
        for n in range(part, upto + 1):
            table[n] += table[n - part]
    assert table == [1, 1, 2, 3, 5, 7]
    inv = euler_product(1, EXACT, 6).invert()
    assert list(inv.coeffs) == table


def test_invert_mul_is_one():
    s = make_series(Zmod(9), [2, 5, 1, 7], 4)
    assert (s * s.invert()) == one(Zmod(9), 4)


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        make_series(EXACT, [2, 1], 3).invert()
    with pytest.raises(ValueError):
        make_series(Zmod(8), [6, 1], 3).invert()


def test_invert_matches_recurrence(rng, monkeypatch):
    from conftest import RING_POOL, random_unit_series

    def even_tail(ring, order):
        # a0 + 2X, which Z/2 and Z/4 invert in closed form; random units seldom have it
        units = (1, -1, 3, 5) if ring.modulus and math.gcd(ring.modulus, 15) == 1 else (1, -1)
        tail = [2 * rng.randint(-9, 9) for _ in range(order - 1)]
        return Series(ring, [rng.choice(units), *tail])

    for ring in RING_POOL:
        s = random_unit_series(rng, ring, 70)
        assert s.invert() == _invert_recurrence(s)
        s = even_tail(ring, 70)
        assert s.invert() == _invert_recurrence(s), ring
    # residues in {0, 2} are "even" mod 3 too, but 1 + 2X has no closed form there
    s = Series(Zmod(3), [1, 2, *(rng.choice((0, 2)) for _ in range(68))])
    assert s.invert() == _invert_recurrence(s)
    # past the decimal cutoff: mod 8 and 32 take Newton in q, as a closed form would be wrong
    for ring in (Zmod(8), Zmod(32)):
        s = even_tail(ring, _DECIMAL_CUTOFF + 1)
        assert s.invert() == _invert_recurrence(s), ring
    # and mod 4 convolves nothing
    series = sys.modules["overq.series"]
    convolve, calls = series._convolve_mod, []

    def counted(*args):
        calls.append(None)
        return convolve(*args)

    s = even_tail(Zmod(4), _DECIMAL_CUTOFF + 1)
    monkeypatch.setattr(series, "_convolve_mod", counted)
    assert s.invert() == _invert_recurrence(s)
    assert calls == []


# --- pow ---------------------------------------------------------------------


def test_pow_cube():
    s = make_series(EXACT, [1, 1], 4)
    assert (s**3).coeffs == (1, 3, 3, 1)


def test_pow_zero_is_one():
    s = make_series(EXACT, [5, 1], 3)
    assert s**0 == one(EXACT, 3)


def test_pow_squares_to_substitution_mod_two():
    f1 = euler_product(1, Zmod(2), 100)
    assert f1**2 == f1.substitute_power(2)


def test_pow_exponent_additivity():
    s = make_series(EXACT, [1, 2, -1], 30)
    assert s**5 == (s**2) * (s**3)


def test_pow_negative_exponent():
    s = make_series(EXACT, [1, 1], 6)
    assert (s**-2) * (s**2) == one(EXACT, 6)


def test_pow_negative_requires_unit():
    with pytest.raises(ValueError):
        make_series(EXACT, [0, 1], 3) ** -1


# --- substitute_power --------------------------------------------------------


def test_substitute_power_basic():
    s = make_series(EXACT, [1, 1], 4)
    assert s.substitute_power(3).coeffs == (1, 0, 0, 1)


def test_substitute_power_identity():
    s = make_series(EXACT, [1, 2, 3], 3)
    assert s.substitute_power(1) is s


def test_substitute_power_matches_scaled_euler_product():
    f1 = euler_product(1, EXACT, 60)
    assert f1.substitute_power(2) == euler_product(2, EXACT, 60)


def test_substitute_power_rejects_zero():
    with pytest.raises(ValueError):
        make_series(EXACT, [1], 2).substitute_power(0)


def test_spread_builds_long_series_from_short_one():
    f1 = euler_product(1, EXACT, 60)
    for step in (1, 2, 3, 7):
        short = f1.truncate((60 - 1) // step + 1)
        assert spread(short, step, 60) == f1.substitute_power(step)


def test_spread_rejects_bad_arguments():
    s = make_series(EXACT, [1, 2, 3], 3)
    with pytest.raises(ValueError, match="step must be >= 1"):
        spread(s, 0, 3)
    with pytest.raises(ValueError, match="order must be >= 1"):
        spread(s, 2, 0)
    with pytest.raises(ValueError, match="needs order 4"):
        spread(s, 2, 7)  # exponent 6 would need the unknown coefficient 3


# --- dissect / shift ---------------------------------------------------------


def test_dissect_basic():
    s = make_series(EXACT, [1, 2, 3, 4], 4)
    assert s.dissect(2, 1).coeffs == (2, 4)


def test_dissect_identity():
    s = make_series(EXACT, [1, 2, 3], 3)
    assert s.dissect(1, 0) == s


def test_dissect_reconstruction_fixed():
    s = make_series(EXACT, list(range(1, 13)), 12)
    for m in (2, 3, 4):
        total = None
        for r in range(m):
            piece = s.dissect(m, r).substitute_power(m).shift(r)
            total = piece if total is None else total + piece
        assert total == s.truncate(total.order)
        for r in range(m):
            piece = s.dissect(m, r)
            for j in range(piece.order):
                assert piece.coeff(j) == s.coeff(m * j + r)


def test_dissect_rejects_bad_residue():
    s = make_series(EXACT, [1, 2, 3], 3)
    with pytest.raises(ValueError):
        s.dissect(2, 2)
    with pytest.raises(ValueError):
        s.dissect(0, 0)


def test_dissect_beyond_order():
    s = make_series(EXACT, [1], 1)
    with pytest.raises(ValueError):
        s.dissect(3, 2)


def test_shift_basic():
    s = make_series(EXACT, [1, 1], 4)
    assert s.shift(2).coeffs == (0, 0, 1, 1)


def test_shift_zero_is_identity():
    s = make_series(EXACT, [1, 2], 2)
    assert s.shift(0) is s


def test_shift_past_order():
    s = make_series(EXACT, [1, 2], 2)
    assert s.shift(5).coeffs == (0, 0)


def test_shift_then_dissect_index_algebra():
    s = make_series(EXACT, list(range(1, 11)), 10)
    lhs = s.shift(1).dissect(2, 1)
    rhs = s.dissect(2, 0)
    assert lhs == rhs.truncate(lhs.order)


# --- reduce_ring / truncate --------------------------------------------------


def test_reduce_ring_basic():
    s = make_series(EXACT, [1, -2], 2)
    assert s.reduce_ring(2).coeffs == (1, 0)


def test_reduce_ring_is_multiplicative():
    a = make_series(EXACT, [3, -1, 4], 3)
    b = make_series(EXACT, [2, 7, -5], 3)
    assert (a * b).reduce_ring(6) == a.reduce_ring(6) * b.reduce_ring(6)


def test_reduce_ring_on_euler_square():
    sq = euler_product(1, EXACT, 3) ** 2
    assert sq.reduce_ring(4).coeff(1) == 2  # -2q reduces to 2q mod 4


def test_reduce_ring_rejects_modular_input():
    s = make_series(Zmod(4), [1], 2)
    with pytest.raises(ValueError):
        s.reduce_ring(2)


def test_truncate():
    s = make_series(EXACT, [1, 2, 3], 3)
    assert s.truncate(2).coeffs == (1, 2)
    assert s.truncate(3) is s
    with pytest.raises(ValueError):
        s.truncate(4)
    with pytest.raises(ValueError):
        s.truncate(0)


def test_order_one_series_behave_as_scalars():
    a = make_series(EXACT, [3], 1)
    b = make_series(EXACT, [-2], 1)
    assert (a * b).coeffs == (-6,)
    assert (a + b).coeffs == (1,)
    assert (a**3).coeffs == (27,)


# --- mismatches ----------------------------------------------------------------


def _walk_mismatches(a, b):
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]


def test_mismatches_matches_an_enumerated_walk(rng):
    for _ in range(500):
        a = [rng.randint(0, 3) for _ in range(rng.randint(0, 30))]
        b = [x if rng.random() < 0.8 else rng.randint(0, 3) for x in a]
        if rng.random() < 0.3:
            b = b[: rng.randint(0, len(b))]
        else:
            b += [rng.randint(0, 3)] * rng.randint(0, 3)
        assert list(mismatches(a, b)) == _walk_mismatches(a, b)
        assert list(mismatches(tuple(a), b)) == _walk_mismatches(a, b)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((1, 2, 3), [1, 2, 3], []),  # a tuple against an equal list
        ((), [], []),
        ((5, 2, 3), (1, 2, 3), [0]),
        ((1, 2, 3), (1, 2, 4), [2]),
        ((1, 2), (1, 9, 3, 4), [1]),  # up to the shorter
        ((1, 2, 3, 4), (0,), [0]),
        ((1, 2, 3), range(1, 4), []),
        ((-1, 0, 2**80), (1, 0, 2**80 + 1), [0, 2]),
    ],
)
def test_mismatches_fixed_cases(a, b, expected):
    assert list(mismatches(a, b)) == expected == _walk_mismatches(a, b)


def test_mismatches_is_lazy():
    from itertools import count, repeat

    differing = mismatches(count(), repeat(0))  # endless inputs: only laziness ends this
    assert (next(differing), next(differing)) == (1, 2)
