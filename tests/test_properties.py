import inspect
import math
import random
import sys
import textwrap
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from conftest import RING_POOL, plain_check, random_unit_series
from overq import series as series_module
from overq.eta import (
    GF_BASE,
    THETA_COMPONENT_NAMES,
    EtaQuotient,
    _f1_power,
    _f1_powers,
    component_quotient,
    euler_product,
    expand_eta_quotient,
    family_gf,
    gf_mismatch,
)
from overq.expr import (
    DissectRecipe,
    EtaRecipe,
    JacobiRecipe,
    ScaleRecipe,
    ShiftRecipe,
    SubstRecipe,
    SumRecipe,
    ThetaRecipe,
    gf_series,
)
from overq.identities import IdentityCase, verify_identity
from overq.series import (
    _DECIMAL_CUTOFF,
    EXACT,
    Series,
    Zmod,
    _convolve_mod,
    _convolve_packed,
    _convolve_schoolbook,
    _invert_recurrence,
    _ladder,
    _pack_slots,
    _slot_residues,
    _slot_values,
    make_series,
    mismatches,
    one,
)

ETA = sys.modules["overq.eta"]  # the package's eta function shadows the submodule

rings = st.sampled_from(RING_POOL)
small_ints = st.integers(min_value=-20, max_value=20)


def series_over(ring, min_order=1, max_order=48, elements=small_ints):
    return st.lists(elements, min_size=min_order, max_size=max_order).map(
        lambda cs: Series(ring, cs)
    )


@st.composite
def series_triples(draw):
    ring = draw(rings)
    order = draw(st.integers(min_value=1, max_value=48))
    mk = lambda: Series(ring, [draw(small_ints) for _ in range(order)])
    return mk(), mk(), mk()


@st.composite
def unit_series(draw, max_order=40):
    ring = draw(rings)
    order = draw(st.integers(min_value=1, max_value=max_order))
    coeffs = [draw(small_ints) for _ in range(order)]
    coeffs[0] = draw(st.sampled_from([1, -1]))
    return Series(ring, coeffs)


@st.composite
def exact_pairs(draw, max_order=40):
    order = draw(st.integers(min_value=1, max_value=max_order))
    a = Series(EXACT, [draw(small_ints) for _ in range(order)])
    b = Series(EXACT, [draw(small_ints) for _ in range(order)])
    return a, b


@given(series_triples())
def test_mul_commutes(triple):
    a, b, _ = triple
    assert a * b == b * a


@given(series_triples())
def test_mul_associates(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@given(series_triples())
def test_mul_distributes_over_add(triple):
    a, b, c = triple
    assert a * (b + c) == a * b + a * c


@given(unit_series())
def test_invert_is_right_inverse(s):
    assert s * s.invert() == one(s.ring, s.order)


@given(unit_series(max_order=30))
def test_newton_matches_recurrence(s):
    assert s.invert() == _invert_recurrence(s)


@settings(deadline=None)
@given(
    unit_series(max_order=24),
    st.integers(min_value=-3, max_value=5),
    st.integers(min_value=-3, max_value=5),
)
def test_pow_is_additive_in_the_exponent(s, e1, e2):
    assert s ** (e1 + e2) == (s**e1) * (s**e2)


@settings(deadline=None)
@given(unit_series(max_order=12), st.lists(st.integers(min_value=1, max_value=40), max_size=8))
def test_ladder_over_a_shared_memo_matches_repeated_products(s, exponents):
    # one memo across scattered exponents, as the eta memos and the provider
    # buckets keep it: each power read from it is s times itself e - 1 times
    memo = {1: s}
    for e in exponents:
        want = s
        for _ in range(e - 1):
            want = want * s
        assert _ladder(memo, e) == want, e
    assert all(memo[d] == _binary_power(s, d) for d in memo)


def test_cold_ladder_costs_a_binary_power(monkeypatch):
    # bits(e) - 1 squarings and one product per further set bit, as the
    # step budget's cost model assumes, and no recursion at 3000 bits
    calls = []
    product = Series.__mul__
    monkeypatch.setattr(Series, "__mul__", lambda a, b: calls.append(a is b) or product(a, b))
    s = make_series(Zmod(9), [1, 1, 2], 5)
    for e in (1, 2, 3, 12, 255, 256, 3 << 3000):
        calls.clear()
        power = _ladder({1: s}, e)
        assert calls.count(True) == e.bit_length() - 1, e
        assert calls.count(False) == bin(e).count("1") - 1, e
        if e < 300:
            assert power == _binary_power(s, e), e


@settings(deadline=None)
@given(rings, st.integers(min_value=1, max_value=64), st.sampled_from([2, 3, 4, 8, 16]), st.data())
def test_dissection_reconstructs_series(ring, extra, m, data):
    order = m + extra  # ensure every residue class has a known coefficient
    s = Series(ring, [data.draw(small_ints) for _ in range(order)])
    total = None
    for r in range(m):
        piece = s.dissect(m, r).substitute_power(m).shift(r)
        total = piece if total is None else total + piece
    assert total == s.truncate(total.order)
    for r in range(m):
        piece = s.dissect(m, r)
        for j in range(piece.order):
            assert piece.coeff(j) == s.coeff(m * j + r)


_REDUCIBLE_OPS = (
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("pow3", lambda a, b: a**3),
    ("subst2", lambda a, b: a.substitute_power(2)),
    ("shift3", lambda a, b: a.shift(3)),
    ("dissect", lambda a, b: a.dissect(2, 1) if a.order > 1 else a),
)


@settings(deadline=None)
@given(
    exact_pairs(),
    st.sampled_from([2, 3, 4, 8, 9, 16, 32, 2592]),
    st.sampled_from(_REDUCIBLE_OPS),
)
def test_reduction_is_a_ring_homomorphism(pair, modulus, op):
    a, b = pair
    _, fn = op
    reduced = fn(a, b).reduce_ring(modulus)
    mapped = fn(a.reduce_ring(modulus), b.reduce_ring(modulus))
    assert reduced == mapped


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=1, max_size=80),
    st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=1, max_size=80),
)
def test_packed_kernel_matches_schoolbook(a, b):
    n = min(len(a), len(b))
    assert _convolve_packed(a, b, n) == _convolve_schoolbook(a, b, n)


@given(st.lists(st.integers(min_value=-(10**40), max_value=10**40), min_size=33, max_size=50))
def test_packed_kernel_handles_huge_coefficients(a):
    b = list(reversed(a))
    n = len(a)
    assert _convolve_packed(a, b, n) == _convolve_schoolbook(a, b, n)


def test_packed_kernel_thousand_randomized_cases():
    rng = random.Random(8201)
    for case in range(1000):
        n = rng.randint(1, 90)
        span = rng.choice([3, 100, 10**6, 10**18])
        a = [rng.randint(-span, span) for _ in range(n)]
        b = [rng.randint(-span, span) for _ in range(rng.randint(1, 90))]
        m = min(len(a), len(b))
        assert _convolve_packed(a, b, m) == _convolve_schoolbook(a, b, m), f"case {case}"
        # past the end of the product the coefficients are zeros
        m = len(a) + len(b) + 3
        assert _convolve_packed(a, b, m) == _convolve_schoolbook(a, b, m), f"case {case}"


# Every modular test ring, plus the largest modulus on the decimal path, one
# whose slots are a full 8 bytes at n = 33 and one whose slots are wider than
# 8 bytes (the generic fallback).  The orders run from the smallest products
# (slots pack at every order) through both sides of each cutoff.
_KERNEL_MODULI = tuple(r.modulus for r in RING_POOL if r.is_modular) + (256, 2**28 + 3, 2**31 - 1)
_KERNEL_ORDERS = (1, 2, 7, 8, 31, 32, 33, _DECIMAL_CUTOFF - 1, _DECIMAL_CUTOFF, _DECIMAL_CUTOFF + 1)


@pytest.fixture(params=["decimal", "no-decimal"])
def decimal_available(request, monkeypatch):
    """Run once as is and once as on an interpreter without the C decimal module."""
    if request.param == "no-decimal":
        monkeypatch.setattr(series_module, "_decimal_context", lambda: None)


def _sparse(rng, m, length, nonzeros=12):
    """Mostly-zero residues, so the schoolbook reference stays cheap at large n."""
    vals = [0] * length
    for i in rng.sample(range(length), min(nonzeros, length)):
        vals[i] = rng.choice([m - 1, rng.randrange(m)])
    return vals


@pytest.mark.parametrize("m", _KERNEL_MODULI)
def test_modular_kernel_matches_schoolbook(m, decimal_available, monkeypatch):
    # Once as the host is, and once as on a big-endian host, where every slot
    # packs and unpacks byte by byte.
    for byteorder in (sys.byteorder, "big"):
        monkeypatch.setattr(sys, "byteorder", byteorder)
        rng = random.Random(m)
        for n in _KERNEL_ORDERS:
            dense = [rng.randrange(m) for _ in range(n + 5)]
            shapes = (
                (_sparse(rng, m, n), dense[:n]),
                (_sparse(rng, m, n // 3 + 1), dense),  # an operand shorter than n
                (_sparse(rng, m, n + 5), dense[: rng.randint(1, n)]),
                (_sparse(rng, m, n // 3 + 1), dense[: n // 3 + 1]),  # product shorter than n
                ([0] * n, dense[:n]),
            )
            for a, b in shapes:
                expected = [c % m for c in _convolve_schoolbook(a, b, n)]
                got = _convolve_mod(tuple(a), tuple(b), n, m)
                assert got == expected, (byteorder, n, len(a), len(b))
                got = _convolve_mod(tuple(b), tuple(a), n, m)
                assert got == expected, (byteorder, n, len(b), len(a))


@pytest.mark.parametrize("m", _KERNEL_MODULI)
def test_modular_kernel_fills_its_slots(m, decimal_available):
    # With every coefficient m - 1, c_k = (k + 1)(m - 1)^2 reaches the slot bound at k = n - 1.
    for n in _KERNEL_ORDERS:
        top = (m - 1,) * n
        assert _convolve_mod(top, top, n, m) == [(k + 1) * (m - 1) ** 2 % m for k in range(n)]


@pytest.mark.parametrize("host", ["as is", "big-endian"])
def test_slot_helpers_round_trip_at_every_width(host, monkeypatch):
    # Slots wider than 8 bytes, and every slot on a big-endian host, take the
    # byte-by-byte path; the results must not depend on the path.
    if host == "big-endian":
        monkeypatch.setattr(sys, "byteorder", "big")
    rng = random.Random(11)
    for width in range(1, 12):
        vals = [rng.choice([0, 256**width - 1, rng.randrange(256**width)]) for _ in range(40)]
        packed = _pack_slots(vals, width)
        assert packed == sum(v << (8 * width * i) for i, v in enumerate(vals)), width
        data = packed.to_bytes(len(vals) * width, "little")
        for m in (2, 256, 512, 1000, 1024, 2**16, 2**64 + 13):
            assert list(_slot_residues(data, width, 40, m)) == [v % m for v in vals], (width, m)
            assert list(_slot_residues(data, width, 7, m)) == [v % m for v in vals[:7]], (width, m)
        # from 512 to 2^16 the low two bytes, read as an array("H") where the host allows
        for m in (512, 1024, 2**16):
            residues = _slot_residues(data, width, 40, m)
            assert isinstance(residues, array) == (sys.byteorder == "little"), (width, m)


@pytest.mark.parametrize("host", ["as is", "big-endian"])
def test_signed_slots_round_trip_at_every_width(host, monkeypatch):
    # The exact kernel packs signed values |v| < 2^(8*width - 1) and reads
    # its slots back offset by half the base.
    if host == "big-endian":
        monkeypatch.setattr(sys, "byteorder", "big")
    rng = random.Random(12)
    for width in range(1, 9):
        top = 2 ** (8 * width - 1) - 1
        mixed = [rng.choice([0, 1, -1, top, -top, rng.randint(-top, top)]) for _ in range(40)]
        rows = (mixed, [top, -top] * 20, [abs(v) for v in mixed], [-abs(v) or -top for v in mixed])
        half = top + 1
        offset = sum(half << (8 * width * i) for i in range(40))
        for vals in rows:
            packed = _pack_slots(vals, width)
            assert packed == sum(v << (8 * width * i) for i, v in enumerate(vals)), width
            data = (packed + offset).to_bytes(40 * width, "little")
            assert [v - half for v in _slot_values(data, width, 40)] == vals, width


def _sparse_signed(rng, span, length, nonzeros=12):
    """Mostly-zero integers in [-span, span], the extremes among them."""
    vals = [0] * length
    for i in rng.sample(range(length), min(nonzeros, length)):
        vals[i] = rng.choice([span, -span, rng.randint(-span, span)])
    return vals


# At n = 33 a square of coefficients up to 2^25 needs 8-byte slots, and up to
# 2^29 9-byte slots, which ``_pack_slots`` hands to ``_pack``.
_EXACT_SPANS = (1, 9, 10**6, 2**25, 2**29)


def _check_exact_squares():
    """Exact squares (``a is b``) with negative coefficients against the
    schoolbook, at every kernel order."""
    rng = random.Random(5)
    for n in _KERNEL_ORDERS:
        for span in _EXACT_SPANS:
            operands = (
                _sparse_signed(rng, span, n),
                _sparse_signed(rng, span, n // 3 + 1),  # product shorter than n
                _sparse_signed(rng, span, n + 5),
                [rng.randint(-span, span) for _ in range(min(n, 40))],
            )
            for a in map(tuple, operands):
                expected = _convolve_schoolbook(a, a, n)
                assert _convolve_packed(a, a, n) == expected, (n, span, len(a))


@pytest.mark.parametrize("host", ["as is", "big-endian"])
def test_exact_kernel_squares_match_schoolbook(host, monkeypatch):
    if host == "big-endian":
        monkeypatch.setattr(sys, "byteorder", "big")
    pack, widths = series_module._pack_slots, set()

    def recorded(vals, width):
        widths.add(width)
        return pack(vals, width)

    monkeypatch.setattr(series_module, "_pack_slots", recorded)
    _check_exact_squares()
    assert set(range(1, 10)) <= widths


@pytest.mark.parametrize("m", _KERNEL_MODULI)
def test_modular_kernel_squares_match_schoolbook(m, decimal_available, monkeypatch):
    for byteorder in (sys.byteorder, "big"):
        monkeypatch.setattr(sys, "byteorder", byteorder)
        rng = random.Random(m)
        for n in _KERNEL_ORDERS:
            operands = (
                _sparse(rng, m, n),
                _sparse(rng, m, n // 3 + 1),
                _sparse(rng, m, n + 5),
                [rng.randrange(m) for _ in range(min(n, 40))],
                [m - 1] * min(n, 40),
            )
            for a in map(tuple, operands):
                expected = [c % m for c in _convolve_schoolbook(a, a, n)]
                assert _convolve_mod(a, a, n, m) == expected, (byteorder, n, len(a))


# The borrow line of ``_pack_slots`` and two wrong versions of it.
_BORROW = 'packed -= int.from_bytes(borrow, "little")'


@pytest.mark.parametrize(
    "mutant", ["pass", _BORROW + " >> (8 * width)"], ids=["no borrow", "borrow one slot low"]
)
def test_a_wrong_borrow_fails_the_exact_square_check(mutant, monkeypatch):
    source = textwrap.dedent(inspect.getsource(series_module._pack_slots))
    assert source.count(_BORROW) == 1
    namespace = dict(vars(series_module))
    exec(source.replace(_BORROW, mutant), namespace)
    monkeypatch.setattr(series_module, "_pack_slots", namespace["_pack_slots"])
    # A wrong product, or one too big for its slots
    with pytest.raises((AssertionError, OverflowError)):
        _check_exact_squares()


@pytest.mark.parametrize(
    "ring, order, packer",
    [
        (Zmod(97), 60, "_pack_slots"),
        (EXACT, 60, "_pack_slots"),
        (Zmod(32), _DECIMAL_CUTOFF, "_decimal_slots"),
    ],
    ids=["mod", "exact", "decimal"],
)
def test_a_square_packs_its_operand_once(ring, order, packer, monkeypatch):
    if packer == "_decimal_slots" and series_module._decimal_context() is None:
        pytest.skip("the C decimal module is not available")
    rng = random.Random(order)
    x, y = (random_unit_series(rng, ring, order) for _ in range(2))
    pack, calls = getattr(series_module, packer), []

    def counted(*args):
        calls.append(None)
        return pack(*args)

    monkeypatch.setattr(series_module, packer, counted)
    square = x * x
    assert len(calls) == 1
    product = x * y
    assert len(calls) == 3
    for got, a, b in ((square, x, x), (product, x, y)):
        expected = _convolve_schoolbook(a.coeffs, b.coeffs, order)
        assert got.coeffs == tuple(map(ring.canon, expected))


def test_newton_inverse_above_decimal_cutoff(decimal_available):
    ring = Zmod(4)
    s = random_unit_series(random.Random(4), ring, _DECIMAL_CUTOFF + 77)
    assert s * s.invert() == one(ring, s.order)


@given(rings, st.lists(small_ints, min_size=0, max_size=10), st.integers(min_value=1, max_value=16))
def test_make_series_pads_and_canonicalizes(ring, coeffs, pad):
    order = len(coeffs) + pad
    s = make_series(ring, coeffs, order)
    assert s.order == order
    if ring.is_modular:
        assert all(0 <= c < ring.modulus for c in s.coeffs)
    assert all(s.coeff(n) == 0 for n in range(len(coeffs), order))


@settings(deadline=None)
@given(rings, st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=40),
       st.integers(min_value=-50, max_value=50))
def test_canonicalisation_matches_ring_canon(ring, values, scalar):
    canon = lambda vals: tuple(ring.canon(v) for v in vals)
    s = Series(ring, values)
    t = Series(ring, values[::-1])
    assert s.coeffs == canon(values)
    assert (s + t).coeffs == canon(x + y for x, y in zip(s.coeffs, t.coeffs))
    assert (s - t).coeffs == canon(x - y for x, y in zip(s.coeffs, t.coeffs))
    assert (-s).coeffs == canon(-x for x in s.coeffs)
    assert s.scale(scalar).coeffs == canon(scalar * x for x in s.coeffs)


def test_empty_series_is_rejected_in_every_ring():
    for ring in RING_POOL:
        with pytest.raises(ValueError, match="order >= 1"):
            Series(ring, [])


# --- eta quotients by scale substitution -------------------------------------


def _direct_eta(quotient, ring, order):
    """Reference expansion: each f_s^e powered at the full order, multiplied from 1."""
    result = one(ring, order)
    for scale, exponent in quotient.factors:
        result = result * (euler_product(scale, ring, order) ** exponent)
    return result


_ETA_SCALES = range(1, 17)
_ETA_EXPONENTS = range(-12, 13)


def _small_orders(scale):
    return [n for n in (1, scale - 1, scale, scale + 1, 33) if n >= 1]


@pytest.mark.parametrize("ring", RING_POOL, ids=str)
def test_eta_factor_matches_direct_power(ring):
    # Every (scale, exponent) pair once, cycling through the orders around the scale.
    for scale in _ETA_SCALES:
        orders = _small_orders(scale)
        for i, exponent in enumerate(_ETA_EXPONENTS):
            quotient = EtaQuotient(((scale, exponent),))
            order = orders[i % len(orders)]
            assert expand_eta_quotient(quotient, ring, order) == _direct_eta(
                quotient, ring, order
            ), (scale, exponent, order)


def _random_quotient(rng, factors):
    return EtaQuotient(
        tuple((rng.choice(_ETA_SCALES), rng.choice(_ETA_EXPONENTS)) for _ in range(factors))
    )


@pytest.mark.parametrize("ring", RING_POOL, ids=str)
def test_eta_quotient_matches_direct_product(ring):
    rng = random.Random(f"eta {ring}")
    for _ in range(40):
        quotient = _random_quotient(rng, rng.randint(1, 4))
        scale = rng.choice(_ETA_SCALES)
        for order in _small_orders(scale):
            assert expand_eta_quotient(quotient, ring, order) == _direct_eta(
                quotient, ring, order
            ), (str(quotient), order)


@pytest.mark.parametrize("ring", RING_POOL, ids=str)
def test_eta_quotient_matches_direct_product_above_decimal_cutoff(ring):
    # 3001 takes the decimal multiply for m <= 256; the scale-1 factor keeps
    # one full-order power, the others are short and spread.
    rng = random.Random(f"eta 3001 {ring}")
    quotient = EtaQuotient(
        ((1, rng.choice((-12, 12))), (rng.randint(2, 16), rng.choice(_ETA_EXPONENTS)),
         (rng.randint(2, 16), rng.choice(_ETA_EXPONENTS)))
    )
    order = _DECIMAL_CUTOFF + 1
    assert expand_eta_quotient(quotient, ring, order) == _direct_eta(quotient, ring, order)


@pytest.mark.parametrize("ring", RING_POOL, ids=str)
def test_empty_eta_quotient_is_one(ring):
    for order in (1, 2, 33):
        assert expand_eta_quotient(EtaQuotient(()), ring, order) == one(ring, order)


def test_eta_expansion_does_not_depend_on_the_memo():
    quotients = [EtaQuotient.parse(text) for text in (
        "f1^-3 * f2^5", "f2 * f8^5 * f4^-2 * f16^-2", "f3^-12 * f9^4", "f1^12 * f5^-7 * f16",
    )]
    orders = [200, 37, 200, 1, 64, 37, 5, 200, 64]
    for ring in (Zmod(32), EXACT):
        _f1_powers.cache_clear()
        warm = [expand_eta_quotient(q, ring, n) for n in orders for q in quotients]
        cold = []
        for n in orders:
            for q in quotients:
                _f1_powers.cache_clear()
                euler_product.cache_clear()
                cold.append(expand_eta_quotient(q, ring, n))
        assert warm == cold, ring
        assert warm == [_direct_eta(q, ring, n) for n in orders for q in quotients], ring


def _binary_power(s, e):
    """Reference power s^e, e >= 1, by the right-to-left binary loop, with no memo."""
    result = None
    while e:
        if e & 1:
            result = s if result is None else result * s
        e >>= 1
        if e:
            s = s * s
    return result


def _reference_f1_power(ring, order, exponent):
    if exponent == 0:
        return one(ring, order)
    f1 = euler_product(1, ring, order)
    return _binary_power(f1 if exponent > 0 else f1.invert(), abs(exponent))


def test_f1_power_ladder_matches_binary_power():
    # Scattered exponents, shuffled across every ring and order, so the memo
    # cache evicts and later requests rebuild memos it dropped.
    rng = random.Random(0x1AD)
    requests = [
        (ring, order, exponent)
        for ring in RING_POOL
        for order in (1, 2, 33, 500)
        for exponent in [0, 1, -1, 600, -600] + rng.sample(range(-600, 601), 7)
    ]
    rng.shuffle(requests)
    _f1_powers.cache_clear()
    after_eviction = 0
    for ring, order, exponent in requests:
        after_eviction += _f1_powers.cache_info().misses > _f1_powers.cache_info().maxsize
        assert _f1_power(ring, order, exponent) == _reference_f1_power(ring, order, exponent), (
            ring, order, exponent,
        )
    assert after_eviction > len(requests) // 2
    memos = {(ring, order, exponent < 0) for ring, order, exponent in requests if exponent}
    assert _f1_powers.cache_info().misses > len(memos)  # some memo was dropped and rebuilt


# --- exact negative powers of f1, from the ladder's Newton inverse ----------


@pytest.mark.parametrize("order", [1, 2, 5, 6, 7, 8, 601])
def test_exact_f1_power_recurrence_matches_binary_power(order):
    f1 = euler_product(1, EXACT, order)
    for exponent in range(-1, -25, -1):
        assert _f1_power(EXACT, order, exponent) == _reference_f1_power(EXACT, order, exponent), (
            exponent
        )


def test_exact_f1_power_recurrence_matches_binary_power_at_order_2000():
    assert _f1_power(EXACT, 2000, -3) == _reference_f1_power(EXACT, 2000, -3)


def test_f1_power_recurrence_runs_only_on_exact_negative_powers(monkeypatch):
    # Every ring, the exact one included, takes the one ladder path: the memo
    # of the negative powers inverts f1 once per ring and order.
    exponents = (-5, -1, 0, 1, 4)
    want = {
        (ring, exponent): euler_product(1, ring, 40) ** exponent
        for ring in RING_POOL
        for exponent in exponents
    }
    inverted = []
    invert = Series.invert
    monkeypatch.setattr(Series, "invert", lambda s: inverted.append(s.ring) or invert(s))
    _f1_powers.cache_clear()
    for ring in RING_POOL:
        for exponent in exponents:
            assert _f1_power(ring, 40, exponent) == want[ring, exponent], (
                ring, exponent,
            )
    assert inverted == list(RING_POOL)


# --- eta quotients expanded at the order of their scale gcd -------------------


def _gcd_quotients(rng, g):
    """Quotients whose scales have gcd exactly g; the last two reduce to gcd-1
    quotients whose smallest scale is 2, not 1."""

    def pick():
        return rng.choice([e for e in _ETA_EXPONENTS if e])

    return [
        EtaQuotient(((g, pick()), (2 * g, pick()))),
        EtaQuotient(((g, pick()), (2 * g, pick()), (3 * g, pick()))),
        EtaQuotient(((2 * g, pick()), (3 * g, pick()))),
        EtaQuotient(((2 * g, pick()), (4 * g, pick()), (3 * g, pick()))),
    ]


@pytest.mark.parametrize("ring", RING_POOL, ids=str)
def test_eta_quotient_with_common_scale_gcd_matches_direct_product(ring):
    rng = random.Random(f"eta gcd {ring}")
    k = 5
    for g in (2, 3, 4, 8):
        for quotient in _gcd_quotients(rng, g):
            assert math.gcd(*(s for s, _ in quotient.factors)) == g
            for order in (1, g * k - 1, g * k, g * k + 1):
                assert expand_eta_quotient(quotient, ring, order) == _direct_eta(
                    quotient, ring, order
                ), (str(quotient), order)


@pytest.mark.parametrize("text", [
    "f2 * f8^5 * f4^-2 * f16^-2",  # D1
    "f2 * f16^2 * f8^-1",  # D1
    "f8^10 * f4^-4 * f16^-4",  # D1SQ
    "f8^4 * f4^-2",  # D1SQ
    "f16^4 * f8^-2",  # D1SQ
    "f3^4 * f2 * f12 * f4^-1 * f6^-1",  # R13: no f1, scale gcd 1
])
def test_identity_quotients_match_direct_product_at_order_2000(text):
    quotient = EtaQuotient.parse(text)
    assert expand_eta_quotient(quotient, EXACT, 2000) == _direct_eta(quotient, EXACT, 2000)


def test_expand_eta_quotient_runs_once_per_quotient(monkeypatch):
    calls = []
    expand = ETA.expand_eta_quotient

    def counted(quotient, ring, order):
        calls.append(str(quotient))
        return expand(quotient, ring, order)

    monkeypatch.setattr(ETA, "expand_eta_quotient", counted)
    # f2^6 f1^-4 f4^-2: the gcd-1 split leaves f2^6 f4^-2, whose gcd is 2.
    ETA.expand_eta_quotient(GF_BASE["opt"] ** 2, EXACT, 50)
    ETA.theta_component("g", Zmod(8), 50)
    assert calls == ["f1^-4 * f2^6 * f4^-2", "f1 * f2^-1 * f3^-1 * f6^2"]


# --- exact identity checks with their denominators cleared ---------------------

_quotients = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=-4, max_value=4)),
    max_size=3,
).map(lambda factors: EtaQuotient(tuple(factors)))

_leaves = st.one_of(
    _quotients.map(EtaRecipe),
    _quotients.map(EtaRecipe),
    st.sampled_from((*THETA_COMPONENT_NAMES, "z")).map(ThetaRecipe),  # "z" is unknown
    st.just(JacobiRecipe()),
    st.builds(gf_series, st.sampled_from(["overpartition", "opt"]), st.integers(0, 2)),
)


def _nodes(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda terms: SumRecipe(tuple(terms))),
        st.builds(ScaleRecipe, st.integers(min_value=-3, max_value=3), children),
        st.builds(ShiftRecipe, st.integers(min_value=0, max_value=3), children),
        st.builds(SubstRecipe, st.sampled_from([1, 2, 2, 3, 3, 0]), children),  # 0 is refused
        st.builds(DissectRecipe, st.integers(2, 3), st.integers(0, 1), children),
    )


_recipes = st.recursive(_leaves, _nodes, max_leaves=6)


def _equal_form(recipe):
    """The same series as another tree: eta leaves X read off X(q^2) by a
    dissection, substitutions of eta leaves folded, sums reversed, scalars
    split, and the Jacobi series and the pure-eta theta components written as
    eta quotients."""
    if isinstance(recipe, EtaRecipe):
        doubled = EtaQuotient(tuple((2 * s, e) for s, e in recipe.quotient.factors))
        return DissectRecipe(2, 0, EtaRecipe(doubled))
    if isinstance(recipe, JacobiRecipe):
        return EtaRecipe(EtaQuotient(((1, 3),)))
    if isinstance(recipe, ThetaRecipe) and recipe.name in "cdgm":
        return EtaRecipe(component_quotient(recipe.name))
    if isinstance(recipe, SumRecipe):
        return SumRecipe(tuple(_equal_form(t) for t in reversed(recipe.terms)))
    if isinstance(recipe, ScaleRecipe):
        inner = _equal_form(recipe.inner)
        return SumRecipe((ScaleRecipe(recipe.scalar + 1, inner), ScaleRecipe(-1, inner)))
    if isinstance(recipe, ShiftRecipe):
        return ShiftRecipe(recipe.offset, _equal_form(recipe.inner))
    if isinstance(recipe, SubstRecipe):
        if recipe.step >= 1 and isinstance(recipe.inner, EtaRecipe):
            factors = tuple((s * recipe.step, e) for s, e in recipe.inner.quotient.factors)
            return EtaRecipe(EtaQuotient(factors))
        return SubstRecipe(recipe.step, _equal_form(recipe.inner))
    return recipe


def _one_exponent_apart(recipe, delta):
    """The tree with the first exponent of its first eta leaf moved by delta
    (f1^delta on an empty quotient); None when it has no eta leaf."""
    if isinstance(recipe, EtaRecipe):
        factors = recipe.quotient.factors or ((1, 0),)
        scale, exponent = factors[0]
        return EtaRecipe(EtaQuotient(((scale, exponent + delta),) + factors[1:]))
    if isinstance(recipe, SumRecipe):
        for i, term in enumerate(recipe.terms):
            moved = _one_exponent_apart(term, delta)
            if moved is not None:
                return SumRecipe(recipe.terms[:i] + (moved,) + recipe.terms[i + 1 :])
        return None
    if isinstance(recipe, (ScaleRecipe, ShiftRecipe, SubstRecipe, DissectRecipe)):
        moved = _one_exponent_apart(recipe.inner, delta)
        if moved is None:
            return None
        # ``inner`` is the last field of each of these nodes
        return type(recipe)(*(getattr(recipe, name) for name in recipe.__slots__[:-1]), moved)
    return None


@st.composite
def _exact_cases(draw):
    lhs = draw(_recipes)
    how = draw(st.sampled_from(["equal", "apart", "independent"]))
    if how == "independent":
        rhs = draw(_recipes)
    else:
        rhs = _equal_form(lhs)
        if how == "apart":
            rhs = _one_exponent_apart(rhs, draw(st.sampled_from([1, -1]))) or rhs
    if draw(st.booleans()):
        lhs, rhs = rhs, lhs
    return IdentityCase("random", lhs, rhs)


@settings(deadline=None, max_examples=150)
@given(_exact_cases(), st.integers(min_value=1, max_value=40))
def test_cleared_exact_check_matches_the_plain_check(case, order):
    report = verify_identity(case, order)
    assert (report.ok, report.mismatch, report.error) == plain_check(case, order)


# Wrong counts: small deltas, deltas near a power of 2 (a slot edge at some
# width), and counts replaced by a negative value.
_count_errors = st.one_of(
    st.integers(min_value=-3, max_value=3).filter(bool).map(lambda d: ("add", d)),
    st.builds(
        lambda sign, k, d: ("add", sign * (2**k + d)),
        st.sampled_from([1, -1]),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=-1, max_value=1),
    ),
    st.integers(min_value=1, max_value=2**64).map(lambda v: ("set", -v)),
)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(sorted(GF_BASE)),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=60),
    st.lists(st.tuples(st.integers(min_value=0), _count_errors), max_size=3),
)
def test_gf_mismatch_matches_the_plain_check(kind, t, order, errors):
    counts = list(family_gf(kind, t, EXACT, max(order, 1)).coeffs[:order])  # order 0: no counts
    want = list(counts)
    for index, (how, value) in errors:
        if counts:
            i = index % len(counts)
            counts[i] = counts[i] + value if how == "add" else value
    assert gf_mismatch(kind, t, counts) == next(mismatches(counts, want), None)
