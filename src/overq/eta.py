"""Named q-series: Euler products, eta quotients, the cubic theta series, and
the overpartition-tuple generating functions.

The Euler product f_k = prod_{n>=1} (1 - q^{kn}) is expanded sparsely from
its generalized pentagonal exponents and densified.  Everything else is built
from f_k's by truncated ring arithmetic, except the cubic theta series, which
is counted directly from the lattice so that it can serve as an independent
cross-check on the eta expressions that involve it.

An eta quotient is expanded by scale substitution: f_k^e(q) = f_1^e(q^k), so
each factor is f_1^e at order ceil(N/k), memoized per (ring, order, e), and
spread onto every k-th exponent.  A quotient whose scales share a gcd g > 1
is expanded with its scales divided by g at order ceil(N/g) and spread by g,
so each product runs at the order its factors need: f4^-4 f8^10 f16^-4 to
order 2000 multiplies at order 500.  Every power of f_1 is stepped to by
the one power ladder, ``series._ladder``, over a memo of the powers of g,
g = f_1 or 1/f_1, kept per (ring, order), so scattered exponents pay the
inverse once and each builds on the largest power made before it.  The exact
identity checks never ask for a negative power: they multiply both sides by
an eta quotient D that clears every negative exponent, merged into each
leaf's quotient (``theta_component`` takes D as ``unit``).

The counting generating functions are stated once, as powers of Gauss's
phi(-q^s), phi(-q) = f1^2/f2 = 1 + 2 sum_{n>=1} (-1)^n q^(n^2), which has
about sqrt(N) terms below q^N.  ``GF_BASE``, each base as its eta quotient,
is derived from them for recipes, where a GF is an eta leaf.  ``family_gf``
multiplies the positive powers of phi and inverts the negative ones once
(``Series.invert``; over Z/4 the inverse of phi(-q) = 1 + 2X is a closed
form).  ``gf_mismatch`` checks counts against the exact GF without
expanding it: each step multiplies a packed integer by one sparse phi(-q^s).
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, reduce
from operator import mul
from typing import Iterator, Sequence

from .series import Ring, Series, _ladder, _pack, one, spread

__all__ = [
    "EtaQuotient",
    "euler_product",
    "expand_eta_quotient",
    "jacobi_triangular",
    "borwein_a",
    "theta_component",
    "THETA_COMPONENT_NAMES",
    "GF_BASE",
    "family_gf",
    "gf_mismatch",
    "overpartition_gf",
    "opt_gf",
]

_FACTOR_RE = re.compile(r"^f(\d+)(?:\^(-?\d+))?$")


class EtaQuotient:
    """A formal product of Euler-product factors f_scale^exponent.

    Duplicate scales are merged by summing exponents and zero exponents are
    dropped, so equal quotients compare equal.  The textual form is
    ``"f1^-2 * f2^3"`` with factors in increasing scale order; the bare
    constant quotient prints as ``"1"``.  Immutable and hashable.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...] = ()) -> None:
        merged: dict[int, int] = {}
        for scale, exponent in factors:
            if scale < 1:
                raise ValueError(f"eta factor scale must be >= 1, got {scale}")
            merged[scale] = merged.get(scale, 0) + exponent
        canon = tuple(sorted((s, e) for s, e in merged.items() if e != 0))
        object.__setattr__(self, "factors", canon)

    def __setattr__(self, name, value):
        raise AttributeError("EtaQuotient values are immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not EtaQuotient:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"EtaQuotient(factors={self.factors!r})"

    @classmethod
    def parse(cls, text: str) -> "EtaQuotient":
        """Parse the textual form; inverse of ``str`` up to canonical ordering."""
        if not text.strip():
            raise ValueError("empty eta quotient text")
        factors: list[tuple[int, int]] = []
        for token in text.split("*"):
            token = token.strip()
            if token == "1":
                continue
            m = _FACTOR_RE.match(token)
            if not m:
                raise ValueError(f"bad eta factor {token!r} (expected e.g. 'f2^-3')")
            factors.append((int(m.group(1)), int(m.group(2) or 1)))
        return cls(tuple(factors))

    def __mul__(self, other: "EtaQuotient") -> "EtaQuotient":
        return EtaQuotient(self.factors + other.factors)

    def __pow__(self, exponent: int) -> "EtaQuotient":
        return EtaQuotient(tuple((scale, e * exponent) for scale, e in self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(
            f"f{scale}" if exponent == 1 else f"f{scale}^{exponent}"
            for scale, exponent in self.factors
        )


def eta(text: str) -> EtaQuotient:
    """Shorthand parser, e.g. ``eta("f2 * f8^5 * f4^-2 * f16^-2")``."""
    return EtaQuotient.parse(text)


def _pentagonal(order: int) -> Iterator[tuple[int, int]]:
    """The nonzero terms (exponent, sign) of f_1 below the order, in increasing exponent.

    Euler's pentagonal theorem puts them at j(3j -+ 1)/2 with sign (-1)^j.
    """
    yield 0, 1
    j = 1
    while True:
        lo = j * (3 * j - 1) // 2
        if lo >= order:
            return
        sign = -1 if j & 1 else 1
        yield lo, sign
        hi = j * (3 * j + 1) // 2
        if hi < order:
            yield hi, sign
        j += 1


@lru_cache(maxsize=256)
def euler_product(scale: int, ring: Ring, order: int) -> Series:
    """Truncated f_scale = prod_{n>=1} (1 - q^{scale*n}).

    The nonzero coefficients sit at scale * j(3j -+ 1)/2 with sign (-1)^j.
    """
    if scale < 1:
        raise ValueError(f"Euler product scale must be >= 1, got {scale}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    coeffs = [0] * order
    for exponent, sign in _pentagonal((order - 1) // scale + 1):
        coeffs[scale * exponent] = sign
    return Series(ring, coeffs)


@lru_cache(maxsize=64)
def _f1_powers(ring: Ring, order: int, negative: bool) -> dict[int, Series]:
    """The memo of powers of g to the order, g = 1/f_1 if negative else f_1,
    that ``_f1_power`` steps over; it starts as {1: g}.  The 64 most recent
    are kept: ``identities`` and ``replay`` ask for 38 and 35."""
    f1 = euler_product(1, ring, order)
    return {1: f1.invert() if negative else f1}


def _f1_power(ring: Ring, order: int, exponent: int) -> Series:
    """f_1^exponent to the order, on every ring.

    ``series._ladder`` over one memo per ring, order and sign, so the
    inverse and every power made are shared by all the exponents asked for
    there, which pays off for the scattered exponents of the replay
    recipes, and quotients that share a factor at one order hit it.
    """
    if exponent == 0:
        return one(ring, order)
    return _ladder(_f1_powers(ring, order, exponent < 0), abs(exponent))


def expand_eta_quotient(quotient: EtaQuotient, ring: Ring, order: int) -> Series:
    """Expand a quotient to the order by scale substitution: f_k^e(q) = f_1^e(q^k).

    A quotient whose scales share a gcd g > 1 is the quotient with every
    scale divided by g, expanded at order (order - 1) // g + 1 (the only
    coefficients that land below the order) and spread by g.  A quotient
    with gcd 1 is its smallest-scale factor times the expansion of the rest.
    So a lone factor f_k^e is f_1^e at order (order - 1) // k + 1, spread by
    k, wherever it sits in the quotient, since floor divisions compose.  No
    truncation loses anything: f_1^e is exact to the short order, negative
    e included, and the spread series agrees with f_k^e up to the full
    order.  The empty quotient is 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return _expand(quotient.factors, ring, order)


def _expand(factors: tuple[tuple[int, int], ...], ring: Ring, order: int) -> Series:
    """``expand_eta_quotient`` on canonical factors.

    The recursion stays here so that traced runs count one
    ``expand_eta_quotient`` call per quotient.
    """
    if not factors:
        return one(ring, order)
    g = math.gcd(*(scale for scale, _ in factors))
    if g > 1:
        reduced = tuple((scale // g, exponent) for scale, exponent in factors)
        return spread(_expand(reduced, ring, (order - 1) // g + 1), g, order)
    if len(factors) == 1:  # a lone factor with scale gcd 1 has scale 1
        return _f1_power(ring, order, factors[0][1])
    return _expand(factors[:1], ring, order) * _expand(factors[1:], ring, order)


def jacobi_triangular(ring: Ring, order: int) -> Series:
    """The alternating triangular-number series sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}."""
    coeffs = [0] * order
    k = 0
    while True:
        e = k * (k + 1) // 2
        if e >= order:
            break
        coeffs[e] = (2 * k + 1) * (-1 if k & 1 else 1)
        k += 1
    return Series(ring, coeffs)


def borwein_a(ring: Ring, order: int) -> Series:
    """The cubic theta series: coefficient n counts (j,k) in Z^2 with j^2+jk+k^2 = n.

    Counted by bounded lattice enumeration -- the form is positive definite
    with j^2+jk+k^2 >= 3*max(j,k)^2/4, so |j|,|k| <= sqrt(4(order-1)/3)
    suffices.  Keeping this independent of any eta expression lets it serve
    as a cross-check on the dissection components built from it.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    counts = [0] * order
    bound = math.isqrt(4 * (order - 1) // 3) + 1
    for j in range(-bound, bound + 1):
        for k in range(-bound, bound + 1):
            v = j * j + j * k + k * k
            if v < order:
                counts[v] += 1
    return Series(ring, counts)


# Eta-quotient part of each dissection component, paired with the power of the
# cubic theta series A(q) it is multiplied by.
_COMPONENTS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "a": (2, ((3, 3), (1, -10))),
    "b": (1, ((3, 6), (1, -11))),
    "c": (0, ((3, 9), (1, -12))),
    "d": (0, ((3, 2), (6, -1))),
    "g": (0, ((1, 1), (6, 2), (2, -1), (3, -1))),
    "h": (1, ((1, 1),)),
    "m": (0, ((3, 3),)),
}
THETA_COMPONENT_NAMES = ("A", *_COMPONENTS)


def theta_component(name: str, ring: Ring, order: int, unit: EtaQuotient = EtaQuotient()) -> Series:
    """One of the named series used by the cubic dissections, times ``unit``.

    ``A`` is the lattice sum itself; the lowercase components combine a power
    of A with a fixed eta quotient (for example d = f3^2 / f6 and h = A * f1),
    which is expanded merged with ``unit``.
    """
    if name == "A":
        return _times(borwein_a(ring, order), unit)
    try:
        a_power, factors = _COMPONENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown theta component {name!r}; expected one of {THETA_COMPONENT_NAMES}"
        ) from None
    result = expand_eta_quotient(EtaQuotient(factors) * unit, ring, order)
    if a_power:
        result = result * (borwein_a(ring, order) ** a_power)
    return result


def component_quotient(name: str) -> EtaQuotient:
    """The eta-quotient part of a theta component; empty for ``A`` and unknown names."""
    return EtaQuotient(_COMPONENTS.get(name, (0, ()))[1])


def _times(series: Series, unit: EtaQuotient) -> Series:
    """``series`` times the expansion of ``unit``, with no multiply for the empty quotient."""
    if not unit.factors:
        return series
    return series * expand_eta_quotient(unit, series.ring, series.order)


# The counting generating function of each family kind at tuple size 1, as
# the (s, c_s) of prod_s phi(-q^s)^c_s; t-tuples multiply every c_s by t.
_GF_THETAS = {
    "overpartition": ((1, -1),),  # 1 / phi(-q)
    "opt": ((1, -1), (2, 1)),  # phi(-q^2) / phi(-q)
}


def _gf_thetas(kind: str, t: int) -> tuple[tuple[int, int], ...]:
    """The (s, c_s t), c_s t != 0, of the GF of t-tuples of a family kind."""
    if kind not in _GF_THETAS:
        raise ValueError(f"unknown generating function kind {kind!r}")
    if t < 0:
        raise ValueError(f"tuple size must be >= 0, got {t}")
    return tuple((s, c * t) for s, c in _GF_THETAS[kind] if t)


def _theta_quotient(thetas: tuple[tuple[int, int], ...]) -> EtaQuotient:
    """prod_s phi(-q^s)^c_s as an eta quotient, by phi(-q^s) = f_s^2 / f_2s."""
    return EtaQuotient(tuple(f for s, c in thetas for f in ((s, 2 * c), (2 * s, -c))))


# Each base as its eta quotient: f2 / f1^2 and f2^3 / (f1^2 f4).
GF_BASE = {kind: _theta_quotient(_gf_thetas(kind, 1)) for kind in _GF_THETAS}


def _squares(order: int) -> Iterator[tuple[int, int]]:
    """The non-constant terms (exponent, sign) of phi(-q) below the order, in
    increasing exponent: phi(-q) = 1 + 2 sum sign q^exponent.

    Gauss's theta series puts them at n^2, n >= 1, with sign (-1)^n.
    """
    for n in range(1, math.isqrt(order - 1) + 1):
        yield n * n, -1 if n & 1 else 1


def _theta(ring: Ring, order: int) -> Series:
    """phi(-q) = 1 + 2 sum_{n>=1} (-1)^n q^(n^2) to the order (Gauss: f1^2 / f2)."""
    coeffs = [0] * order
    coeffs[0] = 1
    for exponent, sign in _squares(order):
        coeffs[exponent] = 2 * sign
    return Series(ring, coeffs)


def _expand_thetas(thetas: tuple[tuple[int, int], ...], ring: Ring, order: int) -> Series:
    """prod_s phi(-q^s)^c_s: the positive powers multiplied, the negative
    ones multiplied and inverted once."""
    phis = {s: spread(_theta(ring, (order - 1) // s + 1), s, order) for s, _ in thetas}
    parts = [phis[s] ** c for s, c in thetas if c > 0]
    below = [phis[s] ** -c for s, c in thetas if c < 0]
    if below:
        parts.append(reduce(mul, below).invert())
    return reduce(mul, parts) if parts else one(ring, order)


def family_gf(kind: str, t: int, ring: Ring, order: int) -> Series:
    """The GF of t-tuples of a family kind, prod_s phi(-q^s)^(c_s t),
    expanded to the order: ``GF_BASE[kind] ** t`` on every ring."""
    thetas = _gf_thetas(kind, t)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return _expand_thetas(thetas, ring, order)


def gf_mismatch(kind: str, t: int, counts: Sequence[int]) -> int | None:
    """The first n at which ``counts`` differs from ``family_gf(kind, t,
    EXACT, len(counts))``, or None where they agree; no series is expanded.

    The GF of t-tuples is R / U mod q^N, N = len(counts), where R is the
    product of phi(-q^s)^(c_s t) over the c_s > 0 and U the product of
    phi(-q^s)^(-c_s t) over the c_s < 0.  U has constant term 1, so it is a
    unit, and counts = R / U iff L = counts * U equals R.  Better: if counts
    first differ from the GF at m, by delta, then L - R = (counts - GF) * U
    first differs from 0 at m, by delta too.

    Both sides are evaluated at q = B = 2^(8 w): counts is packed into one
    integer (``series._pack``) and multiplied by one phi(-q^s) per step, a
    shifted add or subtract for each of its about sqrt(N / s) terms, then
    reduced mod B^N.  The evaluation is a ring map Z[q]/q^N -> Z/B^N, so no
    coefficient needs to fit its slot on the way, and L - R maps to B^m (delta
    + B Y) mod B^N for an integer Y.  Its lowest set bit lies in slot m
    whenever delta is not divisible by B, so whenever B > |delta|.

    The width w bounds delta = L_m - R_m.  A product with phi(-q^s) mod q^N
    multiplies the largest |coefficient| by at most the sum of its |terms|,
    1 + 2 isqrt((N - 1) / s), so with M = max |counts|, and P_- and P_+ the
    products of those sums over the steps of U and of R, |L_m| <= M P_- and
    |R_m| <= P_+; w is the least with B > M P_- + P_+.  Both the number of
    steps, sum |c_s| t, and w grow with t, so large tuple sizes cost more
    than an eta expansion would.
    """
    thetas = _gf_thetas(kind, t)
    order = len(counts)
    if not order:
        return None
    lhs_bound, rhs_bound = max(max(map(abs, counts)), 1), 1
    for s, c in thetas:
        growth = (1 + 2 * math.isqrt((order - 1) // s)) ** abs(c)
        if c < 0:
            lhs_bound *= growth
        else:
            rhs_bound *= growth
    width = ((lhs_bound + rhs_bound).bit_length() + 7) // 8
    slot = 8 * width
    mask = (1 << slot * order) - 1
    lhs, rhs = _pack(counts, width) & mask, 1
    for s, c in thetas:
        terms = list(_squares((order - 1) // s + 1))
        up = [slot * s * e for e, sign in terms if sign > 0]
        down = [slot * s * e for e, sign in terms if sign < 0]
        for _ in range(abs(c)):
            if c < 0:
                lhs = _times_phi(lhs, up, down, mask)
            else:
                rhs = _times_phi(rhs, up, down, mask)
    diff = (lhs - rhs) & mask
    return ((diff & -diff).bit_length() - 1) // slot if diff else None


def _times_phi(x: int, up: list[int], down: list[int], mask: int) -> int:
    """x * phi(-q^s) mod B^N in packed form, given the bit shifts of the
    terms of phi(-q^s) past its constant with sign + (``up``) and - (``down``)."""
    return (x + (sum(x << k for k in up) - sum(x << k for k in down) << 1)) & mask


def overpartition_gf(t: int, ring: Ring, order: int) -> Series:
    """Generating function of overpartition t-tuples: f2^t / f1^(2t)."""
    return family_gf("overpartition", t, ring, order)


def opt_gf(k: int, ring: Ring, order: int) -> Series:
    """Generating function of odd-part overpartition k-tuples: f2^(3k) / (f1^(2k) f4^k)."""
    return family_gf("opt", k, ring, order)
