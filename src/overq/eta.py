"""Named q-series: Euler products, eta quotients, the cubic theta series, and
the overpartition-tuple generating functions.

The Euler product f_k = prod_{n>=1} (1 - q^{kn}) is expanded sparsely from
its generalized pentagonal exponents and densified.  Everything else is built
from f_k's by truncated ring arithmetic, except the cubic theta series, which
is counted directly from the lattice so that it can serve as an independent
cross-check on the eta expressions that involve it.

An eta quotient is expanded by scale substitution: f_k^e(q) = f_1^e(q^k), so
each factor is f_1^e at order ceil(N/k), memoized per (ring, order, e), and
spread onto every k-th exponent.  Only the products of the spread factors
run at the full order N.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .series import Ring, Series, one, spread

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
    "overpartition_gf",
    "opt_gf",
]

_FACTOR_RE = re.compile(r"^f(\d+)(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class EtaQuotient:
    """A formal product of Euler-product factors f_scale^exponent.

    Duplicate scales are merged by summing exponents and zero exponents are
    dropped, so equal quotients compare equal.  The textual form is
    ``"f1^-2 * f2^3"`` with factors in increasing scale order; the bare
    constant quotient prints as ``"1"``.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[int, int] = {}
        for scale, exponent in self.factors:
            if scale < 1:
                raise ValueError(f"eta factor scale must be >= 1, got {scale}")
            merged[scale] = merged.get(scale, 0) + exponent
        canon = tuple(sorted((s, e) for s, e in merged.items() if e != 0))
        object.__setattr__(self, "factors", canon)

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
    coeffs[0] = 1
    j = 1
    while True:
        lo = scale * (j * (3 * j - 1) // 2)
        if lo >= order:
            break
        sign = -1 if j & 1 else 1
        coeffs[lo] = sign
        hi = scale * (j * (3 * j + 1) // 2)
        if hi < order:
            coeffs[hi] = sign
        j += 1
    return Series(ring, coeffs)


@lru_cache(maxsize=128)
def _f1_power(ring: Ring, order: int, exponent: int) -> Series:
    """f_1^exponent to the order; negative exponents invert f_1 first.

    Kept memoized though most lookups miss: oracle runs that repeat tuple sizes
    hit it, and without it the bench's ``crosscheck`` oracle commands took
    0.85-0.94 s instead of 0.63-0.77 s (``identities`` and ``replay`` did not move).
    """
    return euler_product(1, ring, order) ** exponent


def expand_eta_quotient(quotient: EtaQuotient, ring: Ring, order: int) -> Series:
    """Expand a quotient as the product of its factors f_scale^exponent, in scale order.

    Each factor is f_1^exponent at order (order - 1) // scale + 1, the only
    coefficients that can land below the order, spread by ``scale``.  That
    truncation loses nothing: a negative exponent inverts f_1 at the short
    order, and the spread series agrees with f_scale^exponent up to the
    full order.  The empty quotient is 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    result = None
    for scale, exponent in quotient.factors:
        factor = spread(_f1_power(ring, (order - 1) // scale + 1, exponent), scale, order)
        result = factor if result is None else result * factor
    return one(ring, order) if result is None else result


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


THETA_COMPONENT_NAMES = ("A", "a", "b", "c", "d", "g", "h", "m")

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


def theta_component(name: str, ring: Ring, order: int) -> Series:
    """One of the named series used by the cubic dissections.

    ``A`` is the lattice sum itself; the lowercase components combine a power
    of A with a fixed eta quotient (for example d = f3^2 / f6 and h = A * f1).
    """
    if name == "A":
        return borwein_a(ring, order)
    try:
        a_power, factors = _COMPONENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown theta component {name!r}; expected one of {THETA_COMPONENT_NAMES}"
        ) from None
    result = expand_eta_quotient(EtaQuotient(factors), ring, order)
    if a_power:
        result = result * (borwein_a(ring, order) ** a_power)
    return result


# The counting generating function of each family kind at tuple size 1; the
# GF of t-tuples is this quotient with every exponent multiplied by t.
GF_BASE = {
    "overpartition": EtaQuotient(((2, 1), (1, -2))),  # f2 / f1^2
    "opt": EtaQuotient(((2, 3), (1, -2), (4, -1))),  # f2^3 / (f1^2 f4)
}


def family_gf(kind: str, t: int, ring: Ring, order: int) -> Series:
    """The ``GF_BASE[kind]`` quotient raised to the tuple size t, expanded."""
    if kind not in GF_BASE:
        raise ValueError(f"unknown generating function kind {kind!r}")
    if t < 0:
        raise ValueError(f"tuple size must be >= 0, got {t}")
    scaled = EtaQuotient(tuple((s, e * t) for s, e in GF_BASE[kind].factors))
    return expand_eta_quotient(scaled, ring, order)


def overpartition_gf(t: int, ring: Ring, order: int) -> Series:
    """Generating function of overpartition t-tuples: f2^t / f1^(2t)."""
    return family_gf("overpartition", t, ring, order)


def opt_gf(k: int, ring: Ring, order: int) -> Series:
    """Generating function of odd-part overpartition k-tuples: f2^(3k) / (f1^(2k) f4^k)."""
    return family_gf("opt", k, ring, order)
