"""Independent combinatorial counts of overpartition tuples.

This module is deliberately self-contained: it never imports the series
engine, so its numbers can serve as ground truth for the generating
functions built there.

An overpartition is a non-increasing sequence of positive parts in which the
first occurrence of each part value may be overlined.  A k-tuple assigns each
part to one of k colors (coordinates); the tuple's weight is the sum of all
parts.  For a single color and a single part size i, the choices are: take j
copies of i (j >= 0) and, when j >= 1, either overline the first copy or not.
That contributes the weight series

    1 + 2*q^i + 2*q^(2i) + ...

which is the expansion of (1 + q^i) / (1 - q^i).  The k-tuples with parts in
a set P therefore have the generating function

    F(q) = prod_{i in P} ((1 + q^i) / (1 - q^i))^k,

and restricting P to odd i counts the odd-part tuples.

The counts a(n) of F come from its logarithmic derivative.  Since
q d/dq log((1 + q^i) / (1 - q^i)) = i q^i/(1 + q^i) + i q^i/(1 - q^i)
= sum_{j odd} 2i q^(ij), comparing coefficients in q F' = F * (q F'/F) gives

    n a(n) = k * sum_{m=1..n} w(m) a(n - m),
    w(m) = sum of 2i over the i in P with i | m and m/i odd,

with a(0) = 1; the division by n is exact.  The weights and the recurrence
are built here from P and k alone, with plain integer lists, so the counts
stay independent of the series engine they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

__all__ = [
    "CountTable",
    "count_overpartition_tuples",
    "count_opt_tuples",
    "enumerate_tiny",
]

ENUMERATE_MAX_N = 14
ENUMERATE_MAX_T = 3


@dataclass(frozen=True)
class CountTable:
    """Counts of a tuple family for 0 <= n <= upto."""

    family: str  # "overpartition-tuples" | "opt-tuples"
    parameter: int
    counts: tuple[int, ...]

    @property
    def upto(self) -> int:
        return len(self.counts) - 1

    def count(self, n: int) -> int:
        """The count at n; raises IndexError outside 0..upto."""
        if not 0 <= n <= self.upto:
            raise IndexError(f"count at n={n} is outside 0..{self.upto}")
        return self.counts[n]


def _tuple_counts(colors: int, upto: int, parts: range) -> list[int]:
    # w[m] = sum of 2i over the parts i with m an odd multiple of i.
    weights = [0] * (upto + 1)
    for i in parts:
        for m in range(i, upto + 1, 2 * i):
            weights[m] += 2 * i
    counts = [1]
    for n in range(1, upto + 1):
        counts.append(sum(map(mul, weights[1 : n + 1], reversed(counts))) * colors // n)
    return counts


def count_overpartition_tuples(t: int, upto: int) -> CountTable:
    """Number of overpartition t-tuples of n, for n = 0..upto."""
    if t < 0 or upto < 0:
        raise ValueError("tuple size and range must be >= 0")
    counts = _tuple_counts(t, upto, range(1, upto + 1))
    return CountTable("overpartition-tuples", t, tuple(counts))


def count_opt_tuples(k: int, upto: int) -> CountTable:
    """Number of overpartition k-tuples of n with all parts odd."""
    if k < 0 or upto < 0:
        raise ValueError("tuple size and range must be >= 0")
    counts = _tuple_counts(k, upto, range(1, upto + 1, 2))
    return CountTable("opt-tuples", k, tuple(counts))


@lru_cache(maxsize=None)
def _overpartitions(n: int) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """All overpartitions of n, each a tuple of (part, overlined) pairs."""

    def build(remaining: int, max_part: int, prefix: tuple[tuple[int, bool], ...], out):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            copies = remaining // part
            for j in range(1, copies + 1):
                block_plain = ((part, False),) * j
                build(remaining - j * part, part - 1, prefix + block_plain, out)
                block_marked = ((part, True),) + ((part, False),) * (j - 1)
                build(remaining - j * part, part - 1, prefix + block_marked, out)

    out: list[tuple[tuple[int, bool], ...]] = []
    build(n, n, (), out)
    return tuple(out)


def enumerate_tiny(t: int, n: int) -> int:
    """Count overpartition t-tuples of n by exhaustively generating them.

    A second, fully independent oracle; feasible only for small inputs
    (n <= 14, t <= 3).
    """
    if not 0 <= n <= ENUMERATE_MAX_N:
        raise ValueError(f"n must be in 0..{ENUMERATE_MAX_N}, got {n}")
    if not 0 <= t <= ENUMERATE_MAX_T:
        raise ValueError(f"t must be in 0..{ENUMERATE_MAX_T}, got {t}")

    def tuples(colors: int, remaining: int):
        if colors == 0:
            if remaining == 0:
                yield ()
            return
        for weight in range(remaining + 1):
            for op in _overpartitions(weight):
                for rest in tuples(colors - 1, remaining - weight):
                    yield (op,) + rest

    return sum(1 for _ in tuples(t, n))
