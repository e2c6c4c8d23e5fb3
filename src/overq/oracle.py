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

Summed term by term, the recurrence costs about upto^2/2 big-by-small
multiplies per tuple size.  ``_tuple_counts`` cuts it into blocks of
B ~ 4*sqrt(upto) counts instead.  The near terms, those inside n's own
block, are still summed directly: about upto*B/2 multiplies in all.  The far
terms of each complete block, for every later n, come from one Kronecker
product of the block with the weights, at a slot width that bounds
B*max(block)*max(w): about upto/B integer products in all.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import add, mul
from typing import NamedTuple

__all__ = [
    "CountTable",
    "count_overpartition_tuples",
    "count_opt_tuples",
    "enumerate_tiny",
]

ENUMERATE_MAX_N = 14
ENUMERATE_MAX_T = 3


class CountTable(NamedTuple):
    """Counts of a tuple family for 0 <= n <= upto.

    ``count`` is the count at one n, in place of the tuple method of that
    name."""

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


def _block_size(upto: int) -> int:
    """Counts per block in ``_tuple_counts``: about 4*sqrt(upto).

    Timed at upto = 600 and 2400 for k from 1 to 16: smaller blocks cost more
    in products, and larger ones more in direct sums.
    """
    return isqrt(16 * upto) + 1


def _pack(vals: list[int], width: int) -> int:
    """sum(vals[i] * 2^(8*width*i)) for 0 <= vals[i] < 2^(8*width)."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in vals), "little")


def _tuple_counts(colors: int, upto: int, parts: range) -> list[int]:
    """a(0..upto) from n a(n) = colors * sum_{m=1..n} w(m) a(n - m).

    The sum is an online convolution, cut into blocks of ``_block_size(upto)``
    counts.  The near terms, with n - m in n's own block, are summed directly.
    Once a block is complete, one Kronecker product of the block with
    w(0..upto - start) gives its far terms for every later n at once, and
    ``far`` accumulates them.  Every term is >= 0, so the packing needs no
    sign split, and a slot of ``width`` bytes holds each product coefficient,
    sum_i a(start + i) w(t - i) <= len(block) * max(block) * max(w), so no
    slot carries into the next.
    """
    # w[m] = sum of 2i over the parts i with m an odd multiple of i.
    weights = [0] * (upto + 1)
    for i in parts:
        for m in range(i, upto + 1, 2 * i):
            weights[m] += 2 * i
    wmax = max(weights)
    block = _block_size(upto)
    far = [0] * (upto + 1)
    counts = [1]
    for start in range(0, upto + 1, block):
        end = min(start + block, upto + 1)
        for n in range(max(start, 1), end):
            near = sum(map(mul, weights[1 : n - start + 1], reversed(counts[start:n])))
            count, rest = divmod((far[n] + near) * colors, n)
            if rest:
                raise RuntimeError(f"count recurrence left remainder {rest} at q^{n}")
            counts.append(count)
        done = counts[start:end]
        if end > upto or not any(done):  # no later n, or nothing to add to them
            continue
        width = (len(done) * max(done) * wmax).bit_length() // 8 + 1
        span = upto - start + 1  # w(0..upto - start)
        product = _pack(done, width) * _pack(weights[:span], width)
        data = product.to_bytes(width * (len(done) + span - 1), "little")
        slots = range(len(done) * width, span * width, width)  # n = end..upto
        later = [int.from_bytes(data[i : i + width], "little") for i in slots]
        far[end:] = map(add, far[end:], later)
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
