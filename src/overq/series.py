"""Dense truncated power series in q over exact or modular integer coefficients.

A :class:`Series` stores the coefficients c_0 .. c_{N-1} of a formal power
series known modulo q^N.  Binary operations truncate to the shorter operand;
nothing ever extends a series, so unknown coefficients cannot leak into a
result.  Coefficients live either in the exact integers (arbitrary precision)
or in Z/mZ with canonical representatives 0 <= c < m.

Each ring multiplies by Kronecker substitution: both operands become one
big integer, one coefficient per fixed-width slot, and a single integer
product yields the convolution.  Each slot is just wide enough for a
product coefficient, a sum of at most as many terms as the sparser operand
has nonzero coefficients.  A square (``x * x``, as in the power ladder
:func:`_ladder`) packs its operand once and multiplies the packed value by
itself, which takes the squaring paths of CPython's integer product and
libmpdec.  An operand with at most one nonzero per ``_SPARSE_SPACING``
places of the order, such as f_1 or phi(-q^s), is multiplied by no
big-integer product: the same integer is a sum of shifted copies of the
other operand, packed, one group per coefficient value
(:func:`_packed_product`).

* Binary slots are packed and unpacked in C (``struct``, ``array``,
  ``bytes`` slicing and ``translate``) by :func:`_pack_slots` and
  :func:`_slot_values` when they fit 8 bytes, with unpacking byte by byte
  on a big-endian host, and by :func:`_pack` and byte by byte when wider.
* exact ring: :func:`_convolve_packed`, at every order.  Signed values
  pack as two's complement slots with one borrow, and the product is read
  back with half the base added to each slot.
* Z/mZ: :func:`_convolve_mod`, whose canonical residues fill unsigned
  slots; or, for m <= 256 from order ``_DECIMAL_CUTOFF`` on and no sparse
  operand, zero-padded decimal digit fields multiplied by libmpdec (the C
  ``decimal`` module), whose number-theoretic transform beats CPython's
  Karatsuba on long operands.  :func:`_slot_residues` reduces the
  product's slots in C for a power of 2 up to 2^16 (one or two low bytes
  each, by ``translate``), and one by one for any other modulus.

The double loop :func:`_convolve_schoolbook` is the reference only: every
path is bit-identical to it, reduced mod m, and the randomized kernel tests
enforce this on every test ring, on both sides of each cutoff.

:meth:`Series.invert` doubles the order by Newton steps in q.  Over Z/2
and Z/4 a series a0 + 2X, such as the theta series phi(-q) that the family
bases are built from, is its own inverse, so it costs no convolution.  Both
are bit-identical to the recurrence :func:`_invert_recurrence`.

Every check in overq that compares two coefficient sequences (identity sides,
replayed steps, family progressions) finds where they differ with
:func:`mismatches`; the oracle's counts are compared in packed form, by
``eta.gf_mismatch``.

Values are immutable after construction and every operation is a pure
function, so series can be shared freely across threads.
"""

from __future__ import annotations

import operator
import struct
import sys
from array import array
from functools import cache
from itertools import compress, count, repeat
from typing import Iterable, Iterator, Sequence

__all__ = ["Ring", "EXACT", "Zmod", "Series", "make_series", "mismatches", "one", "spread"]

# From this order on, Z/mZ products with m <= 256 are multiplied as decimals.
_DECIMAL_CUTOFF = 3000

# A product whose sparser operand has at most one nonzero coefficient per
# this many places of the order is formed by shifted adds.
_SPARSE_SPACING = 16


class Ring:
    """Coefficient domain: exact integers (``modulus=None``) or Z/mZ.

    Immutable, and equal to a ring of the same modulus, with its hash; a
    ring is part of every cached expansion's key, so both are hand-written.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int | None = None) -> None:
        if modulus is not None and modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("Ring values are immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Ring:
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"Ring(modulus={self.modulus!r})"

    @property
    def is_modular(self) -> bool:
        return self.modulus is not None

    def canon(self, value: int) -> int:
        """Canonical representative: the integer itself, or its residue in [0, m)."""
        m = self.modulus
        return value if m is None else value % m

    def unit_inverse(self, value: int) -> int:
        """Multiplicative inverse of a unit (exact: only +1/-1 qualify)."""
        if self.modulus is None:
            if value in (1, -1):
                return value
            raise ValueError(f"{value} is not a unit over the exact integers")
        try:
            return pow(value, -1, self.modulus)
        except ValueError:
            raise ValueError(f"{value} is not a unit mod {self.modulus}") from None

    def __str__(self) -> str:
        return "exact" if self.modulus is None else f"mod {self.modulus}"


EXACT = Ring()


def Zmod(modulus: int) -> Ring:
    """The ring of integers modulo ``modulus`` (>= 2)."""
    return Ring(modulus)


def _convolve_schoolbook(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Reference truncated Cauchy product.

    Every faster kernel must reproduce this output exactly; tests compare
    against it on randomized inputs.
    """
    out = [0] * n
    for i in range(min(len(a), n)):
        ai = a[i]
        if ai:
            for j in range(min(len(b), n - i)):
                out[i + j] += ai * b[j]
    return out


def _pack(vals: Sequence[int], width: int) -> int:
    """Evaluate sum(vals[i] * 2^(8*width*i)) as one big integer."""
    packed = int.from_bytes(
        b"".join((v if v > 0 else 0).to_bytes(width, "little") for v in vals),
        "little",
    )
    if any(v < 0 for v in vals):
        packed -= int.from_bytes(
            b"".join((-v if v < 0 else 0).to_bytes(width, "little") for v in vals),
            "little",
        )
    return packed


@cache
def _residue_table(m: int) -> bytes:
    """Byte -> byte mod m: for m dividing 256 a slot's low byte fixes its residue."""
    return bytes(v % m for v in range(256))


@cache
def _digit_tables() -> tuple[bytes, bytes, bytes]:
    """Byte value -> ASCII digit of its units, tens and hundreds."""
    return tuple(bytes(48 + v // 10**i % 10 for v in range(256)) for i in range(3))


_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))

# Top byte of a signed little-endian 8-byte lane -> 1 if the lane is negative, else 0.
_SIGN_BITS = bytes(v >> 7 for v in range(256))


@cache
def _decimal_context():
    """An exact-multiply ``decimal`` context, or None without the C module.

    Imported on first use, so runs that never reach the decimal path do not
    pay for it.  The pure-Python ``decimal`` is slower than the binary path.
    """
    try:
        import _decimal as decimal
    except ImportError:
        return None
    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _pack_slots(vals: Sequence[int], width: int) -> int:
    """sum(vals[i] * 2^(8*width*i)) for |vals[i]| < 2^(8*width).

    The values are written as signed little-endian 8-byte lanes by
    ``struct``, the fastest C packer of signed integers (``array("q")`` took
    three times as long on CPython 3.11), so the layout does not depend on
    the host.  Each
    slot gathers its value's low ``width`` bytes, which leaves a negative
    value at vals[i] + 2^(8*width): one integer holding a 1 in the slot
    above each negative one is the borrow that corrects them all.
    """
    if width > 8:
        return _pack(vals, width)
    try:
        raw = struct.pack(f"<{len(vals)}q", *vals)
    except struct.error:  # past the signed 8-byte range: 8-byte slots only
        return _pack(vals, width)
    buf = bytearray(len(vals) * width)
    for j in range(width):
        buf[j::width] = raw[j::8]
    packed = int.from_bytes(buf, "little")
    tops = raw[7::8]
    if not tops.isascii():  # some lane's sign bit is set
        borrow = bytearray(len(buf) + width)
        borrow[width::width] = tops.translate(_SIGN_BITS)
        packed -= int.from_bytes(borrow, "little")
    return packed


def _slot_values(data: bytes, width: int, n: int) -> Sequence[int]:
    """The first n little-endian ``width``-byte slots of ``data``, unsigned."""
    if width > 8 or sys.byteorder != "little":
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, n * width, width)]
    lanes = bytearray(8 * n)
    for j in range(width):
        lanes[j::8] = data[j : n * width : width]
    return array("Q", lanes)


def _slot_residues(data: bytes, width: int, n: int, m: int) -> Sequence[int]:
    """Residues mod m of the first n little-endian ``width``-byte slots of
    ``data``, kept compact where C can reduce them.

    When m divides 256 a slot's low byte fixes its residue: the result is
    those bytes, translated.  When m is a larger power of 2 up to 2^16 the
    low two bytes do, the upper one masked by a translate: on a
    little-endian host the result is an ``array("H")`` of them.  Any other
    modulus reduces each slot's value, into a list.
    """
    if 256 % m == 0:
        return data[0 : n * width : width].translate(_residue_table(m))
    if m & (m - 1) == 0 and m <= 1 << 16 and sys.byteorder == "little":
        lanes = bytearray(2 * n)
        lanes[0::2] = data[0 : n * width : width]
        if width > 1:
            lanes[1::2] = data[1 : n * width : width].translate(_residue_table(m >> 8))
        return array("H", lanes)
    return list(map(m.__rmod__, _slot_values(data, width, n)))


def _sparser(a: Sequence[int], b: Sequence[int]) -> tuple[int, Sequence[int], Sequence[int]]:
    """(nonzeros, sparse, dense): the sparser operand's count of nonzero
    coefficients, that operand, and the other one.  A product coefficient
    is a sum of at most ``nonzeros`` nonzero terms."""
    na = len(a) - a.count(0)
    nb = na if a is b else len(b) - b.count(0)
    return (na, a, b) if na <= nb else (nb, b, a)


def _packed_product(sparse: Sequence[int], dense: Sequence[int], width: int, shifted: bool) -> int:
    """The integer product of the operands packed in ``width``-byte slots.

    Either one big-integer multiply, which packs a square once, or, when
    ``shifted``, a sum of copies of the packed dense operand shifted to the
    nonzero slots of ``sparse``: one group of shifts per coefficient value,
    multiplied by that value once (f_1 has only the values 1 and -1).
    Both give the same integer, so the slots unpack as they would.
    """
    packed = _pack_slots(dense, width)
    if not shifted:
        return packed * (packed if sparse is dense else _pack_slots(sparse, width))
    groups: dict[int, list[int]] = {}
    for i in compress(count(), sparse):
        groups.setdefault(sparse[i], []).append(8 * width * i)
    return sum(value * sum(packed << shift for shift in shifts) for value, shifts in groups.items())


def _convolve_packed(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Truncated Cauchy product of exact integers via Kronecker substitution.

    Both polynomials are evaluated at 2^(8*width) and multiplied as Python
    integers; the product's base-2^(8*width) digits are the convolution.
    ``width`` is chosen so every product coefficient, a sum of as many
    terms as the sparser operand has nonzeros, fits a signed digit, and
    adding half the base to each digit makes the split borrow-free.  A
    square (``a is b``) is packed once and multiplied by itself, and an
    operand with at most n / ``_SPARSE_SPACING`` nonzeros is multiplied by
    shifted adds.
    """
    square = a is b
    a = a[:n]
    b = a if square else b[:n]
    nonzeros, sparse, dense = _sparser(a, b)
    if not nonzeros:
        return [0] * n
    abound = max(map(abs, a))
    cbound = nonzeros * abound * (abound if square else max(map(abs, b)))
    width = cbound.bit_length() // 8 + 1  # guarantees |c_k| < 2^(8*width - 1)
    half = 1 << (8 * width - 1)
    length = len(a) + len(b) - 1
    offset = int.from_bytes(half.to_bytes(width, "little") * length, "little")
    product = _packed_product(sparse, dense, width, nonzeros * _SPARSE_SPACING <= n)
    data = (product + offset).to_bytes(length * width, "little")
    digits = _slot_values(data, width, min(n, length))
    return list(map(operator.sub, digits, repeat(half))) + [0] * (n - length)


def _decimal_slots(vals: Sequence[int], digits: int, ctx):
    """sum(vals[i] * 10^(digits*i)) as a Decimal, for 0 <= vals[i] < 256."""
    rev = bytes(vals)[::-1]  # the decimal string starts at the top coefficient
    buf = bytearray(b"0" * (len(vals) * digits))
    for i, table in enumerate(_digit_tables()[: min(digits, 3)]):
        buf[digits - 1 - i :: digits] = rev.translate(table)
    return ctx.create_decimal(buf.decode("ascii"))


def _convolve_mod(a: Sequence[int], b: Sequence[int], n: int, m: int) -> list[int]:
    """Truncated Cauchy product of residues in [0, m), reduced into [0, m).

    A product coefficient is a sum of at most as many terms below m^2 as
    the sparser operand has nonzeros, so it fits ``width`` unsigned bytes
    with no offset.  The slot helpers alone decide the byte layout: slots
    wider than 8 bytes go byte by byte there, and so does unpacking on a
    big-endian host.  A square (``a is b``) is packed once and multiplied
    by itself, on the binary and the decimal path alike.  An operand with
    at most n / ``_SPARSE_SPACING`` nonzeros is multiplied by shifted adds
    on the binary path, whatever the modulus and order.
    """
    square = a is b
    a = a[:n]
    b = a if square else b[:n]
    nonzeros, sparse, dense = _sparser(a, b)
    if not nonzeros:
        return [0] * n
    cbound = nonzeros * (m - 1) ** 2
    width = (cbound.bit_length() + 7) // 8
    shifted = nonzeros * _SPARSE_SPACING <= n
    ctx = _decimal_context() if m <= 256 and n >= _DECIMAL_CUTOFF and not shifted else None
    if ctx is None:
        product = _packed_product(sparse, dense, width, shifted)
        data = product.to_bytes(max(n, len(a) + len(b)) * width, "little")
        return list(_slot_residues(data, width, n, m))
    digits = len(str(cbound))
    packed = _decimal_slots(a, digits, ctx)
    product = ctx.multiply(packed, packed if square else _decimal_slots(b, digits, ctx))
    size = n * digits
    rev = str(product)[-size:].rjust(size, "0").encode("ascii")[::-1]
    # Gather each digit position into width-byte lanes; every coefficient is
    # below 2^(8*width), so summing 10^i * lane_i never carries between lanes.
    lane = bytearray(n * width)
    total = 0
    for i in range(digits):
        lane[0::width] = rev[i::digits].translate(_DIGIT_VALUES)
        total += int.from_bytes(lane, "little") * 10**i
    return list(_slot_residues(total.to_bytes(n * width, "little"), width, n, m))


def _ring_convolve(ring: Ring, a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Truncated product of canonical coefficient sequences, canonical in ``ring``."""
    if ring.modulus is None:
        return _convolve_packed(a, b, n)
    return _convolve_mod(a, b, n, ring.modulus)


class Series:
    """Immutable dense truncated power series over a :class:`Ring`."""

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring: Ring, coeffs: Iterable[int]):
        m = ring.modulus
        cs = tuple(coeffs) if m is None else tuple(map(operator.mod, coeffs, repeat(m)))
        if not cs:
            raise ValueError("a series needs truncation order >= 1")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", cs)

    @classmethod
    def _from_canonical(cls, ring: Ring, coeffs: Sequence[int]) -> "Series":
        """Trusted constructor: ``coeffs`` is non-empty and already canonical in ``ring``."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", tuple(coeffs))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Series values are immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def order(self) -> int:
        """Truncation order N: coefficients are known for exponents < N."""
        return len(self._coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def coeff(self, n: int) -> int:
        """Coefficient of q^n; raises IndexError past the truncation order."""
        if not 0 <= n < len(self._coeffs):
            raise IndexError(f"coefficient q^{n} is beyond truncation order {self.order}")
        return self._coeffs[n]

    def __getitem__(self, n: int) -> int:
        return self.coeff(n)

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.ring, self._coeffs))

    def to_text(self) -> str:
        """Canonical textual form: "c0 + c1*q + c2*q^2 + ... (<ring>; O(q^N))"."""
        parts = [str(self._coeffs[0])]
        for k in range(1, len(self._coeffs)):
            c = self._coeffs[k]
            term = "q" if k == 1 else f"q^{k}"
            parts.append(f"{'-' if c < 0 else '+'} {abs(c)}*{term}")
        return f"{' '.join(parts)} ({self.ring}; O(q^{self.order}))"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"<Series {self.ring} O(q^{self.order}): [{head}{tail}]>"

    # -- arithmetic ---------------------------------------------------------

    def _same_ring(self, other: "Series") -> Ring:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        return self.ring

    def __add__(self, other: "Series") -> "Series":
        ring = self._same_ring(other)
        return Series(ring, map(operator.add, self._coeffs, other._coeffs))

    def __sub__(self, other: "Series") -> "Series":
        ring = self._same_ring(other)
        return Series(ring, map(operator.sub, self._coeffs, other._coeffs))

    def __neg__(self) -> "Series":
        return Series(self.ring, map(operator.neg, self._coeffs))

    def scale(self, scalar: int) -> "Series":
        """Multiply every coefficient by an integer scalar."""
        return Series(self.ring, map(operator.mul, repeat(scalar), self._coeffs))

    def __mul__(self, other: "Series") -> "Series":
        ring = self._same_ring(other)
        n = min(self.order, other.order)
        return Series._from_canonical(ring, _ring_convolve(ring, self._coeffs, other._coeffs, n))

    def invert(self) -> "Series":
        """Multiplicative inverse to the truncation order.

        Requires a unit constant term.  Newton doubling in q: if b is the
        inverse to order h, then a*b = 1 + e*q^h and b' = b - b*e*q^h is the
        inverse to order 2h.  So each step keeps b and appends the low
        coefficients of -b*e.  Over Z/2 and Z/4 a series a0 + 2X, every
        coefficient past the constant even, is its own inverse instead:
        (a0 + 2X)^2 = a0^2 + 4 a0 X + 4 X^2 == 1 mod 4.  Its parity test
        reads each distinct coefficient once, from a set built in C.
        """
        ring = self.ring
        m = ring.modulus
        inv0 = ring.unit_inverse(self._coeffs[0])
        n = self.order
        a = self._coeffs
        if m in (2, 4) and not any(c & 1 for c in set(a[1:])):
            return self
        b = [ring.canon(inv0)]
        k = 1
        while k < n:
            h, k = k, min(2 * k, n)
            e = _ring_convolve(ring, a, b, k)[h:]
            step = map(operator.neg, _ring_convolve(ring, b, e, k - h))
            b += step if m is None else map(operator.mod, step, repeat(m))
        return Series._from_canonical(ring, b)

    def __pow__(self, exponent: int) -> "Series":
        """Integer power by the one power ladder, :func:`_ladder`, over a
        memo of this series alone: bits(e) - 1 squarings and a product by
        the base at each further set bit.  Negative powers invert first."""
        if exponent == 0:
            return one(self.ring, self.order)
        return _ladder({1: self if exponent > 0 else self.invert()}, abs(exponent))

    # -- reindexing ---------------------------------------------------------

    def substitute_power(self, k: int) -> "Series":
        """Substitute q -> q^k; the truncation order is preserved."""
        return spread(self, k, self.order)

    def dissect(self, m: int, r: int) -> "Series":
        """Extract the coefficients at exponents congruent to r mod m.

        Result coefficient j is c_{m*j + r}; the result order is
        ceil((order - r) / m).
        """
        if m < 1:
            raise ValueError(f"dissection modulus must be >= 1, got {m}")
        if not 0 <= r < m:
            raise ValueError(f"residue must satisfy 0 <= r < m, got r={r}, m={m}")
        out = self._coeffs[r::m]
        if not out:
            raise ValueError(f"dissection residue {r} is beyond truncation order {self.order}")
        return Series._from_canonical(self.ring, out)

    def shift(self, j: int) -> "Series":
        """Multiply by q^j: j zeros are prepended, the tail is truncated."""
        if j < 0:
            raise ValueError(f"shift must be >= 0, got {j}")
        if j == 0:
            return self
        n = self.order
        return Series._from_canonical(self.ring, (0,) * min(j, n) + self._coeffs[: max(n - j, 0)])

    def truncate(self, order: int) -> "Series":
        """Forget coefficients at q^order and beyond."""
        if not 1 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to order {order}")
        if order == self.order:
            return self
        return Series._from_canonical(self.ring, self._coeffs[:order])

    def reduce_ring(self, modulus: int) -> "Series":
        """Map an exact series into Z/mZ coefficientwise."""
        if self.ring.is_modular:
            raise ValueError("series is already modular; reduce from the exact ring")
        return Series(Zmod(modulus), self._coeffs)


def _ladder(memo: dict[int, Series], e: int) -> Series:
    """base^e, e >= 1, over ``memo``, which maps exponents to powers of one
    base and holds base^1; every power made is stored in it.

    The one way overq steps between powers of a series.  A miss takes the
    largest stored power p, 1 < p < e, and makes base^p * base^(e - p).
    The rest d = e - p (d = e when there is no such p) is built bottom
    up: walk d, d // 2, ... down to a stored power, then square back up,
    with one more product by the base at each odd d.  So a cold memo costs bits(e) - 1
    squarings and a product per further set bit, as a binary power does,
    and no call recurses.  Plain products only: no congruence between
    Euler products (such as the ``B1`` identities check) is built in.
    """
    power = memo.get(e)
    if power is not None:
        return power
    p = max((p for p in tuple(memo) if 1 < p < e), default=0)  # another thread may add to memo
    d = e - p
    chain = []
    while d not in memo:
        chain.append(d)
        d //= 2
    power = memo[d]
    for d in reversed(chain):
        power = power * power
        if d & 1:
            power = power * memo[1]
        memo[d] = power
    if p:
        power = memo[e] = memo[p] * power
    return power


def make_series(ring: Ring, coeffs: Iterable[int], order: int) -> Series:
    """Build a canonical series from at most ``order`` coefficients, zero-padded."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    cs = list(coeffs)
    if len(cs) > order:
        raise ValueError(f"{len(cs)} coefficients exceed truncation order {order}")
    cs.extend([0] * (order - len(cs)))
    return Series(ring, cs)


def one(ring: Ring, order: int) -> Series:
    """The constant series 1, built with no canonicalising pass: 1 and 0 are
    canonical in every ring."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return Series._from_canonical(ring, (1,) + (0,) * (order - 1))


def spread(s: Series, step: int, order: int) -> Series:
    """The series s(q^step) to truncation ``order``.

    Exponents below ``order`` that are multiples of ``step`` take the
    coefficients of s at 0 .. (order - 1) // step, and the rest are zero.
    So s needs only order ceil(order / step), not ``order``: a factor such
    as f_k^e can be built short as f_1^e and spread.
    """
    if step < 1:
        raise ValueError(f"substitution step must be >= 1, got {step}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    needed = (order - 1) // step + 1
    if needed > s.order:
        raise ValueError(
            f"order-{s.order} series cannot be spread by {step} to order {order}; "
            f"it needs order {needed}"
        )
    if step == 1:
        return s.truncate(order)
    out = [0] * order
    out[::step] = s.coeffs[:needed]
    return Series._from_canonical(s.ring, out)


def mismatches(a: Iterable[int], b: Iterable[int]) -> Iterator[int]:
    """The indices where ``a`` and ``b`` differ, up to the shorter of the two.

    Elements are compared one by one, so a tuple and a list of equal values
    have no mismatches.  The iterator is lazy: ``next(mismatches(a, b), None)``
    stops at the first difference.
    """
    return compress(count(), map(operator.ne, a, b))


def _invert_recurrence(s: Series) -> Series:
    """Reference inversion by the constant-term-unit recurrence (O(N^2)).

    Kept as an independent check on the Newton path.
    """
    ring = s.ring
    inv0 = ring.unit_inverse(s.coeffs[0])
    a = s.coeffs
    b = [ring.canon(inv0)]
    for n in range(1, s.order):
        acc = 0
        for i in range(1, n + 1):
            acc += a[i] * b[n - i]
        b.append(ring.canon(-inv0 * acc))
    return Series(ring, b)
