"""Congruence families for overpartition tuples, and replays of the
coefficient tables and dissection steps that prove them.

Every divisibility claim is encoded as data: a tuple size, a parameterized
arithmetic progression A*n + B, a modulus expression and a parameter domain,
each written once as the text reports print, the four compiled together
into one point expression, and the expected residues (zero unless stated
otherwise), one list for n = 0..n_max per grid point.  ``default_grid``
evaluates the expression once at each candidate of a family's grid and
keeps the points in its domain; ``check_family`` scans those points over
Z/mZ and reports witnesses for every violated coefficient.  Families carry
a status: ``theorem`` families must pass, ``conjecture`` families are
scanned and reported but never fail a run.  A dissection step checked at
one parameter point is an identity case, and its result is an
``IdentityReport``.
"""

from __future__ import annotations

import ast
import math
import re
import threading
from functools import lru_cache, partial
from itertools import accumulate, count, product, takewhile
from types import CodeType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .series import EXACT, Series, Zmod, _ladder, _pack_slots, _slot_residues, mismatches, one
from .eta import family_gf
from .expr import (
    DissectRecipe,
    Recipe,
    eta_series,
    gf_series,
    qshift,
)
from .identities import IdentityCase, IdentityReport, _mode, _params_text, verify_identity

__all__ = [
    "RunConfig",
    "BudgetError",
    "CongruenceFamily",
    "Witness",
    "FamilyReport",
    "SeriesProvider",
    "builtin_families",
    "family_registry",
    "default_grid",
    "check_family",
    "run_families",
    "binomial_table",
    "TableReport",
    "replay_binomial_tables",
    "DissectionStep",
    "builtin_steps",
    "step_registry",
    "verify_dissection_step",
]

# Hard cap on series length; progressions needing more are configuration errors.
MAX_WORKING_ORDER = 2_000_000

# Largest verify grid: the product of each selected family's axis lengths,
# summed over the families, before the domain filter.  On a 2-vCPU host
# `verify all --t-max 6400` (160,729 points) took 3.1-3.7 s and 52 MB, and
# --t-max 7958 (199,999 points, all 27 families) 4.9 s and 60 MB; both grow
# linearly in the caps.  The default grid of all 27 families has 2,649.
MAX_GRID_POINTS = 200_000

# Largest value of a dissection-step parameter (t, i or r).  opt-2n+1 works
# mod 2^(i+4) on the GF of 2^i r-tuples: at order 500, i = 64 took 0.5-0.8 s,
# i = 100 2.4 s and i = 400 45 s, while t and r cost only the bits of the
# tuple size.
MAX_STEP_PARAMETER = 64

# Largest dissection-step work: modulus bits times the longest power ladder of
# either side (``Recipe.work``, bits(e) squarings per f_1^e).  CPU s on a
# Xeon: opt-2n+1 i=64 r=1 order 500 (4.6M) 0.54, i=64 r=63 order 1000 (9.8M)
# 1.6 and 5000 (49M) 30; G16 t=64 order 250,000 (10M) 4.1; opt-4n+3-i1 r=63
# order 80,000 (15M) 9.0.
MAX_STEP_WORK = 10_000_000

# The most witnesses a family report keeps; its failure count counts them all.
WITNESS_CAP = 10


class BudgetError(ValueError):
    """A run refused up front because its size is over a budget.

    Six budgets raise it: a ``verify`` working order over
    ``MAX_WORKING_ORDER``, a ``verify`` grid over ``MAX_GRID_POINTS``, a step
    order over an eighth of ``MAX_WORKING_ORDER`` or work over ``MAX_STEP_WORK``,
    a step parameter over ``MAX_STEP_PARAMETER``, ``cli.MAX_EXACT_ORDER`` for
    ``identities --order`` and ``oracle --upto``, and ``cli.MAX_ORACLE_WORK``
    for an ``oracle`` tuple size times ``--upto`` + 1.  ``cli.main`` prints
    each as ``error: ...`` and exits 2.
    """


class RunConfig(NamedTuple):
    """The settings of a batch verification run: the last n it checks on each
    progression A n + B, the caps of the grid axes (``GRID_CAPS``), and
    whether the prime-scan families take prime tuple sizes t only.  Each
    family works at the order its progression needs to reach n = ``n_max``."""

    n_max: int = 200
    t_max: int = 64
    i_max: int = 3
    j_max: int = 3
    alpha_max: int = 2
    primes_only: bool = False


# Each grid axis runs 0..cap: the RunConfig setting named here for a parameter,
# or ODD_MULTIPLIER_CAP for the odd multipliers r, k and l.
GRID_CAPS = {"t": "t_max", "a": "alpha_max", "i": "i_max", "j": "j_max"}
ODD_MULTIPLIER_CAP = 15


class Witness(NamedTuple):
    """A violated coefficient: value != expected (mod modulus)."""

    params: tuple[tuple[str, int], ...]
    n: int
    value: int
    modulus: int
    expected: int

    params_text = _params_text
    mode = property(_mode)


class FamilyReport(NamedTuple):
    key: str
    family_status: str  # theorem | conjecture
    params_tried: int
    coeffs_checked: int
    failures: int
    witnesses: tuple[Witness, ...]  # capped sample; failures counts all

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def verdict(self) -> str:
        word = "pass" if self.ok else "fail"
        return word if self.family_status == "theorem" else f"conjecture-{word}"

    @property
    def blocking(self) -> bool:
        """True when this result should fail a verification run."""
        return self.family_status == "theorem" and not self.ok


# --- family formulas, evaluated from their report text ----------------------
#
# Arithmetic texts use +, * and ^ over integers and the family's parameters,
# with juxtaposition as multiplication ("2a", "2^(2a+2) n").  A progression is
# A n + B in the variable n.  A domain is a list of clauses separated by
# commas outside brackets, optionally ending in a "(wide reading: ...)" note.
# Each arithmetic text is parsed and checked on its own, then written back,
# bracketed, into one Python source string, the family's point expression,
# which is compiled once per distinct tuple of texts.

_JUXTAPOSED = re.compile(r"(?<=[\d)])\s*(?=[A-Za-z(])")
_CLAUSE_SEP = re.compile(r",\s*(?![^(){}]*[)}])")
_WIDE_NOTE = re.compile(r"\s*\(wide reading: [^()]*\)$")
_ARITH_NODES = (ast.BinOp, ast.Add, ast.Mult, ast.Pow, ast.Name, ast.Load, ast.Constant)


def _arith(text: str, names: tuple[str, ...]) -> str:
    """Check an arithmetic text and return it as parenthesised source;
    anything but +, *, ^, ints and names is an error."""
    source = _JUXTAPOSED.sub("*", text).replace("^", "**").strip()
    try:
        body = ast.parse(source, mode="eval").body
    except SyntaxError:
        raise ValueError(f"cannot parse formula {text!r}") from None
    for node in ast.walk(body):
        if not isinstance(node, _ARITH_NODES) or (
            isinstance(node, ast.Constant) and type(node.value) is not int
        ):
            raise ValueError(f"formula {text!r} uses {type(node).__name__}")
        if isinstance(node, ast.Name) and node.id not in names:
            raise ValueError(f"formula {text!r} names {node.id!r}, not a parameter")
    # the text parses alone, so its brackets balance; the newline ends a comment
    return f"({source}\n)"


def _progression(text: str, names: tuple[str, ...]) -> str:
    """A n + B  ->  "A, B"."""
    m = re.fullmatch(r"(.*?)\s*n\s*\+(.+)", text)
    if m is None:
        raise ValueError(f"progression {text!r} is not of the form A n + B")
    return f"{_arith(m[1] or '1', names)}, {_arith(m[2], names)}"


def _clause(text: str, names: tuple[str, ...]) -> str:
    def arith(part: str) -> str:
        return _arith(part, names)

    if m := re.fullmatch(r"(.+) (>=|!=) (.+)", text):
        return f"{arith(m[1])} {m[2]} {arith(m[3])}"
    if m := re.fullmatch(r"(.+) odd", text):
        return f"{arith(m[1])} % 2 == 1"
    if m := re.fullmatch(r"(.+) does not divide (.+)", text):
        return f"{arith(m[2])} % {arith(m[1])} != 0"
    if m := re.fullmatch(r"gcd\((.+), (.+)\) = 1", text):
        return f"gcd({arith(m[1])}, {arith(m[2])}) == 1"
    if m := re.fullmatch(r"(.+) % (.+) in \{(.+)\}", text):
        members = ", ".join(map(arith, m[3].split(",")))
        return f"{arith(m[1])} % {arith(m[2])} in {{{members}}}"
    raise ValueError(f"unknown domain clause {text!r}")


class _Point(NamedTuple):
    """A family's progression A n + B, modulus and tuple size at one point
    of its domain, and the parameters of that point."""

    step: int
    offset: int
    modulus: int
    size: int
    params: Mapping[str, int]

    def order(self, n_max: int) -> int:
        """The order reaching n = n_max, in whole blocks of A, so the
        progressions of one step share an order."""
        return self.step * (n_max + 1 + self.offset // self.step)


_SCOPE = {"__builtins__": {}, "gcd": math.gcd}


@lru_cache(maxsize=None)
def _point_code(
    size: str, progression: str, modulus: str, domain: str, names: tuple[str, ...]
) -> CodeType:
    """The texts as one expression: ``(A, B, modulus, size) if domain else None``."""
    clauses = _CLAUSE_SEP.split(_WIDE_NOTE.sub("", domain))
    condition = " and ".join(_clause(clause, names) for clause in clauses)
    formulas = [_progression(progression, names), _arith(modulus, names), _arith(size, names)]
    return compile(f"({', '.join(formulas)}) if {condition} else None", progression, "eval")


class CongruenceFamily:
    """A parameterized claim: coefficient at A*n+B of the family GF is
    congruent to an expected residue mod m, for all parameters in a domain.

    The tuple size, progression, modulus and domain are stated once, as the
    texts the report prints, and compiled together into one point
    expression, which ``point`` evaluates.  The texts are compiled when the
    family is made, so a malformed text fails the registry build.  A family
    is immutable, and equal only to itself."""

    __slots__ = (
        "key",
        "kind",  # "overpartition" | "opt"
        "status",  # "theorem" | "conjecture"
        "statement",
        "params",  # parameter names
        "size_text",  # tuple size, the parameter of the family GF
        "progression_text",
        "modulus_text",
        "domain_text",
        "expected",  # (params, n_max) -> residues, or None for zeros
        "tags",
        "_code",
    )

    def __init__(
        self,
        key: str,
        kind: str,
        status: str,
        statement: str,
        params: tuple[str, ...],
        size_text: str,
        progression_text: str,
        modulus_text: str,
        domain_text: str,
        expected: Callable[[Mapping[str, int], int], list[int]] | None = None,
        tags: tuple[str, ...] = (),
    ) -> None:
        code = _point_code(size_text, progression_text, modulus_text, domain_text, params)
        for name, value in zip(self.__slots__, (
            key, kind, status, statement, params, size_text, progression_text, modulus_text,
            domain_text, expected, tags, code,
        )):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CongruenceFamily values are immutable")

    def __repr__(self) -> str:
        return f"CongruenceFamily(key={self.key!r})"

    def point(self, p: Mapping[str, int]) -> _Point | None:
        """The formulas at p, with p, or None outside the domain."""
        formulas = eval(self._code, _SCOPE, p)
        return None if formulas is None else _Point(*formulas, p)

    def describe(self) -> dict:
        """Registry metadata, used verbatim in machine-readable reports."""
        return {
            "key": self.key,
            "kind": self.kind,
            "status": self.status,
            "statement": self.statement,
            "progression": self.progression_text,
            "modulus": self.modulus_text,
            "domain": self.domain_text,
            "params": list(self.params),
        }


def _twos_at_triangular(p: Mapping[str, int], n_max: int) -> list[int]:
    """Residues for n = 0..n_max: 2 at each n = k(k+1)/2 when t is odd, else 0."""
    residues = [0] * (n_max + 1)
    if p["t"] % 2 == 1:
        for n in takewhile(n_max.__ge__, accumulate(count())):
            residues[n] = 2
    return residues


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class SeriesProvider:
    """Cache of counting generating functions over modular rings.

    A bucket exists only where a base is expanded, by ``family_gf(kind, 1,
    ...)`` over Z/M to some order, and the GF at parameter p is base^p.

    A request mod m is served by the smallest built bucket of its kind whose
    modulus M is a multiple of m and whose order reaches the one asked for:
    the divisor gets the multiple's coefficients reduced mod m and truncated.
    Reduction and truncation are ring homomorphisms, so this is the series an
    expansion mod m would give.  Only when no bucket serves is a base
    expanded.  ``run_families`` reserves in descending modulus, so a
    divisor's multiples are built before it is asked for.  ``_bucket``
    remembers the bucket that serves each (kind, modulus, order) it was
    asked for, and forgets them all whenever it builds a bucket, since the
    new one may be a smaller multiple.

    A base, a product of powers of phi(-q^s), is 1 + 2X (``_bucket`` raises
    ``RuntimeError`` on an even-modulus expansion that is not), so base^p =
    sum_j C(p, j) (2X)^j, and (2X)^j vanishes mod 2^k from j = k on.  So a
    power-of-2 modulus 2^k is served from the bucket's table N_j = (base -
    1)^j mod M, j < v2(M), built once by v2(M) - 2 multiplies: base^p is
    sum_{j<k} C(p, j) N_j mod 2^k for every p, with no power stepped to.
    That sum is fixed by the weight vector (C(p, j) mod 2^k)_{j<k}, and
    more coarsely by p mod 2^(k-1): squaring 1 + 2^i Y gives 1 + 2^(i+1)
    (Y + 2^(i-1) Y^2), so base^(2^(k-1)) == 1 mod 2^k.  Each slice of the
    table keeps one result per class of p mod 2^(k-1), as compact as
    ``series._slot_residues`` reduces it (bytes when 2^k divides 256, else
    an ``array("H")`` on a little-endian host), and makes the sum only for
    a class it has not seen.  The 1,689 power-of-2 requests of the default
    grid of every family fall in 372 weight vectors and 148 classes, so
    they make 148 sums.

    Every other request steps by ``series._ladder`` over the bucket's memo
    ``powers``, which holds every base^d computed so far: a parameter not
    yet cached is the largest cached power base^p below it, p > 1, times
    base^d for the difference d (or d is the parameter, when there is no
    such p), and base^d is built bottom up from d, d // 2, ... down to a
    cached power, squaring back up with a product by the base at each odd
    step.  So the tuple sizes c*k, k = 1, 5, 7, 11, 13, of one odd-part grid
    step from c to 5c by base^(4c) = ((base^c)^2)^2, and on to 7c, 11c and
    13c by one multiply each.

    ``values`` serves the residues on one progression, which is all
    ``check_family`` reads; ``gf`` serves the whole series.  All methods are
    thread-safe.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple[str, int], dict] = {}
        self._serving: dict[tuple[str, int, int], dict] = {}  # (kind, modulus, order) -> bucket
        self._lock = threading.Lock()

    def reserve(self, kind: str, modulus: int, order: int) -> None:
        """Make sure a bucket of a multiple of ``modulus`` reaches ``order``.

        Later requests mod ``modulus``, at that order or below, are served
        from it.  A base is expanded only when no built bucket serves.
        """
        with self._lock:
            self._bucket(kind, modulus, order)

    def _bucket(self, kind: str, modulus: int, order: int) -> dict:
        bucket = self._serving.get((kind, modulus, order))
        if bucket is not None:
            return bucket
        if order > MAX_WORKING_ORDER:
            raise BudgetError(f"working order {order} exceeds budget {MAX_WORKING_ORDER}")
        multiples = [
            m for (k, m), built in self._buckets.items()
            if k == kind and m % modulus == 0 and built["order"] >= order
        ]
        if multiples:
            bucket = self._serving[kind, modulus, order] = self._buckets[kind, min(multiples)]
            return bucket
        ring = Zmod(modulus)
        base = family_gf(kind, 1, ring, order)
        # the distinct coefficients past the constant, each tested once
        if modulus % 2 == 0 and (base.coeffs[0] != 1 or any(c & 1 for c in set(base.coeffs[1:]))):
            raise RuntimeError(f"the {kind} base mod {modulus} is not 1 + 2X")
        self._serving.clear()  # the new bucket may be the smallest multiple for any of them
        bucket = self._buckets[kind, modulus] = {
            "order": order,
            "powers": {0: one(ring, order), 1: base},
            "table": None,
            # (2^k, start, stop, step) -> (slot width, size, packed N_j, {p mod 2^(k-1): residues})
            "slices": {},
        }
        return bucket

    @staticmethod
    def _table(bucket: dict) -> list[Series]:
        """N_j = (base - 1)^j over the bucket's ring, j < v2(M), by v2(M) - 2 multiplies.

        The base of an even modulus has constant term 1 (``_bucket`` checks
        it), so base - 1 is the base with its constant term zeroed."""
        if bucket["table"] is None:
            unit, base = bucket["powers"][0], bucket["powers"][1]
            x = Series._from_canonical(base.ring, (0,) + base.coeffs[1:])
            modulus = base.ring.modulus
            size = (modulus & -modulus).bit_length() - 1
            table = [unit, x][:size]
            while len(table) < size:
                table.append(table[-1] * x)
            bucket["table"] = table
        return bucket["table"]

    def values(
        self, kind: str, param: int, modulus: int, order: int, step: int, offset: int, count: int
    ) -> list[int]:
        """The residues at q^(offset + step n), n < ``count``, of the GF over
        Z/modulus to the order: ``gf(...).coeffs[offset::step][:count]`` as a
        list, so fewer than ``count`` where the order ends first."""
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if param < 0:
            raise ValueError(f"tuple parameter must be >= 0, got {param}")
        where = slice(offset, min(order, offset + step * count), step)
        with self._lock:
            bucket = self._bucket(kind, modulus, order)
            if modulus & (modulus - 1) == 0:
                return self._binomial(bucket, param, modulus, where)
            series = _ladder(bucket["powers"], param)  # the memo holds base^0 too
        coeffs = series.coeffs[where]
        return list(coeffs) if series.ring.modulus == modulus else [c % modulus for c in coeffs]

    def _binomial(self, bucket: dict, param: int, modulus: int, where: slice) -> list[int]:
        """base^param mod ``modulus`` = 2^k at the exponents ``where``, as the sum
        of C(param, j) N_j over j < k.  The N_j slices are packed once per
        modulus and slice, in byte slots wide enough for that sum, and the
        sum is made once per class of param mod 2^(k-1), the period of the
        base mod 2^k."""
        key = (modulus, where.start, where.stop, where.step)
        entry = bucket["slices"].get(key)
        if entry is None:
            k = modulus.bit_length() - 1
            width = ((k * (modulus - 1) * (modulus - 1)).bit_length() + 7) // 8
            rows = [[c % modulus for c in n.coeffs[where]] for n in self._table(bucket)[:k]]
            packed = [_pack_slots(row, width) for row in rows]
            entry = bucket["slices"][key] = width, len(rows[0]), packed, {}
        width, size, rows, classes = entry
        period_class = param % (modulus >> 1)
        residues = classes.get(period_class)
        if residues is None:
            total = sum(math.comb(param, j) % modulus * row for j, row in enumerate(rows))
            residues = classes[period_class] = _slot_residues(
                total.to_bytes(size * width, "little"), width, size, modulus
            )
        return list(residues)

    def gf(self, kind: str, param: int, modulus: int, order: int) -> Series:
        """The family GF for a tuple parameter, over Z/modulus, to the order:
        ``values`` at every exponent below ``order``."""
        return Series._from_canonical(
            Zmod(modulus), self.values(kind, param, modulus, order, 1, 0, order)
        )

    @staticmethod
    @lru_cache(maxsize=64)
    def gf_exact(kind: str, param: int, order: int) -> Series:
        """Exact-ring GF, for homomorphism cross-checks."""
        return family_gf(kind, param, EXACT, order)


def builtin_families() -> tuple[CongruenceFamily, ...]:
    """The complete keyed registry, in stable key order."""
    pbar = partial(CongruenceFamily, kind="overpartition", status="theorem",
                   params=("t",), size_text="t", domain_text="t >= 0")
    opt = partial(CongruenceFamily, kind="opt")

    # --- overpartition tuples: fixed progressions -------------------------
    fams = [
        pbar(
            key="pbar-n-mod2",
            statement="pbar_t(n) == 0 (mod 2) for all n >= 1 and t >= 0",
            progression_text="n+1",
            modulus_text="2",
        )
    ]
    for a_n, b_n, m, tag in (
        (8, 1, 2, True),
        (8, 2, 4, True),
        (8, 3, 8, True),
        (8, 4, 2, True),
        (8, 5, 8, True),
        (8, 6, 8, True),
        (8, 7, 32, True),
        (16, 10, 8, False),
        (4, 3, 8, False),
        (16, 14, 16, False),
    ):
        fams.append(
            pbar(
                key=f"pbar-{a_n}n+{b_n}-mod{m}",
                statement=f"pbar_t({a_n}n+{b_n}) == 0 (mod {m}) for all t >= 0",
                progression_text=f"{a_n}n+{b_n}",
                modulus_text=str(m),
                tags=("prime-scan",) if tag else (),
            )
        )
    # Sharper moduli on restricted residues of t.
    for a_n, b_n, m in ((4, 3, 16), (8, 6, 16)):
        fams.append(
            pbar(
                key=f"pbar-{a_n}n+{b_n}-mod{m}",
                statement=f"pbar_t({a_n}n+{b_n}) == 0 (mod {m}) when t is not 1 mod 4",
                progression_text=f"{a_n}n+{b_n}",
                modulus_text=str(m),
                domain_text="t % 4 in {0, 2, 3}",
            )
        )

    # --- overpartition tuples: power-scaled progressions ------------------
    for key, progression in (
        ("2^{2a+2}n+2^{2a+1}-mod4", "2^(2a+2) n + 2^(2a+1)"),
        ("2^{2a+2}n+3*2^{2a}-mod4", "2^(2a+2) n + 3*2^(2a)"),
        ("2^{2a+3}n+5*2^{2a}-mod4", "2^(2a+3) n + 5*2^(2a)"),
    ):
        fams.append(
            pbar(
                key=f"pbar-{key}",
                statement=f"pbar_t({progression}) == 0 (mod 4) for all t, a >= 0",
                params=("t", "a"),
                progression_text=progression,
                modulus_text="4",
                domain_text="t >= 0, a >= 0",
            )
        )
    fams.append(
        pbar(
            key="pbar-2^{2a+3}n+2^{2a}-mod4-tri",
            statement="pbar_t(2^(2a+3) n + 2^(2a)) == 2 (mod 4) when t is odd and n is "
            "triangular, else == 0 (mod 4)",
            params=("t", "a"),
            progression_text="2^(2a+3) n + 2^(2a)",
            modulus_text="4",
            domain_text="t >= 0, a >= 0",
            expected=_twos_at_triangular,
        )
    )

    # --- odd-part tuples ----------------------------------------------------
    for b_n, mod_text, key in (
        (2, "3^(i+1) * 2^(j+2)", "opt-3n+2-mod-3^{i+1}2^{j+2}"),
        (1, "3^i * 2^(j+1)", "opt-3n+1-mod-3^i2^{j+1}"),
    ):
        fams.append(
            opt(
                key=key,
                status="theorem",
                statement=f"opt_{{3^i * 2^j * k}}(3n+{b_n}) == 0 (mod {mod_text}) for "
                "i, j >= 1 and k coprime to 6",
                params=("i", "j", "k"),
                size_text="3^i * 2^j * k",
                progression_text=f"3n+{b_n}",
                modulus_text=mod_text,
                domain_text="i >= 1, j >= 1, gcd(k, 6) = 1",
            )
        )
    # The odd multiplier l is read strictly: odd, not divisible by 3, l != 1.
    # A second, wider reading that admits l = 1 is registered separately below
    # as a conjecture so both interpretations stay scannable.
    for b_n, mod_text, key, wide in (
        (2, "3^(i+1) * 2", "opt-3n+2-mod-3^{i+1}2", False),
        (1, "3^i * 2", "opt-3n+1-mod-3^i2", False),
        (2, "3^(i+1) * 2", "opt-3n+2-mod-3^{i+1}2-l1", True),
        (1, "3^i * 2", "opt-3n+1-mod-3^i2-l1", True),
    ):
        domain_text = "i >= 1, l odd, 3 does not divide l" + (
            " (wide reading: l = 1 allowed)" if wide else ", l != 1"
        )
        fams.append(
            opt(
                key=key,
                status="conjecture" if wide else "theorem",
                statement=f"opt_{{3^i * l}}(3n+{b_n}) == 0 (mod {mod_text}) for {domain_text}",
                params=("i", "l"),
                size_text="3^i * l",
                progression_text=f"3n+{b_n}",
                modulus_text=mod_text,
                domain_text=domain_text,
            )
        )

    # On 8n+7 the family is proved; the other progressions are open conjectures.
    for b_n, key_mod, mod_text in (
        (7, "2^{i+4}", "2^(i+4)"),
        (2, "2^{2i+1}", "2^(2i+1)"),
        (4, "2^{2i+4}", "2^(2i+4)"),
        (6, "2^{2i+3}", "2^(2i+3)"),
    ):
        fams.append(
            opt(
                key=f"opt-8n+{b_n}-mod-{key_mod}",
                status="theorem" if b_n == 7 else "conjecture",
                statement=f"opt_{{2^i * r}}(8n+{b_n}) == 0 (mod {mod_text}) for i >= 1 and odd r",
                params=("i", "r"),
                size_text="2^i * r",
                progression_text=f"8n+{b_n}",
                modulus_text=mod_text,
                domain_text="i >= 1, r odd",
            )
        )

    return tuple(sorted(fams, key=lambda f: f.key))


def family_registry() -> dict[str, CongruenceFamily]:
    return {family.key: family for family in builtin_families()}


def default_grid(family: CongruenceFamily, config: RunConfig) -> list[_Point]:
    """The points a run scans for one family: the product of its axes
    0..cap, in order, each candidate evaluated once by ``family.point`` and
    kept when it is in the family's domain.  With ``primes_only`` a
    prime-scan family keeps prime t only.  Each point carries its formulas
    and its parameters, which is all ``run_families`` and ``check_family``
    read.
    """
    axes = []
    for name in family.params:
        values = _axis(family, name, config)
        if name == "t" and config.primes_only and "prime-scan" in family.tags:
            values = filter(_is_prime, values)
        axes.append(values)
    points = (family.point(dict(zip(family.params, values))) for values in product(*axes))
    return [point for point in points if point is not None]


def _axis(family: CongruenceFamily, name: str, config: RunConfig) -> range:
    """The values 0..cap of one grid axis of a family."""
    if name in GRID_CAPS:
        return range(getattr(config, GRID_CAPS[name]) + 1)
    if name in ("r", "k", "l"):
        return range(ODD_MULTIPLIER_CAP + 1)
    raise ValueError(f"parameter {name!r} of {family.key} has no grid axis")


def check_family(
    family: CongruenceFamily,
    points: Iterable[_Point | None],
    n_max: int,
    *,
    provider: SeriesProvider | None = None,
    exact_check: bool = False,
) -> FamilyReport:
    """Scan grid points, asserting the expected residue for n = 0..n_max.

    Each point is what ``family.point`` returned, as ``default_grid`` lists
    them: its progression A n + B, modulus, tuple size and parameters are
    read off it, and a None (a point outside the domain) raises
    ``ValueError``.  The coefficients at A*n+B are the provider's ``values``
    on that progression, read straight off the GF, so progressions with
    B >= A need no special casing.  A point passes when its
    list of residues equals the expected list, and only a failing point is
    walked for its mismatches.  At most ``WITNESS_CAP``
    witnesses are kept; every failure is counted.  With ``exact_check`` every
    modular coefficient is also compared against the exact-ring computation
    reduced mod m (slow; meant for small grids).
    """
    provider = provider or SeriesProvider()
    params_tried = 0
    coeffs_checked = 0
    failures = 0
    witnesses: list[Witness] = []
    zeros = [0] * (n_max + 1)
    for index, point in enumerate(points):
        if point is None:
            raise ValueError(f"grid point {index} is outside the domain of {family.key}")
        params_tried += 1
        step, offset, modulus, gf_param, params = point
        order = point.order(n_max)
        values = provider.values(family.kind, gf_param, modulus, order, step, offset, n_max + 1)
        if len(values) <= n_max:
            # indexed in the piece c_{A j + (B mod A)}, where n sits at j = n + B div A
            end = offset // step + len(values)
            raise IndexError(f"coefficient q^{end} is beyond truncation order {end}")
        coeffs_checked += len(values)
        if exact_check:
            exact = provider.gf_exact(family.kind, gf_param, order).coeffs[offset::step]
            n = next(mismatches(map(modulus.__rmod__, exact), values), None)
            if n is not None:
                raise RuntimeError(
                    f"modular/exact disagreement in {family.key} at "
                    f"params={params}, n={n}"
                )
        if family.expected is None:
            expected = zeros
        else:
            expected = list(map(modulus.__rmod__, family.expected(params, n_max)))
        if values == expected:  # one comparison in C; a passing point walks nothing
            continue
        failed = list(mismatches(values, expected))
        failures += len(failed)
        for n in failed[: WITNESS_CAP - len(witnesses)]:
            witnesses.append(
                Witness(
                    params=tuple(sorted(params.items())),
                    n=n,
                    value=values[n],
                    modulus=modulus,
                    expected=expected[n],
                )
            )
    return FamilyReport(
        key=family.key,
        family_status=family.status,
        params_tried=params_tried,
        coeffs_checked=coeffs_checked,
        failures=failures,
        witnesses=tuple(witnesses),
    )


def run_families(
    families: Sequence[CongruenceFamily],
    config: RunConfig,
    *,
    provider: SeriesProvider | None = None,
) -> list[FamilyReport]:
    """Check many families against their default grids, sharing one provider.

    A run whose grids would try more than ``MAX_GRID_POINTS`` points is
    refused with ``BudgetError`` before any grid is built.  Each family's
    ``default_grid`` is then built once, and that one list of points is
    read twice: first to plan every order the run needs, refusing an order
    over ``MAX_WORKING_ORDER`` before any series is built, then by
    ``check_family`` to scan.  Buckets are pre-sized to the largest order any
    selected family needs, so interleaved families reuse built buckets
    instead of rebuilding.  They are reserved in descending modulus, so a
    modulus that divides one built before it, at an order at least its own,
    expands nothing and is served from that bucket, reduced.
    """
    points = sum(
        math.prod(len(_axis(family, name, config)) for name in family.params)
        for family in families
    )
    if points > MAX_GRID_POINTS:
        raise BudgetError(f"grid of {points} points exceeds budget {MAX_GRID_POINTS}")
    provider = provider or SeriesProvider()
    grids = [default_grid(family, config) for family in families]
    needed: dict[tuple[str, int], int] = {}
    for family, grid in zip(families, grids):
        for point in grid:
            order = point.order(config.n_max)
            if order > MAX_WORKING_ORDER:
                raise BudgetError(
                    f"{family.key}: working order {order} (to reach "
                    f"{point.step}*{config.n_max}+{point.offset}) exceeds budget "
                    f"{MAX_WORKING_ORDER}"
                )
            bucket = (family.kind, point.modulus)
            needed[bucket] = max(needed.get(bucket, 0), order)
    for (kind, modulus), order in sorted(needed.items(), reverse=True):
        provider.reserve(kind, modulus, order)
    return [
        check_family(family, grid, config.n_max, provider=provider)
        for family, grid in zip(families, grids)
    ]


# --- binomial coefficient tables -------------------------------------------

# Residues of C(7t, r) * (-2)^r mod 16 for r = 1..3, by t mod 8.
_MOD16_ROWS: tuple[tuple[int, int, int, int], ...] = (
    (0, 0, 0, 0),
    (1, 2, 4, 8),
    (2, 4, 12, 0),
    (3, 6, 8, 0),
    (4, 8, 8, 0),
    (5, 10, 12, 8),
    (6, 12, 4, 0),
    (7, 14, 0, 0),
)

# Residues of C(15t, r) * (-2)^r mod 32 for r = 1..4, by t mod 16.
_MOD32_ROWS: tuple[tuple[int, int, int, int, int], ...] = (
    (0, 0, 0, 0, 0),
    (1, 2, 4, 8, 16),
    (2, 4, 12, 0, 16),
    (3, 6, 24, 16, 16),
    (4, 8, 8, 0, 16),
    (5, 10, 28, 24, 0),
    (6, 12, 20, 0, 0),
    (7, 14, 16, 0, 0),
    (8, 16, 16, 0, 0),
    (9, 18, 20, 8, 16),
    (10, 20, 28, 0, 16),
    (11, 22, 8, 16, 16),
    (12, 24, 24, 0, 16),
    (13, 26, 12, 24, 0),
    (14, 28, 4, 0, 0),
    (15, 30, 0, 0, 0),
)


def binomial_table(width: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the mod-``width`` table: (t mod rowcount, then one residue per r)."""
    if width == 16:
        return _MOD16_ROWS
    if width == 32:
        return _MOD32_ROWS
    raise ValueError(f"width must be 16 or 32, got {width}")


def _strength(width: int) -> int:
    """The s in C(s*t, r) * (-2)^r that the mod-``width`` rows tabulate: 7 or 15."""
    return width // 2 - 1


class TableReport(NamedTuple):
    width: int
    rows_checked: int
    entries_checked: int
    mismatches: tuple[tuple[int, int, int, int, int], ...]  # (residue, t, r, got, want)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def replay_binomial_tables(width: int) -> TableReport:
    """Recompute every tabulated residue exactly and compare.

    Each row i lists C(s*t, r) * (-2)^r mod width for r = 1.., where the
    value depends on t only through i = t mod (number of rows); both t = i
    and t = i + rowcount are recomputed to witness that periodicity.
    """
    rows = binomial_table(width)
    rowcount = len(rows)
    mismatches = []
    entries = 0
    for row in rows:
        residue, *expected = row
        for t in (residue, residue + rowcount):
            for r, want in enumerate(expected, start=1):
                got = (math.comb(_strength(width) * t, r) * (-2) ** r) % width
                entries += 1
                if got != want:
                    mismatches.append((residue, t, r, got, want))
    return TableReport(width, rowcount, entries, tuple(mismatches))


# --- dissection-step replays -------------------------------------------------


class DissectionStep:
    """A congruence-level series rewrite: LHS == RHS (mod modulus) as series.

    Each part but the key is a function of the parameter point, and
    ``default_params`` lists the points ``replay`` checks.  A step is
    immutable, and equal only to itself."""

    __slots__ = ("key", "modulus", "lhs", "rhs", "domain", "default_params")

    def __init__(
        self,
        key: str,
        modulus: Callable[[Mapping[str, int]], int],
        lhs: Callable[[Mapping[str, int]], Recipe],
        rhs: Callable[[Mapping[str, int]], Recipe],
        domain: Callable[[Mapping[str, int]], bool],
        default_params: tuple[tuple[tuple[str, int], ...], ...],
    ) -> None:
        for name, value in zip(self.__slots__, (key, modulus, lhs, rhs, domain, default_params)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("DissectionStep values are immutable")

    def __repr__(self) -> str:
        return f"DissectionStep(key={self.key!r})"

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.default_params[0])


def _gf_reduced(t: int) -> Recipe:
    # f1^{2t} / f2^t: the overpartition GF after one even-power reduction.
    return eta_series(((1, 2 * t), (2, -t)))


def _expansion_rhs(t: int, width: int) -> Recipe:
    """The tabulated 2-adic expansion of the overpartition GF mod 16 or 32."""
    rows = binomial_table(width)
    s5 = 5 * _strength(width)  # f8 exponent step: 35 or 75
    s2 = 2 * _strength(width)  # f4/f16 exponent step: 14 or 30
    row = rows[t % len(rows)][1:]
    terms: list[Recipe] = [eta_series(((8, s5 * t), (4, -s2 * t), (16, -s2 * t)))]
    for r, coeff in enumerate(row, start=1):
        if coeff % width == 0:
            continue
        term = eta_series(
            ((8, s5 * t - 6 * r), (4, -(s2 * t - 2 * r)), (16, -(s2 * t - 4 * r)))
        )
        terms.append(qshift(coeff * term, r))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _odd_divided_by_3(value: int) -> int:
    if value % 3:
        raise ValueError(f"expected a multiple of 3, got {value}")
    return value // 3


def builtin_steps() -> tuple[DissectionStep, ...]:
    steps: list[DissectionStep] = []

    steps.append(
        DissectionStep(
            key="M1",
            modulus=lambda p: 4,
            lhs=lambda p: gf_series("overpartition", p["t"]),
            rhs=lambda p: _gf_reduced(p["t"]),
            domain=lambda p: p["t"] >= 0,
            default_params=tuple((("t", t),) for t in range(0, 7)),
        )
    )
    steps.append(
        DissectionStep(
            key="G4-even",
            modulus=lambda p: 4,
            lhs=lambda p: _gf_reduced(p["t"]),
            rhs=lambda p: eta_series("1"),
            domain=lambda p: p["t"] >= 0 and p["t"] % 2 == 0,
            default_params=tuple((("t", t),) for t in (0, 2, 4, 6)),
        )
    )
    steps.append(
        DissectionStep(
            key="G4-odd",
            modulus=lambda p: 4,
            lhs=lambda p: _gf_reduced(p["t"]),
            rhs=lambda p: eta_series(((8, p["t"]), (4, -2 * p["t"])))
            + 2 * qshift(eta_series("f8^3"), 1),
            domain=lambda p: p["t"] >= 1 and p["t"] % 2 == 1,
            default_params=tuple((("t", t),) for t in (1, 3, 5, 7)),
        )
    )
    steps.append(
        DissectionStep(
            key="G16",
            modulus=lambda p: 16,
            lhs=lambda p: gf_series("overpartition", p["t"]),
            rhs=lambda p: _expansion_rhs(p["t"], 16),
            domain=lambda p: p["t"] >= 0,
            default_params=tuple((("t", t),) for t in range(0, 9)),
        )
    )
    steps.append(
        DissectionStep(
            key="G32",
            modulus=lambda p: 32,
            lhs=lambda p: gf_series("overpartition", p["t"]),
            rhs=lambda p: _expansion_rhs(p["t"], 32),
            domain=lambda p: p["t"] >= 0,
            default_params=tuple((("t", t),) for t in range(0, 17)),
        )
    )
    steps.append(
        DissectionStep(
            key="opt-2n+1-i1",
            modulus=lambda p: 32,
            lhs=lambda p: DissectRecipe(2, 1, gf_series("opt", 2 * p["r"])),
            rhs=lambda p: (-28 * p["r"])
            * eta_series(((1, 4 * p["r"]), (4, 2 * p["r"] + 2), (2, -(6 * p["r"] - 2))))
            + (-16 * _odd_divided_by_3(7 * p["r"] * (14 * p["r"] - 1) * (7 * p["r"] - 1)))
            * qshift(eta_series("f4^9"), 1),
            domain=lambda p: p["r"] >= 1 and p["r"] % 2 == 1,
            default_params=tuple((("r", r),) for r in (1, 3, 5)),
        )
    )
    steps.append(
        DissectionStep(
            key="opt-2n+1",
            modulus=lambda p: 2 ** (p["i"] + 4),
            lhs=lambda p: DissectRecipe(2, 1, gf_series("opt", 2 ** p["i"] * p["r"])),
            rhs=lambda p: (-(2 ** (p["i"] + 1)) * 7 * p["r"]) * eta_series("f2^2 * f4^2")
            + (
                -(2 ** (p["i"] + 3))
                * _odd_divided_by_3(
                    7
                    * p["r"]
                    * (2 ** p["i"] * 7 * p["r"] - 1)
                    * (2 ** (p["i"] - 1) * 7 * p["r"] - 1)
                )
            )
            * qshift(eta_series("f4^9"), 1),
            domain=lambda p: p["i"] >= 2 and p["r"] >= 1 and p["r"] % 2 == 1,
            default_params=((("i", 2), ("r", 1)), (("i", 3), ("r", 1)), (("i", 2), ("r", 3))),
        )
    )
    steps.append(
        DissectionStep(
            key="opt-4n+3-i1",
            modulus=lambda p: 32,
            lhs=lambda p: DissectRecipe(4, 3, gf_series("opt", 2 * p["r"])),
            rhs=lambda p: (16 * 7 * p["r"]) * eta_series("f2 * f4^4")
            + (-16 * _odd_divided_by_3(7 * p["r"] * (14 * p["r"] - 1) * (7 * p["r"] - 1)))
            * eta_series("f2^9"),
            domain=lambda p: p["r"] >= 1 and p["r"] % 2 == 1,
            default_params=tuple((("r", r),) for r in (1, 3)),
        )
    )
    return tuple(sorted(steps, key=lambda s: s.key))


def step_registry() -> dict[str, DissectionStep]:
    return {step.key: step for step in builtin_steps()}


def verify_dissection_step(
    step_key: str, params: Mapping[str, int], order: int
) -> IdentityReport:
    """Check a registered step at one parameter point: the identity case of
    its two sides mod its modulus, with the point as the case's ``params``.

    The point must name exactly the step's parameters, inside its domain;
    the messages name a parameter as its ``replay`` flag."""
    registry = step_registry()
    if step_key not in registry:
        raise KeyError(f"unknown dissection step {step_key!r}")
    step = registry[step_key]
    extra = [name for name in params if name not in step.param_names]
    if extra:
        raise ValueError(f"step {step_key} takes no --{extra[0]}")
    missing = [name for name in step.param_names if name not in params]
    if missing:
        raise ValueError(f"step {step_key} needs --{missing[0]}")
    if not step.domain(params):
        raise ValueError(f"parameters {dict(params)} outside the domain of {step_key}")
    for name in step.param_names:
        if params[name] > MAX_STEP_PARAMETER:
            raise BudgetError(
                f"step {step_key}: --{name} {params[name]} exceeds budget {MAX_STEP_PARAMETER}"
            )
    modulus = step.modulus(params)
    point = tuple((name, params[name]) for name in step.param_names)
    try:
        case = IdentityCase(step_key, step.lhs(params), step.rhs(params), modulus, point)
    except ValueError as exc:
        return IdentityReport(step_key, modulus, order, ok=False, error=str(exc), params=point)
    work = modulus.bit_length() * max(case.lhs.work(order), case.rhs.work(order))
    if order > MAX_WORKING_ORDER // 8 or work > MAX_STEP_WORK:
        # dissection sides evaluate their inner series at a multiple of `order`
        raise BudgetError(f"order {order} exceeds the step working budget")
    return verify_identity(case, order)
