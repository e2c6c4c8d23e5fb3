import inspect
import random

import pytest

import overq.congruences as congruences
from overq.expr import evaluate
from overq.series import EXACT, Ring, Series, Zmod, mismatches

RING_POOL = (
    EXACT,
    Zmod(2),
    Zmod(3),
    Zmod(4),
    Zmod(8),
    Zmod(9),
    Zmod(16),
    Zmod(32),
    Zmod(97),
    Zmod(1024),
    Zmod(2592),
)


def random_series(rng: random.Random, ring: Ring, order: int, span: int = 9) -> Series:
    return Series(ring, [rng.randint(-span, span) for _ in range(order)])


def random_unit_series(rng: random.Random, ring: Ring, order: int) -> Series:
    coeffs = [rng.randint(-9, 9) for _ in range(order)]
    coeffs[0] = rng.choice([1, -1])
    return Series(ring, coeffs)


def plain_check(case, order):
    """(ok, mismatch, error) of an exact case checked the plain way: both
    sides evaluated with the empty unit, and their first mismatch."""
    try:
        lhs = evaluate(case.lhs, EXACT, order)
        rhs = evaluate(case.rhs, EXACT, order)
    except ValueError as exc:
        return False, None, str(exc)
    n = next(mismatches(lhs.coeffs, rhs.coeffs), None)
    return n is None, None if n is None else (n, lhs.coeffs[n], rhs.coeffs[n]), None


def family_variant(family, **changes):
    """A congruence family with the given fields changed, for mutants."""
    names = inspect.signature(congruences.CongruenceFamily).parameters
    return congruences.CongruenceFamily(**{name: getattr(family, name) for name in names} | changes)


def corrupt_mod16_row(monkeypatch) -> None:
    """Tabulate one wrong mod-16 residue, so step G16 fails at t = 3 and t = 11."""
    rows = list(congruences._MOD16_ROWS)
    rows[3] = (3, 6, 8, 8)  # C(21, 3) * (-2)^3 is 0 mod 16, not 8
    monkeypatch.setattr(congruences, "_MOD16_ROWS", tuple(rows))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
