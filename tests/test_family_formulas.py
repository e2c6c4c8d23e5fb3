"""Family formulas: a family's tuple size, progression, modulus and domain
are compiled from the texts its report prints into one point expression.

``REFERENCE`` is a test-only table of each family's formulas written as
Python functions, one entry per registry key; the registry stated them this
way before it evaluated its texts.  ``family.point`` must agree with it at
every point of the default grid and of a wider grid that also holds points
outside each domain, where it is None.
"""

import math
from itertools import product

import pytest

from overq.congruences import (
    CongruenceFamily,
    RunConfig,
    _Point,
    builtin_families,
    default_grid,
)


def _t(p):
    return p["t"]


def _always(p):
    return True


def _fixed(step, offset, modulus, domain=_always):
    return (_t, lambda p: (step, offset), lambda p: modulus, domain)


def _power_scaled(step, offset):
    return (_t, lambda p: (step(p["a"]), offset(p["a"])), lambda p: 4, _always)


def _size_2ir(p):
    return 2 ** p["i"] * p["r"]


def _size_3i2jk(p):
    return 3 ** p["i"] * 2 ** p["j"] * p["k"]


def _size_3il(p):
    return 3 ** p["i"] * p["l"]


def _domain_ir(p):
    return p["i"] >= 1 and p["r"] % 2 == 1


def _domain_ijk(p):
    return p["i"] >= 1 and p["j"] >= 1 and math.gcd(p["k"], 6) == 1


def _domain_il_wide(p):
    return p["i"] >= 1 and p["l"] % 2 == 1 and p["l"] % 3 != 0


def _domain_il(p):
    return _domain_il_wide(p) and p["l"] != 1


REFERENCE = {
    "pbar-n-mod2": _fixed(1, 1, 2),
    **{
        f"pbar-{step}n+{offset}-mod{modulus}": _fixed(step, offset, modulus)
        for step, offset, modulus in (
            (8, 1, 2), (8, 2, 4), (8, 3, 8), (8, 4, 2), (8, 5, 8), (8, 6, 8), (8, 7, 32),
            (16, 10, 8), (4, 3, 8), (16, 14, 16),
        )
    },
    "pbar-4n+3-mod16": _fixed(4, 3, 16, lambda p: p["t"] % 4 != 1),
    "pbar-8n+6-mod16": _fixed(8, 6, 16, lambda p: p["t"] % 4 != 1),
    "pbar-2^{2a+2}n+2^{2a+1}-mod4": _power_scaled(lambda a: 2 ** (2 * a + 2), lambda a: 2 ** (2 * a + 1)),
    "pbar-2^{2a+2}n+3*2^{2a}-mod4": _power_scaled(lambda a: 2 ** (2 * a + 2), lambda a: 3 * 2 ** (2 * a)),
    "pbar-2^{2a+3}n+5*2^{2a}-mod4": _power_scaled(lambda a: 2 ** (2 * a + 3), lambda a: 5 * 2 ** (2 * a)),
    "pbar-2^{2a+3}n+2^{2a}-mod4-tri": _power_scaled(lambda a: 2 ** (2 * a + 3), lambda a: 2 ** (2 * a)),
    "opt-8n+7-mod-2^{i+4}": (_size_2ir, lambda p: (8, 7), lambda p: 2 ** (p["i"] + 4), _domain_ir),
    "opt-3n+2-mod-3^{i+1}2^{j+2}": (
        _size_3i2jk, lambda p: (3, 2), lambda p: 3 ** (p["i"] + 1) * 2 ** (p["j"] + 2), _domain_ijk,
    ),
    "opt-3n+1-mod-3^i2^{j+1}": (
        _size_3i2jk, lambda p: (3, 1), lambda p: 3 ** p["i"] * 2 ** (p["j"] + 1), _domain_ijk,
    ),
    "opt-3n+2-mod-3^{i+1}2": (_size_3il, lambda p: (3, 2), lambda p: 3 ** (p["i"] + 1) * 2, _domain_il),
    "opt-3n+1-mod-3^i2": (_size_3il, lambda p: (3, 1), lambda p: 3 ** p["i"] * 2, _domain_il),
    "opt-3n+2-mod-3^{i+1}2-l1": (
        _size_3il, lambda p: (3, 2), lambda p: 3 ** (p["i"] + 1) * 2, _domain_il_wide,
    ),
    "opt-3n+1-mod-3^i2-l1": (_size_3il, lambda p: (3, 1), lambda p: 3 ** p["i"] * 2, _domain_il_wide),
    "opt-8n+2-mod-2^{2i+1}": (_size_2ir, lambda p: (8, 2), lambda p: 2 ** (2 * p["i"] + 1), _domain_ir),
    "opt-8n+4-mod-2^{2i+4}": (_size_2ir, lambda p: (8, 4), lambda p: 2 ** (2 * p["i"] + 4), _domain_ir),
    "opt-8n+6-mod-2^{2i+3}": (_size_2ir, lambda p: (8, 6), lambda p: 2 ** (2 * p["i"] + 3), _domain_ir),
}

FAMILIES = builtin_families()


def reference(family, p):
    """The point the reference formulas give at p, with p, or None outside the domain."""
    size, progression, modulus, domain = REFERENCE[family.key]
    return _Point(*progression(p), modulus(p), size(p), p) if domain(p) else None


def wide_grid(family):
    axes = [range(70) if name == "t" else range(21) for name in family.params]
    return [dict(zip(family.params, point)) for point in product(*axes)]


def test_reference_covers_the_registry():
    assert sorted(REFERENCE) == sorted(f.key for f in FAMILIES)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.key)
def test_texts_agree_with_reference_on_the_default_grid(family):
    grid = default_grid(family, RunConfig())
    assert grid
    for point in grid:
        assert point == reference(family, point.params), point


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.key)
def test_texts_agree_with_reference_on_a_wide_grid(family):
    for p in wide_grid(family):
        assert family.point(p) == reference(family, p), p


def family_from_texts(size="i", progression="8n+7", modulus="2^(i+4)", domain="i >= 1"):
    return CongruenceFamily(
        key="test",
        kind="opt",
        status="theorem",
        statement="",
        params=("i",),
        size_text=size,
        progression_text=progression,
        modulus_text=modulus,
        domain_text=domain,
    )


def in_domain(family, values):
    return [i for i in values if family.point({"i": i}) is not None]


def test_well_formed_texts_evaluate():
    assert family_from_texts().point({"i": 2}) == _Point(
        step=8, offset=7, modulus=64, size=2, params={"i": 2}
    )
    family = family_from_texts(
        domain="i >= 1, i odd, 3 does not divide i, i != 5, gcd(i, 6) = 1, i % 12 in {1, 11}"
    )
    assert in_domain(family, range(40)) == [1, 11, 13, 23, 25, 35, 37]
    family = family_from_texts(domain="i >= 1, i odd (wide reading: i = 1 allowed)")
    assert in_domain(family, range(6)) == [1, 3, 5]
    assert family_from_texts(progression="n+1").point({"i": 3})[:2] == (1, 1)
    family = family_from_texts(progression="2^(2i+2) n + 3*2^(2i)")
    assert family.point({"i": 1})[:2] == (16, 12)
    # a comment in a text ends inside its own brackets
    family = family_from_texts(modulus="2^(i+4) # the 2-adic part")
    assert family.point({"i": 2}).modulus == 64 and family.point({"i": 0}) is None


@pytest.mark.parametrize(
    "texts",
    [
        {"modulus": "2^(x+4)"},
        {"size": "j"},
        {"progression": "8m+7"},
        {"domain": "k >= 1"},
        {"modulus": "2/i"},
        {"modulus": "2^i - 1"},
        {"modulus": "2 % i"},
        {"modulus": "i(2)"},
        {"modulus": "2.5"},
        {"modulus": "2^("},
        {"progression": "7+8n"},
        {"progression": "8n^2+7"},
        {"progression": "8n+7n"},
        {"progression": "8n"},
        {"domain": "i is even"},
        {"domain": "i >= 1, i < 9"},
        {"domain": "i >= 1,, i odd"},
        # texts that would leave their brackets in the compiled source
        {"modulus": "2) + (i"},
        {"modulus": "i)(i"},
        {"modulus": "()"},
        {"modulus": "(i"},
        {"modulus": "+i"},
        {"modulus": "i (2)"},
    ],
)
def test_malformed_text_is_rejected(texts):
    with pytest.raises(ValueError):
        family_from_texts(**texts)
