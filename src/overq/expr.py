"""Series recipes: small expression trees over the named q-series builders.

Identity cases and dissection-step replays store their two sides as data, not
code, so one tree serves every ring and order.  A recipe node evaluates to a
:class:`~overq.series.Series` via :func:`evaluate`, and ``str`` prints it in
its mathematical form (no report prints recipes; ``demos/03`` does).

Recipes support ``+``, ``-`` and scaling by an integer (``2 * recipe``), so
registry entries read close to their mathematical form.

:func:`evaluate` can multiply a recipe by an eta quotient ``unit`` as it
goes: the unit is merged into each eta leaf's quotient instead of being
multiplied by the sum afterwards, so a unit chosen to clear the leaves'
negative exponents (``Recipe.eta_leaves`` lists them) leaves no negative
power of f_1 to expand.  The exact identity checks use this; everything
else evaluates with the empty unit.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterator

from .series import Ring, Series, spread
from .eta import (
    EtaQuotient,
    _gf_thetas,
    _theta_quotient,
    _times,
    component_quotient,
    expand_eta_quotient,
    jacobi_triangular,
    theta_component,
)

__all__ = [
    "Recipe",
    "EtaRecipe",
    "ThetaRecipe",
    "JacobiRecipe",
    "SumRecipe",
    "ScaleRecipe",
    "ShiftRecipe",
    "SubstRecipe",
    "DissectRecipe",
    "eta_series",
    "gf_series",
    "theta_series",
    "jacobi_series",
    "qshift",
    "evaluate",
]


class Recipe:
    """A node of a recipe tree: immutable, with its fields in ``__slots__``.

    Two nodes are equal when they are of one class and their fields are
    equal, and hash alike; ``repr`` names the class and its fields.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __add__(self, other: "Recipe") -> "Recipe":
        return SumRecipe((self, other))

    def __sub__(self, other: "Recipe") -> "Recipe":
        return SumRecipe((self, ScaleRecipe(-1, other)))

    def __rmul__(self, scalar: int) -> "Recipe":
        return ScaleRecipe(scalar, self)

    def summands(self) -> Iterator["Recipe"]:
        """The recipes this one is the sum of: itself, unless it is a sum."""
        yield self

    def eta_leaves(self) -> Iterator[EtaQuotient]:
        """The eta quotient of each eta and theta-component leaf, with its
        scales multiplied through every substitution above it.

        Opaque leaves (the Jacobi series, ``A``, a dissection) have none.
        Nothing here raises: a node that ``evaluate`` refuses, such as a
        substitution step below 1 or an unknown component, adds nothing to
        clear, so ``evaluate`` reports it as it would with no unit.
        """
        return iter(())

    def work(self, order: int) -> int:
        """The longest power ladder to the order: ceil(N/k) bits(e) for a
        factor f_k^e of an eta leaf evaluated to order N, the bits(e)
        squarings of a cold ``series._ladder``, and N for another leaf."""
        return order

    def takes(self, scale: int) -> bool:
        """Whether ``evaluate`` merges a unit factor f_scale^e into every
        leaf of this recipe, so that it costs no product.  Opaque leaves
        take none."""
        return False


class EtaRecipe(Recipe):
    __slots__ = ("quotient",)

    def __init__(self, quotient: EtaQuotient) -> None:
        object.__setattr__(self, "quotient", quotient)

    def eta_leaves(self) -> Iterator[EtaQuotient]:
        yield self.quotient

    def work(self, order: int) -> int:
        ladders = (((order - 1) // k + 1) * abs(e).bit_length() for k, e in self.quotient.factors)
        return max(ladders, default=order)

    def takes(self, scale: int) -> bool:
        return True

    def __str__(self) -> str:
        return str(self.quotient)


class ThetaRecipe(Recipe):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def eta_leaves(self) -> Iterator[EtaQuotient]:
        yield component_quotient(self.name)

    def takes(self, scale: int) -> bool:
        return self.name != "A"

    def __str__(self) -> str:
        return self.name if self.name == "A" else f"{self.name}(q)"


class JacobiRecipe(Recipe):
    __slots__ = ()

    def __str__(self) -> str:
        return "sum (-1)^k (2k+1) q^(k(k+1)/2)"


class SumRecipe(Recipe):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Recipe, ...]) -> None:
        object.__setattr__(self, "terms", terms)

    def eta_leaves(self) -> Iterator[EtaQuotient]:
        for term in self.terms:
            yield from term.eta_leaves()

    def work(self, order: int) -> int:
        return max(term.work(order) for term in self.terms)

    def takes(self, scale: int) -> bool:
        return all(term.takes(scale) for term in self.terms)

    def summands(self) -> Iterator[Recipe]:
        """The terms, with those of every sum among them in its place."""
        for term in self.terms:
            yield from term.summands()

    def __str__(self) -> str:
        return " + ".join(f"({t})" for t in self.terms)


class ScaleRecipe(Recipe):
    __slots__ = ("scalar", "inner")

    def __init__(self, scalar: int, inner: Recipe) -> None:
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "inner", inner)

    def eta_leaves(self) -> Iterator[EtaQuotient]:
        return self.inner.eta_leaves()

    def work(self, order: int) -> int:
        return self.inner.work(order)

    def takes(self, scale: int) -> bool:
        return self.inner.takes(scale)

    def __str__(self) -> str:
        return f"{self.scalar}*({self.inner})"


class ShiftRecipe(Recipe):
    __slots__ = ("offset", "inner")

    def __init__(self, offset: int, inner: Recipe) -> None:
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "inner", inner)

    def eta_leaves(self) -> Iterator[EtaQuotient]:
        return self.inner.eta_leaves()

    def work(self, order: int) -> int:
        return self.inner.work(order)

    def takes(self, scale: int) -> bool:
        return self.inner.takes(scale)

    def __str__(self) -> str:
        return f"q^{self.offset}*({self.inner})"


class SubstRecipe(Recipe):
    __slots__ = ("step", "inner")

    def __init__(self, step: int, inner: Recipe) -> None:
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "inner", inner)

    def eta_leaves(self) -> Iterator[EtaQuotient]:
        if self.step >= 1:
            for leaf in self.inner.eta_leaves():
                yield EtaQuotient(tuple((scale * self.step, e) for scale, e in leaf.factors))

    def work(self, order: int) -> int:
        return self.inner.work((order - 1) // max(self.step, 1) + 1)

    def takes(self, scale: int) -> bool:
        return self.step >= 1 and scale % self.step == 0 and self.inner.takes(scale // self.step)

    def __str__(self) -> str:
        return f"({self.inner})[q->q^{self.step}]"


class DissectRecipe(Recipe):
    __slots__ = ("modulus", "residue", "inner")

    def __init__(self, modulus: int, residue: int, inner: Recipe) -> None:
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "inner", inner)

    def work(self, order: int) -> int:
        return self.inner.work(self.modulus * order + self.residue)

    def __str__(self) -> str:
        return f"({self.inner})[{self.modulus}n+{self.residue}]"


def eta_series(quotient: str | tuple) -> EtaRecipe:
    """Recipe for an eta quotient, from text or (scale, exponent) pairs."""
    if isinstance(quotient, str):
        return EtaRecipe(EtaQuotient.parse(quotient))
    return EtaRecipe(EtaQuotient(tuple(quotient)))


def gf_series(kind: str, t: int) -> EtaRecipe:
    """Recipe for the counting generating function of t-tuples of a family
    kind, as an eta leaf: ``GF_BASE[kind] ** t``."""
    return EtaRecipe(_theta_quotient(_gf_thetas(kind, t)))


def theta_series(name: str, step: int = 1) -> Recipe:
    """Recipe for a dissection component, optionally at q^step (e.g. a(q^3))."""
    inner: Recipe = ThetaRecipe(name)
    return inner if step == 1 else SubstRecipe(step, inner)


def jacobi_series() -> JacobiRecipe:
    return JacobiRecipe()


def qshift(recipe: Recipe, offset: int) -> Recipe:
    """Multiply a recipe by q^offset."""
    return ShiftRecipe(offset, recipe)


def evaluate(recipe: Recipe, ring: Ring, order: int, unit: EtaQuotient = EtaQuotient()) -> Series:
    """Evaluate a recipe times the eta quotient ``unit`` to a truncated series
    over the given ring.

    The unit is pushed into the leaves.  An eta or theta-component leaf
    expands its quotient merged with it.  A substitution q -> q^step passes
    in the unit's factors whose scale ``step`` divides, scales divided by
    ``step``, and multiplies by the rest after spreading.  An opaque leaf
    (the Jacobi series, ``A``, a dissection) is multiplied by the unit's
    expansion.  A sum passes each summand the factors it takes in at every
    leaf (``Recipe.takes``), and the summands that leave the same factors
    untaken are added first and multiplied by those once: for ``D4``'s
    a(q^3) + 3q b(q^3) + 9q^2 c(q^3) times f1^3 f3^12, one product by f1^3
    after the sum, not one per term.  The empty unit (the default)
    multiplies nothing.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if isinstance(recipe, EtaRecipe):
        return expand_eta_quotient(recipe.quotient * unit, ring, order)
    if isinstance(recipe, ThetaRecipe):
        return theta_component(recipe.name, ring, order, unit)
    if isinstance(recipe, JacobiRecipe):
        return _times(jacobi_triangular(ring, order), unit)
    if isinstance(recipe, SumRecipe):
        # summands that leave the same unit factors untaken share one product by them
        parts: dict[EtaQuotient, Series] = {}
        for term in recipe.summands():
            inside = EtaQuotient(tuple(f for f in unit.factors if term.takes(f[0])))
            outside = EtaQuotient(tuple(f for f in unit.factors if not term.takes(f[0])))
            value = evaluate(term, ring, order, inside)
            parts[outside] = parts[outside] + value if outside in parts else value
        return reduce(operator.add, (_times(part, outside) for outside, part in parts.items()))
    if isinstance(recipe, ScaleRecipe):
        return evaluate(recipe.inner, ring, order, unit).scale(recipe.scalar)
    if isinstance(recipe, ShiftRecipe):
        return evaluate(recipe.inner, ring, order, unit).shift(recipe.offset)
    if isinstance(recipe, SubstRecipe):
        step = recipe.step
        if step < 1:
            raise ValueError(f"substitution step must be >= 1, got {step}")
        inside = EtaQuotient(tuple((s // step, e) for s, e in unit.factors if s % step == 0))
        outside = EtaQuotient(tuple((s, e) for s, e in unit.factors if s % step))
        inner = evaluate(recipe.inner, ring, (order - 1) // step + 1, inside)
        return _times(spread(inner, step, order), outside)
    if isinstance(recipe, DissectRecipe):
        inner = evaluate(recipe.inner, ring, recipe.modulus * order + recipe.residue)
        return _times(inner.dissect(recipe.modulus, recipe.residue).truncate(order), unit)
    raise TypeError(f"unknown recipe node {type(recipe).__name__}")
