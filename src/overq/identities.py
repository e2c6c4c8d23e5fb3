"""Machine checks of the dissection and binomial-congruence identities.

Each case pairs two series recipes with a mode: exact coefficientwise
equality, or congruence modulo a fixed m; a case built at a parameter point,
such as a dissection step of ``congruences``, carries the point as ``params``.
Checks run to a configurable truncation order and report the first
mismatching exponent on failure.  Evaluation failures (for example a
substitution step below 1, or an unknown theta component) are reported in
the result rather than raised.

An exact case is checked with its denominators cleared.  D = prod f_k^d_k is
the least eta quotient that clears every negative exponent of every eta leaf
(eta quotient, theta component or generating function) on either side, with
scales taken through each substitution q -> q^step: for ``D4``, lhs 1/f1^3
and rhs built from a(q^3), b(q^3), c(q^3), D = f1^3 f3^12 and the lhs becomes
f3^12.  Both sides are evaluated times D (``expr.evaluate``'s ``unit``), so
no negative power of f_1 is expanded and the coefficients stay small.  D has
constant term 1, so it is a unit modulo q^N: D * lhs and D * rhs agree below
q^N exactly when lhs and rhs do, and the first exponent where they differ is
the same, since D * (lhs - rhs) and lhs - rhs share their lowest term.  A
failure at q^n reports the plain sides' coefficients there, from both sides
evaluated again with no D to order n + 1.  Congruence cases keep the empty
unit: their coefficients cannot grow.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .eta import EtaQuotient
from .series import EXACT, Zmod, mismatches
from .expr import Recipe, eta_series, jacobi_series, qshift, theta_series, evaluate

__all__ = [
    "IdentityCase",
    "IdentityReport",
    "denominator",
    "verify_identity",
    "builtin_identities",
    "identity_registry",
]


def _params_text(record) -> str:
    """A check's parameter point, as reports print it: its ``params``, the
    (name, value) pairs, joined.  ``IdentityCase``, ``IdentityReport`` and
    ``congruences.Witness`` share it as their ``params_text``."""
    return ";".join(f"{name}={value}" for name, value in record.params)


def _mode(record) -> str:
    """A check's mode: its ``modulus`` is None for exact equality."""
    return "exact" if record.modulus is None else f"mod {record.modulus}"


class IdentityCase(NamedTuple):
    key: str
    lhs: Recipe
    rhs: Recipe
    modulus: int | None = None  # None: exact equality
    params: tuple[tuple[str, int], ...] = ()

    params_text = _params_text
    mode = property(_mode)


class IdentityReport(NamedTuple):
    key: str
    modulus: int | None
    order: int
    ok: bool
    mismatch: tuple[int, int, int] | None = None  # exponent, lhs, rhs
    error: str | None = None
    params: tuple[tuple[str, int], ...] = ()

    params_text = _params_text
    mode = property(_mode)

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def describe(self) -> str:
        if self.ok:
            return ""
        if self.error is not None:
            return f"evaluation error: {self.error}"
        n, lhs, rhs = self.mismatch
        return f"q^{n}: {lhs} != {rhs}"


def denominator(case: IdentityCase) -> EtaQuotient:
    """D = prod f_k^d_k, the least eta quotient that clears every negative
    exponent of every eta leaf of either side of the case."""
    need: dict[int, int] = {}
    for leaf in (*case.lhs.eta_leaves(), *case.rhs.eta_leaves()):
        for scale, exponent in leaf.factors:
            need[scale] = max(need.get(scale, 0), -exponent)
    return EtaQuotient(tuple(need.items()))


def verify_identity(case: IdentityCase, order: int) -> IdentityReport:
    """Evaluate both sides of a case to the given order and compare.

    An exact case compares D * lhs with D * rhs, D = ``denominator(case)``,
    and on a mismatch at q^n reports the plain sides' coefficients there,
    evaluated to order n + 1.  A congruence case keeps the empty unit.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    report = partial(IdentityReport, case.key, case.modulus, order, params=case.params)
    ring = EXACT if case.modulus is None else Zmod(case.modulus)
    unit = denominator(case) if case.modulus is None else EtaQuotient()
    try:
        lhs = evaluate(case.lhs, ring, order, unit)
        rhs = evaluate(case.rhs, ring, order, unit)
    except ValueError as exc:
        return report(ok=False, error=str(exc))
    n = next(mismatches(lhs.coeffs, rhs.coeffs), None)
    if n is None:
        return report(ok=True)
    if unit.factors:  # the sides evaluated just now would raise nothing new
        lhs = evaluate(case.lhs, ring, n + 1)
        rhs = evaluate(case.rhs, ring, n + 1)
    return report(ok=False, mismatch=(n, lhs.coeffs[n], rhs.coeffs[n]))


def _binomial_cases() -> list[IdentityCase]:
    # f1^(p^k) == f_p^(p^(k-1))  (mod p^k), the workhorse reduction.
    cases = []
    for p in (2, 3):
        for k in range(1, 6):
            cases.append(
                IdentityCase(
                    key=f"B1-p{p}-k{k}",
                    lhs=eta_series(((1, p**k),)),
                    rhs=eta_series(((p, p ** (k - 1)),)),
                    modulus=p**k,
                )
            )
    return cases


def _dissection_cases() -> list[IdentityCase]:
    f = eta_series
    cases = [
        # 2-dissection of f1^2.
        IdentityCase(
            key="D1",
            lhs=f("f1^2"),
            rhs=f("f2 * f8^5 * f4^-2 * f16^-2") - 2 * qshift(f("f2 * f16^2 * f8^-1"), 1),
        ),
        # Its square, divided through by f2^2; used by the odd-part replays.
        IdentityCase(
            key="D1SQ",
            lhs=f("f1^4 * f2^-2"),
            rhs=f("f8^10 * f4^-4 * f16^-4")
            - 4 * qshift(f("f8^4 * f4^-2"), 1)
            + 4 * qshift(f("f16^4 * f8^-2"), 2),
        ),
        # 3-dissections via the cubic theta components.
        IdentityCase(
            key="D2",
            lhs=f("f1^3"),
            rhs=theta_series("h", 3) - 3 * qshift(theta_series("m", 3), 1),
        ),
        IdentityCase(
            key="D3",
            lhs=f("f1^2 * f2^-1"),
            rhs=theta_series("d", 3) - 2 * qshift(theta_series("g", 3), 1),
        ),
        IdentityCase(
            key="D4",
            lhs=f("f1^-3"),
            rhs=theta_series("a", 3)
            + 3 * qshift(theta_series("b", 3), 1)
            + 9 * qshift(theta_series("c", 3), 2),
        ),
        IdentityCase(key="JACOBI", lhs=f("f1^3"), rhs=jacobi_series()),
        # The collapse used against the odd-part 3n+2 extraction.  The two
        # sides agree mod 2 only (first exact mismatch is at q^1: -2 vs 4),
        # which is all the surrounding congruence consumes: the series is
        # multiplied by 2^(j+1) and read modulo 2^(j+2).
        IdentityCase(
            key="R13",
            lhs=f("f3^4 * f2 * f12 * f4^-1 * f6^-1") + f("f1^2 * f6^8 * f2^-2 * f3^-2 * f12^-2"),
            rhs=2 * f("f3^6 * f1^-2"),
            modulus=2,
        ),
    ]
    return cases


def builtin_identities() -> tuple[IdentityCase, ...]:
    """The complete registry, in stable key order."""
    cases = _binomial_cases() + _dissection_cases()
    return tuple(sorted(cases, key=lambda c: c.key))


def identity_registry() -> dict[str, IdentityCase]:
    return {case.key: case for case in builtin_identities()}
