"""Release acceptance suite.

Each test runs one exit criterion at its stated size and tolerance (every
tolerance here is exact integer equality) and prints a single summary line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import random
import time

import pytest

from conftest import random_series, random_unit_series
from overq.series import EXACT, Zmod, one
from overq.eta import euler_product, opt_gf, overpartition_gf
from overq.oracle import count_opt_tuples, count_overpartition_tuples, enumerate_tiny
from overq.identities import builtin_identities, verify_identity
from overq.congruences import (
    RunConfig,
    SeriesProvider,
    binomial_table,
    check_family,
    default_grid,
    family_registry,
    replay_binomial_tables,
    run_families,
)

SEED = 0x20250808

# The thirteen proved progression families for overpartition tuples.
PROGRESSION_KEYS = (
    "pbar-n-mod2",
    "pbar-2^{2a+2}n+2^{2a+1}-mod4",
    "pbar-2^{2a+2}n+3*2^{2a}-mod4",
    "pbar-2^{2a+3}n+5*2^{2a}-mod4",
    "pbar-2^{2a+3}n+2^{2a}-mod4-tri",
    "pbar-8n+5-mod8",
    "pbar-8n+6-mod8",
    "pbar-16n+10-mod8",
    "pbar-4n+3-mod8",
    "pbar-4n+3-mod16",
    "pbar-8n+6-mod16",
    "pbar-16n+14-mod16",
    "pbar-8n+7-mod32",
)

# The seven 8n+b progressions claimed for every positive tuple size.
EXTENDED_KEYS = (
    "pbar-8n+1-mod2",
    "pbar-8n+2-mod4",
    "pbar-8n+3-mod8",
    "pbar-8n+4-mod2",
    "pbar-8n+5-mod8",
    "pbar-8n+6-mod8",
    "pbar-8n+7-mod32",
)

ODD_PART_THEOREM_KEYS = (
    "opt-3n+2-mod-3^{i+1}2^{j+2}",
    "opt-3n+1-mod-3^i2^{j+1}",
    "opt-3n+2-mod-3^{i+1}2",
    "opt-3n+1-mod-3^i2",
)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def provider():
    return SeriesProvider()


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    reports = [verify_identity(case, order=500) for case in builtin_identities()]
    elapsed = time.perf_counter() - started
    failures = [r for r in reports if not r.ok]
    modes = {r.key: r.mode for r in reports}
    ok = (
        not failures
        and len(reports) == 17
        and all(modes[k] == "exact" for k in ("D1", "D2", "D3", "D4", "JACOBI", "D1SQ"))
        and elapsed < 60.0
    )
    report(
        1,
        "identity suite at order 500",
        ok,
        f"{len(reports) - len(failures)}/{len(reports)} passed in {elapsed:.1f}s; "
        f"R13 checked {modes['R13']}",
    )


def test_criterion_2_progression_families(provider):
    registry = family_registry()
    config = RunConfig(t_max=64, alpha_max=2, n_max=200)
    families = [registry[key] for key in PROGRESSION_KEYS]
    reports = run_families(families, config, provider=provider)
    bad = [r.key for r in reports if not r.ok]
    coeffs = sum(r.coeffs_checked for r in reports)
    report(
        2,
        "progression families, t <= 64, a <= 2, n <= 200",
        not bad,
        f"{len(reports)} families, {coeffs} residues checked" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_3_all_tuple_sizes(provider):
    registry = family_registry()
    grid = [{"t": t} for t in range(1, 65)]
    bad = []
    coeffs = 0
    for key in EXTENDED_KEYS:
        family = registry[key]
        rep = check_family(family, [family.point(p) for p in grid], 200, provider=provider)
        coeffs += rep.coeffs_checked
        if not rep.ok or rep.params_tried != 64:
            bad.append(key)
    report(
        3,
        "eightfold progressions for every tuple size 1..64",
        not bad,
        f"7 families x 64 sizes, {coeffs} residues" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_4_odd_part_eight_progression(provider):
    registry = family_registry()
    family = registry["opt-8n+7-mod-2^{i+4}"]
    grid = [{"i": i, "r": r} for i in (1, 2, 3) for r in (1, 3, 5, 7, 9, 11, 13, 15)]
    rep = check_family(family, [family.point(p) for p in grid], 100, provider=provider)
    report(
        4,
        "odd-part tuples at 8n+7 mod 2^(i+4), i <= 3, odd r <= 15",
        rep.ok and rep.params_tried == 24,
        f"{rep.params_tried} parameter points, {rep.coeffs_checked} residues",
    )


def test_criterion_5_odd_part_three_progressions(provider):
    registry = family_registry()
    config = RunConfig(i_max=3, j_max=3, n_max=100)
    bad = []
    max_modulus = 0
    points = 0
    for key in ODD_PART_THEOREM_KEYS:
        family = registry[key]
        grid = default_grid(family, config)
        max_modulus = max(max_modulus, max(point.modulus for point in grid))
        rep = check_family(family, grid, 100, provider=provider)
        points += rep.params_tried
        if not rep.ok:
            bad.append(key)
    report(
        5,
        "odd-part tuples at 3n+1 and 3n+2, i,j <= 3",
        not bad and max_modulus == 3**4 * 2**5,
        f"{points} parameter points, largest modulus {max_modulus}"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_6_binomial_tables():
    r16 = replay_binomial_tables(16)
    r32 = replay_binomial_tables(32)
    row3 = binomial_table(32)[3]
    ok = r16.ok and r32.ok and row3 == (3, 6, 24, 16, 16)
    report(
        6,
        "binomial coefficient tables mod 16 and mod 32",
        ok,
        f"{r16.entries_checked} + {r32.entries_checked} entries recomputed exactly",
    )


def test_criterion_7_oracle_equivalence():
    ok = True
    for t in range(7):
        gf_counts = list(overpartition_gf(t, EXACT, 61).coeffs)
        ok = ok and gf_counts == list(count_overpartition_tuples(t, 60).counts)
        gf_counts = list(opt_gf(t, EXACT, 61).coeffs)
        ok = ok and gf_counts == list(count_opt_tuples(t, 60).counts)
    single = count_overpartition_tuples(1, 12)
    ok = ok and single.counts[:5] == (1, 2, 4, 8, 14)
    for t in range(3):
        for n in range(13):
            ok = ok and enumerate_tiny(t, n) == count_overpartition_tuples(t, n).count(n)
    report(
        7,
        "series engine vs counting oracle vs exhaustive enumeration",
        ok,
        "tuple sizes 0..6 to n=60; exhaustive to n=12",
    )


def test_criterion_8_randomized_property_suites():
    rng = random.Random(SEED)
    rings = (EXACT, Zmod(2), Zmod(3), Zmod(4), Zmod(8), Zmod(9), Zmod(16), Zmod(32), Zmod(2592))
    cases = 1000

    for _ in range(cases):  # ring axioms, orders up to 256
        ring = rng.choice(rings)
        order = rng.randint(1, 256)
        a = random_series(rng, ring, order)
        b = random_series(rng, ring, order)
        c = random_series(rng, ring, order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    for _ in range(cases):  # dissection reconstruction
        ring = rng.choice(rings)
        m = rng.choice((2, 3, 4, 8, 16))
        order = rng.randint(m, 200)
        s = random_series(rng, ring, order)
        total = None
        for r in range(m):
            piece = s.dissect(m, r).substitute_power(m).shift(r)
            total = piece if total is None else total + piece
        assert total == s.truncate(total.order)
        r = rng.randrange(m)
        piece = s.dissect(m, r)
        for j in range(piece.order):
            assert piece.coeff(j) == s.coeff(m * j + r)

    mods = (2, 3, 4, 8, 9, 16, 32, 2592)
    for _ in range(cases):  # reduction homomorphism
        modulus = rng.choice(mods)
        order = rng.randint(2, 64)
        a = random_series(rng, EXACT, order)
        b = random_series(rng, EXACT, order)
        pick = rng.randrange(6)
        if pick == 0:
            lhs, rhs = (a + b).reduce_ring(modulus), a.reduce_ring(modulus) + b.reduce_ring(modulus)
        elif pick == 1:
            lhs, rhs = (a * b).reduce_ring(modulus), a.reduce_ring(modulus) * b.reduce_ring(modulus)
        elif pick == 2:
            e = rng.randint(0, 4)
            lhs, rhs = (a**e).reduce_ring(modulus), a.reduce_ring(modulus) ** e
        elif pick == 3:
            m = rng.randint(1, order)
            r = rng.randrange(m)
            if r >= order:
                continue
            lhs, rhs = a.dissect(m, r).reduce_ring(modulus), a.reduce_ring(modulus).dissect(m, r)
        elif pick == 4:
            j = rng.randint(0, 8)
            lhs, rhs = a.shift(j).reduce_ring(modulus), a.reduce_ring(modulus).shift(j)
        else:
            k = rng.randint(1, 5)
            lhs, rhs = (
                a.substitute_power(k).reduce_ring(modulus),
                a.reduce_ring(modulus).substitute_power(k),
            )
        assert lhs == rhs

    for _ in range(cases):  # pow additivity with negative exponents
        ring = rng.choice(rings)
        order = rng.randint(1, 48)
        s = random_unit_series(rng, ring, order)
        e1 = rng.randint(-3, 5)
        e2 = rng.randint(-3, 5)
        assert s ** (e1 + e2) == (s**e1) * (s**e2)

    report(8, "randomized property suites", True, f"4 suites x {cases} cases, zero failures")


def test_criterion_9_performance_sanity():
    euler_product.cache_clear()
    started = time.perf_counter()
    series = overpartition_gf(64, Zmod(32), 2000)
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0 and series.order == 2000 and series.coeff(0) == 1
    report(
        9,
        "64-tuple generating function mod 32 to order 2000",
        ok,
        f"built in {elapsed:.2f}s (budget 10s)",
    )
