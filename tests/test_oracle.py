import ast
import math
import sys
from pathlib import Path

import pytest

from overq import oracle
from overq import series as series_module
from overq.series import EXACT, mismatches
from overq.eta import GF_BASE, family_gf, gf_mismatch, opt_gf, overpartition_gf
from overq.oracle import (
    ENUMERATE_MAX_N,
    ENUMERATE_MAX_T,
    _overpartitions,
    _tuple_counts,
    count_opt_tuples,
    count_overpartition_tuples,
    enumerate_tiny,
)


def _dp_reference(colors, upto, parts):
    """The per-color, per-part dynamic program the oracle used to run.

    Multiplies the count array by 1 + 2q^i + 2q^(2i) + ... once for every
    color and part size i, by strided prefix sums.
    """
    counts = [0] * (upto + 1)
    counts[0] = 1
    for _ in range(colors):
        for i in parts:
            # The strided prefix sums give sum_{j>=0} old[n - j*i], so
            # 2*prefix - old adds twice every shifted copy while keeping
            # old[n] itself single.
            prefix = counts[:]
            for n in range(i, upto + 1):
                prefix[n] += prefix[n - i]
            for n in range(i, upto + 1):
                counts[n] = 2 * prefix[n] - counts[n]
    return counts


def _part_ranges(upto):
    return {"all": range(1, upto + 1), "odd": range(1, upto + 1, 2)}


def test_single_color_low_counts():
    table = count_overpartition_tuples(1, 4)
    assert table.counts == (1, 2, 4, 8, 14)
    assert table.family == "overpartition-tuples"
    assert table.parameter == 1
    assert table.upto == 4


def test_zero_colors():
    table = count_overpartition_tuples(0, 6)
    assert table.counts == (1, 0, 0, 0, 0, 0, 0)


def test_two_colors_weight_one():
    # part 1 or overlined 1, in either coordinate
    assert count_overpartition_tuples(2, 1).count(1) == 4


def test_odd_part_single_color():
    assert count_opt_tuples(1, 3).counts == (1, 2, 2, 4)


def test_odd_part_weight_two_excludes_even_part():
    assert count_opt_tuples(1, 2).count(2) == 2  # 1+1 and overlined-1+1 only


def test_opt_six_colors_weight_two():
    # compositions: one coordinate takes weight 2 (6 ways each 2) or two take
    # weight 1 (C(6,2) pairs, 2 choices each): 6*2 + 15*2*2 = 72
    assert count_opt_tuples(6, 2).count(2) == 6 * 2 + 15 * 4


def test_count_outside_the_table_raises():
    table = count_overpartition_tuples(1, 5)
    assert table.count(5) == table.counts[5]
    for n in (-1, -6, 6):
        with pytest.raises(IndexError):
            table.count(n)


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        count_overpartition_tuples(-1, 5)
    with pytest.raises(ValueError):
        count_opt_tuples(1, -5)


# --- the recurrence against the dynamic program ---------------------------------


def _at_block_edge(blocks, extra):
    """The least upto >= 1 with upto == blocks * B + extra, B = the block rule at upto.

    The upto + 1 counts then fill ``blocks`` whole blocks with extra + 1 over.
    B grows by at most 1 per step of upto, so upto - blocks * B rises only in
    steps of +1 and hits 0.
    """
    return next(
        upto for upto in range(1, 10_000) if upto == blocks * oracle._block_size(upto) + extra
    )


_BLOCK_EDGES = {"B-1": (1, -1), "B": (1, 0), "B+1": (1, 1), "2B": (2, 0), "3B+1": (3, 1)}


@pytest.mark.parametrize(
    "upto",
    [0, 1, 2, 3, 31, 200]
    + [pytest.param(_at_block_edge(*edge), id=name) for name, edge in _BLOCK_EDGES.items()],
)
@pytest.mark.parametrize("parts", ["all", "odd"])
def test_recurrence_matches_dp_reference(upto, parts):
    part_range = _part_ranges(upto)[parts]
    for colors in range(17):
        assert _tuple_counts(colors, upto, part_range) == _dp_reference(
            colors, upto, part_range
        ), (colors, upto, parts)


@pytest.mark.parametrize("parts", ["all", "odd"])
def test_recurrence_matches_dp_reference_at_bench_size(parts):
    part_range = _part_ranges(600)[parts]
    assert _tuple_counts(16, 600, part_range) == _dp_reference(16, 600, part_range)


@pytest.mark.parametrize("parts", ["all", "odd"])
def test_recurrence_matches_dp_reference_with_wide_slots(parts):
    # 40 colors make counts of hundreds of bits, so the slots grow from 17-19
    # to 30-35 bytes over the four blocks.
    upto = _at_block_edge(3, 1)
    part_range = _part_ranges(upto)[parts]
    assert _tuple_counts(40, upto, part_range) == _dp_reference(40, upto, part_range)


@pytest.mark.parametrize("rule", ["1", "2", "upto+1"])
@pytest.mark.parametrize("parts", ["all", "odd"])
def test_block_size_does_not_change_counts(rule, parts, monkeypatch):
    expected = {
        (colors, upto): _tuple_counts(colors, upto, _part_ranges(upto)[parts])
        for colors in (0, 1, 3, 16)
        for upto in (0, 1, 2, 40, 97)
    }
    sizes = {"1": lambda upto: 1, "2": lambda upto: 2, "upto+1": lambda upto: upto + 1}
    monkeypatch.setattr(oracle, "_block_size", sizes[rule])
    for (colors, upto), counts in expected.items():
        assert _tuple_counts(colors, upto, _part_ranges(upto)[parts]) == counts, (colors, upto)


@pytest.mark.parametrize("parts", ["all", "odd"])
def test_a_wrong_far_term_is_an_error(parts, monkeypatch):
    pack = oracle._pack
    monkeypatch.setattr(oracle, "_pack", lambda vals, width: pack(vals, width) + 1)
    with pytest.raises(RuntimeError, match="remainder"):
        _tuple_counts(3, 200, _part_ranges(200)[parts])


def test_oracle_imports_no_other_overq_module():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not {name for name in imported if name.startswith((".", "overq"))}, imported


# --- exhaustive enumeration ----------------------------------------------------


def test_enumerate_tiny_basics():
    assert enumerate_tiny(1, 3) == 8
    assert enumerate_tiny(2, 2) == 12
    for t in range(ENUMERATE_MAX_T + 1):
        assert enumerate_tiny(t, 0) == 1


def test_enumerate_tiny_bounds():
    with pytest.raises(ValueError):
        enumerate_tiny(ENUMERATE_MAX_T + 1, 2)
    with pytest.raises(ValueError):
        enumerate_tiny(1, ENUMERATE_MAX_N + 1)
    with pytest.raises(ValueError):
        enumerate_tiny(-1, 0)


def test_enumeration_agrees_with_dp_everywhere():
    for t in range(ENUMERATE_MAX_T + 1):
        table = count_overpartition_tuples(t, ENUMERATE_MAX_N)
        for n in range(ENUMERATE_MAX_N + 1):
            assert enumerate_tiny(t, n) == table.count(n), (t, n)


def _enumerate_odd_part_tuples(t, n):
    """Count overpartition t-tuples of n with all parts odd, by generating them."""

    def odd(weight):
        return [op for op in _overpartitions(weight) if all(part % 2 for part, _ in op)]

    def tuples(colors, remaining):
        if colors == 0:
            if remaining == 0:
                yield ()
            return
        for weight in range(remaining + 1):
            for op in odd(weight):
                for rest in tuples(colors - 1, remaining - weight):
                    yield (op,) + rest

    return sum(1 for _ in tuples(t, n))


def test_odd_part_enumeration_agrees_with_counts_everywhere():
    for t in range(ENUMERATE_MAX_T + 1):
        table = count_opt_tuples(t, ENUMERATE_MAX_N)
        for n in range(ENUMERATE_MAX_N + 1):
            assert _enumerate_odd_part_tuples(t, n) == table.count(n), (t, n)


# --- structural invariants -------------------------------------------------------


def test_tuple_counts_convolve():
    upto = 40
    tables = {t: count_overpartition_tuples(t, upto) for t in range(7)}
    for t1 in range(4):
        for t2 in range(4):
            combined = tables[t1 + t2]
            for n in range(upto + 1):
                conv = sum(
                    tables[t1].count(j) * tables[t2].count(n - j) for j in range(n + 1)
                )
                assert conv == combined.count(n), (t1, t2, n)


def test_counts_match_generating_functions():
    for t in range(7):
        table = count_overpartition_tuples(t, 60)
        series = overpartition_gf(t, EXACT, 61)
        assert list(table.counts) == list(series.coeffs)
        table = count_opt_tuples(t, 60)
        series = opt_gf(t, EXACT, 61)
        assert list(table.counts) == list(series.coeffs)


# --- the sparse-step check against the theta form of the GF ----------------------

ETA = sys.modules["overq.eta"]  # the package's eta function shadows the submodule
COUNTERS = {"overpartition": count_overpartition_tuples, "opt": count_opt_tuples}
UPTOS = (0, 1, 2, 3, 4, 8, 9, 24, 25, 600)


def _clean_width(kind, t, counts):
    """The least w with 2^(8w) > M P_- + P_+, the bound ``gf_mismatch`` states."""
    n = len(counts)
    below, above = max(max(map(abs, counts)), 1), 1
    for s, c in ETA._gf_thetas(kind, t):
        growth = (1 + 2 * math.isqrt((n - 1) // s)) ** abs(c)
        if c < 0:
            below *= growth
        else:
            above *= growth
    return ((below + above).bit_length() + 7) // 8


def _corruptions(counts, width):
    """Copies of counts each wrong somewhere: at index 0, the last index and a
    square index, by +-1 and +-2^(8 width); a negative count; and a wrong
    count a short slot would miss ahead of one it would not."""
    last = len(counts) - 1
    slot = 1 << 8 * width
    for i in sorted({0, last, math.isqrt(last) ** 2}):
        for delta in (1, -1, 2, slot, -slot):
            wrong = list(counts)
            wrong[i] += delta
            yield wrong
        wrong = list(counts)
        wrong[i] = -counts[i] - 1
        yield wrong
    wrong = list(counts)
    wrong[0] += slot
    wrong[last] += 1
    yield wrong


@pytest.mark.parametrize("t", [0, 1, 2, 3, 7, 16])
@pytest.mark.parametrize("kind", sorted(GF_BASE))
def test_gf_mismatch_finds_the_plain_first_mismatch(kind, t):
    counts = COUNTERS[kind](t, max(UPTOS)).counts
    gf = family_gf(kind, t, EXACT, max(UPTOS) + 1).coeffs
    for upto in UPTOS:
        clean, want = counts[: upto + 1], gf[: upto + 1]
        assert gf_mismatch(kind, t, clean) is None, upto
        for wrong in _corruptions(clean, _clean_width(kind, t, clean)):
            assert gf_mismatch(kind, t, wrong) == next(mismatches(wrong, want)), upto


def test_gf_mismatch_expands_no_series(monkeypatch):
    counts = count_opt_tuples(5, 100).counts

    def refuse(*args):
        raise AssertionError("expanded a series")

    for name in ("expand_eta_quotient", "_expand_thetas", "_f1_power"):
        monkeypatch.setattr(ETA, name, refuse)
    monkeypatch.setattr(series_module, "_ladder", refuse)  # no power of any series
    assert gf_mismatch("opt", 5, counts) is None
    assert gf_mismatch("opt", 5, counts[:50] + (0,) + counts[51:]) == 50


def test_gf_mismatch_rejects_what_it_cannot_check():
    assert gf_mismatch("opt", 3, ()) is None  # nothing to compare
    with pytest.raises(ValueError, match="unknown generating function kind"):
        gf_mismatch("bogus", 1, (1,))
    with pytest.raises(ValueError, match="tuple size"):
        gf_mismatch("opt", -1, (1,))
