"""Greedy representation of targets by divergent series."""
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsums as S
from subsums.filler import DEFAULT_MAX_ROUNDS


def test_fill_harmonic_examples():
    result = S.fill(S.PRESETS["harmonic"], F(5, 6), F(1, 10**6))
    assert result.runs == ((2, 3),)
    assert result.gaps == (F(0),)
    assert result.achieved == F(5, 6)
    assert not result.hit_round_limit

    result = S.fill(S.PRESETS["harmonic"], F(1, 2), F(1, 10**6))
    assert result.runs == ((2, 2),)
    assert result.gaps == (F(0),)


def test_fill_harmonic_unit_target():
    result = S.fill(S.PRESETS["harmonic"], F(1), F(1, 10**6))
    assert result.runs[0] == (1, 1)
    assert result.gaps[0] == F(0)
    assert result.achieved == F(1)


def test_fill_gap_halves_each_round():
    result = S.fill(S.PRESETS["harmonic"], F(7, 9), F(1, 10**9))
    gap = F(7, 9)
    for next_gap in result.gaps:
        assert next_gap < gap / 2 or next_gap == 0
        gap = next_gap
        if gap == 0:
            break
    assert result.gaps[-1] < F(1, 10**9)


def test_fill_exact_bookkeeping():
    target = F(113, 355)
    result = S.fill(S.PRESETS["harmonic"], target, F(1, 10**8))
    total = sum(
        (sum(F(1, k) for k in range(lo, hi + 1)) for lo, hi in result.runs),
        F(0),
    )
    assert total == result.achieved
    assert target - result.achieved == result.gaps[-1]
    assert result.gaps[-1] >= 0


def test_fill_runs_are_disjoint_and_increasing():
    result = S.fill(S.PRESETS["harmonic"], F(3, 2), F(1, 10**8))
    last_hi = 0
    for lo, hi in result.runs:
        assert lo > last_hi
        assert hi >= lo
        last_hi = hi


def test_fill_first_index_maximal():
    # each run starts at the first unused index whose term fits the gap
    spec = S.PRESETS["harmonic"]
    result = S.fill(spec, F(5, 7), F(1, 10**6))
    gap = F(5, 7)
    lowest = 1
    for lo, hi in result.runs:
        assert F(1, lo) <= gap
        if lo > lowest:
            assert F(1, lo - 1) > gap
        run = sum(F(1, k) for k in range(lo, hi + 1))
        assert run <= gap
        assert run + F(1, hi + 1) > gap
        gap -= run
        lowest = hi + 1


def test_fill_rejects_convergent():
    with pytest.raises(S.NotDivergent):
        S.fill(S.PRESETS["thirds"], F(1, 4), F(1, 100))


def test_fill_rejects_bad_inputs():
    with pytest.raises(ValueError):
        S.fill(S.PRESETS["harmonic"], F(0), F(1, 100))
    with pytest.raises(ValueError):
        S.fill(S.PRESETS["harmonic"], F(1, 2), F(0))
    with pytest.raises(ValueError):
        S.fill(S.MergedSpec((), (S.power_sum(1),)), F(1, 2), F(1, 100))


def test_fill_round_limit_flag():
    result = S.fill(S.PRESETS["harmonic"], F(355, 113), F(1, 10**30), max_rounds=3)
    assert result.hit_round_limit
    assert len(result.runs) == 3
    assert result.gaps[-1] >= F(1, 10**30)


def test_fill_shifted_harmonic():
    spec = S.power_sum(1, start=3)
    result = S.fill(spec, F(3, 2), F(1, 1000))
    assert result.gaps[-1] < F(1, 1000)
    assert result.runs[0][0] == 1
    assert spec.term(1) == F(1, 3)
    total = sum(
        (sum(spec.term(k) for k in range(lo, hi + 1)) for lo, hi in result.runs),
        F(0),
    )
    assert total == result.achieved


@settings(max_examples=25, deadline=None)
@given(
    st.fractions(min_value=F(1, 100), max_value=F(9, 2), max_denominator=100),
)
def test_fill_hits_tolerance(target):
    result = S.fill(S.PRESETS["harmonic"], target, F(1, 10**6))
    assert not result.hit_round_limit
    assert 0 <= target - result.achieved < F(1, 10**6)


def _first_fitting(spec, lowest, gap):
    """First index >= lowest whose term is at most gap, on a harmonic tail.

    The tail's term at index i is 1/k with k = start + i - len(prefix) - 1,
    so past the prefix the index comes from k >= ceil(1/gap) directly.
    """
    index = lowest
    while index <= len(spec.prefix):
        if spec.term(index) <= gap:
            return index
        index += 1
    offset = spec.tail.start - len(spec.prefix) - 1
    k = max(-(-gap.denominator // gap.numerator), index + offset)
    return k - offset


def _reference_fill(spec, target, eps, max_rounds):
    """The greedy packing with one Fraction addition per run term."""
    runs, gaps = [], []
    achieved, gap, lowest = F(0), target, 1
    while gap >= eps and len(runs) < max_rounds:
        start = index = _first_fitting(spec, lowest, gap)
        run_sum = F(0)
        while run_sum + spec.term(index) <= gap:
            run_sum += spec.term(index)
            index += 1
        achieved += run_sum
        gap -= run_sum
        runs.append((start, index - 1))
        gaps.append(gap)
        lowest = index
        if gap == 0:
            break
    return S.FillResult(tuple(runs), tuple(gaps), achieved, target, gap >= eps)


def _harmonic_tail(start, prefix=()):
    return S.SequenceSpec(tuple(prefix), S.PowerSumTail(1, start))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=9), max_size=2),
    st.fractions(min_value=F(1, 100), max_value=6, max_denominator=1000),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=64),
)
def test_fill_matches_per_term_reference(start, bumps, target, eps_digits, max_rounds):
    prefix = sorted((1 + F(b, 100) for b in bumps), reverse=True)
    spec = _harmonic_tail(start, prefix)
    eps = F(1, 10**eps_digits)
    assert S.fill(spec, target, eps, max_rounds) == _reference_fill(
        spec, target, eps, max_rounds
    )


# Run lengths on both sides of the block boundaries (blocks of 1, 2, 4, ...
# terms end after 1, 3, 7, ..., 255 and 511 terms).
@pytest.mark.parametrize("length", [1, 2, 3, 255, 256, 257, 511, 512, 513])
def test_fill_run_lengths_at_block_boundaries(length):
    spec = S.PRESETS["harmonic"]
    partial = sum((F(1, k) for k in range(1, length + 1)), F(0))
    eps = F(1, 10**20)

    exact = S.fill(spec, partial, eps)
    assert exact == _reference_fill(spec, partial, eps, DEFAULT_MAX_ROUNDS)
    assert exact.runs == ((1, length),)
    assert exact.gaps == (F(0),)

    above = partial + F(1, 10**12)
    result = S.fill(spec, above, eps)
    assert result == _reference_fill(spec, above, eps, DEFAULT_MAX_ROUNDS)
    assert result.runs[0] == (1, length)


def test_fill_harmonic_target_ten():
    target = F(10)
    result = S.fill(S.PRESETS["harmonic"], target, F(1, 10**6))
    assert result.runs[0] == (1, 12366)
    assert result.achieved + result.gaps[-1] == target
    gap = target
    for next_gap in result.gaps:
        assert 2 * next_gap <= gap
        gap = next_gap
    assert not result.hit_round_limit


def _scanning_reference_fill(spec, target, eps, max_rounds):
    """The greedy packing on any spec: scan indices for the first fitting
    term, then add one Fraction per run term, reading spec.terms()."""
    stream, seen = spec.terms(), []

    def term(index):
        while len(seen) < index:
            seen.append(next(stream))
        return seen[index - 1]

    runs, gaps = [], []
    achieved, gap, index = F(0), target, 1
    while gap >= eps and len(runs) < max_rounds:
        while term(index) > gap:
            index += 1
        start, run_sum = index, F(0)
        while run_sum + term(index) <= gap:
            run_sum += term(index)
            index += 1
        achieved += run_sum
        gap -= run_sum
        runs.append((start, index - 1))
        gaps.append(gap)
        if gap == 0:
            break
    return S.FillResult(tuple(runs), tuple(gaps), achieved, target, gap >= eps)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=F(1, 20), max_value=F(3, 2), max_denominator=60),
    st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=20),
    st.booleans(),
    st.fractions(min_value=F(1, 100), max_value=4, max_denominator=1000),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=64),
)
def test_fill_on_a_harmonic_geometric_merge_matches_scanning_reference(
    start, first, ratio, with_prefix, target, eps_digits, max_rounds
):
    # A merge tail's pairs are its Fraction terms converted, so this runs
    # fill on the conversion path, not on the power-sum stream.
    merge = S.MergeTail((S.power_sum(1, start=start), S.geometric(first, ratio)))
    prefix = (F(2) * max(first, F(1, start)),) if with_prefix else ()
    spec = S.SequenceSpec(prefix, merge)
    eps = F(1, 10**eps_digits)
    assert S.fill(spec, target, eps, max_rounds) == _scanning_reference_fill(
        spec, target, eps, max_rounds
    )


_HARMONIC_GEOMETRIC_MERGE = S.SequenceSpec(
    (), S.MergeTail((S.power_sum(1, start=2), S.geometric(F(5, 6), F(2, 3))))
)


@pytest.mark.parametrize("target", [3, 4])
def test_fill_on_the_merge_matches_scanning_reference(target):
    # Runs start as far as term 17,411 (target 3); counting the terms above
    # each gap reaches them in well under the budget, walking the merge
    # to each start does not.
    eps = F(1, 10**6)
    began = time.perf_counter()
    result = S.fill(_HARMONIC_GEOMETRIC_MERGE, target, eps)
    assert time.perf_counter() - began < 0.1
    assert result == _scanning_reference_fill(
        _HARMONIC_GEOMETRIC_MERGE, F(target), eps, DEFAULT_MAX_ROUNDS
    )


@pytest.mark.parametrize("eps_digits", [9, 30])
def test_fill_on_the_merge_reaches_far_runs_without_walking(eps_digits):
    # The fourth run starts past two million merged terms; fill counts the
    # terms above each gap instead of reaching it.
    began = time.perf_counter()
    result = S.fill(_HARMONIC_GEOMETRIC_MERGE, F(22, 7), F(1, 10**eps_digits))
    assert time.perf_counter() - began < 1
    assert result.runs[:4] == ((1, 7), (25, 25), (1408, 1408), (2066966, 2066966))
    assert not result.hit_round_limit


def test_fill_run_term_cap():
    began = time.perf_counter()
    with pytest.raises(S.CapExceeded):
        S.fill(S.PRESETS["harmonic"], F(14), F(1, 10**6))
    assert time.perf_counter() - began < 5
    # Target 12 has a first run of 91,379 terms, under the cap.
    assert S.fill(S.PRESETS["harmonic"], F(12), F(1, 10**6)).runs[0] == (1, 91379)


def test_fill_with_a_ratio_near_1_fails_fast():
    # Counting the geometric part's terms above the first gap would need
    # powers of about 3 * 10^8 bits; the count refuses them at once.
    spec = S.MergedSpec((S.power_sum(1), S.geometric(F(1, 2), F(999999, 10**6))))
    began = time.perf_counter()
    with pytest.raises(S.CapExceeded, match="strand count needs powers past"):
        S.fill(spec, 3, F(1, 10**6))
    assert time.perf_counter() - began < 2
