"""Brute-force oracles: subset sums, cover cross-checks, membership."""
import itertools
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsums as S
from subsums import oracle
from subsums.sequences import positive_spec


def test_subset_sums_thirds():
    table = S.subset_sums(S.PRESETS["thirds"], 2)
    assert table == (F(0), F(1, 9), F(1, 3), F(4, 9))


def test_subset_sums_halves_collide():
    table = S.subset_sums(S.PRESETS["halves"], 2)
    # 1/2 = 1/4 + 1/4 never happens here, but dyadic collisions do
    # appear at depth 3: 1/8 + 1/4 + 1/2 has no duplicate partner yet
    assert table == (F(0), F(1, 4), F(1, 2), F(3, 4))
    assert len(S.subset_sums(S.PRESETS["halves"], 3)) == 8


def test_subset_sums_gn():
    table = S.subset_sums(S.PRESETS["gn"], 2)
    assert table == (F(0), F(1, 2), F(3, 4), F(5, 4))


def test_subset_sums_counts_distinct():
    # bigeometric terms are rationally independent enough at depth 6
    table = S.subset_sums(S.PRESETS["ratios-2-5-3-5"], 6)
    assert len(table) == 64
    assert table == tuple(sorted(table))


def test_subset_sums_reflection_closure():
    for name in ("thirds", "gn", "kenyon"):
        spec = S.PRESETS[name]
        for n in (1, 2, 4, 6):
            table = S.subset_sums(spec, n)
            partial = sum((spec.term(k) for k in range(1, n + 1)), F(0))
            assert set(table) == {partial - s for s in table}


def test_subset_sums_signed_translation():
    signed = S.MergedSpec(
        (S.geometric(F(1, 4), F(1, 4)),),
        (S.geometric(F(1, 2), F(1, 4)),),
    )
    n = 10
    table = S.subset_sums(signed, n)
    first = list(itertools.islice(signed.terms(), n))
    neg_total = sum((t for t in first if t < 0), F(0))
    abs_spec = S.MergedSpec((
        S.geometric(F(1, 4), F(1, 4)),
        S.geometric(F(1, 2), F(1, 4)),
    ))
    abs_table = S.subset_sums(abs_spec, n)
    assert set(table) == {s + neg_total for s in abs_table}


def test_subset_sums_depth_limit():
    with pytest.raises(S.DepthLimit):
        S.subset_sums(S.PRESETS["thirds"], 21)


def test_oracle_cn_matches_construction():
    for name in ("thirds", "halves", "gn", "kenyon", "ratios-2-5-3-5"):
        spec = S.PRESETS[name]
        for n in (0, 1, 3, 6):
            assert S.oracle_cn(spec, n) == S.build_cn(spec, n).fattened


def test_oracle_cn_prefixed():
    spec = S.geometric(F(1, 2), F(1, 2), prefix=(F(2),))
    for n in (1, 2, 5):
        assert S.oracle_cn(spec, n) == S.build_cn(spec, n).fattened


def test_oracle_cn_rejects_divergent():
    with pytest.raises(S.DivergentTail):
        S.oracle_cn(S.PRESETS["harmonic"], 3)


def test_oracle_cn_rejects_negated():
    with pytest.raises(ValueError):
        S.oracle_cn(S.MergedSpec((), (S.geometric(F(1, 2), F(1, 2)),)), 3)


def test_membership_probe_excluded_point():
    result = S.membership_probe(S.PRESETS["thirds"], F(1, 4), 8)
    assert result.excluded_at == 1
    assert not result.in_all_tested


def test_membership_probe_member():
    result = S.membership_probe(S.PRESETS["thirds"], F(1, 3), 12)
    assert result.excluded_at is None
    assert result.in_all_tested
    assert result.depth == 12


def test_membership_probe_gn_interior():
    # 7/8 sits inside the interval part of the cantorval
    result = S.membership_probe(S.PRESETS["gn"], F(7, 8), 14)
    assert result.in_all_tested


def test_membership_probe_outside_hull():
    result = S.membership_probe(S.PRESETS["thirds"], F(2), 5)
    assert result.excluded_at == 0


def _reference_exclusion(spec, point, depth):
    return next((n for n in range(depth + 1) if not S.oracle_cn(spec, n).contains(point)), None)


_values = st.fractions(min_value=F(1, 40), max_value=F(3), max_denominator=40)
_ratios = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)
_tails = st.one_of(
    st.builds(lambda a, r: S.geometric(a, r).tail, _values, _ratios),
    st.builds(
        S.MultiGeometricTail, st.lists(_ratios, min_size=2, max_size=3).map(tuple), _values
    ),
    st.builds(S.PowerSumTail, st.sampled_from((2, 3)), st.integers(1, 4)),
)
_finite = st.builds(S.finite, st.lists(_values, min_size=1, max_size=4))
_merge_parts = st.one_of(st.builds(S.SequenceSpec, st.just(()), _tails), _finite)
_probe_specs = st.one_of(
    st.builds(S.SequenceSpec, st.lists(_values, max_size=3).map(tuple), _tails),
    st.builds(lambda a, b: S.MergedSpec((a, b)), _merge_parts, _merge_parts),
    _finite,
)


@settings(max_examples=80, deadline=None)
@given(_probe_specs, st.integers(0, 10), st.data())
def test_probe_matches_per_depth_covers(spec, depth, data):
    positive = positive_spec(spec)
    n = data.draw(st.integers(0, depth))
    terms = list(itertools.islice(positive.terms(), n))
    picks = data.draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
    subsum = sum((t for t, keep in zip(terms, picks) if keep), F(0))
    cover = S.oracle_cn(spec, n).intervals
    gaps = [(a.right + b.left) / 2 for a, b in zip(cover, cover[1:])]
    total = positive.total().hi
    candidates = [subsum, subsum + positive.tail_sum(n).hi, -total / 3, total + F(1, 7)] + gaps
    point = data.draw(st.sampled_from(candidates))
    expected = S.MembershipResult(point, depth, _reference_exclusion(spec, point, depth))
    assert S.membership_probe(spec, point, depth) == expected


def test_probe_builds_no_cover(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("membership_probe must not enumerate covers")

    monkeypatch.setattr(oracle, "oracle_cn", refuse)
    monkeypatch.setattr(oracle, "subset_sums", refuse)
    assert S.membership_probe(S.PRESETS["thirds"], F(1, 4), 8).excluded_at == 1
    assert S.membership_probe(S.PRESETS["gn"], F(7, 8), 14).in_all_tested


def test_probe_error_order():
    harmonic = S.PRESETS["harmonic"]
    with pytest.raises(S.DepthLimit):
        S.membership_probe(harmonic, F(1), S.DEPTH_LIMIT + 1)
    with pytest.raises(ValueError):
        S.membership_probe(S.PRESETS["thirds"], F(1, 3), -1)
    with pytest.raises(ValueError):
        S.membership_probe(S.MergedSpec((), (S.geometric(F(1, 2), F(1, 2)),)), F(1, 3), 3)
    with pytest.raises(S.DivergentTail):
        S.membership_probe(harmonic, F(1), 3)


def test_probe_at_depth_limit_agrees_with_fold():
    gn = S.PRESETS["gn"]
    depth = S.DEPTH_LIMIT
    cover = S.build_cn(gn, depth).fattened.intervals
    member = cover[len(cover) // 3].left
    assert S.membership_probe(gn, member, depth).in_all_tested
    narrow = min(zip(cover, cover[1:]), key=lambda pair: pair[1].left - pair[0].right)
    midpoint = (narrow[0].right + narrow[1].left) / 2
    excluded = S.membership_probe(gn, midpoint, depth).excluded_at
    assert excluded is not None
    assert not S.build_cn(gn, excluded).fattened.contains(midpoint)
    assert S.build_cn(gn, excluded - 1).fattened.contains(midpoint)


def test_oracle_cn_gn_depth_16():
    gn = S.PRESETS["gn"]
    assert S.oracle_cn(gn, 16) == S.build_cn(gn, 16).fattened


def test_subset_sums_visit_every_mask():
    # Rationally independent terms: all 2^n masks give distinct sums.
    terms = [F(1, 3), F(2, 7), F(1, 11), F(1, 13), F(1, 17)]
    expected = {
        sum((t for t, keep in zip(terms, mask) if keep), F(0))
        for mask in itertools.product((False, True), repeat=len(terms))
    }
    sums = S.subset_sums(S.finite(terms), len(terms))
    assert len(sums) == 32 and set(sums) == expected


_exact_tails = st.one_of(
    st.builds(lambda a, r: S.geometric(a, r).tail, _values, _ratios),
    st.builds(
        S.MultiGeometricTail, st.lists(_ratios, min_size=2, max_size=3).map(tuple), _values
    ),
)
_exact_parts = st.one_of(
    st.builds(S.SequenceSpec, st.lists(_values, max_size=2).map(tuple), _exact_tails),
    _finite,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_merge_parts, min_size=3, max_size=3), st.integers(0, 9))
def test_oracle_matches_fold_on_three_part_merges(parts, n):
    spec = S.MergedSpec(tuple(parts))
    assert S.oracle_cn(spec, n) == S.build_cn(spec, n).fattened


@settings(max_examples=60, deadline=None)
@given(st.lists(_exact_parts, min_size=3, max_size=3), st.permutations(range(3)), st.integers(0, 9))
def test_oracle_matches_fold_on_nested_and_reordered_merges(parts, order, n):
    # With exact tails the cover depends only on the multiset of terms, so
    # neither the part order nor the nesting can change it.
    flat = S.build_cn(S.MergedSpec(tuple(parts)), n).fattened
    first, *rest = (parts[i] for i in order)
    reordered = S.MergedSpec((first, *rest))
    nested = S.MergedSpec((first, S.combine_parts(rest)))
    assert S.oracle_cn(reordered, n) == flat
    assert S.oracle_cn(nested, n) == flat
    assert S.build_cn(nested, n).fattened == flat


_power_sum_parts = st.builds(
    S.SequenceSpec,
    st.lists(_values, max_size=3).map(tuple),
    st.builds(S.PowerSumTail, st.sampled_from((2, 3)), st.integers(1, 4)),
)
_power_sum_specs = st.one_of(
    _power_sum_parts,
    st.builds(lambda a, b: S.MergedSpec((a, b)), _power_sum_parts, _merge_parts),
)


@settings(max_examples=60, deadline=None)
@given(_power_sum_specs, st.integers(0, 9))
def test_inner_cover_is_per_mask_sums_widened_by_lower_tail_bound(spec, n):
    positive = positive_spec(spec)
    tail = positive.tail_sum(n)
    assert not tail.exact
    result = S.build_cn(spec, n)
    sums = S.subset_sums(positive, n)
    assert result.inner == S.IntervalUnion(S.ClosedInterval(s, s + tail.lo) for s in sums)
    assert result.fattened == S.oracle_cn(spec, n)
    assert S.is_subset(result.inner, result.fattened)


# (part, negated) pairs: a finite part and whether it enters negated.
_signed_parts = st.tuples(
    st.builds(S.finite, st.lists(_values, min_size=1, max_size=4)), st.booleans()
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_signed_parts, min_size=2, max_size=3))
def test_signed_subset_sums_are_the_hornich_translation(parts):
    # Finite parts, so the truncation holds every term in any order.
    spec = S.MergedSpec(
        tuple(part for part, negated in parts if not negated),
        tuple(part for part, negated in parts if negated),
    )
    count = sum(len(part.prefix) for part, _ in parts)
    pos, neg = S.sign_split(spec)
    absolute = S.combine_parts((pos, neg))
    translated = {s - neg.total().value for s in S.subset_sums(absolute, count)}
    assert set(S.subset_sums(spec, count)) == translated


def _dominant_prefix(tail_total, margins):
    """Descending prefix whose every term exceeds all later terms plus the tail."""
    values, rest = [], tail_total
    for margin in margins:
        values.append(rest + margin)
        rest += values[-1]
    return tuple(reversed(values))


_power_sum_tails = st.builds(S.PowerSumTail, st.sampled_from((2, 3)), st.integers(1, 4))
_dominated_power_sums = st.builds(
    lambda tail, margins: S.SequenceSpec(_dominant_prefix(tail.enclosure(0).hi, margins), tail),
    _power_sum_tails,
    st.lists(st.fractions(min_value=F(1, 10), max_value=F(1), max_denominator=10), max_size=3),
)
_inexact_or_short_specs = st.one_of(
    _dominated_power_sums,
    st.builds(lambda a, b: S.MergedSpec((a, b)), _power_sum_parts, _merge_parts),
    st.builds(S.finite, st.lists(_values, min_size=1, max_size=8)),
)


@settings(max_examples=60, deadline=None)
@given(_inexact_or_short_specs, st.integers(11, 14), st.data())
def test_probe_matches_per_depth_covers_on_inexact_and_short_specs(spec, depth, data):
    # Power-sum bounds come from tail_sum(n) at every depth; a finite spec
    # is probed past its last term, where its bound stays 0.
    # Points at and just past the right end of a depth-k component test
    # the bound X_k itself; `past` is the first point after it on the grid
    # of the terms' common denominator, the probe's own denominator.
    positive = positive_spec(spec)
    k = data.draw(st.integers(0, depth))
    terms = list(itertools.islice(positive.terms(), depth))
    picks = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    subsum = sum((t for t, keep in zip(terms, picks) if keep), F(0))
    tail = positive.tail_sum(k).hi
    edge = subsum + tail
    grid = math.lcm(*(t.denominator for t in terms))
    past = subsum + F(math.floor(tail * grid) + 1, grid)
    # _reference_exclusion for every point, with each cover built once.
    covers = [S.oracle_cn(spec, n) for n in range(depth + 1)]
    deepest = covers[-1].intervals
    gaps = [(a.right + b.left) / 2 for a, b in zip(deepest, deepest[1:])]
    points = [subsum, edge, past, edge + F(1, 10**6), positive.total().hi + F(1, 7)]
    if gaps:
        points += data.draw(st.lists(st.sampled_from(gaps), min_size=1, max_size=3))
    for point in points:
        expected = next((n for n, cover in enumerate(covers) if not cover.contains(point)), None)
        assert S.membership_probe(spec, point, depth).excluded_at == expected


_exact_specs = st.one_of(
    _exact_parts,
    st.builds(lambda a, b: S.MergedSpec((a, b)), _exact_parts, _exact_parts),
)


@settings(max_examples=60, deadline=None)
@given(_exact_specs)
def test_exact_tail_is_the_total_less_the_partial_sum(spec):
    # The identity membership_probe reads its bounds from: X_n = X_0 - S_n,
    # also past a finite spec's last term, where both sides are 0.
    positive = positive_spec(spec)
    total = positive.total()
    assert total.exact
    terms = positive.terms()
    partial = F(0)
    for n in range(21):
        tail = positive.tail_sum(n)
        assert tail.exact and tail.hi == total.hi - partial
        partial += next(terms, 0)


def test_probe_power_sum_at_depth_limit_within_budget():
    start = time.perf_counter()
    result = S.membership_probe(S.power_sum(2), F(1, 2), S.DEPTH_LIMIT)
    elapsed = time.perf_counter() - start
    assert result.in_all_tested
    # About 0.04 s on 2 shared vCPUs; the frontier holds 47,956 residuals.
    assert elapsed < 0.5


def test_probe_excludes_the_first_grid_point_past_an_inexact_bound():
    # The first four terms, 19/5, 8/5, 4/5 and 1/9, have the common
    # denominator 45, and X_1 = 12/5 + 1/2 = 29/10 lies between the grid
    # points 130/45 and 131/45. So 131/45 is just past the right end of the
    # depth-1 component [0, X_1], and the probe must round X_1 down.
    spec = S.SequenceSpec((F(19, 5), F(8, 5), F(4, 5)), S.PowerSumTail(2, 3))
    assert spec.tail_sum(1).hi == F(29, 10)
    point = F(131, 45)
    assert _reference_exclusion(spec, point, 4) == 1
    assert S.membership_probe(spec, point, 4).excluded_at == 1
