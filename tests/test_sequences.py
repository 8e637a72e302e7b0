"""Sequence kinds: terms, tails, reordering, signs, comparisons."""
import heapq
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsums as S
from subsums.sequences import REFINEMENT_STEPS


def take(spec, n):
    return list(itertools.islice(spec.terms(), n))


def test_geometric_terms_and_tail():
    spec = S.geometric(F(1, 3), F(1, 3))
    assert [spec.term(i) for i in (1, 2, 3)] == [F(1, 3), F(1, 9), F(1, 27)]
    assert spec.tail_sum(0).value == F(1, 2)
    assert spec.tail_sum(2).value == F(1, 18)
    assert spec.total().exact


def test_geometric_validation():
    with pytest.raises(ValueError):
        S.geometric(F(1, 2), F(1))
    with pytest.raises(ValueError):
        S.geometric(F(0), F(1, 2))
    with pytest.raises(ValueError):
        S.geometric(F(1, 2), F(-1, 3))


def test_geometric_validation_messages():
    # Checked before 1 - ratio divides the first term.
    for ratio in (F(1), F(3, 2), F(0)):
        with pytest.raises(ValueError, match="geometric ratio must lie strictly between 0 and 1"):
            S.geometric(F(1, 2), ratio)
    for first in (F(0), F(-1, 2)):
        with pytest.raises(ValueError, match="geometric first term must be positive"):
            S.geometric(first, F(1))


def test_geometric_is_the_one_proportion_multigeometric_tail():
    spec = S.geometric(F(2, 3), F(1, 4), prefix=(F(1),))
    assert spec == S.multi_geometric((F(3, 4),), F(8, 9), prefix=(F(1),))
    assert spec.tail.heads == (F(2, 3),)
    assert spec.tail.period_factor == F(1, 4)
    assert take(spec, 4) == [F(1), F(2, 3), F(1, 6), F(1, 24)]
    assert S.drop_first(spec, 3) == S.geometric(F(1, 24), F(1, 4))


def test_prefix_terms_are_one_based_and_signed():
    spec = S.geometric(F(1, 2), F(1, 2), prefix=(F(2),), negated=True)
    assert spec.term(1) == F(-2)
    assert spec.term(2) == F(-1, 2)
    assert take(spec, 3) == [F(-2), F(-1, 2), F(-1, 4)]


def test_finite_spec_term_count_and_errors():
    spec = S.finite((F(3), F(1)))
    assert spec.term_count() == 2
    assert spec.total().value == F(4)
    with pytest.raises(S.IndexBeyondFinite):
        spec.term(3)
    assert take(spec, 5) == [F(3), F(1)]


def test_power_sum_terms():
    spec = S.power_sum(2)
    assert [spec.term(i) for i in (1, 2, 3)] == [F(1), F(1, 4), F(1, 9)]
    shifted = S.power_sum(2, start=3)
    assert shifted.term(1) == F(1, 9)


def test_power_sum_rejects_bad_exponents():
    with pytest.raises(S.UnsupportedExponent):
        S.power_sum(0)
    with pytest.raises(S.UnsupportedExponent):
        S.power_sum(True)


def test_power_sum_enclosure_brackets():
    spec = S.power_sum(2)
    enc = spec.tail_sum(1)
    assert (enc.lo, enc.hi) == (F(1, 2), F(1))
    refined = spec.tail_sum(1, extra=8)
    assert enc.lo <= refined.lo <= refined.hi <= enc.hi
    assert refined.hi - refined.lo < enc.hi - enc.lo


def test_harmonic_diverges():
    spec = S.power_sum(1)
    assert spec.divergent
    assert spec.tail_sum(5).hi is None
    assert spec.term(10) == F(1, 10)


def test_multigeometric_recursion_and_tails():
    gn = S.multi_geometric((F(9, 20), F(6, 11)), F(5, 3))
    assert [gn.term(i) for i in range(1, 7)] == [
        F(3, 4), F(1, 2), F(3, 16), F(1, 8), F(3, 64), F(1, 32),
    ]
    assert gn.tail_sum(1).value == F(11, 12)
    assert gn.tail_sum(2).value == F(5, 12)
    # x_{i+1} = rho * X_i and X_{i+1} = (1 - rho) * X_i, checked pointwise
    for i in range(12):
        rho = gn.tail.ratios[i % 2]
        assert gn.term(i + 1) == rho * gn.tail_sum(i).value
        assert gn.tail_sum(i + 1).value == (1 - rho) * gn.tail_sum(i).value


def test_multigeometric_period_factor_scales_tails():
    ken = S.PRESETS["kenyon"]
    lam = ken.tail.period_factor
    assert lam == F(1, 4)
    for i in range(8):
        assert ken.tail_sum(i + 2).value == lam * ken.tail_sum(i).value


def test_bigeometric_term_example():
    spec = S.multi_geometric((F(2, 5), F(3, 5)), F(1))
    assert spec.term(2) == F(9, 25)
    assert take(spec, 4) == [F(2, 5), F(9, 25), F(12, 125), F(54, 625)]


def test_merge_tail_orders_terms_descending():
    merged = S.SequenceSpec(
        (),
        S.MergeTail((S.geometric(F(3, 2), F(1, 4)), S.geometric(F(1, 4), F(1, 4)))),
    )
    assert take(merged, 7) == [
        F(3, 2), F(3, 8), F(1, 4), F(3, 32), F(1, 16), F(3, 128), F(1, 64),
    ]
    assert merged.total().value == F(7, 3)
    # Kenyon's reordering is 3/2 followed by half of the Guthrie-Nymann tail.
    assert merged == S.nonincreasing_reorder(S.PRESETS["kenyon"])
    assert S.self_similar(merged) == S.multi_geometric(
        (F(9, 20), F(6, 11)), F(5, 6), prefix=(F(3, 2),)
    )


def test_merge_tail_rejects_empty_parts():
    geo = S.geometric(F(1), F(1, 2))
    with pytest.raises(ValueError, match="nonempty"):
        S.MergeTail((S.EMPTY, geo))
    assert S.combine_parts([S.EMPTY, geo]) == geo


def test_merged_spec_round_robin_puts_positives_first():
    signed = S.MergedSpec((
        S.geometric(F(1, 4), F(1, 4)),
        S.geometric(F(1, 2), F(1, 4), negated=True),
    ))
    assert take(signed, 4) == [F(1, 4), F(-1, 2), F(1, 16), F(-1, 8)]


def test_nonincreasing_detection():
    assert S.is_nonincreasing(S.PRESETS["gn"])
    assert not S.is_nonincreasing(S.PRESETS["kenyon"])
    assert S.is_nonincreasing(S.PRESETS["harmonic"])
    assert S.is_nonincreasing(S.geometric(F(1, 2), F(1, 2), prefix=(F(3), F(1))))
    assert not S.is_nonincreasing(S.geometric(F(1, 2), F(1, 2), prefix=(F(1), F(3))))


def test_reorder_identity_when_already_sorted():
    gn = S.PRESETS["gn"]
    assert S.nonincreasing_reorder(gn) == gn


def test_reorder_kenyon_matches_listed_order():
    reordered = S.nonincreasing_reorder(S.PRESETS["kenyon"])
    assert take(reordered, 7) == [
        F(3, 2), F(3, 8), F(1, 4), F(3, 32), F(1, 16), F(3, 128), F(1, 64),
    ]
    assert reordered.total().value == F(7, 3)


def test_reorder_sorts_a_prefix():
    spec = S.geometric(F(1, 2), F(1, 2), prefix=(F(1), F(3)))
    reordered = S.nonincreasing_reorder(spec)
    assert take(reordered, 4) == [F(3), F(1), F(1, 2), F(1, 4)]


def test_reorder_absorbs_prefix_into_geometric_body():
    spec = S.geometric(F(2), F(1, 2), prefix=(F(1, 2),))
    reordered = S.nonincreasing_reorder(spec)
    assert S.is_nonincreasing(reordered)
    assert sorted(take(spec, 6), reverse=True) == take(reordered, 6)

    # The power-sum tail splits at the first term below the prefix.
    spec = S.power_sum(2, prefix=(F(1, 9),))
    reordered = S.nonincreasing_reorder(spec)
    assert reordered == S.power_sum(2, start=4, prefix=(F(1), F(1, 4), F(1, 9), F(1, 9)))
    assert sorted(take(spec, 6), reverse=True) == take(reordered, 6)


def test_spec_rejects_unknown_tail_kind():
    with pytest.raises(S.UnsupportedKind):
        S.SequenceSpec((), object())


def test_sign_split_enclosures():
    signed = S.MergedSpec((
        S.geometric(F(1, 4), F(1, 4)),
        S.geometric(F(1, 2), F(1, 4), negated=True),
    ))
    pos, neg, plus, minus = S.sign_split(signed)
    assert plus.value == F(1, 3)
    assert minus.value == F(-2, 3)
    assert not pos.negated and neg.negated


def test_sign_split_divergent_positive_part():
    merged = S.MergedSpec((S.power_sum(1), S.geometric(F(1, 2), F(1, 2), negated=True)))
    _, _, plus, minus = S.sign_split(merged)
    assert plus.hi is None
    assert minus.value == F(-1)


def test_summability_classes():
    assert (
        S.summability_class(S.as_merged(S.PRESETS["thirds"])).value
        == "absolutely-summable"
    )
    both = S.MergedSpec((S.power_sum(1), S.power_sum(1, start=2, negated=True)))
    assert S.summability_class(both).value == "conditionally-summable"
    one = S.MergedSpec((S.power_sum(1), S.geometric(F(1), F(1, 2), negated=True)))
    assert S.summability_class(one).value == "unconditionally-unsummable"


def test_compare_term_tail_exact_kinds():
    thirds = S.PRESETS["thirds"]
    halves = S.PRESETS["halves"]
    for n in range(1, 8):
        assert S.compare_term_tail(thirds, n) is S.TermTailRelation.TERM_EXCEEDS_TAIL
        assert S.compare_term_tail(halves, n) is S.TermTailRelation.TAIL_BOUNDS_TERM


def test_compare_term_tail_gn_even_positions_exceed():
    gn = S.PRESETS["gn"]
    for n in range(1, 21):
        rel = S.compare_term_tail(gn, n)
        if n % 2 == 0:
            assert rel is S.TermTailRelation.TERM_EXCEEDS_TAIL
        else:
            assert rel is S.TermTailRelation.TAIL_BOUNDS_TERM


def test_compare_term_tail_divergent_tail_bounds():
    assert (
        S.compare_term_tail(S.power_sum(1), 3)
        is S.TermTailRelation.TAIL_BOUNDS_TERM
    )


def test_compare_term_tail_refines_pseries():
    # x_1 = 1 vs X_1 in [1/2, 1] is indeterminate at first and resolves
    # to exceed after refinement.
    assert (
        S.compare_term_tail(S.power_sum(2), 1)
        is S.TermTailRelation.TERM_EXCEEDS_TAIL
    )


def test_compare_term_tail_indeterminate_raises():
    near_total = F(16449340668482264365, 10**19)
    spec = S.power_sum(2, prefix=(near_total,))
    with pytest.raises(S.IndeterminateComparison) as info:
        S.compare_term_tail(spec, 1)
    assert info.value.index == 1


def test_drop_first_per_kind():
    gn = S.PRESETS["gn"]
    dropped = S.drop_first(gn, 2)
    assert take(dropped, 2) == [F(3, 16), F(1, 8)]
    assert dropped.total().value == F(5, 12)

    geo = S.geometric(F(1, 3), F(1, 3))
    assert S.drop_first(geo, 2) == S.geometric(F(1, 27), F(1, 3))

    ps = S.power_sum(2)
    assert S.drop_first(ps, 3) == S.power_sum(2, start=4)

    assert S.drop_first(S.finite((F(3), F(1))), 2) == S.EMPTY

    pre = S.geometric(F(1, 2), F(1, 2), prefix=(F(2), F(1)))
    assert S.drop_first(pre, 1) == S.geometric(F(1, 2), F(1, 2), prefix=(F(1),))


def test_drop_first_merge_tail_keeps_order():
    reordered = S.nonincreasing_reorder(S.PRESETS["kenyon"])
    dropped = S.drop_first(reordered, 3)
    assert take(dropped, 4) == [F(3, 32), F(1, 16), F(3, 128), F(1, 64)]


def test_tail_sum_rejects_negated():
    spec = S.geometric(F(1, 2), F(1, 2), negated=True)
    with pytest.raises(ValueError):
        spec.tail_sum(0)
    assert spec.absolute().tail_sum(0).value == F(1)


_values = st.fractions(min_value=F(1, 40), max_value=F(3), max_denominator=40)
_ratios = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)
_merge_parts = st.one_of(
    st.builds(S.geometric, _values, _ratios),
    st.builds(S.multi_geometric, st.lists(_ratios, min_size=2, max_size=3), _values),
    st.builds(S.power_sum, st.sampled_from((2, 3)), st.integers(1, 4)),
    st.builds(S.finite, st.lists(_values, min_size=1, max_size=4)),
)


@given(_values, _ratios)
def test_geometric_tail_equals_the_constructed_one(first, ratio):
    tail = S.geometric(first, ratio).tail
    built = S.MultiGeometricTail((1 - ratio,), first / (1 - ratio))
    assert tail == built and hash(tail) == hash(built)
    # The head is the first term and each period scales by the ratio.
    assert (tail.heads, tail.period_factor) == ((first,), ratio)


@settings(max_examples=40, deadline=None)
@given(st.lists(_merge_parts, min_size=2, max_size=4), st.integers(0, 30))
def test_merge_walk_matches_heapq_reference(parts, skip):
    merged = S.SequenceSpec((), S.MergeTail(tuple(S.nonincreasing_reorder(p) for p in parts)))
    kind = merged.tail
    window = skip + 50
    reference = list(itertools.islice(
        heapq.merge(*(p.terms() for p in kind.parts), reverse=True), window
    ))
    assert take(merged, window) == reference
    for i in (1, skip + 1, len(reference)):
        if i <= len(reference):
            assert kind.term(i) == reference[i - 1]
    assert take(S.drop_first(merged, skip), 50) == reference[skip:]

    if not any(isinstance(p.tail, S.PowerSumTail) for p in kind.parts):
        total = sum((p.total().value for p in kind.parts), start=F(0))
        assert merged.tail_sum(skip).value == total - sum(reference[:skip], start=F(0))
    else:
        brackets = [merged.tail_sum(skip, extra=e) for e in (0,) + REFINEMENT_STEPS]
        for wide, narrow in zip(brackets, brackets[1:]):
            assert wide.lo <= narrow.lo <= narrow.hi <= wide.hi
        assert brackets[-1].hi >= sum(reference[skip:], start=F(0))
        assert brackets[-1].width < brackets[0].width


def assert_view_matches(spec):
    """The view's first prefix + 3m terms and their tail sums are the spec's."""
    view = S.self_similar(spec)
    count = len(view.prefix) + 3 * len(view.tail.ratios)
    assert take(view, count) == take(spec, count)
    for n in range(count + 1):
        assert view.tail_sum(n) == spec.tail_sum(n)
        assert view.tail_sum(n).exact


def test_self_similar_matches_every_grid_reordering():
    denom = 22
    merges = 0
    for i in range(1, denom):
        for j in range(1, denom):
            spec = S.multi_geometric((F(i, denom), F(j, denom)), F(1))
            assert S.self_similar(spec) is spec
            reordered = S.nonincreasing_reorder(spec)
            if isinstance(reordered.tail, S.MergeTail):
                merges += 1
                assert_view_matches(reordered)
    assert merges == 262


@settings(deadline=None)
@given(
    _ratios,
    st.lists(_values, min_size=1, max_size=5),
    st.lists(_values, max_size=3),
)
def test_self_similar_matches_common_ratio_merges(ratio, heads, prefix):
    strands = tuple(S.geometric(head, ratio) for head in heads)
    spec = S.SequenceSpec(tuple(prefix), S.MergeTail(strands))
    assert_view_matches(spec)
    assert S.self_similar(spec).tail.period_factor == ratio


def test_self_similar_declines_other_tails():
    half = S.geometric(F(1), F(1, 2))
    for spec in (
        S.power_sum(2),
        S.finite((F(1), F(1, 2))),
        S.SequenceSpec((), S.MergeTail((half, S.geometric(F(1), F(1, 3))))),
        S.SequenceSpec((), S.MergeTail((half, S.power_sum(2)))),
    ):
        assert S.self_similar(spec) is None
