"""Sequence kinds: terms, tails, reordering, signs, comparisons."""
import dataclasses
import heapq
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import subsums as S
from subsums.sequences import REFINEMENT_STEPS, _count_above, _integer_root


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
    spec = S.geometric(F(1, 2), F(1, 2), prefix=(F(2),))
    signed = S.MergedSpec((), (spec,))
    assert spec.term(1) == F(2)
    assert spec.term(2) == F(1, 2)
    assert take(signed, 3) == [F(-2), F(-1, 2), F(-1, 4)]


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
    assert spec.total().hi is None
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
    signed = S.MergedSpec(
        (S.geometric(F(1, 4), F(1, 4)),),
        (S.geometric(F(1, 2), F(1, 4)),),
    )
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


def test_reorder_absorbs_tail_terms_equal_to_the_least_prefix_term():
    # The strand term 1/8 ties the least prefix term and is absorbed too,
    # so both strands resume past the absorbed terms.
    half = F(1, 2)
    strands = S.MergeTail((S.geometric(half, half), S.geometric(F(3, 8), half)))
    reordered = S.nonincreasing_reorder(S.SequenceSpec((F(1, 8), half), strands))
    assert reordered == S.SequenceSpec(
        (half, half, F(3, 8), F(1, 4), F(3, 16), F(1, 8), F(1, 8)),
        S.MergeTail((S.geometric(F(1, 16), half), S.geometric(F(3, 32), half))),
    )


def test_spec_rejects_unknown_tail_kind():
    with pytest.raises(S.UnsupportedKind):
        S.SequenceSpec((), object())


def test_sign_split_enclosures():
    signed = S.MergedSpec(
        (S.geometric(F(1, 4), F(1, 4)),),
        (S.geometric(F(1, 2), F(1, 4)),),
    )
    pos, neg = S.sign_split(signed)
    assert pos.total().value == F(1, 3)
    assert neg.total().value == F(2, 3)
    # Both parts come back positive: the negative part as its absolute values.
    assert pos == signed.positive[0] and neg == signed.negative[0]


def test_sign_split_divergent_positive_part():
    merged = S.MergedSpec((S.power_sum(1),), (S.geometric(F(1, 2), F(1, 2)),))
    pos, neg = S.sign_split(merged)
    assert pos.total().hi is None
    assert neg.total().value == F(1)


def test_summability_classes():
    assert (
        S.classify(S.as_merged(S.PRESETS["thirds"])).summability.value
        == "absolutely-summable"
    )
    both = S.MergedSpec((S.power_sum(1),), (S.power_sum(1, start=2),))
    assert S.classify(both).summability.value == "conditionally-summable"
    one = S.MergedSpec((S.power_sum(1),), (S.geometric(F(1), F(1, 2)),))
    assert S.classify(one).summability.value == "unconditionally-unsummable"


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


def _fields(tail):
    return {f.name: getattr(tail, f.name) for f in dataclasses.fields(tail)}


@given(st.lists(_values, min_size=1, max_size=4), _ratios)
def test_from_strands_equals_the_tail_built_from_ratios(heads, q):
    tail = S.MultiGeometricTail.from_strands(tuple(heads), q)
    total = sum(heads, start=F(0)) / (1 - q)
    ratios = []
    rest = total
    for head in heads:
        ratios.append(head / rest)
        rest -= head
    built = S.MultiGeometricTail(tuple(ratios), total)
    # Every field, heads, period_factor and nonincreasing included.
    assert _fields(tail) == _fields(built)
    assert (tail.heads, tail.period_factor) == (tuple(heads), q)
    assert tail == built and hash(tail) == hash(built)

    # The ratios and total are derived on first read. Each read below is
    # the first on a fresh tail, so none relies on another.
    def fresh():
        tail = S.MultiGeometricTail.from_strands(tuple(heads), q)
        assert "ratios" not in vars(tail) and "total" not in vars(tail)
        return tail

    assert fresh().ratios == built.ratios and fresh().total == built.total
    assert fresh() == built and built == fresh()
    assert hash(fresh()) == hash(built) and repr(fresh()) == repr(built)
    for k in range(3 * len(heads) + 1):
        dropped = fresh().drop(k)
        assert dropped == built.drop(k) and repr(dropped) == repr(built.drop(k))
        assert fresh().remaining(k) == built.remaining(k)


def _ratio_rule(ratios):
    """x_{i+1} <= x_i iff r_(i+1) <= r_i / (1 - r_i), cyclically over the period."""
    m = len(ratios)
    return all(ratios[(j + 1) % m] <= ratios[j] / (1 - ratios[j]) for j in range(m))


@given(st.lists(_ratios, min_size=1, max_size=4), _values)
@example([F(1, 2), F(1, 2)], F(1))
@example([F(1, 3), F(1, 2)], F(1))
def test_stored_nonincreasing_is_the_ratio_rule(ratios, total):
    tail = S.MultiGeometricTail(tuple(ratios), total)
    assert tail.nonincreasing == _ratio_rule(tail.ratios)
    strands = S.MultiGeometricTail.from_strands(tail.heads, tail.period_factor)
    assert strands.nonincreasing == tail.nonincreasing
    terms = take(S.SequenceSpec((), tail), 3 * len(ratios) + 1)
    assert tail.nonincreasing == all(b <= a for a, b in zip(terms, terms[1:]))


@given(st.lists(_ratios, min_size=1, max_size=4), _values)
def test_terms_stream_equals_term(ratios, total):
    tail = S.MultiGeometricTail(tuple(ratios), total)
    count = 3 * len(ratios) + 2
    assert list(itertools.islice(tail.terms(), count)) == [tail.term(i) for i in range(1, count + 1)]
    assert tail.remaining(0) is tail.total


def test_merge_of_equal_strands_alternates_part_indices():
    strand = S.geometric(F(1, 2), F(1, 3))
    walk = S.MergeTail((strand, strand)).walk()
    assert [idx for _, idx in itertools.islice(walk, 10)] == [0, 1] * 5


def test_drop_and_self_similar_build_no_tail_through_from_strands(monkeypatch):
    built = []
    from_strands = S.MultiGeometricTail.from_strands.__func__

    def counted(cls, heads, q):
        built.append(heads)
        return from_strands(cls, heads, q)

    monkeypatch.setattr(S.MultiGeometricTail, "from_strands", classmethod(counted))
    for spec in (S.PRESETS["gn"], S.PRESETS["kenyon"], S.multi_geometric((F(1, 10), F(1, 40)), 1)):
        for k in range(7):
            S.drop_first(spec, k)
        S.self_similar(S.nonincreasing_reorder(spec))
    assert built == []


@given(st.lists(_ratios, min_size=1, max_size=4), _values)
@example([F(11, 12), F(1, 12)], F(1))
def test_drop_keeps_nonincreasing(ratios, total):
    # Non-monotone tails too: a rise recurs in every period, so each rest
    # of the tail rises exactly when the whole tail does.
    tail = S.MultiGeometricTail(tuple(ratios), total)
    for k in range(3 * len(ratios) + 1):
        dropped = tail.drop(k).tail
        assert dropped.nonincreasing == tail.nonincreasing
        checked = S.MultiGeometricTail.from_strands(dropped.heads, dropped.period_factor)
        assert checked.nonincreasing == dropped.nonincreasing and checked == dropped


def test_from_strands_tail_reads_no_other_missing_attribute():
    tail = S.MultiGeometricTail.from_strands((F(1, 2),), F(1, 3))
    with pytest.raises(AttributeError, match="no attribute 'heights'"):
        tail.heights


def test_from_strands_validation():
    for heads in ((), (F(0),), (F(1), F(-1, 2))):
        with pytest.raises(ValueError, match="strand heads must be positive"):
            S.MultiGeometricTail.from_strands(heads, F(1, 2))
    for q in (F(0), F(1), F(3, 2)):
        with pytest.raises(ValueError, match="period factor must lie strictly between 0 and 1"):
            S.MultiGeometricTail.from_strands((F(1),), q)


def _as_text_or_int(value):
    """value as a string or, when it is whole, an int: the other inputs a
    tail coerces."""
    return st.sampled_from([str(value), value] + ([int(value)] if value.denominator == 1 else []))


@given(
    st.lists(_ratios.flatmap(_as_text_or_int), min_size=1, max_size=4),
    st.fractions(min_value=F(1, 40), max_value=F(5), max_denominator=40).flatmap(_as_text_or_int),
)
@example(["1/2", "1/2"], 1)
@example([F(1, 3), "2/3", F(1, 12), "11/12"], "3")
def test_integer_construction_matches_the_recurrence(ratios, total):
    # The heads, q and nonincreasing come from integer numerators; each must
    # equal what the recurrence head = r * rest, rest -= head gives.
    tail = S.MultiGeometricTail(tuple(ratios), total)
    coerced = tuple(F(r) for r in ratios)
    heads, rest = [], F(total)
    for r in coerced:
        heads.append(r * rest)
        rest -= heads[-1]
    q = rest / F(total)
    assert (tail.ratios, tail.total) == (coerced, F(total))
    assert tail.heads == tuple(heads) and tail.period_factor == q
    terms = [h * q**w for w in range(3) for h in heads] + [heads[0] * q**3]
    assert tail.nonincreasing == all(b <= a for a, b in zip(terms, terms[1:]))
    assert repr(tail) == f"MultiGeometricTail(ratios={coerced!r}, total={F(total)!r})"
    for same in (S.MultiGeometricTail(coerced, F(total)), S.MultiGeometricTail.from_strands(tuple(heads), q)):
        assert tail == same and hash(tail) == hash(same) and repr(tail) == repr(same)
        assert (same.heads, same.period_factor, same.nonincreasing) == (
            tail.heads, tail.period_factor, tail.nonincreasing
        )


def test_integer_construction_errors_keep_their_order():
    # Coercion first, then an empty list, then each ratio, then the total;
    # a zero total is a ValueError, never a ZeroDivisionError.
    cases = [
        (((), 0), "at least one proportion is required"),
        (((), -1), "at least one proportion is required"),
        (((F(0),), 1), "proportions must lie strictly between 0 and 1"),
        (((F(1, 2), 1), 1), "proportions must lie strictly between 0 and 1"),
        (((F(1, 2), "-1/3"), 0), "proportions must lie strictly between 0 and 1"),
        ((("1/2",), 0), "total must be positive"),
        (((F(1, 2), F(1, 3)), "-2/3"), "total must be positive"),
    ]
    for (ratios, total), message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            S.MultiGeometricTail(ratios, total)
    with pytest.raises(TypeError):
        S.MultiGeometricTail((), 0.5)
    with pytest.raises(TypeError):
        S.MultiGeometricTail((0.5,), 0)


@given(st.lists(_ratios, min_size=1, max_size=4), _values)
def test_reordered_strands_equal_from_strands(ratios, total):
    # The reordering builds each strand with nothing checked; each must be
    # the tail from_strands builds from its head and q.
    tail = S.MultiGeometricTail(tuple(ratios), total)
    reordered = S.nonincreasing_reorder(S.SequenceSpec((), tail))
    if tail.nonincreasing:
        assert reordered.tail is tail
        return
    strands = reordered.tail.parts if len(ratios) > 1 else (reordered,)
    assert len(strands) == len(ratios)
    for strand, head in zip(strands, tail.heads):
        built = S.MultiGeometricTail.from_strands((head,), tail.period_factor)
        assert not strand.prefix and _fields(strand.tail) == _fields(built)
        assert strand.tail == built and hash(strand.tail) == hash(built)
        assert repr(strand.tail) == repr(built)


def _absorbed_by_dropping_above(spec):
    """The reordering of a prefixed merge as split_above and drop_first give
    it: the walked terms at least the least prefix term join the prefix,
    each part loses its terms above it, and the merge its ties."""
    body = S.SequenceSpec((), spec.tail)
    threshold = min(spec.prefix)
    taken = tuple(itertools.takewhile(lambda value: value >= threshold, body.terms()))
    above, rest = body.split_above(threshold)
    assert above == body.count_above(threshold)
    rest = S.drop_first(rest, taken.count(threshold))
    prefix = tuple(sorted(spec.prefix + taken, reverse=True))
    return S.SequenceSpec(prefix + rest.prefix, rest.tail)


def _prefixed_merges_with_ties():
    rng = random.Random(32)

    def fraction(top):
        den = rng.randint(2, top)
        return F(rng.randint(1, den - 1), den)

    for k in range(120):
        q = fraction(6)
        heads = [fraction(8) for _ in range(rng.randint(2, 3))]
        if k % 2:
            heads[-1] = heads[0] * q ** rng.randint(0, 2)
        parts = [S.geometric(h, q) for h in heads]
        if k % 3 == 0:
            parts.append(S.power_sum(2, rng.randint(1, 3)))
        # The least prefix term ties a tail term past a strand head, so the
        # prefix is out of order and ties are absorbed.
        tie = heads[rng.randrange(len(heads))] * q ** rng.randint(1, 3)
        prefix = (tie, *(fraction(8) * rng.randint(1, 3) for _ in range(rng.randint(0, 2))))
        yield S.SequenceSpec(tuple(sorted(prefix)), S.MergeTail(tuple(parts)))


def test_prefixed_merge_reordering_walks_once(monkeypatch):
    # is_nonincreasing reads a merge's first term from its parts, and one
    # walk gives the absorbed terms with their parts, ties included.
    walks = []
    walk = S.MergeTail.walk
    expected = {spec: _absorbed_by_dropping_above(spec) for spec in _prefixed_merges_with_ties()}

    def counted(self):
        walks.append(self)
        return walk(self)

    monkeypatch.setattr(S.MergeTail, "walk", counted)
    for spec, reference in expected.items():
        walks.clear()
        reordered = S.nonincreasing_reorder(spec)
        assert len(walks) == 1
        assert reordered == reference and repr(reordered) == repr(reference)
        monkeypatch.setattr(S.MergeTail, "walk", walk)
        assert take(reordered, 12) == sorted(take(spec, 40), reverse=True)[:12]
        monkeypatch.setattr(S.MergeTail, "walk", counted)
    half = F(1, 2)
    strands = S.MergeTail((S.geometric(half, half), S.geometric(F(3, 8), half)))
    spec = S.SequenceSpec((F(1, 8), half), strands)
    walks.clear()
    S.nonincreasing_reorder(spec)
    assert len(walks) == 1
    walks.clear()
    S.classify(spec)
    assert len(walks) == 1


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
        assert brackets[-1].hi - brackets[-1].lo < brackets[0].hi - brackets[0].lo


_prefixes = st.lists(_values, max_size=3).map(tuple)
_power_sums = st.builds(S.power_sum, st.sampled_from((2, 3)), st.integers(1, 4))


def _merge(parts):
    return S.SequenceSpec((), S.MergeTail(tuple(S.nonincreasing_reorder(p) for p in parts)))


_relation_specs = st.one_of(
    st.builds(S.geometric, _values, _ratios, _prefixes),
    st.builds(S.multi_geometric, st.lists(_ratios, min_size=2, max_size=3), _values, _prefixes),
    st.builds(S.power_sum, st.sampled_from((2, 3, 4)), st.integers(1, 4), _prefixes),
    st.builds(S.finite, st.lists(_values, min_size=1, max_size=4)),
    st.builds(lambda ps, rest: _merge([ps, *rest]), _power_sums, st.lists(_merge_parts, max_size=2)),
    st.lists(_merge_parts, min_size=2, max_size=3).map(_merge),
    st.builds(
        lambda start, rest: _merge([S.power_sum(1, start), *rest]),
        st.integers(1, 4),
        st.lists(_merge_parts, max_size=2),
    ),
    st.just(S.power_sum(1)),
)


def _relations_or_stuck(relate):
    """The relations, or the index of the IndeterminateComparison raised."""
    try:
        return relate()
    except S.IndeterminateComparison as stuck:
        return stuck.index


@settings(max_examples=80, deadline=None)
@given(_relation_specs, st.integers(-2, 12))
@example(S.power_sum(2, prefix=(F(16449340668482264365, 10**19),)), 3)
def test_term_tail_relations_match_pointwise_comparisons(spec, count):
    # A count <= 0 gives (); a finite spec stops at its last term.
    length = spec.term_count()
    last = count if length is None else min(count, length)
    expected = _relations_or_stuck(
        lambda: tuple(S.compare_term_tail(spec, n) for n in range(1, last + 1))
    )
    assert _relations_or_stuck(lambda: S.term_tail_relations(spec, count)) == expected


def test_exact_relation_pass_builds_no_enclosure_per_term(monkeypatch):
    # The pass subtracts each term from the exact total, so the enclosures
    # it builds do not grow with the count.
    specs = (S.PRESETS["gn"], S.self_similar(S.term_tail_profile(S.PRESETS["kenyon"]).reordered))
    built = []
    init = S.TailEnclosure.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(S.TailEnclosure, "__post_init__", counted)
    for spec in specs:
        counts = []
        for count in (50, 200):
            built.clear()
            S.term_tail_relations(spec, count)
            counts.append(len(built))
        assert counts[0] == counts[1]


def test_divergent_relations_read_no_term(monkeypatch):
    spec = S.combine_parts((S.power_sum(1, start=2), S.geometric(F(5, 6), F(2, 3))))
    walked = []
    terms = S.MergeTail.terms

    def counted(self):
        walked.append(self)
        return terms(self)

    monkeypatch.setattr(S.MergeTail, "terms", counted)
    relations = S.term_tail_relations(spec, 50)
    assert relations == (S.TermTailRelation.TAIL_BOUNDS_TERM,) * 50
    assert walked == []


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
    assert S.geometric_strands(spec.tail) == (tuple(heads), ratio)


def test_self_similar_declines_other_tails():
    half = S.geometric(F(1), F(1, 2))
    quarter = F(1, 4)
    declined = (
        S.power_sum(2),
        S.finite((F(1), F(1, 2))),
        S.SequenceSpec((), S.MergeTail((half, S.geometric(F(1), F(1, 3))))),
        S.SequenceSpec((), S.MergeTail((half, S.power_sum(2)))),
        S.SequenceSpec((), S.MergeTail((
            S.geometric(F(1, 2), quarter, prefix=(F(1),)), S.geometric(F(1, 4), quarter),
        ))),
    )
    for spec in declined:
        assert S.self_similar(spec) is None
        assert S.geometric_strands(spec.tail) is None
    # The specs whose terms are geometric strands with one ratio.
    one_ratio_part = S.MergeTail((
        S.multi_geometric((F(3, 4),), F(1)), S.geometric(F(1, 2), quarter),
    ))
    assert S.geometric_strands(S.PRESETS["gn"].tail) == ((F(3, 4), F(1, 2)), quarter)
    kenyon = S.nonincreasing_reorder(S.PRESETS["kenyon"]).tail
    assert S.geometric_strands(kenyon) == ((F(3, 2), F(1, 4)), quarter)
    assert S.geometric_strands(one_ratio_part) == ((F(3, 4), F(1, 2)), quarter)


# One spec per tail kind, with prefixes where the kind takes one.
_PAIR_STREAM_SPECS = {
    "finite": S.finite((F(3), F(1), F(2, 4), F(1, 6))),
    "power-sum": S.power_sum(2, start=3, prefix=(F(3, 2), F(1, 5))),
    "harmonic": S.power_sum(1, start=2, prefix=(F(1),)),
    "multi-geometric": S.multi_geometric((F(9, 20), F(6, 11)), F(5, 3), prefix=(F(2), F(6, 4))),
    "strand-merge": S.nonincreasing_reorder(S.PRESETS["kenyon"]),
    "harmonic-geometric-merge": S.SequenceSpec(
        (F(4, 3),),
        S.MergeTail((S.power_sum(1, start=2), S.geometric(F(5, 6), F(2, 3)))),
    ),
}
# The specs whose sums diverge.
_DIVERGENT_STREAMS = {"harmonic", "harmonic-geometric-merge"}


@pytest.mark.parametrize("name", sorted(_PAIR_STREAM_SPECS))
def test_pairs_match_terms_for_every_tail_kind(name):
    spec = _PAIR_STREAM_SPECS[name]
    n = 40
    for count in (0, 1, 2, 3, 7):
        dropped = S.drop_first(spec, count)
        pairs = list(itertools.islice(dropped.pairs(), n))
        assert pairs == [(t.numerator, t.denominator) for t in take(dropped, n)]
        # Integers, not Fractions, each pair in lowest terms.
        assert all(type(a) is int and type(b) is int for a, b in pairs)
        assert all(b > 0 and math.gcd(a, b) == 1 for a, b in pairs)
        # Random access reads the same stream, on the spec and on its tail.
        for seq in (dropped, dropped.tail):
            stream = list(itertools.islice(seq.terms(), 12))
            assert [seq.term(i) for i in range(1, len(stream) + 1)] == stream
            if len(stream) < 12:
                with pytest.raises(S.IndexBeyondFinite):
                    seq.term(len(stream) + 1)
        assert (dropped.total().hi is None) == (name in _DIVERGENT_STREAMS)


def test_power_sum_pairs_build_no_fraction(monkeypatch):
    def no_term(tail, index):
        raise AssertionError("pairs() built a term")

    monkeypatch.setattr(S.PowerSumTail, "term", no_term)
    pairs = S.power_sum(3, start=4, prefix=(F(1, 2),)).pairs()
    assert list(itertools.islice(pairs, 4)) == [(1, 2), (1, 64), (1, 125), (1, 216)]


# --- counting the terms above a value -------------------------------------------

_fractions = st.fractions(min_value=F(1, 20), max_value=F(3, 2), max_denominator=60)
_proportions = st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=20)
# Geometric ratios near 1, and the proportions that give period factors near 1.
_near_one = st.sampled_from((F(99, 100), F(999, 1000), F(9999, 10000)))


@st.composite
def _single_tail_specs(draw):
    """A prefix-free non-increasing spec of one non-merge tail kind."""
    kind = draw(st.sampled_from(["finite", "power-sum", "geometric", "multi-geometric"]))
    if kind == "finite":
        return S.finite(sorted(draw(st.lists(_fractions, min_size=1, max_size=6)), reverse=True))
    if kind == "power-sum":
        return S.power_sum(draw(st.integers(1, 3)), start=draw(st.integers(1, 5)))
    if kind == "geometric":
        return S.geometric(draw(_fractions), draw(_proportions | _near_one))
    ratios = draw(st.lists(_proportions | _near_one.map(lambda r: 1 - r), min_size=2, max_size=3))
    spec = S.multi_geometric(ratios, draw(_fractions))
    assume(spec.tail.nonincreasing)
    return spec


@st.composite
def _counted_specs(draw):
    """A non-increasing spec of any tail kind, with or without a prefix."""
    if draw(st.booleans()):
        body = draw(_single_tail_specs())
    else:
        parts = draw(st.lists(_single_tail_specs(), min_size=2, max_size=3))
        body = S.SequenceSpec((), S.MergeTail(tuple(parts)))
    # Prefix entries at or above the body's first term, so ties cross over.
    first = next(body.terms())
    bumps = draw(st.lists(st.integers(0, 4), max_size=2))
    prefix = sorted((first * (1 + F(b, 4)) for b in bumps), reverse=True)
    return S.SequenceSpec(tuple(prefix) + body.prefix, body.tail)


def _scanned_count(spec, g, limit=3000):
    """Terms above g, counted by scanning the non-increasing stream; None
    past the limit."""
    for count, value in enumerate(itertools.islice(spec.terms(), limit)):
        if value <= g:
            return count
    count = len(take(spec, limit + 1))
    return count if count <= limit else None


@settings(max_examples=300, deadline=None)
@given(_counted_specs(), st.data())
def test_count_above_and_split_above_match_scanning(spec, data):
    terms = take(spec, 40)
    way = data.draw(st.sampled_from(["tie", "just-above", "just-below", "over-first", "tiny"]))
    if way == "over-first":
        g = terms[0] + data.draw(_fractions)
    elif way == "tiny":
        g = F(1, 10 ** data.draw(st.integers(1, 60)))
    else:
        term = data.draw(st.sampled_from(terms))
        nudge = term / 10 ** data.draw(st.integers(1, 30))
        g = {"tie": term, "just-above": term + nudge, "just-below": term - nudge}[way]
    count = _scanned_count(spec, g)
    assume(count is not None)
    assert spec.count_above(g) == count
    above, rest = spec.split_above(g)
    assert above == count
    assert take(rest, 20) == take(spec, count + 20)[count:]


def _per_term_count(u, v, a, b, ties):
    """The w >= 0 with u a^w > v b^w (>= with ties), counted one term at a time."""
    w = 0
    while u * a**w > v * b**w or ties and u * a**w == v * b**w:
        w += 1
    return w


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(2, 40).flatmap(lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
    st.booleans(),
    st.integers(0, 12) | st.none(),
)
def test_count_above_routine_matches_its_definition(u, v, ab, ties, exact_at):
    a, b = ab
    if exact_at is not None:
        # u a^w = v b^w exactly at w = exact_at.
        u, v = v * b**exact_at, v * a**exact_at
    assert _count_above(u, v, a, b, ties) == _per_term_count(u, v, a, b, ties)


def test_count_above_routine_stops_past_most():
    # 2^9 > 2^w for w = 0 .. 8, so the count is 9; past most it may come
    # back as most + 1, but never as a value at most most.
    assert _count_above(2**9, 1, 1, 2) == 9
    for most in range(9):
        assert _count_above(2**9, 1, 1, 2, most=most) > most
    assert _count_above(2**9, 1, 1, 2, most=9) == 9


def test_count_above_near_one_keeps_deep_counts_and_fails_fast():
    # q = 999/1000 down to 10^-60 needs powers of about 1.3 M bits: counted.
    g, half, q = F(1, 10**60), F(1, 2), F(999, 1000)
    count = S.geometric(half, q).count_above(g)
    assert half * q ** (count - 1) > g >= half * q**count
    # q = 999999/10^6 down to 10^-6 would need powers of about 3 * 10^8
    # bits: refused before they are built.
    began = time.perf_counter()
    with pytest.raises(S.CapExceeded, match="strand count needs powers past"):
        S.geometric(half, F(999999, 10**6)).count_above(F(1, 10**6))
    assert time.perf_counter() - began < 2


def test_count_above_walks_no_merge(monkeypatch):
    def no_walk(tail):
        raise AssertionError("the merge was walked")

    monkeypatch.setattr(S.MergeTail, "walk", no_walk)
    spec = S.SequenceSpec((F(2),), S.MergeTail((S.power_sum(1, start=2), S.geometric(F(5, 6), F(2, 3)))))
    g = F(1, 10**9)
    # 2 in the prefix, 1/2 .. 1/(10^9 - 1) from the harmonic part (1/10^9
    # ties g, so it stays), and (5/6)(2/3)^w for w = 0 .. 50 from the
    # geometric part.
    assert spec.count_above(g) == 1 + (10**9 - 2) + 51
    above, dropped = spec.split_above(g)
    assert above == spec.count_above(g)
    assert dropped.tail.parts == (S.power_sum(1, start=10**9), S.geometric(F(5, 6) * F(2, 3) ** 51, F(2, 3)))


def test_count_above_needs_a_positive_bound():
    for g in (F(0), F(-1, 2)):
        with pytest.raises(ValueError):
            S.PRESETS["halves"].count_above(g)
        with pytest.raises(ValueError):
            S.PRESETS["halves"].split_above(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**60), st.integers(min_value=1, max_value=7))
def test_integer_root_is_the_floor_of_the_real_root(n, p):
    k = _integer_root(n, p)
    assert k**p <= n < (k + 1) ** p
