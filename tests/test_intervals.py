"""Interval union algebra: normalization, set ops, reflection."""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsums as S

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=40)


def iv(a, b):
    return S.ClosedInterval(F(a), F(b))


def union_of(*pairs):
    return S.normalize(iv(a, b) for a, b in pairs)


def test_interval_validation_and_length():
    assert iv(0, 1).length == 1
    assert iv("1/3", "1/2").contains(F(2, 5))
    with pytest.raises(ValueError):
        iv(1, 0)


def test_normalize_merges_abutting():
    assert union_of((0, 1), (1, 2)) == union_of((0, 2))


def test_normalize_examples():
    u = union_of((0, "1/18"), ("1/9", "1/6"), ("1/3", "7/18"), ("4/9", "1/2"))
    assert u.components == 4
    assert u.total_length == F(2, 9)
    assert u.hull() == iv(0, "1/2")


def test_normalize_keeps_disjoint_and_sorts():
    shuffled = [iv(3, 4), iv(0, 1), iv("3/2", 2)]
    u = S.normalize(shuffled)
    assert [p.left for p in u] == [F(0), F(3, 2), F(3)]


@given(st.lists(st.tuples(rationals, rationals), max_size=12))
def test_normalize_idempotent_and_order_insensitive(pairs):
    raw = [iv(min(a, b), max(a, b)) for a, b in pairs]
    u = S.normalize(raw)
    assert S.normalize(u.intervals) == u
    shuffled = list(raw)
    random.Random(7).shuffle(shuffled)
    assert S.normalize(shuffled) == u


def test_union_and_total_length_subadditive():
    a = union_of((0, 1), (3, 4))
    b = union_of(("1/2", 2))
    both = S.union(a, b)
    assert both == union_of((0, 2), (3, 4))
    assert both.total_length <= a.total_length + b.total_length
    disjoint = S.union(union_of((0, 1)), union_of((5, 6)))
    assert disjoint.total_length == 2


def test_hull_of_empty_raises():
    assert S.EMPTY_UNION.is_empty
    with pytest.raises(S.EmptyUnion):
        S.EMPTY_UNION.hull()


def test_contains_uses_all_components():
    u = union_of((0, 1), (2, 3))
    assert u.contains(F(1)) and u.contains(F(2)) and u.contains(F(5, 2))
    assert not u.contains(F(3, 2)) and not u.contains(F(-1)) and not u.contains(F(4))


def test_reflect_examples():
    u = union_of((0, "1/6"), ("1/3", "1/2"))
    assert S.reflect(u, F(1, 2)) == u
    assert S.reflect(union_of((0, 1)), F(1)) == union_of((0, 1))
    assert S.reflect(union_of((0, "1/4")), F(1)) == union_of(("3/4", 1))


@given(st.lists(st.tuples(rationals, rationals), max_size=10), rationals)
def test_reflect_is_an_involution(pairs, x0):
    u = S.normalize(iv(min(a, b), max(a, b)) for a, b in pairs)
    assert S.reflect(S.reflect(u, x0), x0) == u


def test_is_subset():
    big = union_of((0, 1), (2, 3))
    assert S.is_subset(union_of(("1/4", "1/2"), ("5/2", 3)), big)
    assert not S.is_subset(union_of(("1/2", "3/2")), big)
    assert S.is_subset(S.EMPTY_UNION, big)
    assert not S.is_subset(big, S.EMPTY_UNION)


def test_text_round_trip():
    u = union_of((0, "1/18"), ("1/9", "1/6"))
    text = S.to_text(u)
    assert text == "0 1/18\n1/9 1/6\n"
    assert S.from_text(text) == u
    assert S.to_text(S.EMPTY_UNION) == ""
    assert S.from_text("") == S.EMPTY_UNION


def test_numerator_form_is_kept_in_lowest_terms():
    # [0, 1/3] u [2/3, 1] over 6 where 3 would do.
    from_numerators = S.IntervalUnion.from_numerators(6, [0, 4], [2, 6])
    from_intervals = S.IntervalUnion((iv(0, "1/3"), iv("2/3", 1)))
    assert from_numerators == from_intervals
    assert hash(from_numerators) == hash(from_intervals)
    assert (from_numerators.den, from_numerators.lo, from_numerators.hi) == (3, (0, 2), (1, 3))
    assert from_numerators.intervals == from_intervals.intervals
    point = S.IntervalUnion.from_numerators(8, [0], [0])
    assert point == union_of((0, 0)) and point.den == 1
    assert S.IntervalUnion.from_numerators(5, [], []) == S.EMPTY_UNION


def _reference_contains(u, point):
    return any(piece.contains(point) for piece in u)


@settings(max_examples=50)
@given(st.lists(st.tuples(rationals, rationals), max_size=10), rationals)
def test_contains_endpoints_gap_midpoints_and_outside_points(pairs, extra):
    u = S.normalize(iv(min(a, b), max(a, b)) for a, b in pairs)
    pieces = u.intervals
    points = [extra]
    for piece in pieces:
        points += [piece.left, piece.right, (piece.left + piece.right) / 2]
    for left, right in zip(pieces, pieces[1:]):
        gap = (left.right + right.left) / 2
        assert not u.contains(gap)
        points.append(gap)
    if pieces:
        hull = u.hull()
        outside = [hull.left - F(1, 7), hull.right + F(1, 7)]
        assert not any(u.contains(p) for p in outside)
        points += outside
    for p in points:
        assert u.contains(p) == _reference_contains(u, p)
    assert all(u.contains(piece.left) and u.contains(piece.right) for piece in pieces)


@settings(max_examples=50)
@given(
    st.lists(st.tuples(rationals, rationals), max_size=8),
    st.lists(st.tuples(rationals, rationals), max_size=8),
)
def test_is_subset_matches_pointwise_containment(pairs_a, pairs_b):
    a = S.normalize(iv(min(x, y), max(x, y)) for x, y in pairs_a)
    b = S.normalize(iv(min(x, y), max(x, y)) for x, y in pairs_b)
    expected = all(
        any(q.left <= p.left and p.right <= q.right for q in b) for p in a
    )
    assert S.is_subset(a, b) == expected
    assert S.is_subset(a, S.union(a, b))


@settings(max_examples=50)
@given(st.lists(st.tuples(rationals, rationals), max_size=10))
def test_numerator_and_interval_forms_agree(pairs):
    u = S.normalize(iv(min(a, b), max(a, b)) for a, b in pairs)
    assert S.IntervalUnion(u.intervals) == u
    assert S.IntervalUnion.from_numerators(u.den * 4, [4 * a for a in u.lo], [4 * b for b in u.hi]) == u
    assert u.total_length == sum((piece.length for piece in u), F(0))
    assert u.components == len(u) == len(u.intervals)
    assert S.to_text(u) == "".join(
        f"{S.format_rational(p.left)} {S.format_rational(p.right)}\n" for p in u
    )
