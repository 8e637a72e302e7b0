"""Interval union algebra: normalization, set ops, reflection."""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
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
