"""Cover construction: build_cn, word intervals, IFS maps, gap checks."""
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import subsums as S


def iv(a, b):
    return S.ClosedInterval(F(a), F(b))


def union_of(*pairs):
    return S.IntervalUnion(iv(a, b) for a, b in pairs)


def test_thirds_c2_listing():
    result = S.build_cn(S.PRESETS["thirds"], 2)
    assert result.fattened == union_of(
        (0, "1/18"), ("1/9", "1/6"), ("1/3", "7/18"), ("4/9", "1/2")
    )
    assert result.left_endpoints == (F(0), F(1, 9), F(1, 3), F(4, 9))
    assert result.tail_exact
    assert result.inner is None


def test_halves_cover_is_unit_interval():
    for n in (0, 1, 5, 9):
        assert S.build_cn(S.PRESETS["halves"], n).fattened == union_of((0, 1))


def test_prefixed_halves_cover():
    spec = S.geometric(F(1, 2), F(1, 2), prefix=(F(2),))
    for n in (1, 3, 6):
        assert S.build_cn(spec, n).fattened == union_of((0, 1), (2, 3))


def test_bigeometric_depth6_component_count():
    result = S.build_cn(S.PRESETS["ratios-2-5-3-5"], 6)
    assert result.fattened.components == 23


def test_depth_zero_is_hull():
    gn = S.PRESETS["gn"]
    assert S.build_cn(gn, 0).fattened == union_of((0, "5/3"))


def test_nesting_for_exact_tails():
    for name in ("thirds", "gn", "kenyon", "ratios-2-5-3-5"):
        spec = S.PRESETS[name]
        previous = None
        for n in range(0, 9):
            current = S.build_cn(spec, n).fattened
            if previous is not None:
                assert S.is_subset(current, previous)
            previous = current


def test_endpoints_stay_members():
    spec = S.PRESETS["thirds"]
    snapshot = S.build_cn(spec, 3)
    tail = spec.tail_sum(3).value
    for deeper in range(3, 9):
        cover = S.build_cn(spec, deeper).fattened
        for left in snapshot.left_endpoints:
            assert cover.contains(left)
            assert cover.contains(left + tail)


def test_inexact_tail_reports_inner_bracket():
    result = S.build_cn(S.power_sum(2), 2)
    assert not result.tail_exact
    assert result.inner is not None
    assert S.is_subset(result.inner, result.fattened)


def test_divergent_spec_rejected():
    with pytest.raises(S.DivergentTail):
        S.build_cn(S.power_sum(1), 3)


def test_cap_per_call():
    spec = S.PRESETS["thirds"]
    with pytest.raises(S.CapExceeded):
        S.build_cn(spec, 10, cap=100)


def test_cap_below_one_is_rejected_before_any_work(monkeypatch):
    def no_work(spec):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(S.construction, "positive_spec", no_work)
    for build in (S.build_cn, S.subset_sum_starts):
        for cap in (0, -5):
            for depth in (0, 3):
                with pytest.raises(ValueError, match="cap must be positive"):
                    build(S.PRESETS["thirds"], depth, cap=cap)
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            build(S.PRESETS["thirds"], -1)


def test_cap_counts_components_after_each_fold_step():
    # 2^200 subset sums, one component.
    assert S.build_cn(S.PRESETS["halves"], 200, cap=1).fattened == union_of((0, 1))
    with pytest.raises(S.CapExceeded):
        S.build_cn(S.PRESETS["gn"], 40, cap=65536)


def _counting_fold_steps(monkeypatch):
    calls = []
    step = S.construction._fold_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(S.construction, "_fold_step", counted)
    return calls


@pytest.mark.parametrize(
    "build, name, depth, cap, term",
    [
        (S.build_cn, "gn", 40, 65536, 20),
        (S.build_cn, "thirds", 14, 100, 8),
        (S.build_cn, "gn", 12, 10, 8),
        (S.subset_sum_starts, "gn", 40, 65536, 24),
        (S.subset_sum_starts, "thirds", 14, 100, 8),
    ],
)
def test_cap_overflowing_step_builds_no_lists(monkeypatch, build, name, depth, cap, term):
    # The two runs a step copies unmerged already hold more than cap
    # components, so the step at `term` is refused before it runs: the
    # fold ran only the steps for terms depth, ..., term + 1.
    calls = _counting_fold_steps(monkeypatch)
    message = f"component cap {cap} exceeded at term {term} of {depth}"
    with pytest.raises(S.CapExceeded, match=message):
        build(S.PRESETS[name], depth, cap=cap)
    assert len(calls) == depth - term


def test_cap_is_still_checked_after_a_step(monkeypatch):
    # Here the copied runs fit the cap and the merge pushes the step past
    # it, so the step at term 3 runs and the check after it raises.
    calls = _counting_fold_steps(monkeypatch)
    with pytest.raises(S.CapExceeded, match="component cap 8 exceeded at term 3 of 6"):
        S.build_cn(S.PRESETS["gn"], 6, cap=8)
    assert len(calls) == 4


def test_left_endpoints_are_subset_sum_starts():
    for name in ("gn", "halves"):
        spec = S.PRESETS[name]
        for depth in (0, 3, 8):
            sums = S.subset_sums(spec, depth)
            assert S.build_cn(spec, depth).left_endpoints == sums
            assert S.subset_sum_starts(spec, depth) == sums
    merged = S.MergedSpec(
        (S.geometric(F(1, 2), F(1, 3)), S.multi_geometric((F(1, 2), F(2, 3)), F(1)))
    )
    reordered = S.sign_split(merged)[0]
    for depth in (0, 3, 7):
        sums = S.subset_sums(reordered, depth)
        assert S.build_cn(merged, depth).left_endpoints == sums
        assert S.subset_sum_starts(merged, depth) == sums
    # No tail is formed, so divergent specs have subset sums too.
    harmonic = S.PRESETS["harmonic"]
    assert S.subset_sum_starts(harmonic, 6) == S.subset_sums(harmonic, 6)


def test_positive_merge_cover_is_that_of_its_reordering():
    parts = (S.geometric(F(1, 2), F(1, 3)), S.multi_geometric((F(1, 2), F(2, 3)), F(1)))
    merged = S.MergedSpec(parts)
    reordered = S.sign_split(merged)[0]
    for n in (0, 3, 7):
        cover = S.build_cn(merged, n).fattened
        assert cover == S.build_cn(reordered, n).fattened
        assert cover == S.oracle_cn(merged, n)
    signed = S.MergedSpec((parts[0],), (S.geometric(F(1, 4), F(1, 2)),))
    with pytest.raises(ValueError):
        S.build_cn(signed, 3)
    with pytest.raises(ValueError):
        S.oracle_cn(signed, 3)


_values = st.fractions(min_value=F(1, 40), max_value=F(3), max_denominator=40)
_ratios = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)
_tails = st.one_of(
    st.builds(lambda a, r: S.geometric(a, r).tail, _values, _ratios),
    st.builds(
        S.MultiGeometricTail, st.lists(_ratios, min_size=1, max_size=3).map(tuple), _values
    ),
    st.builds(S.PowerSumTail, st.sampled_from((2, 3)), st.integers(1, 4)),
)
_specs = st.builds(S.SequenceSpec, st.lists(_values, max_size=3).map(tuple), _tails)


@settings(max_examples=60, deadline=None)
@given(_specs, st.integers(0, 10), st.integers(1, 1 << 11))
def test_fold_matches_enumeration(spec, depth, cap):
    result = S.build_cn(spec, depth)
    assert result.fattened == S.oracle_cn(spec, depth)
    sums = S.subset_sums(spec, depth)
    assert result.left_endpoints == sums
    if len(sums) > cap:
        with pytest.raises(S.CapExceeded):
            S.subset_sum_starts(spec, depth, cap=cap)
    else:
        assert S.subset_sum_starts(spec, depth, cap=cap) == sums
    tail = spec.tail_sum(depth)
    if tail.exact:
        assert result.inner is None
    else:
        assert result.inner == S.IntervalUnion(S.ClosedInterval(s, s + tail.lo) for s in sums)
        assert S.is_subset(result.inner, result.fattened)
    assert S.is_subset(S.build_cn(spec, depth + 1).fattened, result.fattened)


_multi_geometric_specs = st.builds(
    S.multi_geometric,
    st.lists(_ratios, min_size=1, max_size=3),
    _values,
    st.lists(_values, max_size=2),
)


def _scaled(union, c):
    return S.IntervalUnion.from_numerators(
        union.den * c.denominator,
        [v * c.numerator for v in union.lo],
        [v * c.numerator for v in union.hi],
    )


@seed(26)
@settings(max_examples=60, deadline=None)
@given(_multi_geometric_specs, _values, st.integers(0, 10))
def test_cover_of_a_scaled_spec_is_the_scaled_cover(spec, c, depth):
    ratios, total = spec.tail.ratios, spec.tail.total
    scaled = S.multi_geometric(ratios, c * total, tuple(c * v for v in spec.prefix))
    cover, scaled_cover = S.build_cn(spec, depth), S.build_cn(scaled, depth)
    assert scaled_cover.fattened == _scaled(cover.fattened, c)
    assert scaled_cover.inner is cover.inner is None
    assert scaled_cover.tail_used.value == c * cover.tail_used.value


@seed(26)
@settings(max_examples=60, deadline=None)
@given(_multi_geometric_specs, st.integers(0, 10))
def test_cover_keeps_its_shape_when_strands_are_regrouped(spec, depth):
    # Strand h with factor q holds the same terms as strands h and h*q with
    # factor q^2, so the non-increasing reorderings list the same terms.
    heads, q = spec.tail.heads, spec.tail.period_factor
    strands = [S.geometric(h, q * q) for h in heads] + [S.geometric(h * q, q * q) for h in heads]
    regrouped = S.MergedSpec(tuple(strands) + ((S.finite(spec.prefix),) if spec.prefix else ()))
    assert S.build_cn(S.nonincreasing_reorder(spec), depth) == S.build_cn(regrouped, depth)


# --- the paper's IFS tiling and gap structure, checked on the covers ----------


def word_interval(spec, bits):
    """The cover interval selected by an inclusion word over the first terms.

    bits[k] = 1 includes term k+1 in the start sum; the interval runs from
    that sum to the sum plus the upper tail bound at depth len(bits).
    """
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    start = sum(
        (spec.term(i + 1) for i, b in enumerate(bits) if b), start=F(0)
    )
    tail = spec.tail_sum(len(bits))
    if tail.hi is None:
        raise S.DivergentTail("the sequence is not summable")
    return S.ClosedInterval(start, start + tail.hi)


@dataclass(frozen=True)
class AffineMap:
    """x -> offset + factor * x."""

    factor: F
    offset: F

    def __post_init__(self):
        object.__setattr__(self, "factor", S.as_fraction(self.factor))
        object.__setattr__(self, "offset", S.as_fraction(self.offset))

    def apply(self, x):
        return self.offset + self.factor * S.as_fraction(x)

    def apply_interval(self, piece):
        a = self.apply(piece.left)
        b = self.apply(piece.right)
        return S.ClosedInterval(min(a, b), max(a, b))

    def apply_union(self, u):
        return S.IntervalUnion(self.apply_interval(piece) for piece in u)


def ifs_maps(spec):
    """The four affine maps whose images tile consecutive even-depth covers.

    Defined for prefix-free two-ratio multi-geometric specs. With
    proportions (a, b) and total T, every two steps scale the cover by
    lam = (1-a)(1-b) and translate it by one of 0, x_2, x_1, x_1 + x_2.
    """
    kind = spec.tail
    if spec.prefix or not isinstance(kind, S.MultiGeometricTail) or len(kind.ratios) != 2:
        raise ValueError("IFS maps need a prefix-free two-ratio multi-geometric spec")
    lam = kind.period_factor
    x1 = kind.term(1)
    x2 = kind.term(2)
    return (
        AffineMap(lam, F(0)),
        AffineMap(lam, x2),
        AffineMap(lam, x1),
        AffineMap(lam, x1 + x2),
    )


def leftmost_gap_check(spec, depth):
    """Whether term `depth` exceeds its tail, verified on the covers.

    When it does and the tail is exact, every depth-(n-1) component [a, b]
    splits: [a, a + X_n] and [b - X_n, b] are checked to be distinct
    components of the depth-n cover. Returns False without construction
    when the tail bounds the term; inexact tails skip the structural
    verification (the enclosure identities do not telescope).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not S.is_nonincreasing(spec):
        raise ValueError("the gap check needs a non-increasing spec")
    relation = S.compare_term_tail(spec, depth)
    if relation is not S.TermTailRelation.TERM_EXCEEDS_TAIL:
        return False
    tail = spec.tail_sum(depth)
    if not tail.exact:
        return True
    coarse = S.build_cn(spec, depth - 1)
    fine = S.build_cn(spec, depth)
    fine_components = set(fine.fattened.intervals)
    for piece in coarse.fattened:
        low = S.ClosedInterval(piece.left, piece.left + tail.hi)
        high = S.ClosedInterval(piece.right - tail.hi, piece.right)
        if low == high or low not in fine_components or high not in fine_components:
            raise AssertionError(
                f"gap structure violated at depth {depth} for {piece}"
            )
    return True


def test_word_interval_examples():
    thirds = S.PRESETS["thirds"]
    assert word_interval(thirds, (1,)) == iv("1/3", "1/2")
    assert word_interval(thirds, ()) == iv(0, "1/2")
    assert word_interval(thirds, (0, 1)) == iv("1/9", "1/6")
    with pytest.raises(ValueError):
        word_interval(thirds, (0, 2))


def test_word_intervals_tile_the_cover():
    spec = S.PRESETS["gn"]
    words = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    tiled = S.IntervalUnion(word_interval(spec, w) for w in words)
    assert tiled == S.build_cn(spec, 3).fattened


def test_ifs_maps_bigeometric():
    maps = ifs_maps(S.PRESETS["ratios-2-5-3-5"])
    assert [m.factor for m in maps] == [F(6, 25)] * 4
    assert [m.offset for m in maps] == [F(0), F(9, 25), F(2, 5), F(19, 25)]
    assert ifs_maps(S.PRESETS["gn"])[0].factor == F(1, 4)
    with pytest.raises(ValueError):
        ifs_maps(S.PRESETS["thirds"])


def test_ifs_maps_tile_even_covers():
    spec = S.PRESETS["ratios-2-5-3-5"]
    maps = ifs_maps(spec)
    for k in (0, 1, 2):
        base = S.build_cn(spec, 2 * k).fattened
        image = S.IntervalUnion(
            piece for m in maps for piece in m.apply_union(base)
        )
        assert image == S.build_cn(spec, 2 * k + 2).fattened


def test_leftmost_gap_check():
    thirds = S.PRESETS["thirds"]
    for n in (1, 2, 5):
        assert leftmost_gap_check(thirds, n)
    for n in (1, 4):
        assert not leftmost_gap_check(S.PRESETS["halves"], n)
    assert leftmost_gap_check(S.PRESETS["gn"], 2)
    assert not leftmost_gap_check(S.PRESETS["gn"], 3)


def test_affine_map_application():
    m = AffineMap(F(1, 2), F(3))
    assert m.apply(F(4)) == F(5)
    assert m.apply_interval(iv(0, 2)) == iv(3, 4)
