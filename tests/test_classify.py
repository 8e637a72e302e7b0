"""Classification: profiles, verdicts, certificates, digit machinery."""
import hashlib
import math
import random
import sys
import time
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import subsums as S
from subsums.classify import COUNT_CAP, EventualKind, _pseries_bound_threshold
from subsums.oracle import _sorted_sums
from subsums.sequences import HEAD_TERM_CAP, REFINEMENT_STEPS

EX = S.TermTailRelation.TERM_EXCEEDS_TAIL
BD = S.TermTailRelation.TAIL_BOUNDS_TERM


def test_profile_geometric_all_exceed():
    profile = S.term_tail_profile(S.PRESETS["thirds"])
    assert all(rel is EX for rel in profile.comparisons(10))
    assert profile.eventual.kind is EventualKind.ALL_EXCEED
    assert profile.eventual.proof == "multigeometric-period"


def test_profile_geometric_all_bound():
    profile = S.term_tail_profile(S.PRESETS["halves"])
    assert all(rel is BD for rel in profile.comparisons(10))
    assert profile.eventual.kind is EventualKind.EVENTUALLY_BOUND
    assert profile.eventual.after == profile.eventual.exceed_count == 0


def test_profile_prefixed_geometric_eventually_bound():
    spec = S.geometric(F(1, 2), F(1, 2), prefix=(F(2),))
    profile = S.term_tail_profile(spec)
    comparisons = profile.comparisons(8)
    assert comparisons[0] is EX
    assert all(rel is BD for rel in comparisons[1:])
    assert profile.eventual.kind is EventualKind.EVENTUALLY_BOUND
    assert profile.eventual.after == 1
    assert profile.eventual.exceed_count == 1


def test_profile_pseries_thresholds():
    profile = S.term_tail_profile(S.power_sum(2))
    assert profile.pseries_exceed_through == 1
    assert profile.pseries_bound_from == 2
    assert profile.eventual.kind is EventualKind.EVENTUALLY_BOUND
    assert profile.eventual.after == 1
    comparisons = profile.comparisons(8)
    assert comparisons[0] is EX
    assert all(rel is BD for rel in comparisons[1:])
    assert profile.eventual.proof == "pseries-monotone"


def test_pseries_threshold_brackets_direct_comparisons():
    # f_p is strictly increasing; N is the first index where it clears
    # p - 1, and direct comparisons agree around the boundary.
    for p in (2, 3, 4, 5):
        profile = S.term_tail_profile(S.power_sum(p))
        n_threshold = profile.pseries_bound_from
        k_threshold = profile.pseries_exceed_through
        assert k_threshold == p - 1

        def f(x):
            return (x + 1) * F(x, x + 1) ** p

        assert f(n_threshold) >= p - 1
        if n_threshold > 1:
            assert f(n_threshold - 1) < p - 1
        for n, rel in enumerate(profile.comparisons(12), start=1):
            if n <= k_threshold:
                assert rel is EX
            if n >= n_threshold:
                assert rel is BD



def test_pseries_threshold_matches_the_linear_scan():
    def scan(p):
        n = 1
        while (n + 1) * F(n, n + 1) ** p < p - 1:
            n += 1
        return n

    for p in range(2, 301):
        assert _pseries_bound_threshold(p) == scan(p)


def test_profile_multigeometric_period():
    profile = S.term_tail_profile(S.PRESETS["gn"])
    assert profile.eventual.kind is EventualKind.EXCEEDS_INFINITELY_OFTEN
    assert profile.eventual.proof == "multigeometric-period"
    for n, rel in enumerate(profile.comparisons(12), start=1):
        assert rel is (EX if n % 2 == 0 else BD)


def test_profile_merge_window_matches_pointwise():
    reordered = S.nonincreasing_reorder(S.PRESETS["kenyon"])
    profile = S.term_tail_profile(reordered)
    assert profile.eventual.kind is EventualKind.EXCEEDS_INFINITELY_OFTEN
    assert profile.eventual.proof == "multigeometric-period"
    # odd positions hold the big strand: 3/2, then 3/8 vs 11/24 bounds,
    # 1/4 vs 5/24 exceeds, repeating with period 2
    comparisons = profile.comparisons(12)
    assert comparisons[0] is EX
    for n in range(2, 13):
        expected = BD if n % 2 == 0 else EX
        assert comparisons[n - 1] is expected


def test_profile_merged_all_bound():
    spec = S.SequenceSpec(
        (),
        S.MergeTail((S.geometric(F(1, 4), F(1, 4)), S.geometric(F(1, 2), F(1, 4)))),
    )
    profile = S.term_tail_profile(spec)
    assert profile.eventual.kind is EventualKind.EVENTUALLY_BOUND
    assert profile.eventual.after == 0
    assert all(rel is BD for rel in profile.comparisons(10))


def test_profile_rejects_negated():
    with pytest.raises(ValueError):
        S.term_tail_profile(S.MergedSpec((), (S.geometric(F(1, 2), F(1, 2)),)))


def test_profile_comparisons_on_demand():
    profile = S.term_tail_profile(S.PRESETS["kenyon"])
    expected = tuple(S.compare_term_tail(profile.reordered, n) for n in range(1, 25))
    assert profile.comparisons(24) == expected
    assert profile.comparisons(0) == ()
    # A finite spec gives no more relations than it has terms.
    short = S.term_tail_profile(S.finite((F(1, 2), F(1), F(1, 2))))
    assert short.comparisons(10) == (BD, BD, EX)


def test_profile_and_one_point_components_take_positive_merges():
    parts = (S.geometric(F(1, 2), F(1, 3)), S.geometric(F(1, 5), F(1, 7)))
    merged = S.term_tail_profile(S.MergedSpec(parts))
    combined = S.term_tail_profile(S.combine_parts(parts))
    assert merged == combined
    assert merged.comparisons(6) == combined.comparisons(6)

    parts = (S.geometric(F(1, 2), F(1, 4)), S.geometric(F(1, 3), F(1, 4)))
    points = S.one_point_components(S.MergedSpec(parts), 4)
    assert points == S.one_point_components(S.combine_parts(parts), 4)

    signed = S.MergedSpec((parts[0],), (S.geometric(F(1, 4), F(1, 2)),))
    with pytest.raises(ValueError):
        S.term_tail_profile(signed)
    with pytest.raises(ValueError):
        S.one_point_components(signed, 2)


def test_indeterminate_relation_outside_the_rules_leaves_undetermined():
    # A strand head at the midpoint of the tightest enclosure of the tail
    # after it: no refinement separates the two, but no rule reads index 2.
    head = F(9, 16)
    for _ in range(3):
        parts = (S.power_sum(3), S.geometric(head, F(1, 10**6)))
        enclosure = S.combine_parts(parts).tail_sum(2, extra=REFINEMENT_STEPS[-1])
        head = (enclosure.lo + enclosure.hi) / 2
    verdict = S.classify(S.MergedSpec(parts))
    assert verdict.kind is S.VerdictKind.UNDETERMINED
    assert verdict.profile.eventual is None
    with pytest.raises(S.IndeterminateComparison):
        verdict.profile.comparisons(2)


@pytest.mark.parametrize("name", ["gn", "thirds", "halves", "ratios-2-5-3-5"])
def test_classify_compares_no_index_pointwise(monkeypatch, name):
    module = sys.modules["subsums.sequences"]
    calls = []
    original = module.compare_term_tail

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "compare_term_tail", counted)
    S.classify(S.PRESETS[name])
    assert calls == []


@pytest.mark.parametrize(
    "spec",
    [
        S.PRESETS["kenyon"],
        S.multi_geometric((F(3, 22), F(17, 22)), 1),
        S.multi_geometric((F(1, 22), F(1, 11)), 1),
    ],
    ids=["kenyon", "cell-3-22-17-22", "mg-1-22-1-11"],
)
def test_classify_walks_a_strand_merge_once(monkeypatch, spec):
    # The eventual analysis, the component count and the relations read
    # the merge through its self-similar view, whose head is ordered by
    # integer numerators: no walk of the merge, no pointwise comparison
    # on the heap, and no cover built on it.
    module = sys.modules["subsums.sequences"]
    walks = []
    compared = []
    walk = S.MergeTail.walk
    compare = module.compare_term_tail

    def counted_walk(self):
        walks.append(self)
        return walk(self)

    def counted_compare(spec, index):
        compared.append(spec)
        return compare(spec, index)

    monkeypatch.setattr(S.MergeTail, "walk", counted_walk)
    monkeypatch.setattr(module, "compare_term_tail", counted_compare)
    verdict = S.classify(spec)
    assert isinstance(verdict.profile.reordered.tail, S.MergeTail)
    assert len(walks) == 0
    assert not any(isinstance(s.tail, S.MergeTail) for s in compared)


def test_classify_absorbs_a_prefix_in_one_walk(monkeypatch):
    # The terms at least as large as the least prefix term take one walk
    # of the merge; the parts drop the rest with no walk.
    walks = []
    walk = S.MergeTail.walk

    def counted_walk(self):
        walks.append(self)
        return walk(self)

    monkeypatch.setattr(S.MergeTail, "walk", counted_walk)
    spec = S.multi_geometric((F(1, 22), F(1, 11)), 1, prefix=(F(1, 100), F(1, 2)))
    verdict = S.classify(spec)
    assert len(walks) == 1
    reordered = verdict.profile.reordered
    assert (len(reordered.prefix), reordered.prefix[-1]) == (29, F(1, 100))
    assert reordered.tail.parts[0].tail.heads[0] < F(1, 100)


def test_classify_builds_no_view(monkeypatch):
    # The reordering builds its strands with no check, not through the
    # checked constructor MultiGeometricTail(heads, q). The profile reads
    # the view on integers, so it builds no tail of its own for it.
    checked = []
    post_init = S.MultiGeometricTail.__post_init__

    def counted(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(S.MultiGeometricTail, "__post_init__", counted)
    for spec in (S.PRESETS["kenyon"], S.multi_geometric((F(1, 1844), F(1, 7376)), 1)):
        checked.clear()
        S.classify(spec)
        assert checked == []


def test_one_point_components_are_pinned():
    # 52 endpoint tuples, depths 0-12, pinned by the digest of their repr;
    # each is also the cover endpoints of the self-similar view.
    specs = (
        S.PRESETS["kenyon"],
        S.multi_geometric((F(3, 22), F(17, 22)), 1),
        S.PRESETS["gn"],
        S.multi_geometric((F(1, 10), F(9, 10)), 1, prefix=(F(1, 50), F(3, 2))),
    )
    found = []
    for spec in specs:
        view = S.self_similar(S.term_tail_profile(spec).reordered)
        for depth in range(13):
            points = S.one_point_components(spec, depth)
            union = S.build_cn(view, depth).fattened
            assert points == tuple(F(p, union.den) for p in sorted({*union.lo, *union.hi}))
            found.append(points)
    assert [len(points) for points in found] == [
        2, 4, 4, 12, 12, 36, 36, 108, 108, 324, 324, 972, 972,
        2, 4, 4, 12, 12, 36, 36, 120, 120, 400, 400, 1344, 1344,
        2, 2, 6, 6, 18, 18, 54, 54, 162, 162, 486, 486, 1458,
        2, 4, 8, 8, 24, 56, 104, 240, 464, 992, 1952, 4032, 8000,
    ]
    digest = hashlib.sha256(repr(found).encode()).hexdigest()[:16]
    assert digest == "a40e70d6a352ffbd"


def test_classify_reads_reorder_strands_as_built(monkeypatch):
    # The reordering's strands are one-strand tails, so the merge takes
    # them unchecked, and classify only walks them: no strand's proportion
    # or total is derived, and no proportion of the view either.
    checked = []
    init = S.MergeTail.__post_init__

    def counted(self):
        checked.append(self)
        init(self)

    monkeypatch.setattr(S.MergeTail, "__post_init__", counted)
    profile = S.classify(S.PRESETS["kenyon"]).profile
    strands = profile.reordered.tail.parts
    assert checked == []
    assert len(strands) == 2
    for strand in strands:
        assert "ratios" not in vars(strand.tail) and "total" not in vars(strand.tail)
    # The view's period pattern is read from its numerators, and the view
    # self_similar builds on request derives no proportion either.
    assert "ratios" not in vars(S.self_similar(profile.reordered).tail)


def test_classify_of_a_plain_spec_builds_no_merge(monkeypatch):
    # A SequenceSpec is its own positive part: sign_split hands it back
    # with EMPTY and wraps it in no MergedSpec.
    built = []
    init = S.MergedSpec.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(S.MergedSpec, "__post_init__", counted)
    for name in ("thirds", "gn", "kenyon", "halves", "ratios-2-5-3-5"):
        S.classify(S.PRESETS[name])
    assert S.sign_split(S.PRESETS["gn"]) == (S.PRESETS["gn"], S.EMPTY)
    assert built == []


def test_classify_thirds_cantor():
    verdict = S.classify(S.PRESETS["thirds"])
    assert verdict.kind is S.VerdictKind.CANTOR_SET
    assert verdict.certificate == "AllExceed"
    assert (verdict.hull_lo, verdict.hull_hi) == (F(0), F(1, 2))
    assert verdict.known_infinitely_many


def test_classify_halves_single_interval():
    verdict = S.classify(S.PRESETS["halves"])
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count == 1
    assert (verdict.component_lower, verdict.component_upper) == (1, 1)
    assert (verdict.hull_lo, verdict.hull_hi) == (F(0), F(1))


def test_classify_prefixed_halves():
    verdict = S.classify(S.geometric(F(1, 2), F(1, 2), prefix=(F(2),)))
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count == 2
    assert (verdict.hull_lo, verdict.hull_hi) == (F(0), F(3))
    assert verdict.hull_exact


def test_classify_prefix_below_power_sum_head():
    spec = S.power_sum(2, prefix=(F(1, 9),))
    verdict = S.classify(spec)
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count == 2
    profile = verdict.profile
    cover = S.build_cn(profile.reordered, profile.eventual.after + 8)
    assert cover.inner.components == cover.fattened.components == 2


def test_classify_bigeometric_lambda_certificate():
    verdict = S.classify(S.PRESETS["ratios-2-5-3-5"])
    assert verdict.kind is S.VerdictKind.CANTOR_SET
    assert verdict.certificate == "LambdaBelowQuarter"


def test_classify_gn_cantorval_proven():
    verdict = S.classify(S.PRESETS["gn"])
    assert verdict.kind is S.VerdictKind.SYMMETRIC_CANTORVAL
    assert verdict.certificate == "DigitCoverage"
    assert verdict.strength == "Proven"
    assert verdict.digit_certificate.base == 4
    assert verdict.digit_certificate.numerators == (3, 2)
    assert verdict.digit_certificate.digits == (0, 2, 3, 5)


def test_classify_kenyon_cantorval_presumed():
    verdict = S.classify(S.PRESETS["kenyon"])
    assert verdict.kind is S.VerdictKind.SYMMETRIC_CANTORVAL
    assert verdict.strength == "PaperPresumed"
    assert verdict.digit_certificate.digits == (0, 1, 6, 7)


def test_classify_kenyon_lambda_quarter_no_cantor_certificate():
    verdict = S.classify(S.PRESETS["kenyon"])
    assert verdict.certificate != "LambdaBelowQuarter"
    gn = S.classify(S.PRESETS["gn"])
    assert gn.certificate != "LambdaBelowQuarter"


def test_classify_pseries_bounds():
    verdict = S.classify(S.power_sum(2))
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert (verdict.component_lower, verdict.component_upper) == (2, 4)
    assert verdict.component_count == 2
    assert not verdict.hull_exact
    assert verdict.hull_lo == 0
    # enclosure bound, not the true sum: must dominate zeta(2)
    assert F(8, 5) < verdict.hull_hi <= F(2)


def test_classify_harmonic_half_line():
    verdict = S.classify(S.PRESETS["harmonic"])
    assert verdict.kind is S.VerdictKind.UNBOUNDED_INTERVAL
    assert (verdict.hull_lo, verdict.hull_hi) == (F(0), None)


def test_classify_negative_divergent_half_line():
    merged = S.MergedSpec((S.geometric(F(1, 2), F(1, 2)),), (S.power_sum(1),))
    verdict = S.classify(merged)
    assert verdict.kind is S.VerdictKind.UNBOUNDED_INTERVAL
    assert (verdict.hull_lo, verdict.hull_hi) == (None, F(1))


def test_classify_conditionally_summable_whole_line():
    merged = S.MergedSpec((S.power_sum(1),), (S.power_sum(1, start=2),))
    verdict = S.classify(merged)
    assert verdict.kind is S.VerdictKind.WHOLE_LINE
    assert (verdict.hull_lo, verdict.hull_hi) == (None, None)


def test_classify_signed_halves():
    signed = S.MergedSpec(
        (S.geometric(F(1, 4), F(1, 4)),),
        (S.geometric(F(1, 2), F(1, 4)),),
    )
    verdict = S.classify(signed)
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count == 1
    assert (verdict.hull_lo, verdict.hull_hi) == (F(-2, 3), F(1, 3))
    assert verdict.translation == F(-2, 3)


def test_classify_finite_specs():
    verdict = S.classify(S.finite((F(1), F(1, 2))))
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count == 4
    verdict = S.classify(S.EMPTY)
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count == 1
    assert (verdict.hull_lo, verdict.hull_hi) == (F(0), F(0))


def test_classify_finite_spec_past_count_cap():
    # 2^19 distinct subset sums: the count cap is exceeded, so only bounds.
    verdict = S.classify(S.finite([F(1, 3**k) for k in range(1, 20)]))
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count is None
    assert verdict.component_lower == COUNT_CAP + 1
    assert verdict.component_upper == 2**19


def test_classify_pins_no_count_past_the_lower_bound(monkeypatch):
    # 1/k^20 exceeds its tail for k <= 19, so the count is at least 2^19,
    # past the cap: nothing is folded, and the verdict keeps its bounds.
    module = sys.modules["subsums.classify"]
    monkeypatch.setattr(module, "_fold", _refuse)
    monkeypatch.setattr(module, "build_cn", _refuse)
    verdict = S.classify(S.power_sum(20))
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.summability is S.SummabilityClass.ABSOLUTELY_SUMMABLE
    assert (verdict.certificate, verdict.strength, verdict.digit_certificate) == (None,) * 3
    assert (verdict.hull_lo, verdict.hull_hi, verdict.hull_exact) == (F(0), F(20, 19), False)
    assert (verdict.component_lower, verdict.component_upper) == (2**19, 2**34)
    assert verdict.component_count is None
    assert verdict.translation == 0
    assert not verdict.known_infinitely_many
    assert verdict.profile == S.TermTailProfile(
        S.EventualVerdict(EventualKind.EVENTUALLY_BOUND, "pseries-monotone", 27, 27),
        S.power_sum(20),
        19,
        34,
    )


def test_classify_pins_power_sum_counts(monkeypatch):
    # power_sum(8) is pinned by the integer folds at its last gap index on
    # the bracket with 8 explicit terms (at extra 0 they read 256 and
    # 1024). power_sum(12, 3) and power_sum(17, 6) have agreeing bounds,
    # so no fold runs; the second count is the component cap itself.
    assert S.classify(S.power_sum(8)).component_count == 1024
    module = sys.modules["subsums.classify"]
    monkeypatch.setattr(module, "_fold", _refuse)
    monkeypatch.setattr(module, "build_cn", _refuse)
    for spec, count in ((S.power_sum(12, 3), 8192), (S.power_sum(17, 6), COUNT_CAP)):
        verdict = S.classify(spec)
        assert verdict.component_lower == verdict.component_upper == verdict.component_count
        assert verdict.component_count == count
    assert COUNT_CAP == 2**18


def test_power_sum_comparisons_read_the_proven_relations(monkeypatch):
    # The profile keeps the head and pattern that proved its verdict, so
    # comparisons compares no index again.
    profile = S.term_tail_profile(S.power_sum(3, 2, prefix=(F(1, 3),)))
    expected = S.term_tail_relations(profile.reordered, 12)
    module = sys.modules["subsums.sequences"]
    calls = []
    compare = module.compare_term_tail

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compare(*args, **kwargs)

    monkeypatch.setattr(module, "compare_term_tail", counted)
    assert profile.comparisons(12) == expected
    assert calls == []


def test_power_sum_counts_agree_with_the_oracle_gaps():
    # E = S_a + [0, X_a] past the last gap index a, so the count is one
    # more than the gaps of the oracle's subset sums S_a wider than X_a,
    # read at both ends of the tightest bracket where they agree. The sums
    # are subset_sums' integer form (_sorted_sums), over a denominator
    # that also holds the bracket, so no Fraction is compared.
    rng = random.Random(30)
    kept = checked = agreeing = 0
    for _ in range(150):
        prefix = tuple(F(rng.randint(1, 9), rng.randint(1, 40)) for _ in range(rng.randrange(5)))
        spec = S.power_sum(rng.randint(2, 14), rng.randint(1, 9), prefix)
        after = S.term_tail_profile(spec).eventual.after
        if after > 16:
            continue
        kept += 1
        verdict = S.classify(spec)
        if verdict.component_lower == verdict.component_upper:
            assert verdict.component_count == verdict.component_lower
            agreeing += 1
        if verdict.component_count is None:
            continue
        reordered = verdict.profile.reordered
        tail = reordered.tail_sum(after, extra=REFINEMENT_STEPS[-1])
        den, sums = _sorted_sums(reordered, after, math.lcm(tail.lo.denominator, tail.hi.denominator))
        gaps = [b - a for a, b in zip(sums, sums[1:])]
        lo, hi = (1 + sum(g > w for g in gaps) for w in (int(tail.lo * den), int(tail.hi * den)))
        if lo == hi:
            assert verdict.component_count == hi
            checked += 1
    assert (kept, checked, agreeing) == (137, 137, 113)


_fractions = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)
_strand_merges = st.one_of(
    st.builds(
        S.multi_geometric,
        st.lists(_fractions, min_size=2, max_size=3),
        st.just(F(1)),
        st.lists(_fractions.map(lambda v: 2 * v), max_size=2),
    ).filter(lambda spec: not spec.tail.nonincreasing),
    st.builds(
        lambda ratio, heads: S.combine_parts([S.geometric(h, ratio) for h in heads]),
        _fractions,
        st.lists(_fractions, min_size=2, max_size=3),
    ),
)


@settings(deadline=None)
@given(_strand_merges)
def test_profile_view_builds_the_reordering_covers(spec):
    # The view has the reordering's terms in the same order, and its
    # closed-form tail sums equal the merge's, so the covers and relations
    # read on it are the reordering's.
    profile = S.term_tail_profile(spec)
    view = S.self_similar(profile.reordered)
    assert isinstance(profile.reordered.tail, S.MergeTail)
    assert isinstance(view.tail, S.MultiGeometricTail)
    for depth in range(13):
        on_view = S.build_cn(view, depth)
        on_merge = S.build_cn(profile.reordered, depth)
        assert (on_view.fattened, on_view.inner, on_view.tail_used) == (
            on_merge.fattened, on_merge.inner, on_merge.tail_used
        )
    assert S.term_tail_relations(view, 24) == S.term_tail_relations(
        profile.reordered, 24
    )


def _integer_view_specs():
    """Seeded strand merges and prefixed multi-geometric specs: equal heads
    across strands, heads q^k apart (ties later in the merge), and prefixes
    that the reordering absorbs out of order."""
    rng = random.Random(29)

    def fraction(top):
        den = rng.randint(2, top)
        return F(rng.randint(1, den - 1), den)

    for k in range(150):
        q = fraction(9)
        heads = [fraction(12) for _ in range(rng.randint(2, 4))]
        if k % 3 == 1:
            heads[-1] = heads[0]
        elif k % 3 == 2:
            heads[1] = heads[0] * q ** rng.randint(1, 3)
        prefix = tuple(2 * fraction(12) for _ in range(rng.randint(0, 3)))
        yield S.SequenceSpec(prefix, S.MergeTail(tuple(S.geometric(h, q) for h in heads)))
        yield S.multi_geometric([fraction(12) for _ in range(rng.randint(2, 3))], 1, prefix)


def test_integer_view_matches_the_merge_walk():
    # The view's head order, its relations and rule 3's component count
    # come from integer numerators; each must equal what the merge walk,
    # term_tail_relations and build_cn read on the reordering.
    merges = absorbed = counted = 0
    build_cn = S.build_cn
    for spec in _integer_view_specs():
        profile = S.term_tail_profile(spec)
        reordered, numerators = profile.reordered, profile.numerators
        view = S.self_similar(reordered)
        m = len(view.tail.heads)
        if isinstance(reordered.tail, S.MergeTail):
            merges += 1
            absorbed += len(reordered.prefix) > 0
            walked, started = [], set()
            for value, idx in reordered.tail.walk():
                walked.append(value)
                started.add(idx)
                if len(started) == m:
                    break
            assert view.prefix == reordered.prefix + tuple(walked[:-m])
            assert view.tail.heads == tuple(walked[-m:])
            on_integers = numerators.prefix + numerators.heads
            assert [F(x, numerators.den) for x in on_integers] == [*reordered.prefix, *walked]
        else:
            assert view is reordered
        count = len(view.prefix) + 3 * m
        relations = S.term_tail_relations(reordered, count)
        for n in range(count + 1):
            assert profile.comparisons(n) == relations[:n]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys.modules["subsums.classify"], "build_cn", _refuse)
            verdict = S.classify(spec)
        if verdict.kind is S.VerdictKind.FINITE_UNION:
            counted += 1
            cover = build_cn(reordered, profile.eventual.after)
            assert verdict.component_count == cover.fattened.components
    assert (merges, absorbed, counted) == (251, 196, 181)


def _refuse(*args, **kwargs):
    raise AssertionError("classify built a cover")


def test_classify_large_power_sum_in_budget():
    # The 438 tail indices with k < N = 439 switch from exceed to bound
    # once, so a bisection compares 9 of them, each on its own bracket
    # (0.03 s in process on 2 shared vCPUs, CPython 3.11).
    start = time.perf_counter()
    verdict = S.classify(S.power_sum(250))
    assert time.perf_counter() - start < 0.5
    eventual = S.EventualVerdict(EventualKind.EVENTUALLY_BOUND, "pseries-monotone", 359, 359)
    assert verdict == S.Verdict(
        S.VerdictKind.FINITE_UNION,
        S.SummabilityClass.ABSOLUTELY_SUMMABLE,
        hull_lo=F(0),
        hull_hi=F(250, 249),
        hull_exact=False,
        component_lower=2**249,
        component_upper=2**439,
        translation=F(0),
        profile=S.TermTailProfile(eventual, S.power_sum(250), 249, 439),
    )


def test_classify_power_sum_400_in_budget():
    # 0.1 s in process on 2 shared vCPUs (CPython 3.11): the bisection
    # compares 10 of the 703 tail indices with k < N = 704.
    start = time.perf_counter()
    verdict = S.classify(S.power_sum(400))
    assert time.perf_counter() - start < 2
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert (verdict.component_lower, verdict.component_upper) == (2**399, 2**704)
    assert verdict.component_count is None
    assert verdict.profile.eventual.after == verdict.profile.eventual.exceed_count == 575


def test_power_sum_400_profile_compares_ten_indices(monkeypatch):
    # One compare_term_tail call per head index made 703; a bisection over
    # 703 indices makes at most ceil(log2(704)) = 10.
    calls = []
    compare = S.compare_term_tail

    def counted(spec, index):
        calls.append(index)
        return compare(spec, index)

    for module in ("subsums.sequences", "subsums.classify"):
        monkeypatch.setattr(sys.modules[module], "compare_term_tail", counted)
    verdict = S.classify(S.power_sum(400))
    assert len(calls) <= 10
    assert verdict.profile.comparisons(577)[-3:] == (EX, BD, BD)


def test_classify_power_sum_800_in_budget():
    # 0.45 s in process on 2 shared vCPUs (CPython 3.11); 12 s when every
    # head index was compared.
    start = time.perf_counter()
    verdict = S.classify(S.power_sum(800))
    assert time.perf_counter() - start < 5
    assert (verdict.component_lower, verdict.component_upper) == (2**799, 2**1409)
    assert verdict.profile.eventual.after == verdict.profile.eventual.exceed_count == 1152


def _relations_or_stuck(relate):
    """The relations, or the index of the IndeterminateComparison raised."""
    try:
        return relate()
    except S.IndeterminateComparison as stuck:
        return stuck.index


# Prefix terms n/k^e near a power sum's own terms, so that the reordering
# absorbs some of its tail.
_power_sum_prefixes = st.lists(
    st.builds(lambda n, k, e: F(n, k**e), st.integers(1, 3), st.integers(1, 20), st.integers(1, 6)),
    max_size=4,
).map(tuple)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 60), st.integers(1, 9), _power_sum_prefixes)
@example(2, 1, (F(16449340668482264365, 10**19),))
def test_power_sum_profile_is_the_per_index_pass(p, start, prefix):
    # Past the prefix the relations switch once from exceed to bound, so
    # the bisected head and then the pattern equal compare_term_tail at
    # every index, up to 3 past the analytic N; a prefix comparison that
    # is stuck is stuck at the same index.
    spec = S.power_sum(p, start=start, prefix=prefix)
    reordered = S.nonincreasing_reorder(spec)
    assert isinstance(reordered.tail, S.PowerSumTail)
    count = len(reordered.prefix) + max(_pseries_bound_threshold(p) - reordered.tail.start, 0) + 3
    expected = _relations_or_stuck(
        lambda: tuple(S.compare_term_tail(reordered, i) for i in range(1, count + 1))
    )
    assert _relations_or_stuck(lambda: S.term_tail_profile(spec).comparisons(count)) == expected


def test_classify_long_geometric_head_in_budget():
    # The self-similar view has a prefix of 462 terms, compared with their
    # tails in one pass instead of one prefix sum per index.
    started = time.perf_counter()
    verdict = S.classify(S.multi_geometric((F(1, 1000), F(1, 2000)), 1))
    assert time.perf_counter() - started < 5
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count == 1


def test_classify_strand_merge_head_under_the_cap():
    # 1,111 merged terms are walked before both strands start, under
    # HEAD_TERM_CAP; the view keeps the first 1,109 as its prefix.
    verdict = S.classify(S.multi_geometric((F(1, 1000), F(1, 4000)), 1))
    assert len(verdict.profile.numerators.prefix) == 1109
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count == 1


def test_classify_strand_merge_head_past_the_cap_fails_fast():
    # Both strands have started only after 11,092 merged terms; the walk
    # stops at HEAD_TERM_CAP instead.
    spec = S.multi_geometric((F(1, 10**4), F(1, 4 * 10**4)), 1)
    started = time.perf_counter()
    with pytest.raises(S.CapExceeded, match=f"passes {HEAD_TERM_CAP} terms"):
        S.classify(spec)
    assert time.perf_counter() - started < 3


def test_classify_2045_term_strand_head_in_budget():
    # The last strand starts at merged term 2,047, just under HEAD_TERM_CAP;
    # its head is ordered, compared and folded on integers (0.1 s in
    # process on 2 shared vCPUs, CPython 3.11).
    started = time.perf_counter()
    verdict = S.classify(S.multi_geometric((F(1, 1844), F(1, 7376)), 1))
    assert time.perf_counter() - started < 3
    assert verdict.kind is S.VerdictKind.FINITE_UNION
    assert verdict.component_count == 1
    assert len(verdict.profile.numerators.prefix) == 2045


def test_classify_undetermined_in_open_region():
    spec = S.multi_geometric((F(4, 11), F(6, 11)), F(1))
    verdict = S.classify(spec)
    assert verdict.kind is S.VerdictKind.UNDETERMINED
    assert verdict.known_infinitely_many
    lam = (1 - F(4, 11)) * (1 - F(6, 11))
    assert lam > F(1, 4)


def test_classify_scaling_invariance():
    for c in (F(3), F(1, 7), F(22, 7)):
        assert (
            S.classify(S.geometric(F(1, 3) * c, F(1, 3))).kind
            is S.VerdictKind.CANTOR_SET
        )
        assert (
            S.classify(S.multi_geometric((F(9, 20), F(6, 11)), F(5, 3) * c)).kind
            is S.VerdictKind.SYMMETRIC_CANTORVAL
        )
        assert (
            S.classify(S.multi_geometric((F(2, 5), F(3, 5)), c)).kind
            is S.VerdictKind.CANTOR_SET
        )


_ratios = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)
_values = st.fractions(min_value=F(1, 20), max_value=F(3), max_denominator=20)
_prefixes = st.lists(_values, max_size=2).map(tuple)


def _scale(spec, c):
    """c times every term of a prefixed multi-geometric spec or merge of them."""
    if isinstance(spec, S.MergedSpec):
        return S.MergedSpec(tuple(_scale(part, c) for part in spec.positive))
    tail = spec.tail
    return S.multi_geometric(tail.ratios, c * tail.total, tuple(c * v for v in spec.prefix))


_scalable_specs = st.one_of(
    # Every preset but the harmonic one: each certificate is drawn.
    st.sampled_from([spec for name, spec in sorted(S.PRESETS.items()) if name != "harmonic"]),
    st.builds(S.multi_geometric, st.lists(_ratios, min_size=1, max_size=3), _values, _prefixes),
    st.builds(S.geometric, _values, _ratios, st.lists(_values, min_size=1, max_size=2).map(tuple)),
)
_scalable_specs = st.one_of(
    _scalable_specs,
    st.lists(_scalable_specs, min_size=2, max_size=3).map(lambda parts: S.MergedSpec(tuple(parts))),
)


@seed(27)
@settings(max_examples=100, deadline=None)
@given(_scalable_specs, st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9))
def test_classify_of_a_scaled_spec_is_the_scaled_verdict(spec, c):
    # C_n(c x) = c C_n(x) at every depth, so every proof reads the same.
    try:
        verdict = S.classify(spec)
    except S.CapExceeded:
        with pytest.raises(S.CapExceeded):
            S.classify(_scale(spec, c))
        return
    scaled = S.classify(_scale(spec, c))
    same = ("kind", "certificate", "strength", "component_lower", "component_upper", "component_count")
    assert [getattr(scaled, name) for name in same] == [getattr(verdict, name) for name in same]
    assert (scaled.hull_lo, scaled.hull_hi) == (c * verdict.hull_lo, c * verdict.hull_hi)
    assert scaled.translation == c * verdict.translation == 0


_prefix_order_tails = st.one_of(
    st.builds(lambda a, r: S.geometric(a, r).tail, _values, _ratios),
    st.builds(
        lambda r, t: S.multi_geometric(r, t).tail,
        st.lists(_ratios, min_size=2, max_size=2).map(tuple),
        _values,
    ),
    st.builds(S.PowerSumTail, st.sampled_from((2, 3)), st.integers(1, 4)),
)


def _outcome(call):
    """What a call returns, or the type of the SubsumError it raises."""
    try:
        return call()
    except S.SubsumError as exc:
        return type(exc)


@seed(17)
@settings(max_examples=100, deadline=None)
@given(st.lists(_values, min_size=2, max_size=4), _prefix_order_tails, st.data())
def test_prefix_order_changes_no_verdict_and_no_reordered_cover(prefix, tail, data):
    # The subsum set depends on the multiset of terms, and the reordering
    # sorts the prefix into the tail, so neither may see the prefix order.
    spec = S.SequenceSpec(tuple(prefix), tail)
    permuted = S.SequenceSpec(tuple(data.draw(st.permutations(prefix))), tail)

    def verdict(s):
        return _outcome(lambda: replace(S.classify(s), profile=None))

    assert verdict(permuted) == verdict(spec)
    reordered, permuted_reordered = S.nonincreasing_reorder(spec), S.nonincreasing_reorder(permuted)
    for n in range(8):
        cover = S.build_cn(reordered, n)
        permuted_cover = S.build_cn(permuted_reordered, n)
        assert (permuted_cover.fattened, permuted_cover.inner) == (cover.fattened, cover.inner)


def test_classify_propagates_indeterminate():
    near_total = F(16449340668482264365, 10**19)
    spec = S.power_sum(2, prefix=(near_total,))
    with pytest.raises(S.IndeterminateComparison):
        S.classify(spec)


def test_digit_form_reductions():
    assert S.digit_form(S.PRESETS["gn"]) == (4, (3, 2))
    assert S.digit_form(S.nonincreasing_reorder(S.PRESETS["kenyon"])) == (4, (6, 1))
    assert S.digit_form(S.PRESETS["thirds"]) == (3, (1,))
    with pytest.raises(S.NotDigitForm):
        S.digit_form(S.PRESETS["ratios-2-5-3-5"])  # 6/25 is not 1/base
    with pytest.raises(S.NotDigitForm):
        S.digit_form(S.power_sum(2))


def test_digit_coverage_examples():
    cert = S.digit_coverage_test(4, (6, 1))
    assert cert is not None
    assert cert.digits == (0, 1, 6, 7)
    assert sorted(d % 4 for d in cert.digits) == [0, 1, 2, 3]

    cert = S.digit_coverage_test(4, (3, 2))
    assert cert is not None
    assert cert.digits == (0, 2, 3, 5)

    for base, numerators in ((4, (6, 1)), (4, (3, 2)), (3, (1, 1)), (7, (1, 2, 4))):
        cert = S.digit_coverage_test(base, numerators)
        assert sorted(r % base for r in cert.representatives) == list(range(base))
        assert not hasattr(cert, "injectivity_depth")

    assert S.digit_coverage_test(3, (1,)) is None

    with pytest.raises(ValueError):
        S.digit_coverage_test(1, (1,))
    with pytest.raises(ValueError):
        S.digit_coverage_test(4, (0,))


def test_one_point_components_thirds():
    points = S.one_point_components(S.PRESETS["thirds"], 1)
    assert points == (F(0), F(1, 6), F(1, 3), F(1, 2))
    for x in points:
        assert S.membership_probe(S.PRESETS["thirds"], x, 10).in_all_tested


def test_one_point_components_gn_extremes():
    points = S.one_point_components(S.PRESETS["gn"], 2)
    assert F(0) in points
    assert F(5, 3) in points


def test_one_point_components_not_applicable():
    with pytest.raises(S.NotApplicable):
        S.one_point_components(S.PRESETS["halves"], 2)


def test_cascade_soundness_cantor_counts():
    # AllExceed certificates mean every depth splits fully.
    for spec in (S.PRESETS["thirds"], S.geometric(F(2, 5), F(2, 5))):
        verdict = S.classify(spec)
        assert verdict.kind is S.VerdictKind.CANTOR_SET
        assert verdict.certificate == "AllExceed"
        for n in range(0, 17, 4):
            assert S.build_cn(spec, n).fattened.components == 2**n


def test_finite_union_counts_stay_constant():
    checks = [
        (S.PRESETS["halves"], 1),
        (S.geometric(F(1, 2), F(1, 2), prefix=(F(2),)), 2),
    ]
    for spec, expected in checks:
        for n in range(2, 11, 2):
            assert S.build_cn(spec, n).fattened.components == expected



def _check_against_the_oracle(verdict) -> str:
    """Confirm an AllExceed or eventually-bound verdict on oracle_cn, n <= 10.

    AllExceed means every depth splits fully; an eventually-bound pattern
    means the cover's components are the set's from the last gap on.
    Returns which of the two it confirmed, or "" for any other verdict and
    for a last gap past depth 10.
    """
    profile = verdict.profile
    if profile is None:
        return ""
    view = S.self_similar(profile.reordered) or profile.reordered
    if verdict.certificate == "AllExceed":
        for n in (6, 10):
            assert S.oracle_cn(view, n).components == 2**n
        return "all-exceed"
    eventual = profile.eventual
    if eventual is not None and eventual.kind is EventualKind.EVENTUALLY_BOUND and eventual.after <= 10:
        for n in range(eventual.after, 11):
            assert S.oracle_cn(view, n).components == verdict.component_count
        return "bound"
    return ""


def test_grid_and_preset_verdicts_agree_with_the_oracle():
    verdicts = [cell.verdict for cell in S.sweep(21).cells]
    verdicts += [S.classify(spec) for _, spec in sorted(S.PRESETS.items())]
    confirmed = [_check_against_the_oracle(verdict) for verdict in verdicts]
    assert (confirmed.count("all-exceed"), confirmed.count("bound")) == (177, 158)


def test_seeded_verdicts_agree_with_the_oracle():
    # Seeded multi-geometric specs with one to three proportions, geometric
    # specs, each with up to two prefix terms, and merges of two of them.
    rng = random.Random(27)

    def ratio():
        return F(rng.randint(1, 11), 12)

    def value():
        return F(rng.randint(1, 30), rng.randint(1, 20))

    def spec():
        prefix = tuple(value() for _ in range(rng.randrange(3)))
        if rng.random() < 0.5:
            return S.multi_geometric([ratio() for _ in range(rng.randint(1, 3))], value(), prefix)
        return S.geometric(value(), ratio(), prefix)

    confirmed = []
    for _ in range(240):
        merged = rng.random() < 0.25
        verdict = S.classify(S.MergedSpec((spec(), spec())) if merged else spec())
        confirmed.append(_check_against_the_oracle(verdict))
    assert confirmed.count("all-exceed") + confirmed.count("bound") >= 100
    assert confirmed.count("all-exceed") > 0 and confirmed.count("bound") > 0


def test_pseries_component_count_within_bounds():
    # inner and outer agree from depth 2 on, pinning the count within
    # the analytic 2^K..2^N bracket
    for n in (2, 3, 4):
        result = S.build_cn(S.power_sum(2), n)
        assert result.inner.components == result.fattened.components == 2
        assert 2 <= result.fattened.components <= 4


K = S.VerdictKind
ABS = S.SummabilityClass.ABSOLUTELY_SUMMABLE
UNCOND = S.SummabilityClass.UNCONDITIONALLY_UNSUMMABLE
COND = S.SummabilityClass.CONDITIONALLY_SUMMABLE
VERDICT_FIELDS = (
    "kind", "summability", "certificate", "strength", "hull_lo", "hull_hi",
    "hull_exact", "component_lower", "component_upper", "component_count",
    "translation", "known_infinitely_many", "digit_certificate",
)
# One spec per classify rule, every Verdict field but profile, in
# VERDICT_FIELDS order.
VERDICT_TABLE = [
    ("whole-line",
     S.MergedSpec((S.power_sum(1),), (S.power_sum(1, start=2),)),
     (K.WHOLE_LINE, COND, None, None, None, None, True, None, None, None, None, False, None)),
    ("half-line-up-exact", S.PRESETS["harmonic"],
     (K.UNBOUNDED_INTERVAL, UNCOND, None, None, F(0), None, True, None, None, None, None, False, None)),
    ("half-line-down-exact",
     S.MergedSpec((S.geometric(F(1, 2), F(1, 2)),), (S.power_sum(1),)),
     (K.UNBOUNDED_INTERVAL, UNCOND, None, None, None, F(1), True, None, None, None, None, False, None)),
    ("half-line-down-inexact",
     S.MergedSpec((S.power_sum(2),), (S.power_sum(1),)),
     (K.UNBOUNDED_INTERVAL, UNCOND, None, None, None, F(2), False, None, None, None, None, False, None)),
    ("half-line-up-inexact",
     S.MergedSpec((S.power_sum(1),), (S.power_sum(2),)),
     (K.UNBOUNDED_INTERVAL, UNCOND, None, None, F(-2), None, False, None, None, None, None, False, None)),
    ("finite-spec", S.finite((F(1), F(1, 2))),
     (K.FINITE_UNION, ABS, None, None, F(0), F(3, 2), True, 4, 4, 4, F(0), False, None)),
    ("signed-translation",
     S.MergedSpec((S.geometric(F(1, 4), F(1, 4)),), (S.geometric(F(1, 2), F(1, 4)),)),
     (K.FINITE_UNION, ABS, None, None, F(-2, 3), F(1, 3), True, 1, 1, 1, F(-2, 3), False, None)),
    ("signed-inexact-negative-sum",
     S.MergedSpec((S.geometric(F(1, 2), F(1, 2)),), (S.power_sum(2, start=2),)),
     (K.UNDETERMINED, ABS, None, None, F(-1), F(1), False, None, None, None, None, False, None)),
    ("pseries-bounds", S.power_sum(2),
     (K.FINITE_UNION, ABS, None, None, F(0), F(2), False, 2, 4, 2, F(0), False, None)),
    ("all-exceed", S.PRESETS["thirds"],
     (K.CANTOR_SET, ABS, "AllExceed", None, F(0), F(1, 2), True, None, None, None, F(0), True, None)),
    ("lambda-below-quarter", S.PRESETS["ratios-2-5-3-5"],
     (K.CANTOR_SET, ABS, "LambdaBelowQuarter", None, F(0), F(1), True, None, None, None, F(0),
      True, None)),
    ("digit-proven", S.PRESETS["gn"],
     (K.SYMMETRIC_CANTORVAL, ABS, "DigitCoverage", "Proven", F(0), F(5, 3), True, None, None,
      None, F(0), True, S.CoverageCertificate(4, (3, 2), (0, 2, 3, 5), (0, 5, 2, 3)))),
    ("digit-presumed", S.PRESETS["kenyon"],
     (K.SYMMETRIC_CANTORVAL, ABS, "DigitCoverage", "PaperPresumed", F(0), F(7, 3), True, None,
      None, None, F(0), True, S.CoverageCertificate(4, (6, 1), (0, 1, 6, 7), (0, 1, 6, 7)))),
    ("undetermined-recurring", S.multi_geometric((F(4, 11), F(6, 11)), F(1)),
     (K.UNDETERMINED, ABS, None, None, F(0), F(1), True, None, None, None, F(0), True, None)),
    ("undetermined-no-pattern",
     S.MergedSpec((S.geometric(F(1), F(1, 2)), S.geometric(F(1), F(1, 3)))),
     (K.UNDETERMINED, ABS, None, None, F(0), F(7, 2), True, None, None, None, F(0), False, None)),
]


@pytest.mark.parametrize(
    "spec, expected",
    [row[1:] for row in VERDICT_TABLE],
    ids=[row[0] for row in VERDICT_TABLE],
)
def test_verdict_fields_per_rule(spec, expected):
    verdict = S.classify(spec)
    got = {name: getattr(verdict, name) for name in VERDICT_FIELDS}
    assert got == dict(zip(VERDICT_FIELDS, expected))
    assert {f.name for f in fields(S.Verdict)} == set(VERDICT_FIELDS) | {"profile"}


def test_one_ratio_multigeometric_part_classifies_as_geometric():
    # A one-proportion multi-geometric tail is a geometric tail, so a merge
    # with one is the common-ratio strand merge of the gn preset.
    twin = S.MergedSpec((S.geometric(F(3, 4), F(1, 4)), S.geometric(F(1, 2), F(1, 4))))
    spec = S.MergedSpec((S.multi_geometric((F(3, 4),), F(1)), S.geometric(F(1, 2), F(1, 4))))
    verdict = S.classify(spec)
    assert verdict.kind is S.VerdictKind.SYMMETRIC_CANTORVAL
    assert verdict == S.classify(twin)
