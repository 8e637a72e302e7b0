"""Classification: profiles, verdicts, certificates, digit machinery."""
import sys
from dataclasses import fields
from fractions import Fraction as F

import pytest

import subsums as S
from subsums.classify import COUNT_CAP, EventualKind
from subsums.sequences import REFINEMENT_STEPS

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
    assert profile.eventual.kind is EventualKind.ALL_BOUND
    assert profile.eventual.exceed_count == 0


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
    assert profile.eventual.kind is EventualKind.ALL_BOUND
    assert all(rel is BD for rel in profile.comparisons(10))


def test_profile_rejects_negated():
    with pytest.raises(ValueError):
        S.term_tail_profile(S.geometric(F(1, 2), F(1, 2), negated=True))


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

    signed = S.MergedSpec((parts[0], S.geometric(F(1, 4), F(1, 2), negated=True)))
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
    module = sys.modules["subsums.classify"]
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
    [S.PRESETS["kenyon"], S.multi_geometric((F(3, 22), F(17, 22)), 1)],
    ids=["kenyon", "cell-3-22-17-22"],
)
def test_classify_walks_a_strand_merge_once(monkeypatch, spec):
    # The eventual analysis reads the merge through its self-similar view:
    # one walk to find the view, no pointwise comparison on the heap.
    module = sys.modules["subsums.classify"]
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
    assert len(walks) == 1
    assert not any(isinstance(s.tail, S.MergeTail) for s in compared)


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
    merged = S.MergedSpec((
        S.geometric(F(1, 2), F(1, 2)),
        S.power_sum(1, negated=True),
    ))
    verdict = S.classify(merged)
    assert verdict.kind is S.VerdictKind.UNBOUNDED_INTERVAL
    assert (verdict.hull_lo, verdict.hull_hi) == (None, F(1))


def test_classify_conditionally_summable_whole_line():
    merged = S.MergedSpec((S.power_sum(1), S.power_sum(1, start=2, negated=True)))
    verdict = S.classify(merged)
    assert verdict.kind is S.VerdictKind.WHOLE_LINE
    assert (verdict.hull_lo, verdict.hull_hi) == (None, None)


def test_classify_signed_halves():
    signed = S.MergedSpec((
        S.geometric(F(1, 4), F(1, 4)),
        S.geometric(F(1, 2), F(1, 4), negated=True),
    ))
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


def test_digit_base_limit_downgrades_to_undetermined():
    verdict = S.classify(S.PRESETS["gn"], digit_base_limit=3)
    assert verdict.kind is S.VerdictKind.UNDETERMINED
    assert verdict.known_infinitely_many


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
     S.MergedSpec((S.power_sum(1), S.power_sum(1, start=2, negated=True))), None,
     (K.WHOLE_LINE, COND, None, None, None, None, True, None, None, None, None, False, None)),
    ("half-line-up-exact", S.PRESETS["harmonic"], None,
     (K.UNBOUNDED_INTERVAL, UNCOND, None, None, F(0), None, True, None, None, None, None, False, None)),
    ("half-line-down-exact",
     S.MergedSpec((S.geometric(F(1, 2), F(1, 2)), S.power_sum(1, negated=True))), None,
     (K.UNBOUNDED_INTERVAL, UNCOND, None, None, None, F(1), True, None, None, None, None, False, None)),
    ("half-line-down-inexact",
     S.MergedSpec((S.power_sum(2), S.power_sum(1, negated=True))), None,
     (K.UNBOUNDED_INTERVAL, UNCOND, None, None, None, F(2), False, None, None, None, None, False, None)),
    ("half-line-up-inexact",
     S.MergedSpec((S.power_sum(2, negated=True), S.power_sum(1))), None,
     (K.UNBOUNDED_INTERVAL, UNCOND, None, None, F(-2), None, False, None, None, None, None, False, None)),
    ("finite-spec", S.finite((F(1), F(1, 2))), None,
     (K.FINITE_UNION, ABS, None, None, F(0), F(3, 2), True, 4, 4, 4, F(0), False, None)),
    ("signed-translation",
     S.MergedSpec((S.geometric(F(1, 4), F(1, 4)), S.geometric(F(1, 2), F(1, 4), negated=True))),
     None,
     (K.FINITE_UNION, ABS, None, None, F(-2, 3), F(1, 3), True, 1, 1, 1, F(-2, 3), False, None)),
    ("pseries-bounds", S.power_sum(2), None,
     (K.FINITE_UNION, ABS, None, None, F(0), F(2), False, 2, 4, 2, F(0), False, None)),
    ("all-exceed", S.PRESETS["thirds"], None,
     (K.CANTOR_SET, ABS, "AllExceed", None, F(0), F(1, 2), True, None, None, None, F(0), True, None)),
    ("lambda-below-quarter", S.PRESETS["ratios-2-5-3-5"], None,
     (K.CANTOR_SET, ABS, "LambdaBelowQuarter", None, F(0), F(1), True, None, None, None, F(0),
      True, None)),
    ("digit-proven", S.PRESETS["gn"], None,
     (K.SYMMETRIC_CANTORVAL, ABS, "DigitCoverage", "Proven", F(0), F(5, 3), True, None, None,
      None, F(0), True, S.CoverageCertificate(4, (3, 2), (0, 2, 3, 5), (0, 5, 2, 3)))),
    ("digit-presumed", S.PRESETS["kenyon"], None,
     (K.SYMMETRIC_CANTORVAL, ABS, "DigitCoverage", "PaperPresumed", F(0), F(7, 3), True, None,
      None, None, F(0), True, S.CoverageCertificate(4, (6, 1), (0, 1, 6, 7), (0, 1, 6, 7)))),
    ("digit-base-limit", S.PRESETS["gn"], 3,
     (K.UNDETERMINED, ABS, None, None, F(0), F(5, 3), True, None, None, None, F(0), True, None)),
    ("undetermined-recurring", S.multi_geometric((F(4, 11), F(6, 11)), F(1)), None,
     (K.UNDETERMINED, ABS, None, None, F(0), F(1), True, None, None, None, F(0), True, None)),
    ("undetermined-no-pattern",
     S.MergedSpec((S.geometric(F(1), F(1, 2)), S.geometric(F(1), F(1, 3)))), None,
     (K.UNDETERMINED, ABS, None, None, F(0), F(7, 2), True, None, None, None, F(0), False, None)),
]


@pytest.mark.parametrize(
    "spec, limit, expected",
    [row[1:] for row in VERDICT_TABLE],
    ids=[row[0] for row in VERDICT_TABLE],
)
def test_verdict_fields_per_rule(spec, limit, expected):
    verdict = S.classify(spec, digit_base_limit=limit)
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
