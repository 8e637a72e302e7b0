"""Classification of subsum sets with explicit certificates.

classify splits signs once and tries these rules in order; the first
that fires gives the verdict:

1. summability: a sequence that is not absolutely summable gives the
   whole line (both parts diverge) or a half line (one part diverges);
2. finite spec -> finite union of closed intervals, counted on the cover
   at the last term;
3. tail bounds term from some index on -> finite union of closed
   intervals (the cover stabilizes; component count between
   2^(#gap events) and 2^(last gap index));
4. term exceeds tail at every index -> Cantor set;
5. prefix-free non-increasing two-ratio tail whose two-step contraction
   is below 1/4 -> Cantor set (cover component lengths die out
   geometrically);
6. integer digit strands over a base whose subset sums cover every
   residue, plus a periodic gap pattern -> symmetric Cantorval (coverage
   is the whole certificate: digit strings over a complete residue
   system are injective mod 1, as digit_coverage_test proves).

Rules 3-6 read the term/tail profile of the non-increasing reordering.
Strand merges are read through self_similar: the same terms as a prefix
followed by a multi-geometric tail. The eventual verdict takes its
periodic pattern from the proportions and compares the head terms with
closed-form tail sums.
Signed sequences are reduced by splitting signs: the subsum set is the
absolute-value subsum set (combine_parts of both parts) translated by the
sum of the negative part.
Anything not certified is reported Undetermined, never guessed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

from .construction import build_cn, subset_sum_starts
from .errors import CapExceeded, NotApplicable, NotDigitForm
from .sequences import (
    MergeTail,
    MultiGeometricTail,
    PowerSumTail,
    SequenceSpec,
    SummabilityClass,
    TermTailRelation,
    combine_parts,
    compare_term_tail,
    finite,
    nonincreasing_reorder,
    positive_spec,
    self_similar,
    sign_split,
    summability_of,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

# Component cap of the covers classify builds to count components.
COUNT_CAP = 1 << 18

# Depths tried past the stabilization index when pinning an exact component
# count with inexact tails.
COUNT_DEPTH_SLACK = 6


class EventualKind(Enum):
    ALL_EXCEED = "all-exceed"
    ALL_BOUND = "all-bound"
    EVENTUALLY_BOUND = "eventually-bound"
    EXCEEDS_INFINITELY_OFTEN = "exceeds-infinitely-often"


@dataclass(frozen=True)
class EventualVerdict:
    """Analytic description of the term/tail comparison pattern.

    after: for EVENTUALLY_BOUND, the last index whose term exceeds its
    tail (0 when none ever does, which is reported as ALL_BOUND).
    exceed_count: total number of exceed events, when finite.
    """

    kind: EventualKind
    proof: str
    after: Optional[int] = None
    exceed_count: Optional[int] = None


@dataclass(frozen=True)
class TermTailProfile:
    """Term/tail pattern of the non-increasing reordering.

    eventual is the analytic verdict on every index, which is all classify
    reads; comparisons(count) computes pointwise relations on demand.
    """

    eventual: Optional[EventualVerdict]
    reordered: SequenceSpec
    pseries_exceed_through: Optional[int] = None
    pseries_bound_from: Optional[int] = None

    def comparisons(self, count: int) -> tuple:
        """Relations of term n to tail n for n = 1..count.

        Fewer when the reordering is a shorter finite spec. Raises
        IndeterminateComparison as compare_term_tail does.
        """
        total = self.reordered.term_count()
        if total is not None:
            count = min(count, total)
        return tuple(compare_term_tail(self.reordered, n) for n in range(1, count + 1))

    @property
    def gaps_recur(self) -> bool:
        """Whether terms are proven to exceed their tails infinitely often."""
        return self.eventual is not None and self.eventual.kind in (
            EventualKind.ALL_EXCEED,
            EventualKind.EXCEEDS_INFINITELY_OFTEN,
        )


def _pseries_bound_threshold(exponent: int) -> int:
    """Least N with (N+1) * (N/(N+1))^p >= p - 1.

    The left side is strictly increasing in N, so tails bound terms for
    every index >= N.
    """
    p = exponent
    n = 1
    while (n + 1) * Fraction(n, n + 1) ** p < p - 1:
        n += 1
    return n


def _region_verdict(
    spec: SequenceSpec,
    head_count: int,
    proof: str,
    pattern,
    middle_exceeds=(),
) -> EventualVerdict:
    """Combine pointwise head comparisons with an analytic periodic region.

    pattern says, for one period of the indices past head_count, whether
    the term exceeds its tail; it repeats forever, so it decides the
    infinite behaviour. middle_exceeds lists the exceed indices past the
    head that precede an all-bound pattern (power sums).
    """
    head_exceeds = [
        n
        for n in range(1, head_count + 1)
        if compare_term_tail(spec, n) is TermTailRelation.TERM_EXCEEDS_TAIL
    ]
    if any(pattern):
        if all(pattern) and len(head_exceeds) == head_count:
            return EventualVerdict(EventualKind.ALL_EXCEED, proof, exceed_count=None)
        return EventualVerdict(EventualKind.EXCEEDS_INFINITELY_OFTEN, proof)
    exceeds = sorted(head_exceeds + list(middle_exceeds))
    if not exceeds:
        return EventualVerdict(EventualKind.ALL_BOUND, proof, after=0, exceed_count=0)
    return EventualVerdict(
        EventualKind.EVENTUALLY_BOUND,
        proof,
        after=max(exceeds),
        exceed_count=len(exceeds),
    )


def _analytic_eventual(spec: SequenceSpec):
    """Eventual verdict for a reordered spec, or None when unavailable.

    Returns (verdict, pseries thresholds) so the profile can expose the
    power-sum constants.
    """
    prefix_len = len(spec.prefix)
    kind = spec.tail
    if isinstance(kind, PowerSumTail):
        if kind.divergent:
            # An infinite tail bounds every term, but divergent specs are
            # classified by summability, not by gap analysis.
            return None, None
        p = kind.exponent
        guaranteed = p - 1
        threshold = _pseries_bound_threshold(p)
        middle = []
        for k in range(max(kind.start, guaranteed + 1), threshold):
            n = prefix_len + (k - kind.start) + 1
            if compare_term_tail(spec, n) is TermTailRelation.TERM_EXCEEDS_TAIL:
                middle.append(n)
        for k in range(kind.start, min(guaranteed, threshold - 1) + 1):
            middle.append(prefix_len + (k - kind.start) + 1)
        verdict = _region_verdict(
            spec, prefix_len, "pseries-monotone", (False,), middle
        )
        return verdict, (guaranteed, threshold)
    view = self_similar(spec)
    if view is None:
        return None, None
    # r > 1/2 says x_i > X_i; with one proportion, the ratio 1 - r < 1/2.
    pattern = [r > HALF for r in view.tail.ratios]
    verdict = _region_verdict(view, len(view.prefix), "multigeometric-period", pattern)
    return verdict, None


def term_tail_profile(spec) -> TermTailProfile:
    """Term/tail profile of a positive spec or merge.

    The input goes through positive_spec (ValueError when any part is
    negated) and is reordered non-increasingly. Only the indices the
    eventual verdict needs are compared here; TermTailProfile.comparisons
    computes the pointwise relations on demand.
    """
    reordered = nonincreasing_reorder(positive_spec(spec))
    eventual, thresholds = _analytic_eventual(reordered)
    exceed_through, bound_from = thresholds or (None, None)
    return TermTailProfile(eventual, reordered, exceed_through, bound_from)


# --- digit certificates --------------------------------------------------------


@dataclass(frozen=True)
class CoverageCertificate:
    """Subset sums of the strand numerators cover every residue mod base.

    digits holds every subset sum; representatives holds the least digit in
    each residue class, a complete residue system mod base, so digit
    strings over them of any length have pairwise distinct fractional parts
    (see digit_coverage_test).
    """

    base: int
    numerators: tuple
    digits: tuple
    representatives: tuple


def digit_form(spec: SequenceSpec) -> tuple:
    """Reduce a spec to integer digit strands over a base.

    Works when the terms split into geometric strands with a common ratio
    1/base: strand j contributes p_j / base^k for k >= 1. The numerators
    are scaled to integers with content 1, which preserves residue
    coverage. Raises NotDigitForm otherwise.
    """
    if spec.negated or spec.prefix:
        raise NotDigitForm("digit strands need a prefix-free positive spec")
    kind = spec.tail
    if isinstance(kind, MultiGeometricTail):
        heads = kind.heads
        ratio = kind.period_factor
    elif isinstance(kind, MergeTail):
        ratio = kind.common_ratio()
        if ratio is None:
            raise NotDigitForm("merged strands are not geometric with one ratio")
        heads = tuple(s.tail.heads[0] for s in kind.parts)
    else:
        raise NotDigitForm(f"no digit reduction for {type(kind).__name__}")
    if ratio.numerator != 1 or ratio.denominator < 2:
        raise NotDigitForm(f"strand ratio {ratio} is not 1/base")
    base = ratio.denominator
    scaled = [h * base for h in heads]
    content = Fraction(
        math.gcd(*(q.numerator for q in scaled)),
        math.lcm(*(q.denominator for q in scaled)),
    )
    numerators = tuple(int(q / content) for q in scaled)
    return base, numerators


def digit_coverage_test(base: int, numerators) -> Optional[CoverageCertificate]:
    """Certificate that subset sums of the numerators cover Z/base.

    Returns None when some residue is missed. Coverage plus the distinct
    fractional parts of finite digit strings force the subsum set to have
    nonempty interior. Distinctness needs no check: the representatives are
    a complete residue system mod base, and the string d_1 ... d_k stands
    for the integer d_1 base^(k-1) + ... + d_k mod base^k. Its residue
    mod base fixes d_k; removing d_k and dividing by base leaves a
    (k-1)-digit string, so by induction the base^k strings of length k map
    one-to-one onto Z/base^k.
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    numerators = tuple(int(n) for n in numerators)
    if any(n <= 0 for n in numerators):
        raise ValueError("numerators must be positive integers")
    sums = subset_sum_starts(finite(numerators), len(numerators))
    digits = tuple(int(s) for s in sums)
    residues = {d % base for d in digits}
    if len(residues) < base:
        return None
    representatives = tuple(
        min(d for d in digits if d % base == r) for r in range(base)
    )
    return CoverageCertificate(base, numerators, digits, representatives)


# --- verdicts -------------------------------------------------------------------


class VerdictKind(Enum):
    FINITE_UNION = "FiniteUnion"
    CANTOR_SET = "CantorSet"
    SYMMETRIC_CANTORVAL = "SymmetricCantorval"
    UNBOUNDED_INTERVAL = "UnboundedInterval"
    WHOLE_LINE = "WholeLine"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Verdict:
    """Classification outcome with the certificate that produced it.

    hull endpoints use None for an infinite side. translation is the sum
    of the negative part (the subsum set is the absolute-value subsum set
    shifted by it); None when that sum has no exact rational value.
    """

    kind: VerdictKind
    summability: SummabilityClass
    certificate: Optional[str] = None
    strength: Optional[str] = None
    hull_lo: Optional[Fraction] = None
    hull_hi: Optional[Fraction] = None
    hull_exact: bool = True
    component_lower: Optional[int] = None
    component_upper: Optional[int] = None
    component_count: Optional[int] = None
    translation: Optional[Fraction] = None
    known_infinitely_many: bool = False
    profile: Optional[TermTailProfile] = None
    digit_certificate: Optional[CoverageCertificate] = None


def _exact_component_count(spec, stabilized_depth) -> Optional[int]:
    """Component count of the stabilized cover, when it can be pinned.

    The cover stops splitting after the last gap index, so its component
    count at that depth is the true one. With inexact tails the lower and
    upper fattenings sandwich the count; equality at some nearby depth
    pins it.
    """
    for depth in range(stabilized_depth, stabilized_depth + COUNT_DEPTH_SLACK + 1):
        try:
            cover = build_cn(spec, depth, cap=COUNT_CAP)
        except CapExceeded:
            return None
        if cover.tail_exact:
            return cover.fattened.components
        if cover.inner is not None and cover.inner.components == cover.fattened.components:
            return cover.fattened.components
    return None


def classify(spec, digit_base_limit: Optional[int] = None) -> Verdict:
    """Classify the subsum set of a (possibly signed, merged) spec.

    digit_base_limit, when set, skips the digit-coverage certificate for
    bases above it (parameter sweeps cap the denominators they try).
    """
    pos, neg, plus, minus = sign_split(spec)
    summability = summability_of(plus, minus)
    base = Verdict(
        VerdictKind.UNDETERMINED,
        summability,
        hull_lo=minus.lo,
        hull_hi=plus.hi,
        hull_exact=all(side.exact for side in (plus, minus) if side.finite),
    )
    if summability is SummabilityClass.CONDITIONALLY_SUMMABLE:
        return replace(base, kind=VerdictKind.WHOLE_LINE)
    if summability is SummabilityClass.UNCONDITIONALLY_UNSUMMABLE:
        return replace(base, kind=VerdictKind.UNBOUNDED_INTERVAL)
    base = replace(base, translation=minus.value if minus.exact else None)
    abs_spec = combine_parts((pos, neg.absolute()))

    finite_count = abs_spec.term_count()
    if finite_count is not None:
        try:
            count = build_cn(abs_spec, finite_count, cap=COUNT_CAP).fattened.components
            lower = upper = count
        except CapExceeded:
            # The fold of a finite spec has zero width, and its steps only
            # add points, so the final count is past the cap.
            count, lower, upper = None, COUNT_CAP + 1, 2**finite_count
        return replace(
            base,
            kind=VerdictKind.FINITE_UNION,
            component_lower=lower,
            component_upper=upper,
            component_count=count,
        )

    profile = term_tail_profile(abs_spec)
    base = replace(base, profile=profile, known_infinitely_many=profile.gaps_recur)
    reordered = profile.reordered
    eventual = profile.eventual
    if eventual is None:
        return base

    if eventual.kind in (EventualKind.ALL_BOUND, EventualKind.EVENTUALLY_BOUND):
        if (
            isinstance(reordered.tail, PowerSumTail)
            and not reordered.prefix
            and reordered.tail.start == 1
        ):
            # Report the analytic power-sum bounds rather than the sharper
            # pointwise ones.
            lower_exp = profile.pseries_exceed_through
            upper_exp = profile.pseries_bound_from
        else:
            lower_exp = eventual.exceed_count
            upper_exp = eventual.after
        return replace(
            base,
            kind=VerdictKind.FINITE_UNION,
            component_lower=2**lower_exp,
            component_upper=2**upper_exp,
            component_count=_exact_component_count(reordered, eventual.after),
        )

    if eventual.kind is EventualKind.ALL_EXCEED:
        return replace(base, kind=VerdictKind.CANTOR_SET, certificate="AllExceed")

    # Exceeds infinitely often. On a prefix-free two-ratio reordering (the
    # spec itself: reordering a non-monotone one yields a merge), that means
    # one ratio above 1/2 and one not.
    tail = reordered.tail
    if (
        not reordered.prefix
        and isinstance(tail, MultiGeometricTail)
        and len(tail.ratios) == 2
        and tail.period_factor < QUARTER
    ):
        return replace(base, kind=VerdictKind.CANTOR_SET, certificate="LambdaBelowQuarter")

    try:
        digit_base, numerators = digit_form(reordered)
    except NotDigitForm:
        return base
    if digit_base_limit is not None and digit_base > digit_base_limit:
        return base
    certificate = digit_coverage_test(digit_base, numerators)
    if certificate is None:
        return base
    return replace(
        base,
        kind=VerdictKind.SYMMETRIC_CANTORVAL,
        certificate="DigitCoverage",
        strength="Proven" if reordered == abs_spec else "PaperPresumed",
        digit_certificate=certificate,
    )


def one_point_components(spec, depth: int) -> tuple:
    """Endpoints of the depth-n cover components, each a one-point component.

    Needs a gap pattern that recurs forever (term exceeds tail infinitely
    often on the reordering); then no endpoint ever gets absorbed into an
    interval, so each is a degenerate component of the subsum set.
    """
    profile = term_tail_profile(spec)
    if not profile.gaps_recur:
        raise NotApplicable("no recurring gap pattern was established")
    cover = build_cn(profile.reordered, depth)
    if not cover.tail_exact:
        raise NotApplicable("cover endpoints need exact tails")
    union = cover.fattened
    return tuple(Fraction(p, union.den) for p in sorted({*union.lo, *union.hi}))
