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
The profile reads a strand merge or a multi-geometric tail through its
self-similar view, the same terms as a prefix and a multi-geometric
tail, and through the view's integer numerators (integer_view), with no
walk of the merge. The eventual verdict, the relations and rule 3's
component count (build_cn's fold, run on the numerators) read the
numerators; one_point_components builds covers on the view; rules 5 and
6 read the reordering's own shape.
Signed sequences are reduced by splitting signs: the subsum set is the
absolute-value subsum set (combine_parts of both parts) translated by the
sum of the negative part.
Anything not certified is reported Undetermined, never guessed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from .construction import _fold, build_cn, subset_sum_starts
from .errors import CapExceeded, NotApplicable, NotDigitForm
from .sequences import (
    MultiGeometricTail,
    PowerSumTail,
    SequenceSpec,
    SummabilityClass,
    TermTailRelation,
    ViewNumerators,
    combine_parts,
    finite,
    geometric_strands,
    integer_view,
    nonincreasing_reorder,
    positive_spec,
    sign_split,
    summability_of,
    term_tail_relations,
)

QUARTER = Fraction(1, 4)

# Component cap of the covers classify builds to count components.
COUNT_CAP = 1 << 18

# Depths tried past the stabilization index when pinning an exact component
# count with inexact tails.
COUNT_DEPTH_SLACK = 6


class EventualKind(Enum):
    ALL_EXCEED = "all-exceed"
    EVENTUALLY_BOUND = "eventually-bound"
    EXCEEDS_INFINITELY_OFTEN = "exceeds-infinitely-often"


@dataclass(frozen=True)
class EventualVerdict:
    """Analytic description of the term/tail comparison pattern.

    after: for EVENTUALLY_BOUND, the last index whose term exceeds its
    tail (0 when none ever does).
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
    view, the same terms in the same order, is the self-similar view of
    reordered when integer_view finds one, else reordered; numerators is
    that view's integer model from integer_view, else None. Both are
    derived and take no part in repr or equality.
    """

    eventual: Optional[EventualVerdict]
    reordered: SequenceSpec
    view: SequenceSpec = field(repr=False, compare=False)
    pseries_exceed_through: Optional[int] = None
    pseries_bound_from: Optional[int] = None
    numerators: Optional[ViewNumerators] = field(default=None, repr=False, compare=False)

    def comparisons(self, count: int) -> tuple:
        """Relations of term n to tail n for n = 1..count.

        With numerators, the prefix relations and then the period pattern,
        repeated; else term_tail_relations on the view, fewer when the
        reordering is a shorter finite spec.
        """
        if self.numerators is None:
            return term_tail_relations(self.view, count)
        head, pattern = self.numerators.relations()
        relations = itertools.chain(head, itertools.cycle(pattern))
        return tuple(itertools.islice(relations, max(count, 0)))

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

    def reached(n: int) -> bool:
        return (n + 1) * Fraction(n, n + 1) ** p >= p - 1

    # Double past the threshold, then bisect: below < N <= above.
    below, above = 0, 1
    while not reached(above):
        below, above = above, 2 * above
    while above - below > 1:
        mid = (below + above) // 2
        if reached(mid):
            above = mid
        else:
            below = mid
    return above


def _region_verdict(head: tuple, pattern: tuple, proof: str) -> EventualVerdict:
    """Combine the head relations with an analytic periodic region.

    pattern holds the relations of one period of the indices past the
    head; it repeats forever, so it decides the infinite behaviour.
    """
    exceed = TermTailRelation.TERM_EXCEEDS_TAIL
    exceeds = [n for n, rel in enumerate(head, 1) if rel is exceed]
    if exceed in pattern:
        if all(rel is exceed for rel in pattern) and len(exceeds) == len(head):
            return EventualVerdict(EventualKind.ALL_EXCEED, proof, exceed_count=None)
        return EventualVerdict(EventualKind.EXCEEDS_INFINITELY_OFTEN, proof)
    return EventualVerdict(
        EventualKind.EVENTUALLY_BOUND,
        proof,
        after=max(exceeds, default=0),
        exceed_count=len(exceeds),
    )


def _analytic_eventual(view: SequenceSpec):
    """Eventual verdict for a view with no integer model, or None when unavailable.

    Returns (verdict, pseries thresholds) so the profile can expose the
    power-sum constants (p - 1, N). A power sum's head is its prefix and
    its terms 1/k^p with k < N, compared in one term_tail_relations pass;
    every later tail bounds its term.
    """
    kind = view.tail
    if not isinstance(kind, PowerSumTail) or kind.exponent == 1:
        # An infinite tail bounds every term, but divergent specs are
        # classified by summability, not by gap analysis.
        return None, None
    threshold = _pseries_bound_threshold(kind.exponent)
    head_count = len(view.prefix) + max(threshold - kind.start, 0)
    head = term_tail_relations(view, head_count)
    verdict = _region_verdict(head, (TermTailRelation.TAIL_BOUNDS_TERM,), "pseries-monotone")
    return verdict, (kind.exponent - 1, threshold)


def term_tail_profile(spec) -> TermTailProfile:
    """Term/tail profile of a positive spec or merge.

    The input goes through positive_spec (ValueError when a merge has a
    negative part) and is reordered non-increasingly. integer_view reads
    its self-similar view and the view's numerators once; the eventual
    verdict is their prefix relations and period pattern (term i past the
    prefix exceeds its tail X_i exactly when its proportion is above 1/2).
    Without a view, a power sum compares only the indices the verdict
    needs; TermTailProfile.comparisons computes the pointwise relations on
    demand.
    """
    reordered = nonincreasing_reorder(positive_spec(spec))
    found = integer_view(reordered)
    if found is None:
        eventual, thresholds = _analytic_eventual(reordered)
        return TermTailProfile(eventual, reordered, reordered, *(thresholds or (None, None)))
    view, numerators = found
    eventual = _region_verdict(*numerators.relations(), "multigeometric-period")
    return TermTailProfile(eventual, reordered, view, numerators=numerators)


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
    if spec.prefix:
        raise NotDigitForm("digit strands need a prefix-free spec")
    strands = geometric_strands(spec.tail)
    if strands is None:
        raise NotDigitForm("terms are not geometric strands with one ratio")
    heads, ratio = strands
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

    hull_hi is the positive part's upper sum, hull_lo minus the |negative
    part|'s; None marks an infinite side. translation, the negative part's
    sum, shifts the absolute-value subsum set onto this one; None when that
    sum is not exact.
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


def _exact_component_count(
    spec, stabilized_depth, lower: int = 1, numerators: Optional[ViewNumerators] = None
) -> Optional[int]:
    """Component count of the stabilized cover, when it can be pinned.

    The cover stops splitting after the last gap index, so its component
    count at that depth is the true one. With the view's numerators, that
    count is build_cn's fold of the first stabilized_depth numerators
    widened by the exact rest, with no cover built. With inexact tails the
    lower and upper fattenings sandwich the count; equality at some nearby
    depth pins it. None, with no fold, when lower, a proven lower bound on
    the count, is past COUNT_CAP: the count cannot grow as the fattening
    widens, so every build would exceed the cap or leave the sandwich open.
    """
    if lower > COUNT_CAP:
        return None
    if numerators is not None:
        width = sum(numerators.prefix[stabilized_depth:]) + numerators.tail
        try:
            return len(_fold(numerators.prefix[:stabilized_depth], width, COUNT_CAP)[0])
        except CapExceeded:
            return None
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


def classify(spec) -> Verdict:
    """Classify the subsum set of a (possibly signed, merged) spec.

    Raises CapExceeded when the reordering is a strand merge whose head
    passes self_similar's HEAD_TERM_CAP.
    """
    pos, neg = sign_split(spec)
    plus, minus = pos.total(), neg.total()
    summability = summability_of(plus, minus)
    # The fields every verdict shares; each return builds one Verdict.
    shared = dict(
        summability=summability,
        hull_lo=None if minus.hi is None else -minus.hi,
        hull_hi=plus.hi,
        hull_exact=all(side.exact for side in (plus, minus) if side.hi is not None),
    )
    if summability is SummabilityClass.CONDITIONALLY_SUMMABLE:
        return Verdict(VerdictKind.WHOLE_LINE, **shared)
    if summability is SummabilityClass.UNCONDITIONALLY_UNSUMMABLE:
        return Verdict(VerdictKind.UNBOUNDED_INTERVAL, **shared)
    shared["translation"] = -minus.value if minus.exact else None
    abs_spec = combine_parts((pos, neg))

    finite_count = abs_spec.term_count()
    if finite_count is not None:
        count = _exact_component_count(abs_spec, finite_count)
        # Without a count, the cover was capped: the fold of a finite spec
        # has zero width and its steps only add points, so the final count
        # is past the cap.
        lower, upper = (count, count) if count is not None else (COUNT_CAP + 1, 2**finite_count)
        return Verdict(
            VerdictKind.FINITE_UNION,
            component_lower=lower,
            component_upper=upper,
            component_count=count,
            **shared,
        )

    profile = term_tail_profile(abs_spec)
    shared.update(profile=profile, known_infinitely_many=profile.gaps_recur)
    reordered = profile.reordered
    eventual = profile.eventual
    if eventual is None:
        return Verdict(VerdictKind.UNDETERMINED, **shared)

    if eventual.kind is EventualKind.EVENTUALLY_BOUND:
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
        lower = 2**lower_exp
        return Verdict(
            VerdictKind.FINITE_UNION,
            component_lower=lower,
            component_upper=2**upper_exp,
            component_count=_exact_component_count(
                profile.view, eventual.after, lower, profile.numerators
            ),
            **shared,
        )

    if eventual.kind is EventualKind.ALL_EXCEED:
        return Verdict(VerdictKind.CANTOR_SET, certificate="AllExceed", **shared)

    # Exceeds infinitely often. On a prefix-free two-ratio reordering (the
    # spec itself: reordering a non-monotone one yields a merge), that means
    # one ratio above 1/2 and one not.
    tail = reordered.tail
    if (
        not reordered.prefix
        and isinstance(tail, MultiGeometricTail)
        and len(tail.heads) == 2
        and tail.period_factor < QUARTER
    ):
        return Verdict(VerdictKind.CANTOR_SET, certificate="LambdaBelowQuarter", **shared)

    try:
        digit_base, numerators = digit_form(reordered)
    except NotDigitForm:
        return Verdict(VerdictKind.UNDETERMINED, **shared)
    certificate = digit_coverage_test(digit_base, numerators)
    if certificate is None:
        return Verdict(VerdictKind.UNDETERMINED, **shared)
    return Verdict(
        VerdictKind.SYMMETRIC_CANTORVAL,
        certificate="DigitCoverage",
        strength="Proven" if reordered == abs_spec else "PaperPresumed",
        digit_certificate=certificate,
        **shared,
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
    cover = build_cn(profile.view, depth)
    if not cover.tail_exact:
        raise NotApplicable("cover endpoints need exact tails")
    union = cover.fattened
    return tuple(Fraction(p, union.den) for p in sorted({*union.lo, *union.hi}))
