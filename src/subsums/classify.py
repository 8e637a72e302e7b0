"""Classification of subsum sets with explicit certificates.

classify splits signs once and tries these rules in order; the first
that fires gives the verdict:

1. summability: a sequence that is not absolutely summable gives the
   whole line (both parts diverge) or a half line (one part diverges);
2. finite spec -> finite union of closed intervals, counted by one
   integer fold of its terms;
3. tail bounds term from some index on -> finite union of closed
   intervals (component count between 2^(#gap events) and 2^(last gap
   index), pinned by agreeing bounds, else by one integer fold at the
   last gap index widened by the tail; see _component_count);
4. term exceeds tail at every index -> Cantor set;
5. prefix-free non-increasing two-ratio tail whose two-step contraction
   is below 1/4 -> Cantor set (cover component lengths die out
   geometrically);
6. integer digit strands over a base whose subset sums cover every
   residue, plus a periodic gap pattern -> symmetric Cantorval (coverage
   is the whole certificate: digit strings over a complete residue
   system are injective mod 1, as digit_coverage_test proves).

Rules 3-6 read the term/tail profile of the non-increasing reordering,
and the profile reads each kind of spec only through its model. A strand
merge or a multi-geometric tail is read through the integer numerators
of its self-similar view (integer_view), with no walk of the merge and
no Fraction of the view built: the eventual verdict, the relations and
rule 3's fold read the numerators. A power sum's relations are its
prefix, compared index by index, and one switch index past it, found by
bisection; its fold reads its terms. Only one_point_components builds
covers, on the reordering; rules 5 and 6 read the reordering's own shape.
Signed sequences are reduced by splitting signs: the subsum set is the
absolute-value subsum set (combine_parts of both parts) translated by the
sum of the negative part.
Anything not certified is reported Undetermined, never guessed.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from .construction import DEFAULT_CAP, _fold, build_cn
from .errors import CapExceeded, NotApplicable, NotDigitForm
from .rational import over_common_denominator
from .sequences import (
    EMPTY,
    REFINEMENT_STEPS,
    ZERO,
    MultiGeometricTail,
    PowerSumTail,
    SequenceSpec,
    SummabilityClass,
    TermTailRelation,
    ViewNumerators,
    combine_parts,
    compare_term_tail,
    geometric_strands,
    integer_view,
    nonincreasing_reorder,
    positive_spec,
    sign_split,
    summability_of,
    term_tail_relations,
)

# Component cap of the folds classify runs to count components.
COUNT_CAP = 1 << 18


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

    eventual is the analytic verdict on every index. numerators is the
    integer model of reordered's self-similar view (integer_view) when it
    has one, else None; relations is the (head, period pattern) pair that
    proved eventual, else None. These two are derived and take no part in
    repr or equality. The view itself, the same terms in the same order,
    is self_similar(reordered), built only when a caller asks for it.
    """

    eventual: Optional[EventualVerdict]
    reordered: SequenceSpec
    pseries_exceed_through: Optional[int] = None
    pseries_bound_from: Optional[int] = None
    numerators: Optional[ViewNumerators] = field(default=None, repr=False, compare=False)
    relations: Optional[tuple] = field(default=None, repr=False, compare=False)

    def comparisons(self, count: int) -> tuple:
        """Relations of term n to tail n for n = 1..count.

        With proven relations, the head and then the period pattern,
        repeated; else term_tail_relations on the reordering, fewer when it
        is a shorter finite spec.
        """
        if self.relations is None:
            return term_tail_relations(self.reordered, count)
        head, pattern = self.relations
        relations = itertools.chain(head, itertools.cycle(pattern))
        return tuple(itertools.islice(relations, max(count, 0)))

    @property
    def gaps_recur(self) -> bool:
        """Whether terms are proven to exceed their tails infinitely often."""
        return self.eventual is not None and self.eventual.kind in (
            EventualKind.ALL_EXCEED,
            EventualKind.EXCEEDS_INFINITELY_OFTEN,
        )


def _pseries_bound_threshold(p: int) -> int:
    """Least N with (N+1) * (N/(N+1))^p >= p - 1.

    The left side is strictly increasing in N, so tails bound terms for
    every index >= N. By Bernoulli, (1 - 1/(N+1))^p >= 1 - p/(N+1), so it
    is at least N + 1 - p: N <= 2p - 2, found by bisecting 1 .. 2p - 3.
    """

    def reached(n: int) -> bool:
        return (n + 1) * Fraction(n, n + 1) ** p >= p - 1

    return 1 + bisect.bisect_left(range(1, max(2 * p - 2, 1)), True, key=reached)


def _region_verdict(head: tuple, pattern: tuple, proof: str) -> EventualVerdict:
    """Combine the head relations with an analytic periodic region.

    pattern holds the relations of one period of the indices past the
    head; it repeats forever, so it decides the infinite behaviour.
    """
    exceed = TermTailRelation.TERM_EXCEEDS_TAIL
    exceeds = [n for n, rel in enumerate(head, 1) if rel is exceed]
    if exceed in pattern:
        if TermTailRelation.TAIL_BOUNDS_TERM not in pattern and len(exceeds) == len(head):
            return EventualVerdict(EventualKind.ALL_EXCEED, proof, exceed_count=None)
        return EventualVerdict(EventualKind.EXCEEDS_INFINITELY_OFTEN, proof)
    return EventualVerdict(
        EventualKind.EVENTUALLY_BOUND,
        proof,
        after=max(exceeds, default=0),
        exceed_count=len(exceeds),
    )


def _power_sum_profile(reordered: SequenceSpec) -> TermTailProfile:
    """Profile of a reordering with no integer view; only a power sum gets
    a verdict. Its head is its prefix, compared index by index, then the
    terms 1/k^p, k < N, that exceed their tails: 1/k^p exceeds its tail
    exactly when sum_(j>=1) (k/(k+j))^p < 1, a sum strictly increasing in
    k, so one bisect_left finds where exceed turns to bound. Every later
    tail bounds its term, so the pattern is one bound. Keeps (p - 1, N).
    """
    kind = reordered.tail
    if not isinstance(kind, PowerSumTail) or kind.exponent == 1:
        # An infinite tail bounds every term, but divergent specs are
        # classified by summability, not by gap analysis.
        return TermTailProfile(None, reordered)
    threshold = _pseries_bound_threshold(kind.exponent)
    n = len(reordered.prefix)
    bound = TermTailRelation.TAIL_BOUNDS_TERM
    indices = range(n + 1, n + max(threshold - kind.start, 0) + 1)
    switch = bisect.bisect_left(
        indices, True, key=lambda i: compare_term_tail(reordered, i) is bound
    )
    head = term_tail_relations(reordered, n) + (TermTailRelation.TERM_EXCEEDS_TAIL,) * switch
    relations = (head, (bound,))
    eventual = _region_verdict(*relations, "pseries-monotone")
    thresholds = (kind.exponent - 1, threshold)
    return TermTailProfile(eventual, reordered, *thresholds, relations=relations)


def term_tail_profile(spec) -> TermTailProfile:
    """Term/tail profile of a positive spec or merge.

    The input goes through positive_spec (ValueError when a merge has a
    negative part) and is reordered non-increasingly. integer_view reads
    its self-similar view's numerators once, and builds no view; the
    eventual verdict is their prefix relations and period pattern (term i
    past the prefix exceeds its tail X_i exactly when its proportion is
    above 1/2). Without a view, a power sum compares only its prefix and
    the indices its bisection probes (_power_sum_profile). Either keeps
    its relations for TermTailProfile.comparisons.
    """
    reordered = nonincreasing_reorder(positive_spec(spec))
    numerators = integer_view(reordered)
    if numerators is None:
        return _power_sum_profile(reordered)
    relations = numerators.relations()
    eventual = _region_verdict(*relations, "multigeometric-period")
    return TermTailProfile(eventual, reordered, numerators=numerators, relations=relations)


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
    1/base: strand j contributes p_j / base^k for k >= 1. The p_j are the
    heads' numerators over one common denominator divided by their gcd, so
    their content is 1, which preserves residue coverage. Raises
    NotDigitForm otherwise.
    """
    if spec.prefix:
        raise NotDigitForm("digit strands need a prefix-free spec")
    strands = geometric_strands(spec.tail)
    if strands is None:
        raise NotDigitForm("terms are not geometric strands with one ratio")
    heads, ratio = strands
    if ratio.numerator != 1 or ratio.denominator < 2:
        raise NotDigitForm(f"strand ratio {ratio} is not 1/base")
    _, numerators = over_common_denominator(heads)
    content = math.gcd(*numerators)
    return ratio.denominator, tuple(n // content for n in numerators)


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
    digits = tuple(_fold(list(numerators), 0, DEFAULT_CAP)[0])
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


def _component_count(spec, after: int, lower: int, upper: int, numerators=None) -> Optional[int]:
    """Component count of the subsum set, or None when it cannot be pinned.

    Proven bounds that agree are the count. A lower bound past COUNT_CAP
    leaves None. Else the first `after` terms are folded on integers
    (_fold), no cover built: a view's numerators widened by their exact
    rest, any other spec widened by both ends of tail_sum(after, extra=e)
    for e in (0,) + REFINEMENT_STEPS, until the two folds agree.

    Why: the tail bounds every term after index a = after, so
    E = S_a + [0, X_a], S_a the distinct subset sums of the first a terms.
    S_a + [0, w] has 1 + #{consecutive gaps of S_a > w} components, never
    more as w grows, and tail_sum(a, extra) brackets X_a ever tighter. At
    depth a + k a fattened cover is the depth-a fold at width
    x_(a+1) + ... + x_(a+k) + hi, and its inner cover has at least as many
    components as the fold at the lower width: this ladder pins every count
    that deeper covers pin.
    """
    if lower == upper:
        return lower
    if lower > COUNT_CAP:
        return None
    try:
        if numerators is not None:
            width = sum(numerators.prefix[after:]) + numerators.tail
            return len(_fold(numerators.prefix[:after], width, COUNT_CAP)[0])
        terms = list(itertools.islice(spec.terms(), after))
        for extra in (0,) + REFINEMENT_STEPS:
            tail = spec.tail_sum(after, extra=extra)
            _, (*heads, lo, hi) = over_common_denominator(terms + [tail.lo, tail.hi])
            count = len(_fold(heads, hi, COUNT_CAP)[0])
            if tail.exact or count == len(_fold(heads, lo, COUNT_CAP)[0]):
                return count
    except CapExceeded:
        pass
    return None


def classify(spec) -> Verdict:
    """Classify the subsum set of a (possibly signed, merged) spec.

    Raises CapExceeded when the reordering is a strand merge whose head
    passes self_similar's HEAD_TERM_CAP.
    """
    pos, neg = sign_split(spec)
    plus, minus = pos.total(), neg.total()
    summability = summability_of(plus, minus)
    # -|negative part|'s upper sum; with no negative part it is ZERO itself.
    low = None if minus.hi is None else ZERO if minus.hi is ZERO else -minus.hi
    # The fields every verdict shares; each return builds one Verdict.
    shared = dict(
        summability=summability,
        hull_lo=low,
        hull_hi=plus.hi,
        hull_exact=(plus.hi is None or plus.exact) and (minus.hi is None or minus.exact),
    )
    if summability is SummabilityClass.CONDITIONALLY_SUMMABLE:
        return Verdict(VerdictKind.WHOLE_LINE, **shared)
    if summability is SummabilityClass.UNCONDITIONALLY_UNSUMMABLE:
        return Verdict(VerdictKind.UNBOUNDED_INTERVAL, **shared)
    shared["translation"] = low if minus.exact else None
    abs_spec = pos if neg is EMPTY else combine_parts((pos, neg))

    finite_count = abs_spec.term_count()
    if finite_count is not None:
        count = _component_count(abs_spec, finite_count, 1, 2**finite_count)
        # Without a count, the fold was capped: the fold of a finite spec
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
        lower, upper = 2**lower_exp, 2**upper_exp
        return Verdict(
            VerdictKind.FINITE_UNION,
            component_lower=lower,
            component_upper=upper,
            component_count=_component_count(
                reordered, eventual.after, lower, upper, profile.numerators
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
        and 4 * tail.period_factor.numerator < tail.period_factor.denominator
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
    cover = build_cn(profile.reordered, depth)
    if not cover.tail_exact:
        raise NotApplicable("cover endpoints need exact tails")
    union = cover.fattened
    return tuple(Fraction(p, union.den) for p in sorted({*union.lo, *union.hi}))
