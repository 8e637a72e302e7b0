"""Brute-force ground truth for the cover construction, and point probes.

subset_sums and oracle_cn enumerate the subset sums of a truncation one
mask at a time: the masks are visited in Gray-code order, so each sum is
the previous one plus or minus one term, on integer numerators over the
terms' common denominator (only that conversion is shared with the
fold). subset_sums returns the distinct sums as a sorted tuple. The
package uses that enumeration nowhere else: build_cn gets its covers and
its subset sums from the component fold. oracle_cn also sorts the sums
and merges the intervals [s, s + X_n] itself, without the interval
normalization. So they can cross-check build_cn and the signed
reduction. membership_probe is the exception: a third algorithm,
independent of both, that follows only the residuals of one point
through a pruned search, on integer numerators over the common
denominator of the point and the terms. An exact spec gives it every
tail bound by subtraction, X_n = X_0 - (x_1 + ... + x_n), and past a
finite spec's last term X_n stays 0, so the search ends with the terms;
a power-sum spec reads its bound at each depth the search reaches. The
depth limit keeps runs at desk scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DepthLimit, DivergentTail
from .intervals import IntervalUnion
from .rational import as_fraction, over_common_denominator
from .sequences import positive_spec

DEPTH_LIMIT = 20


def check_depth(n: int) -> None:
    """Raise DepthLimit when n is past the enumeration limit."""
    if n > DEPTH_LIMIT:
        raise DepthLimit(f"oracle depth {n} exceeds the hard limit {DEPTH_LIMIT}")


def _subset_sum_numerators(numerators: list) -> list:
    """The sum of every subset of the numerators, one per mask.

    Mask k of the reflected Gray code differs from mask k - 1 in bit b,
    the lowest set bit of k; that bit turns on when k >> (b + 1) is even
    and off when it is odd. So each sum takes one addition.
    """
    total = 0
    sums = [total]
    for k in range(1, 1 << len(numerators)):
        b = (k & -k).bit_length() - 1
        if k >> (b + 1) & 1:
            total -= numerators[b]
        else:
            total += numerators[b]
        sums.append(total)
    return sums


def _sorted_sums(spec, n: int, den: int = 1) -> tuple:
    """A common denominator of den and the first n terms, and the distinct
    subset sums of those terms as sorted numerators over it."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_depth(n)
    den, numerators = over_common_denominator(list(itertools.islice(spec.terms(), n)), den)
    return den, sorted(set(_subset_sum_numerators(numerators)))


def subset_sums(spec, n: int) -> tuple:
    """Every distinct subset sum of the first n terms (signed allowed), sorted."""
    den, sums = _sorted_sums(spec, n)
    return tuple(Fraction(s, den) for s in sums)


def oracle_cn(spec, n: int) -> IntervalUnion:
    """Fattened depth-n cover computed purely by enumeration.

    Takes the specs build_cn takes, all-positive merges included.
    """
    spec = positive_spec(spec)
    tail = spec.tail_sum(n)
    if tail.hi is None:
        raise DivergentTail("the sequence is not summable")
    den, sums = _sorted_sums(spec, n, tail.hi.denominator)
    width = tail.hi.numerator * (den // tail.hi.denominator)
    lo: list = []
    hi: list = []
    for s in sums:
        if hi and s <= hi[-1]:
            hi[-1] = s + width
        else:
            lo.append(s)
            hi.append(s + width)
    return IntervalUnion.from_numerators(den, lo, hi)


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of probing covers at increasing depth.

    excluded_at is the first depth whose cover misses the point, a proof
    of non-membership; None means the point stayed inside every tested
    cover, which is evidence of membership, not proof.
    """

    point: Fraction
    depth: int
    excluded_at: Optional[int]

    @property
    def in_all_tested(self) -> bool:
        return self.excluded_at is None


def membership_probe(spec, point, depth: int) -> MembershipResult:
    """Test the point against the fattened covers at depths 0..depth.

    The point lies in C_n exactly when some subset sum s of x_1..x_n leaves
    a residual point - s in [0, X_n], X_n = tail_sum(n).hi. The search keeps
    the frontier of such residuals level by level: at depth n >= 1 each
    residual r branches into r and r - x_n (no branch past a finite spec's
    last term), and at every depth only residuals in [0, X_n] survive,
    deduplicated. excluded_at is the first depth whose frontier is empty.

    Pruning loses nothing because the covers are nested: for every tail
    kind X_{n-1} >= x_n + X_n. Finite, geometric and multi-geometric tails
    and prefixes meet it with equality. Past the explicit first term of a
    power sum that starts at k = 1, its bound is the integral of t^-p from
    b to infinity, so X_{n-1} - X_n is the integral over [b, b+1], at
    least x_n = (b+1)^-p. A merge bound is the sum of its parts' bounds at
    their consumed counts; x_n raises one part's count by one, and that
    part's own bound drops by at least x_n. Hence a residual in [0, X_n]
    has every ancestor residual in [0, X_k], k < n, and the frontier at
    depth n is nonempty exactly when the point lies in C_n. The frontier
    is a subset of point - (subset sums of x_1..x_n). Measured on 60
    seeded subsums each, it held at most 2 residuals on gn and 3 on kenyon
    up to depth 32; on power_sum(2) at 1/2 it grows with every level, to
    28,841 at depth 19 and 47,956 at depth 20.

    The search runs on integer numerators over D, the common denominator
    of the point and x_1..x_depth. A residual r stands for r / D, so it
    lies in [0, X_n] exactly when 0 <= r <= floor(X_n D), and no bound has
    to join D. Exactness belongs to the spec: tail_sum(n) is exact for
    every n exactly when tail_sum(0) is, and then X_n = X_0 - (x_1 + ...
    + x_n), so floor(X_n D) is floor(X_0 D) less the numerators read so
    far, one running subtraction. Past a finite spec's last term x_N that
    difference is X_0 - X_0, so X_n stays 0: the frontier is {0} or empty
    at N and no later cover differs from C_N, so the search stops with the
    terms. An inexact (power-sum) spec reads tail_sum(n).hi at each depth
    the search reaches: the integral-test bound is tighter than X_0 -
    (x_1 + ... + x_n), and excluded_at depends on it. A point outside
    [0, X_0] is excluded at depth 0 before any term is read.
    """
    point = as_fraction(point)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > DEPTH_LIMIT:
        raise DepthLimit(f"probe depth {depth} exceeds the hard limit {DEPTH_LIMIT}")
    spec = positive_spec(spec)
    total = spec.tail_sum(0)
    if total.hi is None:
        raise DivergentTail("the sequence is not summable")
    if not 0 <= point <= total.hi:
        return MembershipResult(point, depth, 0)
    den, (at, *xs) = over_common_denominator([point, *itertools.islice(spec.terms(), depth)])
    bound = total.hi.numerator * den // total.hi.denominator
    frontier = {at}
    for n, x in enumerate(xs, 1):
        frontier |= {r - x for r in frontier}
        if total.exact:
            bound -= x
        else:
            hi = spec.tail_sum(n).hi
            bound = hi.numerator * den // hi.denominator
        frontier = {r for r in frontier if 0 <= r <= bound}
        if not frontier:
            return MembershipResult(point, depth, n)
    return MembershipResult(point, depth, None)
