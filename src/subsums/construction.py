"""Depth-n interval covers of the subsum set of a positive summable spec.

The depth-n cover C_n = {0,x_1} + ... + {0,x_n} + [0, X_n] (Minkowski sum,
X_n the tail after n terms) is the union over all subsets of the first n
terms of [s, s + X_n], s the subset's sum. The covers are nested and their
intersection is the subsum set.

_fold computes such a sum from the right: U = [0, w], then U <- U u (U + x_k)
for k = n..1, each step one linear merge of two sorted component lists. The
work follows the component count (about 3^(n/2) for Guthrie-Nymann, 1 for
the halves), not the 2^n subset sums. The fold runs on integer numerators
over one common denominator. build_cn folds with w = X_n and hands the
fold's lo/hi lists to IntervalUnion as they are, which keeps that integer
form, so no Fraction is built per component; subset_sum_starts folds with
w = 0, whose components are the distinct subset sums themselves. It is the
module's only subset-sum algorithm.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import CapExceeded, DivergentTail
from .intervals import IntervalUnion
from .rational import over_common_denominator
from .sequences import SequenceSpec, TailEnclosure, positive_spec

DEFAULT_CAP = 1 << 22


@dataclass(frozen=True)
class CnResult:
    """Depth-n cover: fattened and inner unions, plus the tail used.

    fattened widens each subset sum by the upper tail bound and always
    contains the subsum set; inner (present only when the tail enclosure
    is inexact) widens by the lower bound and is contained in the true
    cover. spec is the positive spec the cover was built from, and cap
    the cap given to build_cn.
    """

    depth: int
    fattened: IntervalUnion
    inner: Optional[IntervalUnion]
    tail_used: TailEnclosure
    spec: SequenceSpec = field(repr=False, compare=False)
    cap: int = field(repr=False, compare=False)

    @property
    def tail_exact(self) -> bool:
        return self.tail_used.exact

    @cached_property
    def left_endpoints(self) -> tuple:
        """Sorted distinct subset sums of the first depth terms.

        Computed on first access by subset_sum_starts, the zero-width fold,
        under the same cap; the cover does not need them.
        """
        return subset_sum_starts(self.spec, self.depth, cap=self.cap)


def _positive(spec, depth: int, cap: int) -> SequenceSpec:
    """Check depth and cap before any work, then take the positive spec."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    return positive_spec(spec)


def subset_sum_starts(spec, depth: int, cap: int = DEFAULT_CAP) -> tuple:
    """Sorted distinct sums of subsets of the first `depth` terms.

    Takes the specs build_cn takes, divergent ones too: the zero-width fold
    needs no tail. Raises CapExceeded when there are more than cap sums (a
    fold step only adds sums, so no step exceeds the cap unless the last
    one does; a step refused before it runs is one that would exceed it).
    """
    spec = _positive(spec, depth, cap)
    den, numerators = over_common_denominator(list(itertools.islice(spec.terms(), depth)))
    sums, _ = _fold(numerators, 0, cap)
    return tuple(Fraction(s, den) for s in sums)


def _fold_step(lo: list, hi: list, x: int, head: int, tail: int) -> tuple:
    """Components of U u (U + x) for U given as sorted lo/hi lists.

    U's components are disjoint with strict gaps and U starts at 0, so
    those ending below x meet no shifted component, and shifted ones
    starting past U's end meet no original one: both runs are copied, and
    each copied component stays a component of the result. The first head
    components end below x, those from index tail on start past
    hi[-1] - x. The rest is a two-pointer merge that coalesces overlapping
    or abutting pairs, the rule the IntervalUnion constructor uses.
    """
    n = len(lo)
    out_lo, out_hi = lo[:head], hi[:head]
    i, j = head, 0
    while i < n or j < tail:
        if j == tail or (i < n and lo[i] <= lo[j] + x):
            a, b = lo[i], hi[i]
            i += 1
        else:
            a, b = lo[j] + x, hi[j] + x
            j += 1
        if out_hi and a <= out_hi[-1]:
            if b > out_hi[-1]:
                out_hi[-1] = b
        else:
            out_lo.append(a)
            out_hi.append(b)
    out_lo += [v + x for v in lo[tail:]]
    out_hi += [v + x for v in hi[tail:]]
    return out_lo, out_hi


def _fold(numerators: list, width: int, cap: int) -> tuple:
    """{0,x_1} + ... + {0,x_n} + [0, width], folded right to left.

    numerators are those of x_1..x_n, and width is a numerator over the
    same denominator. Returns the components' sorted lo/hi lists. A step
    whose two copied runs already hold more than cap components raises
    CapExceeded before it builds its lists; any other step is checked
    after it.
    """
    lo, hi = [0], [width]
    n = len(numerators)
    for k in range(n, 0, -1):
        x = numerators[k - 1]
        head, tail = bisect_left(hi, x), bisect_right(lo, hi[-1] - x)
        if head + len(lo) - tail <= cap:
            lo, hi = _fold_step(lo, hi, x, head, tail)
            if len(lo) <= cap:
                continue
        raise CapExceeded(f"component cap {cap} exceeded at term {k} of {n}")
    return lo, hi


def build_cn(spec, depth: int, cap: int = DEFAULT_CAP) -> CnResult:
    """Build the depth-n cover of the subsum set.

    Takes a positive summable spec, or a merge of positive specs, whose
    cover is that of their non-increasing merge. Raises ValueError for a
    cap below 1 or a merge with a negative part, DivergentTail for a
    divergent spec, and CapExceeded when a fold step leaves more than cap
    components.
    """
    spec = _positive(spec, depth, cap)
    tail = spec.tail_sum(depth)
    if tail.hi is None:
        raise DivergentTail("the sequence is not summable")
    terms = list(itertools.islice(spec.terms(), depth))
    den, (*numerators, low, high) = over_common_denominator(terms + [tail.lo, tail.hi])

    def cover(width: int) -> IntervalUnion:
        return IntervalUnion.from_numerators(den, *_fold(numerators, width, cap))

    fattened = cover(high)
    inner = None if tail.exact else cover(low)
    return CnResult(depth, fattened, inner, tail, spec, cap)
