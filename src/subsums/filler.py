"""Greedy subsequence packing for divergent positive sequences.

Any target r > 0 is a subsequence sum when the terms are positive, tend
to zero and diverge. Rounds work on the exact residual gap g: start at
the first unused index whose term fits in g, then take consecutive terms
while they fit. The term poking out past the run bounds the new gap, and
a two-case argument (start term above or below g/2) shows each round at
least halves the gap, so finitely many rounds reach any eps.

A run is summed on plain integers. Its terms come from one stream, in
blocks of 1, 2, 4, ... terms up to BLOCK_CAP; each block is summed by a
balanced pairwise tree into an unreduced numerator/denominator pair and
added to the run on the lcm of the two denominators. A block that fits
whole is taken whole; the first block that overshoots is scanned term by
term. The run sum becomes one Fraction per round.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NotDivergent
from .rational import as_fraction
from .sequences import SequenceSpec, drop_first, is_nonincreasing

DEFAULT_MAX_ROUNDS = 64
# Largest block of a run summed at once: past it the unreduced block sum
# grows faster than the additions it saves.
BLOCK_CAP = 256


@dataclass(frozen=True)
class FillResult:
    """Certified packing of a target by runs of consecutive terms.

    runs holds inclusive index pairs (start, end), strictly increasing
    and disjoint. gaps holds the exact residual after each round, so
    achieved + gaps[-1] == target and consecutive gaps at least halve.
    hit_round_limit marks a result cut off by max_rounds before the gap
    dropped below eps.
    """

    runs: tuple
    gaps: tuple
    achieved: Fraction
    target: Fraction
    hit_round_limit: bool = False


def _first_index_fitting(spec: SequenceSpec, lowest: int, gap: Fraction) -> int:
    """Smallest index >= lowest whose term is at most gap.

    Terms are non-increasing and tend to zero, so the predicate is
    monotone and a doubling search plus bisection finds the boundary.
    """
    if spec.term(lowest) <= gap:
        return lowest
    hi = lowest + 1
    while spec.term(hi) > gap:
        hi = 2 * hi
    lo = lowest
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if spec.term(mid) <= gap:
            hi = mid
        else:
            lo = mid
    return hi


def _add(num: int, den: int, a: int, b: int) -> tuple:
    """num/den + a/b as an unreduced pair over lcm(den, b)."""
    g = gcd(den, b)
    return num * (b // g) + a * (den // g), den // g * b


def _block_sum(block: list) -> tuple:
    """Sum of the block's terms as an unreduced pair, by a balanced tree."""
    pairs = [(term.numerator, term.denominator) for term in block]
    while len(pairs) > 1:
        merged = [_add(*pairs[i], *pairs[i + 1]) for i in range(0, len(pairs) - 1, 2)]
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    return pairs[0]


def _longest_run(spec: SequenceSpec, start: int, gap: Fraction) -> tuple:
    """Largest end with term(start) + ... + term(end) <= gap, and that sum.

    term(start) must be at most gap. Terms are positive, so the partial
    sums of the run strictly increase. A block is taken only when the run
    plus the whole block is at most gap, so every partial sum inside it
    fits too; the first block that overshoots is scanned term by term with
    the same integer test, and the run stops at its first term that does
    not fit. So end is the largest index whose partial sum fits, and the
    returned Fraction is that partial sum exactly.
    """
    gn, gd = gap.numerator, gap.denominator
    terms = drop_first(spec, start - 1).terms()
    num, den = 0, 1
    end = start - 1
    size = 1
    while True:
        block = list(itertools.islice(terms, size))
        n2, d2 = _add(num, den, *_block_sum(block))
        if n2 * gd > gn * d2:
            break
        num, den = n2, d2
        end += size
        size = min(2 * size, BLOCK_CAP)
    for term in block:
        n2, d2 = _add(num, den, term.numerator, term.denominator)
        if n2 * gd > gn * d2:
            break
        num, den = n2, d2
        end += 1
    return end, Fraction(num, den)


def fill(
    spec: SequenceSpec,
    target,
    eps,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> FillResult:
    """Pack target to within eps by greedy runs of consecutive terms."""
    target = as_fraction(target)
    eps = as_fraction(eps)
    if target <= 0:
        raise ValueError("target must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if spec.negated:
        raise ValueError("fill needs a positive spec")
    if not spec.divergent:
        raise NotDivergent("fill needs a divergent positive sequence")
    if not is_nonincreasing(spec):
        raise ValueError("fill needs a non-increasing spec")

    runs = []
    gaps = []
    achieved = Fraction(0)
    gap = target
    next_free = 1
    while gap >= eps and len(runs) < max_rounds:
        start = _first_index_fitting(spec, next_free, gap)
        end, run_sum = _longest_run(spec, start, gap)
        achieved += run_sum
        gap -= run_sum
        runs.append((start, end))
        gaps.append(gap)
        next_free = end + 1
        if gap == 0:
            break
    return FillResult(
        runs=tuple(runs),
        gaps=tuple(gaps),
        achieved=achieved,
        target=target,
        hit_round_limit=gap >= eps,
    )
