"""Greedy subsequence packing for divergent positive sequences.

Any target r > 0 is a subsequence sum when the terms are positive, tend
to zero and diverge. Rounds work on the exact residual gap g: start at
the first index whose term fits in g, then take consecutive terms while
they fit. The term poking out past the run bounds the new gap, and a
two-case argument (start term above or below g/2) shows each round at
least halves the gap, so finitely many rounds reach any eps.

The terms are non-increasing, so that index is 1 + spec.count_above(g),
which each tail kind gives in closed form. It lies past the last run: that
run stopped at a term that did not fit, and the new gap is below it.

A run is summed on plain integers. Its terms come from the spec's stream
of (numerator, denominator) pairs (SequenceSpec.pairs; a power-sum tail
yields (1, k**p) without building a Fraction), in blocks of 1, 2, 4, ...
terms up to BLOCK_CAP. Each block is summed by a balanced pairwise tree,
one comprehension per level, into an unreduced pair, and added to the
run on the lcm of the two denominators. A block that fits whole is taken
whole; the first block that overshoots is scanned term by term. The run
sum becomes one Fraction per round. A run reads at most RUN_TERM_CAP
terms from its stream and raises CapExceeded before it would read more.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import CapExceeded, NotDivergent
from .rational import as_fraction
from .sequences import SequenceSpec, is_nonincreasing, positive_spec

DEFAULT_MAX_ROUNDS = 64
# Largest block of a run summed at once: past it the unreduced block sum
# grows faster than the additions it saves. A power of two, as _block_sum
# needs.
BLOCK_CAP = 256
# Most terms one run may read. The harmonic series needs a first run of
# about e^(target - 0.58) terms, and the exact gap's digits grow with it:
# target 12 (91,379 terms) fits, target 13 (248,396 terms) raises.
RUN_TERM_CAP = 1 << 17


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


def _add(num: int, den: int, a: int, b: int) -> tuple:
    """num/den + a/b as an unreduced pair over lcm(den, b)."""
    g = gcd(den, b)
    return num * (b // g) + a * (den // g), den // g * b


def _block_sum(block: list) -> tuple:
    """Sum of the block's (numerator, denominator) pairs, unreduced.

    A balanced tree: each level adds neighbouring pairs on the lcm of
    their denominators, as _add does, in one comprehension. The block
    holds a power-of-two number of pairs (_longest_run reads blocks of
    1, 2, 4, ... up to BLOCK_CAP from an endless stream), so every level
    pairs up evenly; zip's strict check refuses any other length.
    """
    while len(block) > 1:
        block = [
            (a * (d // g) + c * (b // g), b // g * d)
            for (a, b), (c, d) in zip(block[::2], block[1::2], strict=True)
            for g in (gcd(b, d),)
        ]
    return block[0]


def _longest_run(spec: SequenceSpec, start: int, gap: Fraction) -> tuple:
    """Largest end with term(start) + ... + term(end) <= gap, and that sum.

    start is 1 + spec.count_above(gap), the first index whose term fits.
    The run reads the integer-pair stream of the spec dropped by value,
    spec.drop_above(gap).pairs(), so no term becomes a Fraction and a
    merge is not walked to reach start. Terms are positive, so the partial
    sums of the run strictly increase. A block is taken only when the run
    plus the whole block is at most gap, so every partial sum inside it
    fits too; the first block that overshoots is scanned term by term with
    the same integer test, and the run stops at its first term that does
    not fit. So end is the largest index whose partial sum fits, and the
    returned Fraction is that partial sum exactly. Raises CapExceeded
    before a block would take the terms read past RUN_TERM_CAP.
    """
    gn, gd = gap.numerator, gap.denominator
    pairs = spec.drop_above(gap).pairs()
    num, den = 0, 1
    end = start - 1
    size = 1
    while True:
        if end - start + 1 + size > RUN_TERM_CAP:
            raise CapExceeded(f"run from term {start} reads more than {RUN_TERM_CAP} terms")
        block = list(itertools.islice(pairs, size))
        n2, d2 = _add(num, den, *_block_sum(block))
        if n2 * gd > gn * d2:
            break
        num, den = n2, d2
        end += size
        size = min(2 * size, BLOCK_CAP)
    for a, b in block:
        n2, d2 = _add(num, den, a, b)
        if n2 * gd > gn * d2:
            break
        num, den = n2, d2
        end += 1
    return end, Fraction(num, den)


def fill(
    spec,
    target,
    eps,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> FillResult:
    """Pack target to within eps by greedy runs of consecutive terms.

    Takes a positive spec, or a merge of positive specs, whose terms are
    those of their non-increasing merge (positive_spec).
    """
    target = as_fraction(target)
    eps = as_fraction(eps)
    if target <= 0:
        raise ValueError("target must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    spec = positive_spec(spec)
    if spec.total().hi is not None:
        raise NotDivergent("fill needs a divergent positive sequence")
    if not is_nonincreasing(spec):
        raise ValueError("fill needs a non-increasing spec")

    runs = []
    gaps = []
    gap = target
    while gap >= eps and len(runs) < max_rounds:
        start = 1 + spec.count_above(gap)
        end, run_sum = _longest_run(spec, start, gap)
        gap -= run_sum
        runs.append((start, end))
        gaps.append(gap)
        if gap == 0:
            break
    return FillResult(
        runs=tuple(runs),
        gaps=tuple(gaps),
        achieved=target - gap,
        target=target,
        hit_round_limit=gap >= eps,
    )
