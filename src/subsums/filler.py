"""Greedy subsequence packing for divergent positive sequences.

Any target r > 0 is a subsequence sum when the terms are positive, tend
to zero and diverge. Rounds work on the exact residual gap g: start at
the first index whose term fits in g, then take consecutive terms while
they fit. The term poking out past the run bounds the new gap, and a
two-case argument (start term above or below g/2) shows each round at
least halves the gap, so finitely many rounds reach any eps.

The terms are non-increasing, so that index is 1 + spec.count_above(g),
which each tail kind gives in closed form; spec.split_above(g) gives it
with the spec less those terms, counting each merge part once. It lies
past the last run: that run stopped at a term that did not fit.

A run is summed on plain integers. Its terms come from the rest's stream
of (numerator, denominator) pairs (a power-sum tail yields (1, k**p)
without building a Fraction), in blocks of 1, 2, 4, ... terms up to
BLOCK_CAP, each summed by rational.sum_tree into an unreduced pair. A
block that fits whole is taken whole; the first block that overshoots is
not scanned but descended, taking a left half whenever the run plus it
fits, so each term is added once, in the tree. The run sum becomes one
Fraction per round. A run reads at most RUN_TERM_CAP terms from its
stream and raises CapExceeded before it would read more.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import CapExceeded, NotDivergent
from .rational import as_fraction, sum_tree
from .sequences import is_nonincreasing, positive_spec

DEFAULT_MAX_ROUNDS = 64
# Largest block of a run summed at once: past it the unreduced block sum
# grows faster than the additions it saves.
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


def _longest_run(pairs, start: int, gap: Fraction) -> tuple:
    """Largest end with term(start) + ... + term(end) <= gap, and that sum.

    start is the first index whose term fits, and pairs the integer-pair
    stream from there on. Terms are positive, so the partial sums of the
    run strictly increase. A block is taken only when the run plus the whole
    block is at most gap, so every partial sum inside it fits too. The first
    block that overshoots is descended from its root, keeping a node that
    overshoots: when the run plus its left half fits, that half is taken
    and the right half overshoots; otherwise the left half does. The leaf
    reached is the first term that does not fit, so end is the largest
    index whose partial sum fits, and the Fraction is that partial sum.
    Raises CapExceeded before a block would take terms past RUN_TERM_CAP.
    """
    gn, gd = gap.numerator, gap.denominator
    num, den = 0, 1
    end, size = start - 1, 1
    while True:
        if end - start + 1 + size > RUN_TERM_CAP:
            raise CapExceeded(f"run from term {start} reads more than {RUN_TERM_CAP} terms")
        tree = sum_tree(itertools.islice(pairs, size))
        n2, d2 = _add(num, den, *tree[-1][0])
        if n2 * gd > gn * d2:
            break
        num, den = n2, d2
        end += size
        size = min(2 * size, BLOCK_CAP)
    node = 0
    for level in range(len(tree) - 2, -1, -1):
        node *= 2
        n2, d2 = _add(num, den, *tree[level][node])
        if n2 * gd <= gn * d2:
            num, den, end, node = n2, d2, end + (1 << level), node + 1
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

    runs, gaps = [], []
    gap = target
    while gap >= eps and len(runs) < max_rounds:
        above, rest = spec.split_above(gap)
        end, run_sum = _longest_run(rest.pairs(), above + 1, gap)
        gap -= run_sum
        runs.append((above + 1, end))
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
