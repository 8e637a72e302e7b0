"""Brute-force ground truth for the cover construction.

Everything here enumerates all 2^n subset sums of a truncation, so it can
cross-check the component-fold builder, which never forms them, and the
signed reduction. The depth limit keeps runs at desk scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DepthLimit, DivergentTail
from .intervals import ClosedInterval, IntervalUnion, normalize
from .rational import as_fraction
from .sequences import positive_spec

DEPTH_LIMIT = 20


@dataclass(frozen=True)
class SubsetSumTable:
    """All subset sums of the first n terms, sorted and deduplicated."""

    n: int
    sums: tuple


def _first_terms(spec, n: int) -> list:
    return list(itertools.islice(spec.terms(), n))


def check_depth(n: int) -> None:
    """Raise DepthLimit when n is past the enumeration limit."""
    if n > DEPTH_LIMIT:
        raise DepthLimit(f"oracle depth {n} exceeds the hard limit {DEPTH_LIMIT}")


def subset_sums(spec, n: int) -> SubsetSumTable:
    """Enumerate every subset sum of the first n terms (signed allowed)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_depth(n)
    terms = _first_terms(spec, n)
    sums = {Fraction(0)}
    for x in terms:
        sums = sums | {s + x for s in sums}
    return SubsetSumTable(n, tuple(sorted(sums)))


def oracle_cn(spec, n: int) -> IntervalUnion:
    """Fattened depth-n cover computed purely by enumeration.

    Takes the specs build_cn takes, all-positive merges included.
    """
    spec = positive_spec(spec)
    tail = spec.tail_sum(n)
    if tail.hi is None:
        raise DivergentTail("the sequence is not summable")
    table = subset_sums(spec, n)
    return normalize(ClosedInterval(s, s + tail.hi) for s in table.sums)


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
    """Test the point against the fattened covers at depths 0..depth."""
    point = as_fraction(point)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > DEPTH_LIMIT:
        raise DepthLimit(f"probe depth {depth} exceeds the hard limit {DEPTH_LIMIT}")
    for n in range(depth + 1):
        if not oracle_cn(spec, n).contains(point):
            return MembershipResult(point, depth, n)
    return MembershipResult(point, depth, None)
