"""Finite unions of closed rational intervals.

Unions are kept normalized: intervals sorted by left endpoint, pairwise
disjoint with strict gaps (overlapping or abutting intervals are merged).
Degenerate one-point intervals are allowed. The text serialization is one
interval per line, "left right", both exact rationals.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import EmptyUnion
from .rational import as_fraction, format_rational

ZERO = Fraction(0)


@dataclass(frozen=True)
class ClosedInterval:
    left: Fraction
    right: Fraction

    def __post_init__(self):
        left = as_fraction(self.left)
        right = as_fraction(self.right)
        if left > right:
            raise ValueError(f"interval out of order: [{left}, {right}]")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def contains(self, point: Fraction) -> bool:
        return self.left <= point <= self.right


@dataclass(frozen=True)
class IntervalUnion:
    """Normalized union; construct via normalize() or union()."""

    intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def components(self) -> int:
        return len(self.intervals)

    @property
    def total_length(self) -> Fraction:
        return sum((iv.length for iv in self.intervals), start=ZERO)

    def hull(self) -> ClosedInterval:
        if not self.intervals:
            raise EmptyUnion("empty union has no hull")
        return ClosedInterval(self.intervals[0].left, self.intervals[-1].right)

    def contains(self, point) -> bool:
        point = as_fraction(point)
        lefts = [iv.left for iv in self.intervals]
        idx = bisect_right(lefts, point) - 1
        return idx >= 0 and point <= self.intervals[idx].right


EMPTY_UNION = IntervalUnion(())


def normalize(intervals: Iterable[ClosedInterval]) -> IntervalUnion:
    """Sort, merge overlapping or abutting intervals, and dedupe."""
    items = sorted(intervals, key=lambda iv: (iv.left, iv.right))
    merged: list[ClosedInterval] = []
    for iv in items:
        if merged and iv.left <= merged[-1].right:
            last = merged[-1]
            if iv.right > last.right:
                merged[-1] = ClosedInterval(last.left, iv.right)
        else:
            merged.append(iv)
    return IntervalUnion(tuple(merged))


def union(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    return normalize(tuple(a) + tuple(b))


def reflect(u: IntervalUnion, total) -> IntervalUnion:
    """Image of the union under x -> total - x."""
    total = as_fraction(total)
    return IntervalUnion(
        tuple(
            ClosedInterval(total - iv.right, total - iv.left)
            for iv in reversed(tuple(u))
        )
    )


def is_subset(a: IntervalUnion, b: IntervalUnion) -> bool:
    """Whether every point of a lies in b.

    b's components are disjoint with strict gaps, so each component of a
    must sit inside a single component of b.
    """
    lefts = [iv.left for iv in b]
    for iv in a:
        idx = bisect_right(lefts, iv.left) - 1
        if idx < 0 or iv.right > b.intervals[idx].right:
            return False
    return True


def to_text(u: IntervalUnion) -> str:
    lines = [
        f"{format_rational(iv.left)} {format_rational(iv.right)}" for iv in u
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def from_text(text: str) -> IntervalUnion:
    raw = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'left right', got {line!r}")
        raw.append(ClosedInterval(as_fraction(parts[0]), as_fraction(parts[1])))
    return normalize(raw)
