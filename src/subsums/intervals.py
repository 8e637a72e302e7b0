"""Finite unions of closed rational intervals.

Unions are kept normalized: intervals sorted by left endpoint, pairwise
disjoint with strict gaps (overlapping or abutting intervals are merged);
the IntervalUnion constructor is the one place that normalizes.
Degenerate one-point intervals are allowed. A union is stored as integer
numerators over one denominator, in lowest terms, so equal unions have
equal fields; every query and the text output work on the numerators, and
ClosedIntervals of Fractions are built only when a caller iterates the
union. The text serialization is one interval per line, "left right",
both exact rationals; format_components writes it, and the CLI's JSON
interval lists, in one pass over the numerators.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import floordiv

from .errors import EmptyUnion
from .rational import as_fraction, over_common_denominator


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


@dataclass(frozen=True, init=False)
class IntervalUnion:
    """Normalized union: components [lo[i]/den, hi[i]/den].

    IntervalUnion(intervals) takes any ClosedIntervals and normalizes
    them. from_numerators() is the constructor for callers that already
    hold normalized numerators (the cover fold and the oracle).
    """

    den: int
    lo: tuple
    hi: tuple

    def __init__(self, intervals):
        """Sort, merge overlapping or abutting intervals, and dedupe."""
        den, ends = over_common_denominator(
            [end for iv in intervals for end in (iv.left, iv.right)]
        )
        lo: list = []
        hi: list = []
        for a, b in sorted(zip(ends[0::2], ends[1::2])):
            if hi and a <= hi[-1]:
                if b > hi[-1]:
                    hi[-1] = b
            else:
                lo.append(a)
                hi.append(b)
        self._set(den, lo, hi)

    @classmethod
    def from_numerators(cls, den: int, lo, hi) -> IntervalUnion:
        """The union of [lo[i]/den, hi[i]/den], components already normalized."""
        union = cls.__new__(cls)
        union._set(den, lo, hi)
        return union

    def _set(self, den: int, lo, hi) -> None:
        g = gcd(den, *lo, *hi)
        if g > 1:
            den //= g
            lo = [v // g for v in lo]
            hi = [v // g for v in hi]
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))

    @property
    def intervals(self) -> tuple:
        den = self.den
        return tuple(
            ClosedInterval(Fraction(a, den), Fraction(b, den))
            for a, b in zip(self.lo, self.hi)
        )

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.lo)

    @property
    def is_empty(self) -> bool:
        return not self.lo

    @property
    def components(self) -> int:
        return len(self.lo)

    @property
    def total_length(self) -> Fraction:
        return Fraction(sum(self.hi) - sum(self.lo), self.den)

    def hull(self) -> ClosedInterval:
        if not self.lo:
            raise EmptyUnion("empty union has no hull")
        return ClosedInterval(Fraction(self.lo[0], self.den), Fraction(self.hi[-1], self.den))

    def contains(self, point) -> bool:
        point = as_fraction(point)
        return self._covers(point.numerator, point.numerator, point.denominator)

    def _covers(self, left: int, right: int, den: int) -> bool:
        """Whether [left/den, right/den] lies inside one component.

        Components are disjoint with strict gaps, so the only candidate is
        the last one starting at or before left/den. Integer endpoints
        compare with a rational as with its floor (lo) or ceiling (hi).
        """
        idx = bisect_right(self.lo, left * self.den // den) - 1
        return idx >= 0 and -(-right * self.den // den) <= self.hi[idx]


EMPTY_UNION = IntervalUnion(())


def reflect(u: IntervalUnion, total) -> IntervalUnion:
    """Image of the union under x -> total - x."""
    total = as_fraction(total)
    den = lcm(u.den, total.denominator)
    scale = den // u.den
    shift = total.numerator * (den // total.denominator)
    return IntervalUnion.from_numerators(
        den,
        [shift - b * scale for b in reversed(u.hi)],
        [shift - a * scale for a in reversed(u.lo)],
    )


def is_subset(a: IntervalUnion, b: IntervalUnion) -> bool:
    """Whether every point of a lies in b: each component of a inside one of b."""
    return all(b._covers(left, right, a.den) for left, right in zip(a.lo, a.hi))


def format_components(u: IntervalUnion, item: str, separator: str = "") -> str:
    """Every component written with item, the items joined by separator.

    item has two "%d%s" slots, left endpoint then right, each filled with
    the endpoint's reduced numerator and a "/q" suffix ("" for a whole
    number), so an endpoint reads as format_rational writes it. The work
    is done in bulk: one gcd with the denominator per endpoint, one suffix
    per distinct gcd (few: they divide the denominator), and a single
    %-format of the whole text.
    """
    den, count = u.den, len(u.lo)
    ends = [0] * (2 * count)
    ends[0::2] = u.lo
    ends[1::2] = u.hi
    gcds = list(map(gcd, ends, repeat(den)))
    suffix = {g: "" if g == den else "/%d" % (den // g) for g in set(gcds)}
    parts = [0] * (4 * count)
    parts[0::2] = map(floordiv, ends, gcds)
    parts[1::2] = map(suffix.__getitem__, gcds)
    return separator.join([item] * count) % tuple(parts)


def to_text(u: IntervalUnion) -> str:
    return format_components(u, "%d%s %d%s\n")


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
    return IntervalUnion(raw)
