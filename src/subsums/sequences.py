"""Symbolic positive null sequences with exact terms and rigorous tail sums.

A sequence is an explicit finite prefix followed by a structured tail:
finite (none), power-sum (1/k^p), multi-geometric (periodic tail
proportions; one proportion is a geometric tail, which geometric()
builds), or a descending merge of such streams. The four kinds share one
base, _Tail: each defines term or terms and gets the other, plus pairs
(the terms as integer (numerator, denominator) pairs), term_count,
nonincreasing, first and split_above (count_above and the rest); each adds
drop, count_above (how many terms exceed a value, with no walk) and its
tail-sum enclosure, so spec-level functions ask the tail instead of
branching on its kind. Explicit terms are summed by rational.sum_tree.

A multi-geometric tail is its strands: heads h_j and one ratio q, strand
j being h_j q^w. Its proportions and total are read on demand;
multi_geometric builds it from them on integers and keeps them.
geometric_strands reads a tail as strands with one ratio q, and the tails
derived from checked ones (geometric(), drop, the reordering's strands,
self_similar's view) are built from heads and q with nothing re-checked.
_count_above counts a strand's terms above a value on integers, for
count_above and the view's head. Sign and range checks compare integer
numerators. A tail sum is an enclosure [lo, hi], lo finite: exact, a
rigorous bracket (power sums: the integral test, refined by summing more
terms) or divergent, hi None. term_tail_relations
compares each term with its tail: by one running subtraction from an
exact total, through compare_term_tail from an inexact one, with no term
read from a divergent one. integer_view reads self_similar's view as
integers over one closed-form denominator (ViewNumerators); self_similar
builds its Fractions on request.

Every SequenceSpec is positive, and every algorithm built on it (covers,
the oracle, fill, reordering, digit certificates) sees positive terms
only. A sign is stored in one place: a signed sequence is a MergedSpec of
positive parts and negative parts, the latter held as specs of their
absolute values. sign_split returns the two, and summability_of reads
their totals; classify alone negates the negative part's sum.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
import operator
from typing import Iterator, NamedTuple, Optional, Union

from .errors import (
    CapExceeded,
    IndexBeyondFinite,
    IndeterminateComparison,
    UnsupportedExponent,
    UnsupportedKind,
)
from .rational import as_fraction, sum_tree

ZERO = Fraction(0)

# Extra explicit terms summed on each refinement attempt of an inexact
# comparison, in order.
REFINEMENT_STEPS = (8, 32, 128)

# Most merged terms self_similar reads before every strand has started:
# multi_geometric((1/1000, 1/4000), 1) needs 1,111, the 1/10^4 one 11,092.
HEAD_TERM_CAP = 1 << 11

# Most bits of a power b^(2^k) that _count_above builds, for q = a/b.
_POWER_BITS_CAP = 1 << 22

# (numerator, denominator) of a Fraction, already in lowest terms.
_as_pair = Fraction.as_integer_ratio
_first = operator.itemgetter(0)


@dataclass(frozen=True)
class TailEnclosure:
    """Closed rational bracket [lo, hi] around a sum of positive terms.

    lo is always a finite Fraction; hi=None means the sum diverges to
    +infinity. The bracket is exact when lo == hi.
    """

    lo: Fraction
    hi: Optional[Fraction]

    def __post_init__(self):
        lo = as_fraction(self.lo)
        hi = None if self.hi is None else as_fraction(self.hi)
        if hi is not None and lo is not hi and not _at_most(lo, hi):
            raise ValueError(f"enclosure out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value) -> TailEnclosure:
        # [v, v] is in order: one coercion, and __post_init__ is skipped.
        point = cls.__new__(cls)
        point.__dict__["lo"] = point.__dict__["hi"] = as_fraction(value)
        return point

    @property
    def exact(self) -> bool:
        return self.lo is self.hi or self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError("enclosure is not exact")
        return self.lo

    def __add__(self, other: TailEnclosure) -> TailEnclosure:
        if self.lo is self.hi and other.lo is other.hi:
            return TailEnclosure.point(self.lo + other.lo)
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return TailEnclosure(self.lo + other.lo, hi)


def _integer_root(n: int, p: int) -> int:
    """Largest k with k**p <= n >= 0, by Newton's method from above."""
    if n < 2 or p == 1:
        return n
    k = 1 << -(-n.bit_length() // p)
    while True:
        step = ((p - 1) * k + n // k ** (p - 1)) // p
        if step >= k:
            return k
        k = step


def _count_above(u: int, v: int, a: int, b: int, ties=False, most=None) -> int:
    """How many w >= 0 have u a^w > v b^w (>= with ties), for 0 < a < b.

    As u a^w / (v b^w) falls, they are the w below the count c. Squaring
    while u a^(2^k) passes puts c - 1 below 2^k, and each lower bit of c - 1,
    from the top, takes one product. The squaring stops at 2^k >= most,
    returning most + 1, and raises CapExceeded before a power would pass
    _POWER_BITS_CAP bits.
    """
    beats = operator.ge if ties else operator.gt
    powers = [(a, b)]
    while beats(u * a, v * b):
        if most is not None and 1 << len(powers) - 1 >= most:
            return most + 1
        if 2 * b.bit_length() > _POWER_BITS_CAP:
            raise CapExceeded(f"strand count needs powers past {_POWER_BITS_CAP} bits")
        a, b = a * a, b * b
        powers.append((a, b))
    w, x, y = 0, u, v
    for a, b in powers[-2::-1]:
        xa, yb, w = x * a, y * b, 2 * w
        if beats(xa, yb):
            w, x, y = w + 1, xa, yb
    return w + 1 if beats(u, v) else 0


def _at_most(a, b) -> bool:
    """a <= b for rationals, by cross-multiplying their integer numerators
    and positive denominators (no Fraction comparison)."""
    return a.numerator * b.denominator <= b.numerator * a.denominator


def _never_rises(heads: tuple, q: Fraction) -> bool:
    """Whether strands heads[j] q^w, read in period order, never rise: within
    a period h_(j+1) <= h_j, and across periods q h_0 <= h_(m-1), after
    which the pattern repeats scaled by q. Integers only: q = a/b."""
    (a, b), (n0, d0), (n, d) = _as_pair(q), _as_pair(heads[0]), _as_pair(heads[-1])
    return all(map(_at_most, heads[1:], heads)) and a * n0 * d <= n * b * d0


class _Tail:
    """Members shared by the four tail kinds.

    Each kind defines term or terms, and the other is read from it: term
    walks the stream, terms maps term over 1, 2, ... A kind that defines
    neither recurses. Each kind adds drop, count_above and enclosure, and
    overrides term_count (None here: endless), nonincreasing, first, pairs
    and split_above where its own answer differs. count_above(g) is the
    number of terms greater than g > 0; it reads no term. split_above(g) is
    that count and the tail less those terms, counted once.
    """

    nonincreasing = True

    def term(self, index: int) -> Fraction:
        for value in itertools.islice(self.terms(), index - 1, None):
            return value
        raise IndexBeyondFinite(f"sequence has no term {index}")

    def terms(self) -> Iterator[Fraction]:
        return map(self.term, itertools.count(1))

    def first(self) -> Optional[Fraction]:
        return next(self.terms(), None)

    def pairs(self) -> Iterator[tuple]:
        return map(_as_pair, self.terms())

    def term_count(self) -> Optional[int]:
        return None

    def split_above(self, g: Fraction) -> tuple:
        count = self.count_above(g)
        return count, self.drop(count)


@dataclass(frozen=True)
class FiniteTail(_Tail):
    """No generated terms after the prefix."""

    def terms(self) -> Iterator[Fraction]:
        return iter(())

    def term_count(self) -> int:
        return 0

    def drop(self, count: int) -> SequenceSpec:
        return EMPTY

    def count_above(self, g: Fraction) -> int:
        return 0

    def enclosure(self, skip: int, extra: int = 0) -> TailEnclosure:
        return TailEnclosure.point(ZERO)


@dataclass(frozen=True)
class PowerSumTail(_Tail):
    """Terms 1/k^exponent for k = start, start+1, ...

    exponent 1 is the harmonic case; its tail sum is the divergent
    enclosure. For exponent >= 2 the tail sum is bracketed by the integral
    test and refined by summing explicit terms.
    """

    exponent: int
    start: int = 1

    def __post_init__(self):
        if isinstance(self.exponent, bool) or not isinstance(self.exponent, int):
            raise UnsupportedExponent(f"exponent must be an integer, got {self.exponent!r}")
        if self.exponent < 1:
            raise UnsupportedExponent("exponent must be at least 1")
        if isinstance(self.start, bool) or not isinstance(self.start, int) or self.start < 1:
            raise ValueError("start must be a positive integer")

    def term(self, index: int) -> Fraction:
        return Fraction(1, (self.start + index - 1) ** self.exponent)

    def pairs(self) -> Iterator[tuple]:
        # 1/k^p is in lowest terms as it stands: no Fraction, no gcd.
        p = self.exponent
        return ((1, k**p) for k in itertools.count(self.start))

    def drop(self, count: int) -> SequenceSpec:
        return SequenceSpec((), PowerSumTail(self.exponent, self.start + count))

    def count_above(self, g: Fraction) -> int:
        # 1/k^p > n/d exactly when k^p <= (d - 1) // n.
        largest = _integer_root((g.denominator - 1) // g.numerator, self.exponent)
        return max(largest - self.start + 1, 0)

    def enclosure(self, skip: int, extra: int = 0) -> TailEnclosure:
        if self.exponent == 1:
            return TailEnclosure(ZERO, None)
        p = self.exponent
        # The integral test needs a positive base index; sum one explicit
        # term first when the tail starts at k = 1.
        explicit = max(extra, 1 - (self.start + skip - 1))
        base = self.start + skip + explicit - 1
        summed = Fraction(*sum_tree((1, k**p) for k in range(base - explicit + 1, base + 1))[-1][0])
        lo = summed + Fraction(1, (p - 1) * (base + 1) ** (p - 1))
        hi = summed + Fraction(1, (p - 1) * base ** (p - 1))
        return TailEnclosure(lo, hi)


@dataclass(frozen=True)
class MultiGeometricTail(_Tail):
    """Geometric strands with one ratio q, read in period order.

    Strand j is heads[j] * q^w, w = 0, 1, ..., so term i + m is q times
    term i. heads and q (period_factor), coerced by as_fraction, are the
    tail's identity; heads must be positive and 0 < q < 1. Terms,
    count_above, drop and the strand reading need only them, and
    nonincreasing is computed once, by _never_rises. ratios are the
    proportions r_j, step i removing r_(i mod m) of what remains, and
    total is X_0: both are derived on first read and kept, or kept as
    multi_geometric was given them.
    """

    heads: tuple
    period_factor: Fraction
    nonincreasing: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        heads = tuple(map(as_fraction, self.heads))
        q = as_fraction(self.period_factor)
        if not heads or any(head.numerator <= 0 for head in heads):
            raise ValueError("strand heads must be positive")
        if not 0 < q.numerator < q.denominator:
            raise ValueError("period factor must lie strictly between 0 and 1")
        # The instance is frozen, so its fields are written to its __dict__.
        self.__dict__.update(heads=heads, period_factor=q, nonincreasing=_never_rises(heads, q))

    @classmethod
    def _of(cls, heads: tuple, q: Fraction, nonincreasing: bool = True) -> MultiGeometricTail:
        """The tail of heads and q with nothing coerced or checked, for a tail
        derived from a checked one: one strand (never rising) by default."""
        tail = cls.__new__(cls)
        tail.__dict__.update(heads=heads, period_factor=q, nonincreasing=nonincreasing)
        return tail

    @functools.cached_property
    def total(self) -> Fraction:
        return sum(self.heads, start=ZERO) / (1 - self.period_factor)

    @functools.cached_property
    def ratios(self) -> tuple:
        ratios, rest = [], self.total
        for head in self.heads:
            ratios.append(head / rest)
            rest -= head
        return tuple(ratios)

    def remaining(self, count: int) -> Fraction:
        # Exact tail sum after the first `count` terms.
        if not count:
            return self.total
        whole, part = divmod(count, len(self.heads))
        return (self.total - sum(self.heads[:part], start=ZERO)) * self.period_factor**whole

    def term(self, index: int) -> Fraction:
        whole, part = divmod(index - 1, len(self.heads))
        return self.heads[part] * self.period_factor**whole

    def terms(self) -> Iterator[Fraction]:
        # Each period is the last one times q: one product per term.
        period, q = self.heads, self.period_factor
        while True:
            yield from period
            period = [head * q for head in period]

    def drop(self, count: int) -> SequenceSpec:
        # The next m terms are the new heads; q is unchanged.
        whole, part = divmod(count, len(self.heads))
        q = self.period_factor
        scale = q**whole
        heads = [head * scale for head in self.heads[part:]]
        heads += [head * scale * q for head in self.heads[:part]]
        # A rise x_(i+1) > x_i recurs, scaled by q, every period: the rest keeps nonincreasing.
        return SequenceSpec((), MultiGeometricTail._of(tuple(heads), q, self.nonincreasing))

    def count_above(self, g: Fraction) -> int:
        # Strand j holds n/d q^w, above g = gn/gd when n gd a^w > gn d b^w.
        (a, b), (gn, gd) = _as_pair(self.period_factor), _as_pair(g)
        return sum(_count_above(n * gd, gn * d, a, b) for n, d in map(_as_pair, self.heads))

    def enclosure(self, skip: int, extra: int = 0) -> TailEnclosure:
        return TailEnclosure.point(self.remaining(skip))


@dataclass(frozen=True)
class MergeTail(_Tail):
    """Descending merge of non-increasing positive part streams.

    Used for the non-increasing reordering of multi-geometric tails (one
    geometric strand per residue class) and for combining same-signed parts
    of a merged spec. Nested merges are flattened. walk() is the one heap
    merge; terms, consumed counts and tail enclosures all read it.
    """

    parts: tuple

    def __post_init__(self):
        flat = []
        for part in self.parts:
            if not isinstance(part, SequenceSpec):
                raise TypeError("merge parts must be sequence specs")
            if part.term_count() == 0:
                raise ValueError("merge parts must be nonempty")
            if not part.prefix and isinstance(part.tail, MergeTail):
                flat.extend(part.tail.parts)
            else:
                flat.append(part)
        for part in flat:
            if not is_nonincreasing(part):
                raise ValueError("merge parts must be non-increasing")
        object.__setattr__(self, "parts", tuple(flat))

    @classmethod
    def _of_strands(cls, strands: tuple) -> MergeTail:
        """The merge of prefix-free single strands, which are non-increasing
        and endless by construction, so __post_init__ re-checks none."""
        merge = cls.__new__(cls)
        merge.__dict__["parts"] = strands
        return merge

    def walk(self) -> Iterator[tuple]:
        """(value, part index) pairs in merged order; ties go to the lower index."""
        streams = (zip(part.terms(), itertools.repeat(idx)) for idx, part in enumerate(self.parts))
        # heapq.merge is stable: equal values leave in the order of their streams.
        return heapq.merge(*streams, key=_first, reverse=True)

    def terms(self) -> Iterator[Fraction]:
        return map(_first, self.walk())

    def term_count(self) -> Optional[int]:
        counts = [part.term_count() for part in self.parts]
        if any(c is None for c in counts):
            return None
        return sum(counts)

    def first(self) -> Fraction:
        # Parts are non-increasing, and none is a prefix-free merge: no walk.
        return max(next(part.terms()) for part in self.parts)

    def drop(self, count: int) -> SequenceSpec:
        return _wrap_merge(map(drop_first, self.parts, self.consumed(count)))

    def count_above(self, g: Fraction) -> int:
        return sum(part.count_above(g) for part in self.parts)

    def split_above(self, g: Fraction) -> tuple:
        # Each part counts and drops its own terms above g once: no walk.
        counts, rests = zip(*(part.split_above(g) for part in self.parts))
        return sum(counts), _wrap_merge(rests)

    def consumed(self, count: int) -> list:
        """Per-part term counts of the first `count` merged terms."""
        used = [0] * len(self.parts)
        if count:
            for _, idx in itertools.islice(self.walk(), count):
                used[idx] += 1
        return used

    def enclosure(self, skip: int, extra: int = 0) -> TailEnclosure:
        total = TailEnclosure.point(ZERO)
        for part, used in zip(self.parts, self.consumed(skip)):
            total = total + part.tail_sum(used, extra=extra)
        return total


_TAIL_KINDS = (FiniteTail, PowerSumTail, MultiGeometricTail, MergeTail)
TailKind = Union[_TAIL_KINDS]


@dataclass(frozen=True)
class SequenceSpec:
    """An explicit prefix of positive terms followed by a structured tail.

    Every term is positive. Signed sequences are merges that hold their
    negative parts as specs of the absolute values (MergedSpec).
    """

    prefix: tuple = ()
    tail: TailKind = FiniteTail()

    def __post_init__(self):
        if not isinstance(self.tail, _TAIL_KINDS):
            raise UnsupportedKind(f"unknown tail kind {type(self.tail).__name__}")
        if self.prefix == ():
            return
        prefix = tuple(as_fraction(v) for v in self.prefix)
        if any(v.numerator <= 0 for v in prefix):
            raise ValueError("prefix terms must be positive")
        object.__setattr__(self, "prefix", prefix)

    def term(self, index: int) -> Fraction:
        """Exact index-th term (1-based)."""
        if index < 1:
            raise ValueError("term indices start at 1")
        if index <= len(self.prefix):
            return self.prefix[index - 1]
        return self.tail.term(index - len(self.prefix))

    def terms(self) -> Iterator[Fraction]:
        return itertools.chain(self.prefix, self.tail.terms())

    def pairs(self) -> Iterator[tuple]:
        """The terms in order as (numerator, denominator) integer pairs.

        Each pair is in lowest terms with a positive denominator, so it
        holds the same integers as the term's Fraction. The prefix pairs
        come first, then the tail's own pairs(): a power-sum tail yields
        (1, k**p) without building a Fraction.
        """
        return itertools.chain(map(_as_pair, self.prefix), self.tail.pairs())

    def term_count(self) -> Optional[int]:
        tail_count = self.tail.term_count()
        if tail_count is None:
            return None
        return len(self.prefix) + tail_count

    def count_above(self, g) -> int:
        """Number of terms greater than g > 0, found with no walk or search."""
        g = as_fraction(g)
        if g.numerator <= 0:
            raise ValueError("count_above needs a positive bound")
        return sum(1 for value in self.prefix if value > g) + self.tail.count_above(g)

    def split_above(self, g) -> tuple:
        """(count_above(g), drop_first(self, that count)) for a non-increasing
        spec, counting each tail part once; a prefix term at most g leaves
        the tail uncounted, as none of its terms exceeds g."""
        g = as_fraction(g)
        if g.numerator <= 0:
            raise ValueError("split_above needs a positive bound")
        above = sum(1 for value in self.prefix if value > g)
        if above < len(self.prefix):
            return above, drop_first(self, above)
        count, rest = self.tail.split_above(g)
        return above + count, rest

    def tail_sum(self, skip: int, extra: int = 0) -> TailEnclosure:
        """Enclosure of the sum of all terms after the first `skip`."""
        if skip < 0:
            raise ValueError("skip must be nonnegative")
        if skip < len(self.prefix):
            rest = Fraction(*sum_tree(map(_as_pair, self.prefix[skip:]))[-1][0])
            return TailEnclosure.point(rest) + self.tail.enclosure(0, extra=extra)
        return self.tail.enclosure(skip - len(self.prefix), extra=extra)

    def total(self) -> TailEnclosure:
        return self.tail_sum(0)


@dataclass(frozen=True)
class MergedSpec:
    """Round-robin interleaving of positive parts and negative parts.

    negative holds each negative part as the spec of its absolute values,
    so this is the one place a sign is stored. terms() takes the positive
    streams first, then the negative ones, whose terms it negates.
    """

    positive: tuple = ()
    negative: tuple = ()

    def __post_init__(self):
        for name in ("positive", "negative"):
            parts = tuple(getattr(self, name))
            if not all(isinstance(p, SequenceSpec) for p in parts):
                raise TypeError("merged parts must be sequence specs")
            object.__setattr__(self, name, parts)

    def terms(self) -> Iterator[Fraction]:
        streams = [p.terms() for p in self.positive]
        streams += [map(operator.neg, p.terms()) for p in self.negative]
        while streams:
            alive = []
            for stream in streams:
                value = next(stream, None)
                if value is not None:
                    yield value
                    alive.append(stream)
            streams = alive


def as_merged(spec) -> MergedSpec:
    if isinstance(spec, MergedSpec):
        return spec
    if isinstance(spec, SequenceSpec):
        return MergedSpec((spec,))
    raise TypeError(f"not a sequence spec: {type(spec).__name__}")


# --- factories ---------------------------------------------------------------


def geometric(first, ratio, prefix=()) -> SequenceSpec:
    """Terms first * ratio^(i-1) after the prefix: the one-proportion
    multi-geometric tail with proportion 1 - ratio."""
    first = as_fraction(first)
    ratio = as_fraction(ratio)
    if first.numerator <= 0:
        raise ValueError("geometric first term must be positive")
    if not 0 < ratio.numerator < ratio.denominator:
        raise ValueError("geometric ratio must lie strictly between 0 and 1")
    return SequenceSpec(tuple(prefix), MultiGeometricTail._of((first,), ratio))


def power_sum(exponent: int, start: int = 1, prefix=()) -> SequenceSpec:
    return SequenceSpec(tuple(prefix), PowerSumTail(exponent, start))


def multi_geometric(ratios, total, prefix=()) -> SequenceSpec:
    """The tail of total X_0 whose step i removes the proportion r_(i mod m)
    of what remains, x_(i+1) = r_j X_i, after the prefix.

    Built on integers: with n/d = r_j, N/D the total and a/b the product
    of the 1 - r_i before it, what remains is N a / (D b), head j is the
    one Fraction n N a / (d D b), and the last a/b is q. The tail keeps the
    ratios and total it was given, so it derives neither.
    """
    ratios = tuple(map(as_fraction, ratios))
    total = as_fraction(total)
    if not ratios:
        raise ValueError("at least one proportion is required")
    pairs = list(map(_as_pair, ratios))
    for n, d in pairs:
        if not 0 < n < d:
            raise ValueError("proportions must lie strictly between 0 and 1")
    big_n, big_d = _as_pair(total)
    if big_n <= 0:
        raise ValueError("total must be positive")
    heads, a, b = [], 1, 1
    for n, d in pairs:
        heads.append(Fraction(n * big_n * a, d * big_d * b))
        a, b = a * (d - n), b * d
    heads, q = tuple(heads), Fraction(a, b)
    tail = MultiGeometricTail._of(heads, q, _never_rises(heads, q))
    tail.__dict__.update(ratios=ratios, total=total)
    return SequenceSpec(tuple(prefix), tail)


def finite(terms) -> SequenceSpec:
    return SequenceSpec(tuple(terms), FiniteTail())


EMPTY = SequenceSpec((), FiniteTail())


# --- monotonicity and reordering ---------------------------------------------


def is_nonincreasing(spec: SequenceSpec) -> bool:
    """Whether the term stream is non-increasing, decided analytically."""
    values = spec.prefix
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        return False
    if values:
        first = spec.tail.first()
        if first is not None and values[-1] < first:
            return False
    return spec.tail.nonincreasing


def drop_first(spec: SequenceSpec, count: int) -> SequenceSpec:
    """The spec with its first `count` terms removed."""
    if count <= 0:
        return spec
    if count < len(spec.prefix):
        return SequenceSpec(spec.prefix[count:], spec.tail)
    return spec.tail.drop(count - len(spec.prefix))


def _wrap_merge(parts) -> SequenceSpec:
    parts = [p for p in parts if p.term_count() != 0]
    if not parts:
        return EMPTY
    if len(parts) == 1 and not parts[0].prefix:
        return parts[0]
    return SequenceSpec((), MergeTail(tuple(parts)))


def nonincreasing_reorder(spec: SequenceSpec) -> SequenceSpec:
    """A spec generating the same multiset of terms in non-increasing order.

    Power-sum and merge tails are already sorted; multi-geometric tails
    become a descending merge of their geometric strands (a geometric tail
    is its own one strand); an out-of-order prefix absorbs every tail term
    at least as large as its smallest entry. A spec that is already in
    order is returned as is. Each strand is the tail of one head and q,
    and it and the merge are taken as built (_of, _of_strands): one strand
    is non-increasing and endless, so nothing is re-checked, and its
    proportion and total are never derived unless read.
    """
    prefix = tuple(sorted(spec.prefix, reverse=True))
    sorted_prefix = spec if prefix == spec.prefix else SequenceSpec(prefix, spec.tail)
    if is_nonincreasing(sorted_prefix):
        return sorted_prefix
    kind = spec.tail
    if isinstance(kind, MultiGeometricTail):
        q = kind.period_factor
        strands = tuple(SequenceSpec((), MultiGeometricTail._of((h,), q)) for h in kind.heads)
        # As _wrap_merge does, one prefix-free part stands unwrapped.
        body = strands[0] if len(strands) == 1 else SequenceSpec((), MergeTail._of_strands(strands))
    else:
        body = SequenceSpec((), kind)
    if not spec.prefix:
        return body
    return _absorb_prefix(spec.prefix, body)


def _absorb_prefix(prefix, body: SequenceSpec) -> SequenceSpec:
    """Merge prefix terms into a non-increasing prefix-free body spec. One
    walk reads the terms it absorbs, each with its part, and each part
    drops its own count of them, ties included."""
    threshold = min(prefix)
    merged = isinstance(body.tail, MergeTail)
    parts = body.tail.parts if merged else (body,)
    used, taken = [0] * len(parts), []
    for value, idx in body.tail.walk() if merged else zip(body.terms(), itertools.repeat(0)):
        if value < threshold:
            break
        taken.append(value)
        used[idx] += 1
    rest = _wrap_merge(map(drop_first, parts, used))
    new_prefix = tuple(sorted(prefix + tuple(taken), reverse=True))
    return SequenceSpec(new_prefix + rest.prefix, rest.tail)


def geometric_strands(tail) -> Optional[tuple]:
    """(heads, q) when the tail's terms are geometric strands with one ratio q.

    A multi-geometric tail with m proportions is m strands, one per residue
    class mod m: strand j starts at heads[j], and q is its period_factor.
    A merge qualifies when every part is a prefix-free geometric strand
    (a one-proportion multi-geometric tail) and all parts share q; heads
    then holds the parts' first terms. None for any other tail.
    """
    if isinstance(tail, MultiGeometricTail):
        return tail.heads, tail.period_factor
    if not isinstance(tail, MergeTail):
        return None
    heads, q = [], None
    for part in tail.parts:
        kind = part.tail
        if part.prefix or not isinstance(kind, MultiGeometricTail) or len(kind.heads) > 1:
            return None
        # The strands of one reordering share q, so they compare no Fraction.
        if q is not None and kind.period_factor is not q and kind.period_factor != q:
            return None
        heads += kind.heads
        q = kind.period_factor
    return tuple(heads), q


def self_similar(spec: SequenceSpec) -> Optional[SequenceSpec]:
    """The same terms, in the same order, as a prefix and a multi-geometric tail.

    A multi-geometric tail is its own view. A merge of m geometric strands
    with one common ratio q = a/b is read up to merged position k, where
    its last strand starts; the view's prefix is the spec's prefix plus the
    first k - m merged terms, and its tail has the next m terms as strand
    heads and q. Returns None for any other tail. Raises CapExceeded,
    before any term is built, when k would pass HEAD_TERM_CAP. The view's
    terms are integer_view's numerators x as Fraction(x, D); no other code
    builds them.

    Why the order is the merge's: let L be the lcm of the denominators of
    the prefix and the strand heads h_j, n_j = h_j L, and W the largest
    exponent in the head. Over D = L b^W (b - a), the term h_j q^w is the
    integer n_j a^w b^(W-w) (b - a), so a plain sort of the numerators
    is the merge's order (equal numerators are equal terms). The last
    strand to start is the one with the least head h_l (the highest index
    among equal ones, as MergeTail.walk keeps ties in strand order), and
    term w of strand j comes before h_l exactly when n_j a^w > n_l b^w, or
    they are equal and j < l. Counting those w per strand gives k before
    any term is built.

    Why the view is exact: let x_1 >= x_2 >= ... be the merged terms.
    Scaling a strand by q drops its head, so q x_1 >= q x_2 >= ... is the
    same list with the m strand heads removed. The heads all lie among
    x_1 .. x_k, so removing them moves every later term m places forward:
    x_(i+m) = q x_i for every i >= k - m + 1. Past its first k - m terms
    the merge therefore repeats with period m and factor q, which is the
    multi-geometric tail with the proportions of x_(k-m+1) .. x_k. Its
    total is each period's sum, x_(k-m+1) + ... + x_k, times 1/(1 - q).
    """
    if isinstance(spec.tail, MultiGeometricTail):
        return spec
    numerators = integer_view(spec)
    if numerators is None:
        return None
    values = tuple(Fraction(x, numerators.den) for x in numerators.prefix + numerators.heads)
    m = len(numerators.heads)
    q = geometric_strands(spec.tail)[1]
    # The view is the sorted merge, so its tail never rises: nothing to check.
    return SequenceSpec(values[:-m], MultiGeometricTail._of(values[-m:], q))


class ViewNumerators(NamedTuple):
    """A self-similar view's terms as integer numerators over den, its D.

    prefix holds the numerators of the view's prefix, heads those of one
    period of its tail, and tail that of the tail's total. A relation or a
    fold compares sums of terms, which den leaves as they are; only
    self_similar reads it.
    """

    prefix: list
    heads: list
    tail: int
    den: int

    def relations(self) -> tuple:
        """(relations of the prefix terms, relations of one period of heads).

        Past the prefix x_(i+m) = q x_i and X_(i+m) = q X_i, so the second
        repeats with period m for every later index.
        """
        return (
            _running_relations(self.prefix, sum(self.prefix) + self.tail),
            _running_relations(self.heads, self.tail),
        )


def integer_view(spec: SequenceSpec) -> Optional[ViewNumerators]:
    """The ViewNumerators of self_similar(spec), or None when it has no view.

    The numerators are over self_similar's D; a multi-geometric tail's head
    is its m heads, with W = 0. A period's tail total, its sum times
    b/(b - a), is an integer over D too. Each strand's numerators follow
    from its head by one exact division by b and product by a per term;
    no Fraction is built.
    """
    strands = geometric_strands(spec.tail)
    if strands is None:
        return None
    heads, q = strands
    a, b = _as_pair(q)
    m, n = len(heads), len(spec.prefix)
    pairs = [*map(_as_pair, spec.prefix), *map(_as_pair, heads)]
    den = math.lcm(*[d for _, d in pairs])
    numerators = [x * (den // d) for x, d in pairs]
    plain = isinstance(spec.tail, MultiGeometricTail)
    takes, walked = [1] * m, 0
    if not plain:
        # Strand j's terms up to h_l, the last strand to start (see self_similar).
        least = min(numerators[n:])
        last = m - 1 - numerators[::-1].index(least)
        for j, first in enumerate(numerators[n:]):
            takes[j] = _count_above(first, least, a, b, j <= last, HEAD_TERM_CAP - walked)
            walked += takes[j]
            if walked > HEAD_TERM_CAP:
                raise CapExceeded(f"strand merge head passes {HEAD_TERM_CAP} terms")
    scale = b ** (max(takes) - 1) * (b - a)
    merged = []
    for x, take in zip(numerators[n:], takes):
        x *= scale
        merged.append(x)
        for _ in range(take - 1):
            x = x // b * a
            merged.append(x)
    if not plain:
        merged.sort(reverse=True)
    prefix = [x * scale for x in numerators[:n]]
    period = merged[-m:]
    return ViewNumerators(prefix + merged[:-m], period, sum(period) // (b - a) * b, den * scale)


# --- summability and sign handling -------------------------------------------


class SummabilityClass(Enum):
    ABSOLUTELY_SUMMABLE = "absolutely-summable"
    CONDITIONALLY_SUMMABLE = "conditionally-summable"
    UNCONDITIONALLY_UNSUMMABLE = "unconditionally-unsummable"


def combine_parts(parts) -> SequenceSpec:
    """One positive spec carrying all terms of the given positive parts.

    A lone nonempty part is returned as is; several become the descending
    merge of their non-increasing reorderings.
    """
    parts = [p for p in parts if p.term_count() != 0]
    if not parts:
        return EMPTY
    if len(parts) == 1:
        return parts[0]
    return _wrap_merge([nonincreasing_reorder(p) for p in parts])


def sign_split(spec) -> tuple:
    """Split into (positive part, |negative part|).

    Both parts are positive specs; the negative part is given by its
    absolute values. Each part's total() is its sum, an enclosure whose
    hi is None when the part diverges. A SequenceSpec is its own positive
    part (an empty finite spec equals EMPTY), with no merge built.
    """
    if isinstance(spec, SequenceSpec):
        return spec, EMPTY
    merged = as_merged(spec)
    return combine_parts(merged.positive), combine_parts(merged.negative)


def positive_spec(spec) -> SequenceSpec:
    """The positive spec that a spec or merge stands for.

    A SequenceSpec is returned as is; a merge becomes the non-increasing
    merge of its parts, the positive part of sign_split. Raises ValueError
    when the merge has a negative part.
    """
    if isinstance(spec, SequenceSpec):
        return spec
    merged = as_merged(spec)
    if merged.negative:
        raise ValueError("expected positive specs; this merge has negative parts")
    return combine_parts(merged.positive)


def summability_of(plus: TailEnclosure, minus: TailEnclosure) -> SummabilityClass:
    """Summability class from the totals of the positive part and the
    |negative part|, each divergent when its hi is None."""
    if plus.hi is not None and minus.hi is not None:
        return SummabilityClass.ABSOLUTELY_SUMMABLE
    if plus.hi is not None or minus.hi is not None:
        return SummabilityClass.UNCONDITIONALLY_UNSUMMABLE
    return SummabilityClass.CONDITIONALLY_SUMMABLE


# --- term/tail comparisons ----------------------------------------------------


class TermTailRelation(Enum):
    TERM_EXCEEDS_TAIL = "exceed"
    TAIL_BOUNDS_TERM = "bound"


def compare_term_tail(spec: SequenceSpec, index: int) -> TermTailRelation:
    """Resolve term(index) vs tail(index), refining inexact enclosures.

    Raises IndeterminateComparison when the refinement budget is spent.
    """
    term = spec.term(index)
    for extra in (0,) + REFINEMENT_STEPS:
        tail = spec.tail_sum(index, extra=extra)
        # hi=None marks genuine divergence, and an infinite tail bounds
        # any term.
        if tail.hi is None or term <= tail.lo:
            return TermTailRelation.TAIL_BOUNDS_TERM
        if term > tail.hi:
            return TermTailRelation.TERM_EXCEEDS_TAIL
    raise IndeterminateComparison(index)


def term_tail_relations(spec: SequenceSpec, count: int) -> tuple:
    """Relations of term n to tail n for n = 1..count (fewer past a finite end).

    A divergent total means an endless spec whose every tail is infinite,
    so every relation is bound and no term is read. An exact total takes
    one pass: the running rest starts at the total and loses each term in
    turn, so after n terms it is tail n exactly. An inexact total comes
    from an endless power-sum tail, and subtracting terms from it settles
    nothing, so each index goes to compare_term_tail.
    """
    total = spec.total()
    if total.hi is None:
        return (TermTailRelation.TAIL_BOUNDS_TERM,) * max(count, 0)
    if not total.exact:
        return tuple(compare_term_tail(spec, index) for index in range(1, count + 1))
    return _running_relations(itertools.islice(spec.terms(), max(count, 0)), total.lo)


def _running_relations(terms, rest) -> tuple:
    """Relation of each term to what is left of rest once it and the terms
    before it are subtracted: Fractions, or integers over one denominator."""
    exceed, bound = TermTailRelation.TERM_EXCEEDS_TAIL, TermTailRelation.TAIL_BOUNDS_TERM
    relations = []
    for term in terms:
        rest -= term
        relations.append(exceed if term > rest else bound)
    return tuple(relations)
