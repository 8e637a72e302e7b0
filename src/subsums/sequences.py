"""Symbolic positive null sequences with exact terms and rigorous tail sums.

A sequence is an explicit finite prefix followed by a structured tail:
finite (none), power-sum (1/k^p), multi-geometric (periodic tail
proportions; one proportion is a geometric tail, which geometric()
builds), or a descending merge of such streams. Each tail kind carries
its own terms, drop (what is left after its first terms), order
(nonincreasing) and tail-sum enclosure, so the spec-level functions ask the
tail instead of branching on its kind. Terms are exact Fractions. Tail sums
are returned as enclosures that are either exact or rigorous rational
brackets (power sums use the integral test and can be refined by summing
more terms explicitly).

Signed sequences are merges of single-signed parts; see MergedSpec,
sign_split and summability_class.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import (
    IndexBeyondFinite,
    IndeterminateComparison,
    UnsupportedExponent,
    UnsupportedKind,
)
from .rational import as_fraction

ZERO = Fraction(0)

# Extra explicit terms summed on each refinement attempt of an inexact
# comparison, in order.
REFINEMENT_STEPS = (8, 32, 128)


@dataclass(frozen=True)
class TailEnclosure:
    """Closed rational bracket [lo, hi] around a (possibly infinite) sum.

    None marks an infinite endpoint: hi=None means the sum diverges to
    +infinity, lo=None means -infinity. The bracket is exact when lo == hi.
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]

    def __post_init__(self):
        lo = None if self.lo is None else as_fraction(self.lo)
        hi = None if self.hi is None else as_fraction(self.hi)
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"enclosure out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value) -> TailEnclosure:
        value = as_fraction(value)
        return cls(value, value)

    @classmethod
    def plus_infinity(cls) -> TailEnclosure:
        return cls(ZERO, None)

    @property
    def exact(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def finite(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError("enclosure is not exact")
        return self.lo

    @property
    def width(self) -> Fraction:
        if not self.finite:
            raise ValueError("enclosure is unbounded")
        return self.hi - self.lo

    def __add__(self, other: TailEnclosure) -> TailEnclosure:
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return TailEnclosure(lo, hi)

    def shift(self, offset) -> TailEnclosure:
        offset = as_fraction(offset)
        lo = None if self.lo is None else self.lo + offset
        hi = None if self.hi is None else self.hi + offset
        return TailEnclosure(lo, hi)

    def negate(self) -> TailEnclosure:
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return TailEnclosure(lo, hi)


@dataclass(frozen=True)
class FiniteTail:
    """No generated terms after the prefix."""

    divergent = False
    nonincreasing = True

    def term(self, index: int) -> Fraction:
        raise IndexBeyondFinite(f"finite sequence has no term {index}")

    def terms(self) -> Iterator[Fraction]:
        return iter(())

    def term_count(self) -> int:
        return 0

    def drop(self, count: int) -> SequenceSpec:
        return EMPTY

    def enclosure(self, skip: int, extra: int = 0) -> TailEnclosure:
        return TailEnclosure.point(ZERO)


class _EndlessTail:
    """Members shared by the tails with infinitely many terms."""

    divergent = False
    nonincreasing = True

    def terms(self) -> Iterator[Fraction]:
        return map(self.term, itertools.count(1))

    def term_count(self) -> None:
        return None


@dataclass(frozen=True)
class PowerSumTail(_EndlessTail):
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
        if not isinstance(self.start, int) or self.start < 1:
            raise ValueError("start must be a positive integer")

    @property
    def divergent(self) -> bool:
        return self.exponent == 1

    def term(self, index: int) -> Fraction:
        return Fraction(1, (self.start + index - 1) ** self.exponent)

    def drop(self, count: int) -> SequenceSpec:
        return SequenceSpec((), PowerSumTail(self.exponent, self.start + count))

    def enclosure(self, skip: int, extra: int = 0) -> TailEnclosure:
        if self.exponent == 1:
            return TailEnclosure.plus_infinity()
        p = self.exponent
        # The integral test needs a positive base index; sum one explicit
        # term first when the tail starts at k = 1.
        explicit = max(extra, 1 - (self.start + skip - 1))
        summed = sum(
            (self.term(skip + j + 1) for j in range(explicit)), start=ZERO
        )
        base = self.start + skip + explicit - 1
        lo = summed + Fraction(1, (p - 1) * (base + 1) ** (p - 1))
        hi = summed + Fraction(1, (p - 1) * base ** (p - 1))
        return TailEnclosure(lo, hi)


@dataclass(frozen=True)
class MultiGeometricTail(_EndlessTail):
    """Tail driven by periodic proportions: x_{i+1} = r_j X_i with j = i mod m.

    total is the whole tail sum X_0; each step removes the proportion
    r_(i mod m) of what remains, so all terms and tail sums are exact.
    One proportion r is the geometric tail with ratio 1 - r. heads holds
    the first m terms and period_factor the product of the 1 - r_j, so
    term i + m is period_factor times term i.
    """

    ratios: tuple
    total: Fraction
    heads: tuple = field(init=False, repr=False, compare=False)
    period_factor: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ratios = tuple(as_fraction(r) for r in self.ratios)
        total = as_fraction(self.total)
        if not ratios:
            raise ValueError("at least one proportion is required")
        if any(not 0 < r < 1 for r in ratios):
            raise ValueError("proportions must lie strictly between 0 and 1")
        if total <= 0:
            raise ValueError("total must be positive")
        heads = []
        rest = total
        for r in ratios:
            heads.append(r * rest)
            rest -= heads[-1]
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "heads", tuple(heads))
        object.__setattr__(self, "period_factor", rest / total)

    @property
    def nonincreasing(self) -> bool:
        # x_{i+1} <= x_i iff r_i <= r_{i-1} / (1 - r_{i-1}); the pattern is
        # periodic, so the cyclic conditions cover every i.
        rs = self.ratios
        m = len(rs)
        return all(rs[(j + 1) % m] <= rs[j] / (1 - rs[j]) for j in range(m))

    def remaining(self, count: int) -> Fraction:
        # Exact tail sum after the first `count` terms.
        whole, part = divmod(count, len(self.ratios))
        return (self.total - sum(self.heads[:part], start=ZERO)) * self.period_factor**whole

    def term(self, index: int) -> Fraction:
        whole, part = divmod(index - 1, len(self.ratios))
        return self.heads[part] * self.period_factor**whole

    def drop(self, count: int) -> SequenceSpec:
        m = len(self.ratios)
        rotated = tuple(self.ratios[(count + j) % m] for j in range(m))
        return SequenceSpec((), MultiGeometricTail(rotated, self.remaining(count)))

    def enclosure(self, skip: int, extra: int = 0) -> TailEnclosure:
        return TailEnclosure.point(self.remaining(skip))

    def strands(self) -> tuple:
        """Decompose into geometric strands, one per residue class mod m.

        Strand j is geometric with first term heads[j] and ratio
        period_factor.
        """
        return tuple(geometric(head, self.period_factor) for head in self.heads)


@dataclass(frozen=True)
class MergeTail:
    """Descending merge of non-increasing positive part streams.

    Used for the non-increasing reordering of multi-geometric tails (one
    geometric strand per residue class) and for combining same-signed parts
    of a merged spec. Nested merges are flattened. walk() is the one heap
    merge; terms, consumed counts and tail enclosures all read it.
    """

    parts: tuple

    nonincreasing = True

    def __post_init__(self):
        flat = []
        for part in self.parts:
            if not isinstance(part, SequenceSpec):
                raise TypeError("merge parts must be sequence specs")
            if part.negated:
                raise ValueError("merge parts must be positive")
            if part.is_finite and not part.prefix:
                raise ValueError("merge parts must be nonempty")
            if not part.prefix and isinstance(part.tail, MergeTail):
                flat.extend(part.tail.parts)
            else:
                flat.append(part)
        for part in flat:
            if not is_nonincreasing(part):
                raise ValueError("merge parts must be non-increasing")
        object.__setattr__(self, "parts", tuple(flat))

    @property
    def divergent(self) -> bool:
        return any(part.divergent for part in self.parts)

    def walk(self) -> Iterator[tuple]:
        """(value, part index) pairs in merged order; ties go to the lower index."""
        streams = [part.terms() for part in self.parts]
        heap = []
        for idx, stream in enumerate(streams):
            head = next(stream, None)
            if head is not None:
                heap.append((-head, idx))
        heapq.heapify(heap)
        while heap:
            value, idx = heapq.heappop(heap)
            yield -value, idx
            head = next(streams[idx], None)
            if head is not None:
                heapq.heappush(heap, (-head, idx))

    def terms(self) -> Iterator[Fraction]:
        for value, _ in self.walk():
            yield value

    def term(self, index: int) -> Fraction:
        for value, _ in itertools.islice(self.walk(), index - 1, None):
            return value
        raise IndexBeyondFinite(f"merged sequence has no term {index}")

    def term_count(self) -> Optional[int]:
        counts = [part.term_count() for part in self.parts]
        if any(c is None for c in counts):
            return None
        return sum(counts)

    def drop(self, count: int) -> SequenceSpec:
        return _wrap_merge(
            drop_first(part, used) for part, used in zip(self.parts, self.consumed(count))
        )

    def consumed(self, count: int) -> list:
        """Per-part term counts of the first `count` merged terms."""
        used = [0] * len(self.parts)
        for _, idx in itertools.islice(self.walk(), count):
            used[idx] += 1
        return used

    def enclosure(self, skip: int, extra: int = 0) -> TailEnclosure:
        total = TailEnclosure.point(ZERO)
        for part, used in zip(self.parts, self.consumed(skip)):
            total = total + part.tail_sum(used, extra=extra)
        return total

    def common_ratio(self) -> Optional[Fraction]:
        """The shared ratio when every part is a prefix-free geometric strand."""
        if not all(
            not p.prefix and isinstance(p.tail, MultiGeometricTail) and len(p.tail.ratios) == 1
            for p in self.parts
        ):
            return None
        ratios = {p.tail.period_factor for p in self.parts}
        return ratios.pop() if len(ratios) == 1 else None


_TAIL_KINDS = (FiniteTail, PowerSumTail, MultiGeometricTail, MergeTail)
TailKind = Union[_TAIL_KINDS]


@dataclass(frozen=True)
class SequenceSpec:
    """An explicit prefix of positive terms followed by a structured tail.

    negated=True flips the sign of every term; a spec is always
    single-signed. Signed sequences are built by merging specs of opposite
    signs (MergedSpec).
    """

    prefix: tuple = ()
    tail: TailKind = FiniteTail()
    negated: bool = False

    def __post_init__(self):
        if not isinstance(self.tail, _TAIL_KINDS):
            raise UnsupportedKind(f"unknown tail kind {type(self.tail).__name__}")
        prefix = tuple(as_fraction(v) for v in self.prefix)
        if any(v <= 0 for v in prefix):
            raise ValueError("prefix terms must be positive before negation")
        object.__setattr__(self, "prefix", prefix)

    @property
    def divergent(self) -> bool:
        return self.tail.divergent

    @property
    def is_finite(self) -> bool:
        return self.tail.term_count() == 0

    def absolute(self) -> SequenceSpec:
        if not self.negated:
            return self
        return SequenceSpec(self.prefix, self.tail, negated=False)

    def term(self, index: int) -> Fraction:
        """Exact index-th term (1-based), including sign."""
        if index < 1:
            raise ValueError("term indices start at 1")
        if index <= len(self.prefix):
            value = self.prefix[index - 1]
        else:
            value = self.tail.term(index - len(self.prefix))
        return -value if self.negated else value

    def terms(self) -> Iterator[Fraction]:
        values = itertools.chain(self.prefix, self.tail.terms())
        return (-value for value in values) if self.negated else values

    def term_count(self) -> Optional[int]:
        tail_count = self.tail.term_count()
        if tail_count is None:
            return None
        return len(self.prefix) + tail_count

    def tail_sum(self, skip: int, extra: int = 0) -> TailEnclosure:
        """Enclosure of the sum of all terms after the first `skip`.

        Defined for positive specs; take .absolute() first and negate the
        enclosure for negated ones.
        """
        if self.negated:
            raise ValueError("tail sums are defined on positive specs")
        if skip < 0:
            raise ValueError("skip must be nonnegative")
        if skip < len(self.prefix):
            rest = sum(self.prefix[skip:], start=ZERO)
            return self.tail.enclosure(0, extra=extra).shift(rest)
        return self.tail.enclosure(skip - len(self.prefix), extra=extra)

    def total(self) -> TailEnclosure:
        return self.tail_sum(0)


@dataclass(frozen=True)
class MergedSpec:
    """Interleaving of single-signed specs, positive parts first."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not all(isinstance(p, SequenceSpec) for p in parts):
            raise TypeError("merged parts must be sequence specs")
        object.__setattr__(self, "parts", parts)

    def terms(self) -> Iterator[Fraction]:
        ordered = [p for p in self.parts if not p.negated]
        ordered += [p for p in self.parts if p.negated]
        streams = [p.terms() for p in ordered]
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


def geometric(first, ratio, prefix=(), negated=False) -> SequenceSpec:
    """Terms first * ratio^(i-1) after the prefix: the one-proportion
    multi-geometric tail with proportion 1 - ratio."""
    first = as_fraction(first)
    ratio = as_fraction(ratio)
    if first <= 0:
        raise ValueError("geometric first term must be positive")
    if not 0 < ratio < 1:
        raise ValueError("geometric ratio must lie strictly between 0 and 1")
    kind = MultiGeometricTail((1 - ratio,), first / (1 - ratio))
    return SequenceSpec(tuple(prefix), kind, negated)


def power_sum(exponent: int, start: int = 1, prefix=(), negated=False) -> SequenceSpec:
    return SequenceSpec(tuple(prefix), PowerSumTail(exponent, start), negated)


def multi_geometric(ratios, total, prefix=(), negated=False) -> SequenceSpec:
    kind = MultiGeometricTail(tuple(ratios), total)
    return SequenceSpec(tuple(prefix), kind, negated)


def finite(terms, negated=False) -> SequenceSpec:
    return SequenceSpec(tuple(terms), FiniteTail(), negated)


EMPTY = SequenceSpec((), FiniteTail())


# --- monotonicity and reordering ---------------------------------------------


def is_nonincreasing(spec: SequenceSpec) -> bool:
    """Whether the term stream is non-increasing, decided analytically."""
    values = spec.prefix
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        return False
    first = next(spec.tail.terms(), None)
    if values and first is not None and values[-1] < first:
        return False
    return spec.tail.nonincreasing


def drop_first(spec: SequenceSpec, count: int) -> SequenceSpec:
    """The spec with its first `count` terms removed (positive specs)."""
    if spec.negated:
        raise ValueError("drop_first is defined on positive specs")
    if count <= 0:
        return spec
    if count < len(spec.prefix):
        return SequenceSpec(spec.prefix[count:], spec.tail)
    return spec.tail.drop(count - len(spec.prefix))


def _wrap_merge(parts) -> SequenceSpec:
    parts = [p for p in parts if not (p.is_finite and not p.prefix)]
    if not parts:
        return EMPTY
    if len(parts) == 1 and not parts[0].prefix:
        return parts[0]
    return SequenceSpec((), MergeTail(tuple(parts)))


def nonincreasing_reorder(spec: SequenceSpec) -> SequenceSpec:
    """A spec generating the same multiset of terms in non-increasing order.

    Positive specs only. Power-sum and merge tails are already sorted;
    multi-geometric tails become a descending merge of their geometric
    strands (a geometric tail is its own one strand); an out-of-order
    prefix absorbs every tail term at least as large as its smallest entry.
    """
    if spec.negated:
        raise ValueError("reordering is defined on positive specs")
    if is_nonincreasing(spec):
        return spec
    sorted_prefix = SequenceSpec(tuple(sorted(spec.prefix, reverse=True)), spec.tail)
    if is_nonincreasing(sorted_prefix):
        return sorted_prefix
    if isinstance(spec.tail, MultiGeometricTail):
        body = _wrap_merge(spec.tail.strands())
    else:
        body = SequenceSpec((), spec.tail)
    if not spec.prefix:
        return body
    return _absorb_prefix(spec.prefix, body)


def _absorb_prefix(prefix, body: SequenceSpec) -> SequenceSpec:
    """Merge prefix terms into a non-increasing body spec."""
    threshold = min(prefix)
    taken = []
    for value in body.terms():
        if value >= threshold:
            taken.append(value)
        else:
            break
    rest = drop_first(body, len(taken))
    new_prefix = tuple(sorted(list(prefix) + taken, reverse=True))
    if rest.prefix:
        # Keep a single structured tail: hoist the remainder's own prefix.
        new_prefix = new_prefix + rest.prefix
        rest = SequenceSpec((), rest.tail)
    return SequenceSpec(new_prefix, rest.tail)


def self_similar(spec: SequenceSpec) -> Optional[SequenceSpec]:
    """The same terms, in the same order, as a prefix and a multi-geometric tail.

    A multi-geometric tail is its own view. A merge of m geometric strands
    with one common ratio q is walked until every strand has given its
    first term, at merged position k; the view's prefix is the spec's
    prefix plus the first k - m merged terms, and its proportions come
    from the next m terms. Returns None for any other tail.

    Why the view is exact: let x_1 >= x_2 >= ... be the merged terms.
    Scaling a strand by q drops its head, so q x_1 >= q x_2 >= ... is the
    same list with the m strand heads removed. The heads all lie among
    x_1 .. x_k, so removing them moves every later term m places forward:
    x_(i+m) = q x_i for every i >= k - m + 1. Past its first k - m terms
    the merge therefore repeats with period m and factor q, which is the
    multi-geometric tail with the proportions of x_(k-m+1) .. x_k.
    """
    kind = spec.tail
    if isinstance(kind, MultiGeometricTail):
        return spec
    if not isinstance(kind, MergeTail) or kind.common_ratio() is None:
        return None
    m = len(kind.parts)
    walked = []
    started = set()
    for value, idx in kind.walk():
        walked.append(value)
        started.add(idx)
        if len(started) == m:
            break
    head, window = walked[:-m], walked[-m:]
    total = sum((part.tail.total for part in kind.parts), start=ZERO) - sum(head, start=ZERO)
    ratios = []
    rest = total
    for value in window:
        ratios.append(value / rest)
        rest -= value
    return multi_geometric(ratios, total, spec.prefix + tuple(head), spec.negated)


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
    parts = [p for p in parts if not (p.is_finite and not p.prefix)]
    if not parts:
        return EMPTY
    if len(parts) == 1:
        return parts[0]
    return _wrap_merge([nonincreasing_reorder(p) for p in parts])


def sign_split(spec) -> tuple:
    """Split into (positive part, negative part, positive sum, negative sum).

    The sums are enclosures; the negative sum is <= 0 and may be the
    -infinity enclosure for divergent negative parts.
    """
    merged = as_merged(spec)
    pos_parts = [p for p in merged.parts if not p.negated]
    neg_parts = [p.absolute() for p in merged.parts if p.negated]
    pos = combine_parts(pos_parts)
    neg_abs = combine_parts(neg_parts)
    plus = pos.total()
    minus = neg_abs.total().negate()
    neg = SequenceSpec(neg_abs.prefix, neg_abs.tail, negated=True)
    return pos, neg, plus, minus


def positive_spec(spec) -> SequenceSpec:
    """The positive spec that defines the covers of a spec or merge.

    A SequenceSpec is returned as is; a merge becomes the non-increasing
    merge of its parts, the positive part of sign_split. Raises ValueError
    when any part is negated.
    """
    merged = as_merged(spec)
    if any(p.negated for p in merged.parts):
        raise ValueError("covers are defined for positive specs")
    return spec if isinstance(spec, SequenceSpec) else combine_parts(merged.parts)


def summability_of(plus: TailEnclosure, minus: TailEnclosure) -> SummabilityClass:
    """Summability class from the sums of the positive and negative parts."""
    if plus.finite and minus.finite:
        return SummabilityClass.ABSOLUTELY_SUMMABLE
    if plus.finite or minus.finite:
        return SummabilityClass.UNCONDITIONALLY_UNSUMMABLE
    return SummabilityClass.CONDITIONALLY_SUMMABLE


def summability_class(spec) -> SummabilityClass:
    _, _, plus, minus = sign_split(spec)
    return summability_of(plus, minus)


# --- term/tail comparisons ----------------------------------------------------


class TermTailRelation(Enum):
    TERM_EXCEEDS_TAIL = "exceed"
    TAIL_BOUNDS_TERM = "bound"
    INDETERMINATE = "indeterminate"


def _compare_once(term: Fraction, tail: TailEnclosure) -> TermTailRelation:
    if tail.hi is None:
        # hi=None marks genuine divergence, and an infinite tail bounds
        # any term.
        return TermTailRelation.TAIL_BOUNDS_TERM
    if term > tail.hi:
        return TermTailRelation.TERM_EXCEEDS_TAIL
    if term <= tail.lo:
        return TermTailRelation.TAIL_BOUNDS_TERM
    return TermTailRelation.INDETERMINATE


def compare_term_tail(spec: SequenceSpec, index: int) -> TermTailRelation:
    """Resolve term(index) vs tail(index), refining inexact enclosures.

    Raises IndeterminateComparison when the refinement budget is spent.
    """
    term = spec.term(index)
    for extra in (0,) + REFINEMENT_STEPS:
        relation = _compare_once(term, spec.tail_sum(index, extra=extra))
        if relation is not TermTailRelation.INDETERMINATE:
            return relation
    raise IndeterminateComparison(index)
