"""Exact-rational toolkit for subsum sets of null sequences.

Builds depth-n interval covers of the set of subsequence sums, classifies
its topological type (finite union of intervals, Cantor set, symmetric
Cantorval) with explicit certificates, packs targets greedily for
divergent sequences, and cross-checks everything against a brute-force
oracle. All arithmetic is exact.
"""
from .classify import (
    CoverageCertificate,
    EventualKind,
    EventualVerdict,
    TermTailProfile,
    Verdict,
    VerdictKind,
    classify,
    digit_coverage_test,
    digit_form,
    one_point_components,
    term_tail_profile,
)
from .construction import (
    CnResult,
    build_cn,
    subset_sum_starts,
)
from .errors import (
    CapExceeded,
    DepthLimit,
    DivergentTail,
    EmptyUnion,
    IndeterminateComparison,
    IndexBeyondFinite,
    NotApplicable,
    NotDigitForm,
    NotDivergent,
    SubsumError,
    UnsupportedExponent,
    UnsupportedKind,
)
from .filler import FillResult, fill
from .intervals import (
    EMPTY_UNION,
    ClosedInterval,
    IntervalUnion,
    from_text,
    is_subset,
    reflect,
    to_text,
)
from .oracle import (
    DEPTH_LIMIT,
    MembershipResult,
    membership_probe,
    oracle_cn,
    subset_sums,
)
from .rational import as_fraction, format_rational, parse_rational
from .render import SweepCell, SweepGrid, bar_chart, sweep
from .sequences import (
    EMPTY,
    FiniteTail,
    MergedSpec,
    MergeTail,
    MultiGeometricTail,
    PowerSumTail,
    SequenceSpec,
    SummabilityClass,
    TailEnclosure,
    TermTailRelation,
    as_merged,
    combine_parts,
    compare_term_tail,
    drop_first,
    finite,
    geometric,
    geometric_strands,
    is_nonincreasing,
    multi_geometric,
    nonincreasing_reorder,
    power_sum,
    self_similar,
    sign_split,
    term_tail_relations,
)
from .specio import PRESETS, dump_spec, load_spec

__version__ = "0.1.0"
