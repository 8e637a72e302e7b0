"""The public names of the package, pinned so that any addition or removal
shows up as a one-line diff here."""
import ast
import inspect
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest

import subsums as S

PUBLIC_NAMES = [
    "CapExceeded",
    "ClosedInterval",
    "CnResult",
    "CoverageCertificate",
    "DEPTH_LIMIT",
    "DepthLimit",
    "DivergentTail",
    "EMPTY",
    "EMPTY_UNION",
    "EmptyUnion",
    "EventualKind",
    "EventualVerdict",
    "FillResult",
    "FiniteTail",
    "IndeterminateComparison",
    "IndexBeyondFinite",
    "IntervalUnion",
    "MembershipResult",
    "MergeTail",
    "MergedSpec",
    "MultiGeometricTail",
    "NotApplicable",
    "NotDigitForm",
    "NotDivergent",
    "PRESETS",
    "PowerSumTail",
    "SequenceSpec",
    "SubsumError",
    "SummabilityClass",
    "SweepCell",
    "SweepGrid",
    "TailEnclosure",
    "TermTailProfile",
    "TermTailRelation",
    "UnsupportedExponent",
    "UnsupportedKind",
    "Verdict",
    "VerdictKind",
    "as_fraction",
    "as_merged",
    "bar_chart",
    "build_cn",
    "classify",
    "combine_parts",
    "compare_term_tail",
    "digit_coverage_test",
    "digit_form",
    "drop_first",
    "dump_spec",
    "fill",
    "finite",
    "format_rational",
    "from_text",
    "geometric",
    "geometric_strands",
    "is_nonincreasing",
    "is_subset",
    "load_spec",
    "membership_probe",
    "multi_geometric",
    "nonincreasing_reorder",
    "one_point_components",
    "oracle_cn",
    "parse_rational",
    "power_sum",
    "reflect",
    "self_similar",
    "sign_split",
    "subset_sum_starts",
    "subset_sums",
    "sweep",
    "term_tail_profile",
    "term_tail_relations",
    "to_text",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(S).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_NAMES


def test_result_fields_are_pinned():
    # Field names in order, so that a removed or moved positional field
    # shows up as an explicit test edit.
    pinned = {
        S.Verdict: [
            "kind", "summability", "certificate", "strength", "hull_lo", "hull_hi",
            "hull_exact", "component_lower", "component_upper", "component_count",
            "translation", "known_infinitely_many", "profile", "digit_certificate",
        ],
        S.TermTailProfile: [
            "eventual", "reordered", "pseries_exceed_through", "pseries_bound_from",
            "numerators", "relations",
        ],
        S.EventualVerdict: ["kind", "proof", "after", "exceed_count"],
        S.CnResult: ["depth", "fattened", "inner", "tail_used", "spec", "cap"],
        S.MembershipResult: ["point", "depth", "excluded_at"],
        S.FillResult: ["runs", "gaps", "achieved", "target", "hit_round_limit"],
        S.MultiGeometricTail: ["heads", "period_factor", "nonincreasing"],
    }
    for cls, names in pinned.items():
        assert [f.name for f in fields(cls)] == names, cls.__name__


def test_term_tail_relation_members_are_pinned():
    assert [rel.value for rel in S.TermTailRelation] == ["exceed", "bound"]


def test_tail_enclosure_is_pinned():
    # A positive bracket: lo is always finite, hi is None on divergence.
    assert {f.name: f.type for f in fields(S.TailEnclosure)} == {
        "lo": "Fraction",
        "hi": "Optional[Fraction]",
    }
    members = sorted(name for name in vars(S.TailEnclosure) if not name.startswith("_"))
    assert members == ["exact", "point", "value"]
    with pytest.raises(TypeError):
        S.TailEnclosure(None, F(1))


def test_sign_split_returns_two_specs():
    signed = S.MergedSpec((S.PRESETS["halves"],), (S.PRESETS["thirds"],))
    parts = S.sign_split(signed)
    assert len(parts) == 2
    assert all(isinstance(part, S.SequenceSpec) for part in parts)


def _unused_imports(source: str) -> list:
    """Names a module imports and never reads (__future__ imports aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_import_no_unused_name():
    package = Path(S.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "__init__.py")
    assert len(modules) >= 11
    for path in modules:
        assert _unused_imports(path.read_text()) == [], path.name


def test_unused_import_check_sees_an_unused_name():
    assert _unused_imports("import math\nfrom fractions import Fraction as F\nF(1)\n") == ["math"]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []
