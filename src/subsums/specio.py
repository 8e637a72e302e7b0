"""JSON serialization for sequence specs, plus the named presets.

The wire format is a JSON object {"prefix": [...], "tail": {...},
"negated": false} with rationals written as "p/q" strings or integers,
or {"merge": [spec, spec, ...]} for interleaved specs. A bare string is
looked up as a preset name wherever a spec is expected.

"negated": true loads as a MergedSpec with the spec as its one negative
part; a merge flattens its parts, nested merges included, into the
positive and negative tuples. dump_spec writes a merge with one negative
part and nothing else back as that part's object with "negated": true.
"""
from __future__ import annotations

from fractions import Fraction

from .rational import as_fraction, format_rational
from .sequences import (
    FiniteTail,
    MergedSpec,
    MergeTail,
    MultiGeometricTail,
    PowerSumTail,
    SequenceSpec,
    as_merged,
    geometric,
    multi_geometric,
    power_sum,
)

PRESETS = {
    "harmonic": power_sum(1),
    "thirds": geometric(Fraction(1, 3), Fraction(1, 3)),
    "halves": geometric(Fraction(1, 2), Fraction(1, 2)),
    "gn": multi_geometric((Fraction(9, 20), Fraction(6, 11)), Fraction(5, 3)),
    "kenyon": multi_geometric((Fraction(9, 14), Fraction(3, 10)), Fraction(7, 3)),
    "ratios-2-5-3-5": multi_geometric((Fraction(2, 5), Fraction(3, 5)), Fraction(1)),
}


def _array(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array")
    return value


def _load_tail(data):
    if data is None:
        return FiniteTail()
    if not isinstance(data, dict):
        raise ValueError("tail must be an object")
    kind = data.get("kind")

    def needed(key):
        if key not in data:
            raise ValueError(f"{kind} tail needs {key!r}")
        return data[key]

    if kind == "geometric":
        return geometric(needed("a"), needed("rho")).tail
    if kind == "pseries":
        exponent = needed("p")
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ValueError("pseries exponent must be an integer")
        start = data.get("start", 1)
        if not isinstance(start, int) or isinstance(start, bool):
            raise ValueError("pseries start must be an integer")
        return PowerSumTail(exponent, start)
    if kind == "multigeometric":
        return multi_geometric(_array(needed("ratios"), "ratios"), needed("total")).tail
    raise ValueError(f"unknown tail kind {kind!r}")


def load_spec(data):
    """Build a spec from parsed JSON (dict) or a preset name (str)."""
    if isinstance(data, str):
        try:
            return PRESETS[data]
        except KeyError:
            raise ValueError(f"unknown preset {data!r}") from None
    if not isinstance(data, dict):
        raise ValueError("spec must be a JSON object or preset name")
    if "merge" in data:
        extra = set(data) - {"merge"}
        if extra:
            raise ValueError(f"unexpected keys with merge: {sorted(extra)}")
        positive, negative = [], []
        for item in _array(data["merge"], "merge"):
            part = as_merged(load_spec(item))
            positive.extend(part.positive)
            negative.extend(part.negative)
        return MergedSpec(positive, negative)
    extra = set(data) - {"prefix", "tail", "negated"}
    if extra:
        raise ValueError(f"unexpected spec keys: {sorted(extra)}")
    prefix = tuple(as_fraction(value) for value in _array(data.get("prefix", []), "prefix"))
    tail = _load_tail(data.get("tail"))
    negated = data.get("negated", False)
    if not isinstance(negated, bool):
        raise ValueError("negated must be a boolean")
    spec = SequenceSpec(prefix, tail)
    return MergedSpec((), (spec,)) if negated else spec


def _dump_tail(kind):
    if isinstance(kind, FiniteTail):
        return None
    if isinstance(kind, MultiGeometricTail) and len(kind.heads) == 1:
        return {
            "kind": "geometric",
            "a": format_rational(kind.heads[0]),
            "rho": format_rational(kind.period_factor),
        }
    if isinstance(kind, PowerSumTail):
        return {"kind": "pseries", "p": kind.exponent, "start": kind.start}
    if isinstance(kind, MultiGeometricTail):
        return {
            "kind": "multigeometric",
            "ratios": [format_rational(r) for r in kind.ratios],
            "total": format_rational(kind.total),
        }
    if isinstance(kind, MergeTail):
        # No wire form keeps its order: a loaded merge interleaves its
        # parts round-robin, not in descending order.
        raise ValueError("a merge tail has no wire format")
    raise ValueError(f"cannot serialize tail {type(kind).__name__}")


def dump_spec(spec) -> dict:
    """Inverse of load_spec, producing plain JSON-ready data."""
    if isinstance(spec, MergedSpec):
        negated = [{**dump_spec(part), "negated": True} for part in spec.negative]
        if spec.positive or len(negated) != 1:
            return {"merge": [*map(dump_spec, spec.positive), *negated]}
        return negated[0]
    data = {}
    if spec.prefix:
        data["prefix"] = [format_rational(x) for x in spec.prefix]
    tail = _dump_tail(spec.tail)
    if tail is not None:
        data["tail"] = tail
    return data
