"""Loading and dumping sequence descriptions."""
import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsums as S
import subsums.cli as cli


def _first(spec, n=6):
    return list(itertools.islice(spec.terms(), n))


def test_presets_complete():
    assert list(S.PRESETS) == [
        "harmonic",
        "thirds",
        "halves",
        "gn",
        "kenyon",
        "ratios-2-5-3-5",
    ]


def test_preset_values():
    assert _first(S.PRESETS["harmonic"], 4) == [F(1), F(1, 2), F(1, 3), F(1, 4)]
    assert _first(S.PRESETS["thirds"], 3) == [F(1, 3), F(1, 9), F(1, 27)]
    assert _first(S.PRESETS["halves"], 3) == [F(1, 2), F(1, 4), F(1, 8)]
    assert _first(S.PRESETS["gn"]) == [
        F(3, 4), F(1, 2), F(3, 16), F(1, 8), F(3, 64), F(1, 32),
    ]
    assert _first(S.PRESETS["kenyon"]) == [
        F(3, 2), F(1, 4), F(3, 8), F(1, 16), F(3, 32), F(1, 64),
    ]
    assert _first(S.PRESETS["ratios-2-5-3-5"], 4) == [
        F(2, 5), F(9, 25), F(12, 125), F(54, 625),
    ]


def test_load_spec_preset_name():
    spec = S.load_spec("gn")
    assert spec == S.PRESETS["gn"]
    with pytest.raises(ValueError):
        S.load_spec("unknown-preset")


def test_load_spec_geometric():
    spec = S.load_spec({"tail": {"kind": "geometric", "a": "1/3", "rho": "1/3"}})
    assert spec == S.PRESETS["thirds"]


def test_load_spec_prefix_and_negated():
    spec = S.load_spec({
        "prefix": ["2", "0.5"],
        "tail": {"kind": "geometric", "a": "1/8", "rho": "1/2"},
        "negated": True,
    })
    (part,) = spec.negative
    assert part.prefix == (F(2), F(1, 2))
    assert spec == S.MergedSpec((), (part,))
    assert _first(spec, 3) == [F(-2), F(-1, 2), F(-1, 8)]


def test_load_spec_finite():
    spec = S.load_spec({"prefix": ["1", "1/2", "1/4"]})
    assert spec.tail_exact if hasattr(spec, "tail_exact") else True
    assert _first(spec, 5) == [F(1), F(1, 2), F(1, 4)]


def test_load_spec_pseries():
    spec = S.load_spec({"tail": {"kind": "pseries", "p": 2, "start": 3}})
    assert _first(spec, 2) == [F(1, 9), F(1, 16)]
    harmonic = S.load_spec({"tail": {"kind": "pseries", "p": 1}})
    assert harmonic == S.PRESETS["harmonic"]


def test_load_spec_pseries_validation():
    with pytest.raises(ValueError):
        S.load_spec({"tail": {"kind": "pseries", "p": "2.5"}})
    with pytest.raises(ValueError):
        S.load_spec({"tail": {"kind": "pseries", "p": True}})
    with pytest.raises(S.UnsupportedExponent):
        S.load_spec({"tail": {"kind": "pseries", "p": 0}})


def test_power_sum_start_is_an_integer_and_round_trips():
    # A bool start is refused: it would dump as "start": true, which
    # load_spec refuses.
    with pytest.raises(ValueError, match="start must be a positive integer"):
        S.power_sum(2, start=True)
    for start in range(1, 6):
        spec = S.power_sum(2, start=start)
        assert S.load_spec(S.dump_spec(spec)) == spec


def test_load_spec_multigeometric():
    spec = S.load_spec({
        "tail": {"kind": "multigeometric", "ratios": ["9/20", "6/11"], "total": "5/3"},
    })
    assert spec == S.PRESETS["gn"]


def test_load_spec_merge():
    data = {
        "merge": [
            {"tail": {"kind": "geometric", "a": "1/4", "rho": "1/4"}},
            {
                "tail": {"kind": "geometric", "a": "1/2", "rho": "1/4"},
                "negated": True,
            },
        ],
    }
    spec = S.load_spec(data)
    assert isinstance(spec, S.MergedSpec)
    assert _first(spec, 4) == [F(1, 4), F(-1, 2), F(1, 16), F(-1, 8)]


def test_load_spec_merge_flattens():
    data = {
        "merge": [
            {"merge": [
                {"tail": {"kind": "geometric", "a": "1/3", "rho": "1/3"}},
                {"tail": {"kind": "geometric", "a": "1/5", "rho": "1/5"}},
            ]},
            {"tail": {"kind": "geometric", "a": "1/7", "rho": "1/7"}},
        ],
    }
    spec = S.load_spec(data)
    assert len(spec.positive) == 3


def test_load_spec_rejects_unknown_keys():
    with pytest.raises(ValueError):
        S.load_spec({"tail": {"kind": "geometric", "a": "1", "rho": "1/2"}, "x": 1})
    with pytest.raises(ValueError):
        S.load_spec({"tail": {"kind": "mystery"}})
    with pytest.raises(ValueError):
        S.load_spec(42)


def test_dump_load_round_trip():
    for name, spec in S.PRESETS.items():
        assert S.load_spec(S.dump_spec(spec)) == spec
    prefixed = S.MergedSpec((), (S.geometric(F(1, 2), F(1, 2), prefix=(F(2),)),))
    assert S.load_spec(S.dump_spec(prefixed)) == prefixed


@given(
    st.lists(st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12), min_size=2, max_size=3),
    st.fractions(min_value=F(1, 4), max_value=F(3), max_denominator=12),
    st.lists(st.fractions(min_value=F(1, 40), max_value=F(3), max_denominator=40), max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_strand_built_tails_round_trip(ratios, total, prefix):
    # drop, the reordering's strands and self_similar's view build their
    # tails from heads and q alone; the proportions and total derived from
    # those are their wire form.
    spec = S.multi_geometric(ratios, total, prefix=prefix)
    built = [S.drop_first(spec, len(prefix) + k) for k in range(1, 2 * len(ratios) + 1)]
    reordered = S.nonincreasing_reorder(spec)
    if isinstance(reordered.tail, S.MergeTail):
        built += [part for part in reordered.tail.parts if not part.prefix]
    for dropped in built:
        assert "ratios" not in vars(dropped.tail) and "total" not in vars(dropped.tail)
    for item in built + [S.self_similar(reordered)]:
        assert S.load_spec(S.dump_spec(item)) == item


@pytest.mark.parametrize("data", [
    {"tail": {"kind": "geometric", "a": "1/3", "rho": "1/3"}},
    {"tail": {"kind": "geometric", "a": "5/2", "rho": "7/8"}},
    {"prefix": ["2", "1/9"], "tail": {"kind": "geometric", "a": "1/8", "rho": "1/2"}},
    {"prefix": ["3"], "tail": {"kind": "geometric", "a": "1", "rho": "2/3"}, "negated": True},
])
def test_geometric_wire_round_trip(data):
    assert S.dump_spec(S.load_spec(data)) == data


def test_one_ratio_multigeometric_dumps_as_geometric():
    data = {"prefix": ["1"], "tail": {"kind": "multigeometric", "ratios": ["2/3"], "total": "3/2"}}
    spec = S.load_spec(data)
    dumped = S.dump_spec(spec)
    assert dumped == {"prefix": ["1"], "tail": {"kind": "geometric", "a": "1", "rho": "1/3"}}
    assert S.load_spec(dumped) == spec


def test_dump_merge_round_trip_terms():
    merged = S.MergedSpec(
        (S.geometric(F(1, 4), F(1, 4)),),
        (S.geometric(F(1, 2), F(1, 4)),),
    )
    loaded = S.load_spec(S.dump_spec(merged))
    assert _first(loaded, 8) == _first(merged, 8)


def test_dump_spec_rejects_merge_tail():
    # A loaded merge interleaves round-robin, so it would reorder the terms.
    with pytest.raises(ValueError, match="merge tail"):
        S.dump_spec(S.nonincreasing_reorder(S.PRESETS["kenyon"]))


def test_dump_spec_rational_strings():
    data = S.dump_spec(S.PRESETS["gn"])
    assert data["tail"]["ratios"] == ["9/20", "6/11"]
    assert data["tail"]["total"] == "5/3"


@pytest.mark.parametrize("field, data", [
    ("prefix", {"prefix": "12"}),
    ("merge", {"merge": {"gn": 0, "thirds": 1}}),
    ("ratios", {"tail": {"kind": "multigeometric", "ratios": {"1/3": 0}, "total": "1"}}),
], ids=["prefix", "merge", "ratios"])
def test_load_spec_rejects_non_array_fields(field, data, tmp_path, capsys):
    # A string or object iterates as its characters or keys; only an
    # array may stand where a list belongs.
    with pytest.raises(ValueError, match=f"{field} must be a JSON array"):
        S.load_spec(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert cli.main(["classify", "--seq", str(path)]) == 1
    assert "JSON array" in capsys.readouterr().err


_values = st.fractions(min_value=F(1, 40), max_value=F(3), max_denominator=40)
_prefixes = st.lists(_values, max_size=2)
_parts = st.one_of(
    st.builds(S.finite, st.lists(_values, min_size=1, max_size=3)),
    st.builds(
        lambda a, rho, prefix: S.geometric(a, rho, prefix=prefix),
        _values,
        st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12),
        _prefixes,
    ),
    st.builds(
        lambda p, start, prefix: S.power_sum(p, start, prefix=prefix),
        st.integers(1, 3),
        st.integers(1, 5),
        _prefixes,
    ),
)


def _round_robin(signed_parts, n):
    """First n terms of (sign, part) pairs taken in turn: round k reads term
    k of every part that has one."""
    out = []
    k = 1
    while len(out) < n:
        live = [(sign, part) for sign, part in signed_parts
                if part.term_count() is None or part.term_count() >= k]
        if not live:
            break
        out.extend(sign * part.term(k) for sign, part in live)
        k += 1
    return out[:n]


@settings(max_examples=80, deadline=None)
@given(st.lists(_parts, max_size=3), st.lists(_parts, max_size=3))
def test_signed_merge_wire_round_trip(positive, negative):
    merged = S.MergedSpec(tuple(positive), tuple(negative))
    wire = json.loads(json.dumps(S.dump_spec(merged)))
    assert S.load_spec(wire) == merged
    reference = _round_robin([(1, p) for p in positive] + [(-1, p) for p in negative], 12)
    assert _first(merged, 12) == reference
