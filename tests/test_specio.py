"""Loading and dumping sequence descriptions."""
import itertools
from fractions import Fraction as F

import pytest

import subsums as S


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
    assert spec.prefix == (F(2), F(1, 2))
    assert spec.negated
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
    assert len(spec.parts) == 3


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
    prefixed = S.geometric(F(1, 2), F(1, 2), prefix=(F(2),), negated=True)
    assert S.load_spec(S.dump_spec(prefixed)) == prefixed


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
    merged = S.MergedSpec((
        S.geometric(F(1, 4), F(1, 4)),
        S.geometric(F(1, 2), F(1, 4), negated=True),
    ))
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
