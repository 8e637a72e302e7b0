"""CLI behaviour, run in-process through main() and in a fresh process."""
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import subsums as S
import subsums.cli as cli
from subsums.sequences import REFINEMENT_STEPS


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, timeout=120):
    """`python -m subsums.cli argv` in a new interpreter, with src on the path.

    A run past `timeout` seconds raises subprocess.TimeoutExpired, so a hang
    fails its test.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "subsums.cli", *argv],
        capture_output=True, env=env, timeout=timeout,
    )


def test_classify_json_payload(capsys):
    code, out, _ = run(capsys, "classify", "--seq", "gn")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "SymmetricCantorval"
    assert payload["certificate"] == "DigitCoverage"
    assert payload["strength"] == "Proven"
    assert payload["hull"] == ["0", "5/3"]
    assert payload["hull_exact"] is True
    assert payload["summability"] == "absolutely-summable"
    assert payload["profile_prefix"] == ["bound", "exceed"] * 5
    assert payload["known_infinitely_many"] is True


def test_classify_text_format(capsys):
    code, out, _ = run(capsys, "classify", "--seq", "halves", "--format", "text")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().split("\n"))
    assert lines["kind"] == "FiniteUnion"
    assert lines["component_count"] == "1"
    assert lines["component_bounds"] == "[1, 1]"


def test_classify_divergent(capsys):
    code, out, _ = run(capsys, "classify", "--seq", "harmonic")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "UnboundedInterval"
    assert payload["hull"] == ["0", "inf"]


def test_classify_spec_file(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "prefix": ["2"],
        "tail": {"kind": "geometric", "a": "1/2", "rho": "1/2"},
    }))
    code, out, _ = run(capsys, "classify", "--seq", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "FiniteUnion"
    assert payload["component_bounds"] == [2, 2]
    assert payload["component_count"] == 2


def test_classify_reports_indeterminate_relation(capsys, tmp_path):
    # The merge of test_indeterminate_relation_outside_the_rules_leaves_undetermined:
    # the strand head sits at the midpoint of the tightest enclosure of the
    # tail after index 2.
    head = F(9, 16)
    for _ in range(3):
        parts = (S.power_sum(3), S.geometric(head, F(1, 10**6)))
        enclosure = S.combine_parts(parts).tail_sum(2, extra=REFINEMENT_STEPS[-1])
        head = (enclosure.lo + enclosure.hi) / 2
    path = tmp_path / "merge.json"
    path.write_text(json.dumps(S.dump_spec(S.MergedSpec(parts))))
    code, out, _ = run(capsys, "classify", "--seq", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "Undetermined"
    assert payload["profile_prefix"] == ["exceed", "indeterminate"]


def test_classify_large_power_sum_stays_small(tmp_path):
    # 1/k^80 has at least 2^79 components, so no cover is folded to count
    # them; under a 512 MiB address space the command still answers.
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("RLIMIT_AS is unavailable")
    limit = 512 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    path = tmp_path / "p80.json"
    path.write_text(json.dumps({"tail": {"kind": "pseries", "p": 80}}))
    done = subprocess.run(
        [sys.executable, "-m", "subsums.cli", "classify", "--seq", str(path)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120, preexec_fn=cap_memory,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["kind"] == "FiniteUnion"
    assert payload["component_count"] is None


def test_cn_text_round_trip(capsys):
    code, out, _ = run(capsys, "cn", "--seq", "thirds", "--depth", "2")
    assert code == 0
    assert S.from_text(out) == S.build_cn(S.PRESETS["thirds"], 2).fattened


def test_cn_json_components(capsys):
    code, out, _ = run(
        capsys, "cn", "--seq", "ratios-2-5-3-5", "--depth", "6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 6
    assert payload["components"] == 23
    assert payload["tail_exact"] is True
    assert len(payload["intervals"]) == 23
    assert payload["hull"] == ["0", "1"]


def test_cn_out_file(capsys, tmp_path):
    target = tmp_path / "cover.txt"
    code, out, _ = run(
        capsys, "cn", "--seq", "thirds", "--depth", "3", "--out", str(target),
    )
    assert code == 0
    assert f"wrote {target}" in out
    assert S.from_text(target.read_text()) == S.build_cn(
        S.PRESETS["thirds"], 3,
    ).fattened


def test_cn_divergent_exit(capsys):
    code, _, err = run(capsys, "cn", "--seq", "harmonic")
    assert code == 2
    assert "DivergentTail" in err


def test_oracle_agreement(capsys):
    code, out, _ = run(
        capsys, "oracle", "--seq", "gn", "--depth", "6", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["oracle_agrees"] is True


def test_oracle_disagreement_exit(capsys, monkeypatch):
    bogus = S.IntervalUnion([S.ClosedInterval(F(0), F(1, 999))])
    monkeypatch.setattr(cli, "oracle_cn", lambda spec, n: bogus)
    code, out, _ = run(capsys, "oracle", "--seq", "thirds", "--depth", "2")
    assert code == 3
    assert out.startswith("DIFF")
    assert "cn:" in out and "oracle:" in out


def test_oracle_on_positive_merge(capsys, tmp_path):
    path = tmp_path / "merge.json"
    path.write_text(json.dumps({"merge": [
        {"tail": {"kind": "geometric", "a": "1/2", "rho": "1/3"}},
        {"tail": {"kind": "multigeometric", "ratios": ["1/2", "2/3"], "total": "1"}},
    ]}))
    code, out, _ = run(
        capsys, "oracle", "--seq", str(path), "--depth", "6", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_agrees"] is True
    assert payload["hull"] == ["0", "7/4"]


def test_cover_of_signed_merge_is_usage_error(capsys, tmp_path):
    path = tmp_path / "signed.json"
    path.write_text(json.dumps({"merge": [
        {"tail": {"kind": "geometric", "a": "1/2", "rho": "1/3"}},
        {"tail": {"kind": "geometric", "a": "1/4", "rho": "1/2"}, "negated": True},
    ]}))
    code, _, err = run(capsys, "cn", "--seq", str(path))
    assert code == 1
    assert "positive" in err


_HARMONIC_PART = {"tail": {"kind": "pseries", "p": 1}}
_HALVES_PART = {"tail": {"kind": "geometric", "a": "1/2", "rho": "1/2"}}


def test_fill_takes_a_merge_of_positive_specs(capsys, tmp_path):
    path = tmp_path / "merge.json"
    path.write_text(json.dumps({"merge": [_HARMONIC_PART, _HALVES_PART]}))
    code, out, err = run(capsys, "fill", "--seq", str(path), "--target", "3")
    assert code == 0, err
    assert out.splitlines()[0] == "runs: 1..6 8..8"


def test_fill_reaches_far_runs_of_a_merge(tmp_path):
    path = tmp_path / "merge.json"
    path.write_text(json.dumps({"merge": [
        {"tail": {"kind": "pseries", "p": 1, "start": 2}},
        {"tail": {"kind": "geometric", "a": "5/6", "rho": "2/3"}},
    ]}))
    fresh = run_fresh("fill", "--seq", str(path), "--target", "22/7", "--eps", _eps(30), timeout=30)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.decode().splitlines()[0] == (
        "runs: 1..7 25..25 1408..1408 2066966..2066966 4588661229587..4588661229587"
    )


def test_fill_past_the_run_term_cap_exits_2(capsys):
    code, _, err = run(capsys, "fill", "--seq", "harmonic", "--target", "14")
    assert code == 2
    assert "CapExceeded" in err


def test_fill_with_a_ratio_near_1_exits_2_fast(tmp_path):
    path = tmp_path / "near-one.json"
    path.write_text(json.dumps({"merge": [
        _HARMONIC_PART, {"tail": {"kind": "geometric", "a": "1/2", "rho": "999999/1000000"}},
    ]}))
    started = time.perf_counter()
    fresh = run_fresh("fill", "--seq", str(path), "--target", "3", "--eps", "1/1000000", timeout=30)
    assert time.perf_counter() - started < 2
    assert fresh.returncode == 2
    assert "CapExceeded" in fresh.stderr.decode()


def test_classify_past_the_head_term_cap_exits_2(tmp_path):
    path = tmp_path / "long-head.json"
    path.write_text(json.dumps(
        {"tail": {"kind": "multigeometric", "ratios": ["1/10000", "1/40000"], "total": "1"}}
    ))
    fresh = run_fresh("classify", "--seq", str(path), timeout=30)
    assert fresh.returncode == 2
    assert "CapExceeded" in fresh.stderr.decode()


def test_classify_2045_term_strand_head_in_budget(tmp_path):
    # 0.3 s in a fresh interpreter on 2 shared vCPUs (CPython 3.11).
    path = tmp_path / "2045-term-head.json"
    path.write_text(json.dumps(
        {"tail": {"kind": "multigeometric", "ratios": ["1/1844", "1/7376"], "total": "1"}}
    ))
    started = time.perf_counter()
    fresh = run_fresh("classify", "--seq", str(path), timeout=30)
    assert time.perf_counter() - started < 3
    assert fresh.returncode == 0, fresh.stderr
    payload = json.loads(fresh.stdout)
    assert payload["kind"] == "FiniteUnion"
    assert payload["component_count"] == 1


def test_fill_of_signed_merge_is_usage_error(capsys, tmp_path):
    path = tmp_path / "signed.json"
    path.write_text(json.dumps({"merge": [_HARMONIC_PART, {**_HALVES_PART, "negated": True}]}))
    code, _, err = run(capsys, "fill", "--seq", str(path), "--target", "3")
    assert code == 1
    assert "positive" in err
    assert "Traceback" not in err


def test_oracle_depth_limit_fires_before_build(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build_cn ran past the oracle depth limit")

    monkeypatch.setattr(cli, "build_cn", no_build)
    code, _, err = run(capsys, "oracle", "--seq", "thirds", "--depth", "21")
    assert code == 2
    assert "DepthLimit" in err


def test_fill_json(capsys):
    code, out, _ = run(
        capsys, "fill", "--seq", "harmonic", "--target", "5/6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] == [[2, 3]]
    assert payload["gaps"] == ["0"]
    assert payload["achieved"] == "5/6"
    assert payload["hit_round_limit"] is False


def test_fill_text(capsys):
    code, out, _ = run(capsys, "fill", "--seq", "harmonic", "--target", "1/2")
    assert code == 0
    assert "runs: 2..2" in out
    assert "hit_round_limit: false" in out


def test_fill_requires_divergent(capsys):
    code, _, err = run(capsys, "fill", "--seq", "thirds", "--target", "1/4")
    assert code == 2
    assert "NotDivergent" in err


def test_fill_bad_target(capsys):
    code, _, err = run(capsys, "fill", "--seq", "harmonic", "--target", "abc")
    assert code == 1
    assert "--target" in err


# Shifted harmonic tails with prefix terms just above 1.
FILL_PIN_SPECS = {
    "shifted-2-prefix-2": {
        "prefix": ["107/100", "103/100"],
        "tail": {"kind": "pseries", "p": 1, "start": 2},
    },
    "shifted-3-prefix-1": {
        "prefix": ["101/100"],
        "tail": {"kind": "pseries", "p": 1, "start": 3},
    },
}


def _eps(digits):
    return "1/1" + "0" * digits


# sha256[:16] of the output as it was when each greedy run was summed one
# Fraction addition per term.
@pytest.mark.parametrize("argv, digest", [
    (("--seq", "harmonic", "--target", "181/20", "--eps", _eps(30)), "3c7c6d17a83ed16b"),
    (("--seq", "harmonic", "--target", "181/20", "--eps", _eps(30), "--format", "json"),
     "abbb0a6c11c01cef"),
    (("--seq", "harmonic", "--target", "2"), "4e07e9c2385c0eab"),
    (("--seq", "harmonic", "--target", "3", "--format", "json"), "ced138f8cac1014e"),
    (("--seq", "harmonic", "--target", "4"), "17be6a4a68e2401d"),
    (("--seq", "harmonic", "--target", "5", "--format", "json"), "320115a2f859b352"),
    (("--seq", "harmonic", "--target", "6"), "b269a8c0b3584b2d"),
    (("--seq", "harmonic", "--target", "7", "--format", "json"), "74a20912685a621f"),
    (("--seq", "harmonic", "--target", "8"), "8fe72d2c9617ca85"),
    (("--seq", "shifted-2-prefix-2", "--target", "401/100", "--eps", _eps(20)),
     "1985460cbcfdce98"),
    (("--seq", "shifted-3-prefix-1", "--target", "53/10", "--eps", _eps(45), "--format", "json"),
     "e57aaf9fa68f3425"),
])
def test_fill_output_bytes_pinned(capsys, tmp_path, argv, digest):
    paths = {}
    for name, spec in FILL_PIN_SPECS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    argv = [str(paths[arg]) if arg in paths else arg for arg in argv]
    code, out, _ = run(capsys, "fill", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest


def test_presets_listing(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    for name in ("harmonic", "thirds", "halves", "gn", "kenyon"):
        assert f"{name}: " in out
    assert "gn: 3/4, 1/2, 3/16, 1/8, 3/64, 1/32" in out


def test_sweep_writes_pair(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "sweep", "--depth", "2")
    assert code == 0
    assert "cells: 5" in out
    csv_text = (tmp_path / "sweep.csv").read_text()
    assert csv_text.startswith("alpha,beta,lambda,verdict,certificate,feasible")
    svg_text = (tmp_path / "sweep.svg").read_text()
    assert svg_text.startswith("<svg")


def test_sweep_custom_base(capsys, tmp_path):
    base = tmp_path / "grid"
    code, out, _ = run(capsys, "sweep", "--depth", "2", "--out", str(base))
    assert code == 0
    assert (tmp_path / "grid.csv").exists()
    assert (tmp_path / "grid.svg").exists()


def test_render_writes_svg(capsys, tmp_path):
    out_path = tmp_path / "bars.svg"
    code, out, _ = run(
        capsys, "render", "--seq", "gn", "--depth", "5", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text().startswith("<svg")


def test_render_and_sweep_reject_format(capsys, tmp_path):
    svg = tmp_path / "x.svg"
    for argv in (
        ["render", "--seq", "gn", "--depth", "3", "--format", "json", "--out", str(svg)],
        ["sweep", "--depth", "2", "--format", "json", "--out", str(tmp_path / "grid")],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        assert "--format" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_geometric_ratio_one_exits_one(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"tail": {"kind": "geometric", "a": "1/2", "rho": "1"}}))
    code, _, err = run(capsys, "classify", "--seq", str(path))
    assert code == 1
    assert "geometric ratio must lie strictly between 0 and 1" in err


@pytest.mark.parametrize("exponent", [0, -1])
def test_pseries_exponent_below_one_exits_one(capsys, tmp_path, exponent):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"tail": {"kind": "pseries", "p": exponent}}))
    code, out, err = run(capsys, "classify", "--seq", str(path))
    assert (code, out) == (1, "")
    assert "bad spec" in err and "exponent must be at least 1" in err


def test_unknown_preset_exit(capsys):
    code, _, err = run(capsys, "classify", "--seq", "no-such-preset")
    assert code == 1
    assert "no-such-preset" in err


def test_bad_spec_file_exit(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", "--seq", str(path))
    assert code == 1
    assert "not valid JSON" in err


def test_bad_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["cn", "--seq", "thirds", "--bogus"])
    assert info.value.code == 1


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 1


def test_depth_cap_exit(capsys):
    code, _, err = run(
        capsys, "cn", "--seq", "thirds", "--depth", "12", "--cap", "64",
    )
    assert code == 2
    assert "CapExceeded" in err


def test_cap_below_one_exits_one(capsys):
    for command in ("cn", "oracle", "render"):
        for depth in ("0", "3"):
            for cap in ("0", "-5"):
                code, _, err = run(
                    capsys, command, "--seq", "thirds", "--depth", depth, "--cap", cap,
                )
                assert code == 1
                assert "cap must be positive" in err


def test_classify_finite_spec_past_count_cap(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(S.dump_spec(S.finite([F(1, 3**k) for k in range(1, 20)]))))
    code, out, _ = run(capsys, "classify", "--seq", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "FiniteUnion"
    assert payload["component_bounds"] == [2**18 + 1, 2**19]
    assert payload["component_count"] is None


# An inexact tail, so `cn --format json` carries inner_intervals.
PREFIXED_POWER_SUM = {"prefix": ["2"], "tail": {"kind": "pseries", "p": 3}}


# sha256[:16] of the output as it was when every endpoint was a Fraction.
@pytest.mark.parametrize("argv, digest", [
    (("cn", "--seq", "gn", "--depth", "10"), "1076cef2de2f62c2"),
    (("cn", "--seq", "thirds", "--depth", "9", "--format", "json"), "60d2ca783bd2964a"),
    (("cn", "--seq", "prefixed-power-sum", "--depth", "6", "--format", "json"), "83c247092625ebe9"),
    (("oracle", "--seq", "gn", "--depth", "8"), "2f2ed192a26b9b14"),
    (("oracle", "--seq", "kenyon", "--depth", "8", "--format", "json"), "1d5cfc26c91debf0"),
    (("render", "--seq", "gn", "--depth", "10"), "ef1d9a29856aed3c"),
    (("render", "--seq", "halves", "--depth", "13"), "8da7fb3aa7077f58"),
])
def test_cover_output_bytes_pinned(capsys, tmp_path, argv, digest):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(PREFIXED_POWER_SUM))
    argv = [str(spec_path) if arg == "prefixed-power-sum" else arg for arg in argv]
    svg_path = tmp_path / "cover.svg"
    if argv[0] == "render":
        argv += ["--out", str(svg_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    text = svg_path.read_text() if argv[0] == "render" else out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest


def _pairs(union):
    return [[S.format_rational(p.left), S.format_rational(p.right)] for p in union]


def _reference_cn_json(result, **extra):
    """The cn/oracle JSON document as json.dumps wrote it from a payload of
    per-endpoint Fraction strings."""
    hull = result.fattened.hull()
    payload = {
        "depth": result.depth,
        "components": result.fattened.components,
        "total_length": S.format_rational(result.fattened.total_length),
        "hull": [S.format_rational(hull.left), S.format_rational(hull.right)],
        "tail_exact": result.tail_exact,
        "intervals": _pairs(result.fattened),
    }
    if result.inner is not None:
        payload["inner_intervals"] = _pairs(result.inner)
    payload.update(extra)
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("name", ["thirds", "halves", "gn", "kenyon", "ratios-2-5-3-5", "prefixed-power-sum"])
def test_cover_json_matches_json_dumps(capsys, tmp_path, name):
    seq = name
    if name == "prefixed-power-sum":
        seq = str(tmp_path / "spec.json")
        Path(seq).write_text(json.dumps(PREFIXED_POWER_SUM))
    spec = cli._load_seq(seq)
    for depth in range(13):
        result = S.build_cn(spec, depth)
        for command, extra in (("cn", {}), ("oracle", {"oracle_agrees": True})):
            code, out, _ = run(capsys, command, "--seq", seq, "--depth", str(depth), "--format", "json")
            assert code == 0
            assert out == _reference_cn_json(result, **extra)
    assert (result.inner is not None) == (name == "prefixed-power-sum")


@pytest.mark.parametrize("union", [
    S.EMPTY_UNION,
    S.from_text("0 1\n"),
    S.from_text("-3 -5/2\n-1/2 0\n7/3 4\n"),
    S.reflect(S.build_cn(S.PRESETS["gn"], 5).fattened, F(-7, 4)),
])
def test_json_interval_list_matches_json_dumps(union):
    written = '{\n  "intervals": ' + cli._json_intervals(union) + "\n}"
    assert written == json.dumps({"intervals": _pairs(union)}, indent=2)


def test_classify_walks_a_strand_merge_once(capsys, monkeypatch):
    walks = []
    walk = S.MergeTail.walk

    def counted_walk(self):
        walks.append(self)
        return walk(self)

    monkeypatch.setattr(S.MergeTail, "walk", counted_walk)
    assert run(capsys, "classify", "--seq", "kenyon")[0] == 0
    assert len(walks) == 0


def _geo(a, rho, prefix=(), negated=False):
    data = {"tail": {"kind": "geometric", "a": a, "rho": rho}}
    if prefix:
        data["prefix"] = list(prefix)
    if negated:
        data["negated"] = True
    return data


def _mg(ratios, total, prefix=()):
    data = {"tail": {"kind": "multigeometric", "ratios": list(ratios), "total": total}}
    if prefix:
        data["prefix"] = list(prefix)
    return data


# Specs whose classification goes through geometric tails or the strand
# merges of reordered multi-geometric tails; a string is a preset name.
CLASSIFY_PIN_SPECS = {
    "gn": "gn",
    "kenyon": "kenyon",
    "thirds": "thirds",
    "halves": "halves",
    "ratios-2-5-3-5": "ratios-2-5-3-5",
    "harmonic": "harmonic",
    "geo-rho-below-half": _geo("2/5", "2/5"),
    "geo-rho-tenth": _geo("1/10", "1/10"),
    "geo-rho-half-scaled": _geo("3", "1/2"),
    "geo-rho-above-half": _geo("1", "2/3"),
    "geo-in-order-prefix": _geo("1/2", "1/2", prefix=("2",)),
    "geo-two-prefix-in-order": _geo("1/3", "1/3", prefix=("3", "1")),
    "geo-prefix-below-head": _geo("2", "1/2", prefix=("1/2",)),
    "geo-prefix-out-of-order": _geo("1/2", "1/2", prefix=("1", "3")),
    "geo-negated": _geo("1/2", "1/2", negated=True),
    "geo-plus-two-ratio": {"merge": [_geo("1/2", "1/3"), _mg(("1/2", "2/3"), "1")]},
    "signed-geo-quarter": {"merge": [_geo("1/4", "1/4"), _geo("1/2", "1/4", negated=True)]},
    "signed-geo-mixed": {"merge": [_geo("1/2", "1/3"), _geo("1/4", "1/2", negated=True)]},
    "signed-geo-prefix": {"merge": [_mg(("9/20", "6/11"), "5/3"),
                                    _geo("1/3", "1/3", prefix=("1",), negated=True)]},
    "geo-common-ratio-merge": {"merge": [_geo("1/4", "1/4"), _geo("1/2", "1/4")]},
    "geo-two-ratio-merge": {"merge": [_geo("1", "1/2"), _geo("1", "1/3")]},
    "geo-strand-merge-gn": {"merge": [_geo("3/4", "1/4"), _geo("1/2", "1/4")]},
    "geo-plus-pseries": {"merge": [{"tail": {"kind": "pseries", "p": 3}}, _geo("1/5", "1/7")]},
    "mg-10-11-5-11": _mg(("10/11", "5/11"), "1"),
    "mg-3-5-1-2-1-2": _mg(("3/5", "1/2", "1/2"), "1"),
    "mg-2-3-1-2-1-2-1-2": _mg(("2/3", "1/2", "1/2", "1/2"), "1"),
    "mg-4-11-6-11": _mg(("4/11", "6/11"), "1"),
    "mg-one-ratio": _mg(("2/3",), "3/2"),
    "mg-prefix": _mg(("9/20", "6/11"), "5/3", prefix=("1/100",)),
}

# sha256[:16] of `subsums classify --format json`, recorded while the
# geometric tail was its own class.
CLASSIFY_PIN_DIGESTS = {
    "geo-common-ratio-merge": "fd76aed8fd9e5596",
    "geo-in-order-prefix": "0ffd7beee5a48872",
    "geo-negated": "7ff0dd400f2b80b6",
    "geo-plus-pseries": "43a6ee40a1730899",
    "geo-plus-two-ratio": "b77e23acd7385507",
    "geo-prefix-below-head": "7f3fc5f07a00ed56",
    "geo-prefix-out-of-order": "ef5a9b98b1db2bf1",
    "geo-rho-above-half": "d8b9eb5d3059a641",
    "geo-rho-below-half": "5e3de7fafe2f11c7",
    "geo-rho-half-scaled": "d28e593243b2f4bb",
    "geo-rho-tenth": "47065eb34836a61d",
    "geo-strand-merge-gn": "672e3330d1318f97",
    "geo-two-prefix-in-order": "1504eb90fb41fd84",
    "geo-two-ratio-merge": "4bf58e0d60eb104f",
    "gn": "672e3330d1318f97",
    "halves": "fd76aed8fd9e5596",
    "harmonic": "0984e3e00daa63f5",
    "kenyon": "0d69d7b67a23f3bc",
    "mg-10-11-5-11": "0d9df4aa6a4672ac",
    "mg-2-3-1-2-1-2-1-2": "e7c33f5767d4c87a",
    "mg-3-5-1-2-1-2": "a397c74ec9ba4409",
    "mg-4-11-6-11": "6a492951938a9c78",
    "mg-one-ratio": "83cd1a9e770064d7",
    "mg-prefix": "8e69a71e6ef45e8c",
    "ratios-2-5-3-5": "46c42db5d65c6a64",
    "signed-geo-mixed": "458bb7d4cda46756",
    "signed-geo-prefix": "ec0f81608d946ed4",
    "signed-geo-quarter": "03b0c66956067ef0",
    "thirds": "06fafa71b4a872d4",
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_PIN_SPECS))
def test_classify_output_bytes_pinned(capsys, tmp_path, name):
    spec = CLASSIFY_PIN_SPECS[name]
    if not isinstance(spec, str):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    code, out, _ = run(capsys, "classify", "--seq", spec, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == CLASSIFY_PIN_DIGESTS[name]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert run(capsys, "presets")[0] == 0
    first = len(built)
    for argv in (
        ("classify", "--seq", "gn"),
        ("cn", "--seq", "thirds", "--depth", "3"),
        ("oracle", "--seq", "halves", "--depth", "3"),
        ("fill", "--seq", "harmonic", "--target", "1/2"),
    ):
        assert run(capsys, *argv)[0] == 0
    assert len(built) == first
    assert cli.build_parser() is cli.build_parser()


def test_calls_leave_no_state_behind(capsys, tmp_path):
    depth_8 = S.to_text(S.build_cn(S.PRESETS["gn"], 8).fattened)
    code, out, _ = run(capsys, "cn", "--seq", "gn", "--depth", "5", "--format", "json")
    assert code == 0 and json.loads(out)["depth"] == 5
    assert run(capsys, "cn", "--seq", "gn") == (0, depth_8, "")
    svg = tmp_path / "bars.svg"
    assert run(capsys, "render", "--seq", "gn", "--depth", "3", "--out", str(svg))[0] == 0
    svg.unlink()
    assert run(capsys, "cn", "--seq", "gn") == (0, depth_8, "")
    assert list(tmp_path.iterdir()) == []


def test_usage_error_does_not_change_the_next_call(capsys):
    alone = run(capsys, "classify", "--seq", "kenyon", "--format", "text")
    with pytest.raises(SystemExit) as info:
        cli.main(["classify", "--seq", "gn", "--format", "yaml"])
    assert info.value.code == 1
    capsys.readouterr()
    assert run(capsys, "classify", "--seq", "no-such-preset")[0] == 1
    assert run(capsys, "classify", "--seq", "kenyon", "--format", "text") == alone


def test_fresh_process_matches_in_process(capsys):
    code, out, _ = run(capsys, "classify", "--seq", "gn")
    fresh = run_fresh("classify", "--seq", "gn")
    assert (fresh.returncode, fresh.stdout) == (code, out.encode("utf-8"))
    assert code == 0


@pytest.mark.parametrize("argv, code", [
    (("cn", "--seq", "thirds", "--bogus"), 1),
    (("cn", "--seq", "harmonic"), 2),
])
def test_fresh_process_exit_codes(argv, code):
    assert run_fresh(*argv).returncode == code
