"""Output checks that fail the run.

Seed-independent outputs are compared with the SHA-256 digests committed
in digests.json. Seeded outputs are checked by properties that hold for
any seed: nested covers, exact hulls, oracle agreement, probe exclusion
depths, fill gap halving and the paper's preset verdicts. Parsing here is
independent of the package; nesting uses the package's `is_subset` on
unions rebuilt from the printed output, and probe depths are confirmed
against `build_cn` covers.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction as F

import workloads
from workloads import PRESETS, Seq

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# The paper's verdicts for the presets: (kind, certificate, component_count).
PRESET_VERDICTS = {
    "gn": ("SymmetricCantorval", "DigitCoverage", None),
    "kenyon": ("SymmetricCantorval", "DigitCoverage", None),
    "thirds": ("CantorSet", None, None),
    "ratios-2-5-3-5": ("CantorSet", "LambdaBelowQuarter", None),
    "halves": ("FiniteUnion", None, 1),
    "harmonic": ("UnboundedInterval", None, None),
}
VERDICT_KINDS = {
    "FiniteUnion", "CantorSet", "SymmetricCantorval",
    "UnboundedInterval", "WholeLine", "Undetermined",
}


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_items(job, record) -> dict:
    """Digest name -> SHA-256 of a job's seed-independent output."""
    if record["files"]:
        return {f"{job.key}:{os.path.basename(p)}": sha256(t or "") for p, t in record["files"].items()}
    return {job.key: sha256(record["stdout"])}


def load_digests() -> dict:
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


# -- parsing -------------------------------------------------------------------


def _parse_cover(stdout: str):
    """(intervals, payload) from `cn`/`oracle` output in either format."""
    text = stdout.strip()
    if text.startswith("{"):
        payload = json.loads(text)
        return [(F(a), F(b)) for a, b in payload["intervals"]], payload
    pairs = []
    for line in text.splitlines():
        a, b = line.split()
        pairs.append((F(a), F(b)))
    return pairs, None


def _union(mods, pairs):
    iv = mods.intervals
    return iv.IntervalUnion(tuple(iv.ClosedInterval(a, b) for a, b in pairs))


def _seq(ref) -> Seq:
    return PRESETS[ref] if isinstance(ref, str) else ref


# -- cover ---------------------------------------------------------------------


def check_cover(job, rec, records, mods, seq, outer_key=None, same_as_key=None):
    seq = _seq(seq)
    pairs, payload = _parse_cover(rec["stdout"])
    expect(bool(pairs), "empty cover")
    for (a, b), (c, _) in zip(pairs, pairs[1:]):
        expect(a <= b < c, f"cover not normalized near {b} {c}")
    expect(pairs[0][0] == 0, f"hull starts at {pairs[0][0]}, not 0")
    if seq.exact:
        expect(pairs[-1][1] == seq.total(), f"hull ends at {pairs[-1][1]}, total is {seq.total()}")
    if payload is not None:
        expect(payload["components"] == len(pairs), "component count disagrees with intervals")
        expect(payload["tail_exact"] == seq.exact, "tail_exact flag wrong")
        inner = payload.get("inner_intervals")
        expect((inner is not None) == (not seq.exact), "inner union present iff the tail is inexact")
        if inner:
            inner_u = _union(mods, [(F(a), F(b)) for a, b in inner])
            expect(mods.intervals.is_subset(inner_u, _union(mods, pairs)), "inner union not inside fattened")
        if "oracle_agrees" in payload:
            expect(payload["oracle_agrees"] is True, "oracle disagrees")
    if outer_key is not None:
        outer, _ = _parse_cover(records[outer_key]["stdout"])
        expect(mods.intervals.is_subset(_union(mods, pairs), _union(mods, outer)),
               f"cover is not inside the shallower cover of {outer_key}")
    if same_as_key is not None:
        expect(rec["stdout"] == records[same_as_key]["stdout"], f"oracle text differs from {same_as_key}")


def check_render(job, rec, records, mods, seq, cn_key=None):
    (text,) = rec["files"].values()
    expect(text is not None and text.startswith("<svg") and text.rstrip().endswith("</svg>"), "render wrote no SVG")
    bars = text.count("<rect") - 1
    expect(bars >= 1, "render drew no bars")
    if cn_key is not None:
        pairs, _ = _parse_cover(records[cn_key]["stdout"])
        expect(bars == len(pairs), f"{bars} bars for {len(pairs)} components")


# -- classify ------------------------------------------------------------------


def _verdict(rec) -> dict:
    payload = json.loads(rec["stdout"])
    expect(payload["kind"] in VERDICT_KINDS, f"unknown verdict {payload['kind']}")
    return payload


def check_preset_verdict(job, rec, records, mods, name):
    payload = _verdict(rec)
    kind, certificate, count = PRESET_VERDICTS[name]
    expect(payload["kind"] == kind, f"{name} is {payload['kind']}, the paper says {kind}")
    if certificate is not None:
        expect(payload["certificate"] == certificate, f"{name} certificate {payload['certificate']}")
    if count is not None:
        expect(payload["component_count"] == count, f"{name} has {payload['component_count']} components")


def check_positive_verdict(job, rec, records, mods, seq):
    payload = _verdict(rec)
    expect(payload["hull"] == ["0", workloads.fmt(seq.total())], f"hull {payload['hull']}")
    expect(payload["hull_exact"] is True, "exact spec reported an inexact hull")


def check_digit_verdict(job, rec, records, mods, seq):
    check_positive_verdict(job, rec, records, mods, seq)
    payload = json.loads(rec["stdout"])
    expect((payload["kind"], payload["certificate"]) == ("SymmetricCantorval", "DigitCoverage"),
           f"digit-covering pair is {payload['kind']} ({payload['certificate']})")


def check_signed_verdict(job, rec, records, mods, pos, neg):
    payload = _verdict(rec)
    lo = -neg.total()
    expect(payload["summability"] == "absolutely-summable", payload["summability"])
    expect(payload["hull"] == [workloads.fmt(lo), workloads.fmt(pos.total())], f"hull {payload['hull']}")
    expect(payload["translation"] == workloads.fmt(lo), f"translation {payload['translation']}")


def check_pseries_verdict(job, rec, records, mods, seq):
    payload = _verdict(rec)
    expect(payload["kind"] == "FiniteUnion", f"power-sum spec is {payload['kind']}")
    expect(payload["hull"][0] == "0" and payload["hull_exact"] is False, "power-sum hull")
    lo, hi = payload["component_bounds"]
    count = payload["component_count"]
    expect(lo <= hi and (count is None or lo <= count <= hi), f"component bounds {lo} {hi} {count}")


def check_sweep(job, rec, records, mods):
    csv_text, svg_text = rec["files"].values()
    expect(csv_text is not None and svg_text is not None, "sweep files missing")
    cells = len(csv_text.splitlines()) - 1
    expect(f"cells: {cells}" in rec["stdout"], "sweep cell count disagrees with the CSV")


# -- query ---------------------------------------------------------------------


def _spec(mods, ref):
    if ref in mods.specio.PRESETS:
        return mods.specio.load_spec(ref)
    with open(ref, encoding="utf-8") as handle:
        return mods.specio.load_spec(json.load(handle))


def _in_cover(mods, spec, depth, point) -> bool:
    return mods.construction.build_cn(spec, depth).fattened.contains(point)


def check_member(job, rec, records, mods):
    ref, point, depth = job.probe
    expect(rec["value"] is None, f"known subsum {point} excluded at depth {rec['value']}")
    expect(_in_cover(mods, _spec(mods, ref), depth, point), "build_cn cover misses a known subsum")


def check_gap(job, rec, records, mods, gap_depth):
    ref, point, _ = job.probe
    excluded = rec["value"]
    expect(excluded == gap_depth, f"midpoint of a gap opening at depth {gap_depth} excluded at {excluded}")
    spec = _spec(mods, ref)
    expect(not _in_cover(mods, spec, excluded, point), "build_cn cover holds the point at the exclusion depth")
    expect(excluded == 0 or _in_cover(mods, spec, excluded - 1, point), "excluded before the reported depth")


def check_fill(job, rec, records, mods):
    text = rec["stdout"].strip()
    if text.startswith("{"):
        payload = json.loads(text)
        runs = [tuple(r) for r in payload["runs"]]
        gaps = [F(g) for g in payload["gaps"]]
        achieved, target = F(payload["achieved"]), F(payload["target"])
        limit = payload["hit_round_limit"]
    else:
        fields = dict(line.split(":", 1) for line in text.splitlines())
        runs = [tuple(int(v) for v in r.split("..")) for r in fields["runs"].split()]
        gaps = [F(g) for g in fields["gaps"].split()]
        achieved, target = F(fields["achieved"].strip()), F(fields["target"].strip())
        limit = fields["hit_round_limit"].strip() == "true"
    argv = list(job.argv)
    eps = F(argv[argv.index("--eps") + 1]) if "--eps" in argv else F(1, 10**6)
    expect(target == F(argv[argv.index("--target") + 1]), "target echoed wrong")
    expect(gaps and len(gaps) == len(runs), "one gap per run")
    expect(achieved + gaps[-1] == target, "achieved + gap != target")
    previous = target
    for gap in gaps:
        expect(0 <= gap and 2 * gap <= previous, "gap did not halve")
        previous = gap
    for (a, b), (c, _) in zip(runs, runs[1:]):
        expect(a <= b < c, "runs overlap or go backwards")
    expect(limit or gaps[-1] < eps, "stopped above eps without hitting the round limit")


CHECKS = {
    "cover": check_cover,
    "render": check_render,
    "preset-verdict": check_preset_verdict,
    "positive-verdict": check_positive_verdict,
    "digit-verdict": check_digit_verdict,
    "signed-verdict": check_signed_verdict,
    "pseries-verdict": check_pseries_verdict,
    "sweep": check_sweep,
    "member": check_member,
    "gap": check_gap,
    "fill": check_fill,
}


def run_checks(plan, records, mods, tiny: bool) -> list:
    """Check first-pass outputs; return failure messages (empty when correct)."""
    digests = load_digests()
    failures = []
    for job in plan.jobs:
        rec = records[job.key]
        if not rec["ok"]:
            continue  # already counted as a failed job
        try:
            if job.check is not None:
                name, *params = job.check
                CHECKS[name](job, rec, records, mods, *params)
            if job.digest and not tiny:
                for key, value in digest_items(job, rec).items():
                    expect(key in digests, f"no committed digest for {key}")
                    expect(digests[key] == value, f"output digest of {key} changed")
        except (CheckFailed, KeyError, ValueError, TypeError) as exc:
            failures.append(f"{job.key}: {type(exc).__name__}: {exc}")
    return failures


def defect_status(job, rec, records, mods):
    """(status, still_correct) for a known-defect probe.

    'present' means the documented failure still happens; 'fixed' means the
    job now succeeds and its output passes the check; 'typed-error' is an
    exit 2 with a package error, an acceptable way to reject the input.
    """
    if rec["error"] and rec["error"].startswith("AttributeError"):
        return "present", True
    if rec["rc"] == 1 and "limit" in rec["stderr"] and "digits" in rec["stderr"]:
        return "present", True
    if rec["rc"] == 2 and rec["error"] is None:
        return "typed-error", True
    if rec["rc"] == 0 and rec["error"] is None:
        if job.check[0] == "merge-cover":
            return _merge_status(rec, job.check[1])
        try:
            CHECKS[job.check[0]](job, rec, records, mods)
        except (CheckFailed, KeyError, ValueError, TypeError) as exc:
            return f"wrong output: {exc}", False
        return "fixed", True
    return f"changed: rc={rec['rc']} {rec['error'] or rec['stderr'].strip()[:120]}", False


def _merge_status(rec, total):
    if rec["files"]:
        (text,) = rec["files"].values()
        return ("fixed", True) if text and text.startswith("<svg") else ("wrong output: no SVG", False)
    pairs, _ = _parse_cover(rec["stdout"])
    if pairs and pairs[0][0] == 0 and pairs[-1][1] == total:
        return "fixed", True
    return "wrong output: hull", False
