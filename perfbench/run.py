#!/usr/bin/env python3
"""Benchmark for the subsums package, driven the way its users drive it.

    python3 perfbench/run.py --workload cover --seed 1 --seconds 30 --trace 0

One process runs one workload as a single client in a closed loop: each
job (a CLI argv run in-process through `subsums.cli.main`, or a library
`membership_probe` call) starts when the previous one returns. Whole
passes over the workload's job list run up to the pass boundary nearest
to --seconds, and until at least MIN_JOBS jobs have completed. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 runs the same number
of passes untraced and then traced, and reports per-layer metrics per
pass. See README.md beside this file for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 30
MIN_JOBS = 100
SETUP_REPEATS = 9

WORKLOAD_WHY = {
    "cover": "cn/oracle/render on presets and seeded positive specs, depths 8-16: construction, intervals and oracle",
    "classify": "classify on presets and seeded two-ratio, signed, power-sum and unsorted specs plus sweep 21: the merge walk",
    "query": "membership probes at depths 10-14 (known subsums and gap midpoints) and fill on shifted harmonics",
}

# (name, unit, better, bound)
END_TO_END = (
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_rate", "ratio", "higher", 0.001),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better); all per pass over the job list.
PER_LAYER = (
    ("construction.build_cn.calls", "count", "lower"),
    ("construction.build_cn.self_s", "s", "lower"),
    ("construction.subset_sum_starts.self_s", "s", "lower"),
    ("construction.endpoints", "count", "lower"),
    ("construction.components", "count", "lower"),
    ("construction.components_per_endpoint", "ratio", "higher"),
    ("intervals.normalize.calls", "count", "lower"),
    ("intervals.normalize.self_s", "s", "lower"),
    ("intervals.normalize.items_in", "count", "lower"),
    ("intervals.normalize.items_out", "count", "lower"),
    ("oracle.subset_sums.self_s", "s", "lower"),
    ("oracle.sums_enumerated", "count", "lower"),
    ("oracle.oracle_cn.calls", "count", "lower"),
    ("oracle.membership_probe.self_s", "s", "lower"),
    ("oracle.oracle_cn_per_probe", "ratio", "lower"),
    ("sequences.compare_term_tail.calls", "count", "lower"),
    ("sequences.compare_term_tail.self_s", "s", "lower"),
    ("sequences.tail_sum.calls", "count", "lower"),
    ("sequences.tail_sum.self_s", "s", "lower"),
    ("sequences.merge_terms_yielded", "count", "lower"),
    ("sequences.nonincreasing_reorder.self_s", "s", "lower"),
    ("sequences.sign_split.self_s", "s", "lower"),
    ("classify.classify.self_s", "s", "lower"),
    ("classify.term_tail_profile.self_s", "s", "lower"),
    ("classify.digit_coverage_test.self_s", "s", "lower"),
    ("classify.build_cn_calls", "count", "lower"),
    ("render.bar_chart.self_s", "s", "lower"),
    ("render.sweep_csv_text.self_s", "s", "lower"),
    ("render.sweep_svg_text.self_s", "s", "lower"),
    ("render.bytes_out", "count", "lower"),
    ("filler.fill.calls", "count", "lower"),
    ("filler.fill.self_s", "s", "lower"),
    ("filler.term_evals", "count", "lower"),
    ("filler.run_terms", "count", "lower"),
    ("specio.load_spec.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
) + tuple((f"layer.{layer}.self_s", "s", "lower") for layer in tracing.LAYERS) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# -- the program under test ------------------------------------------------------


class Program:
    """Freshly imported subsums modules."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "subsums" or m.startswith("subsums.")]:
            del sys.modules[name]
        for layer in tracing.LAYERS:
            setattr(self, layer, importlib.import_module(f"subsums.{layer}"))


def _probe(program, ref, point, depth):
    if ref in program.specio.PRESETS:
        spec = program.specio.load_spec(ref)
    else:
        with open(ref, encoding="utf-8") as handle:
            spec = program.specio.load_spec(json.load(handle))
    return program.oracle.membership_probe(spec, point, depth).excluded_at


def execute(program, job):
    """Run one job; return (latency_s, record)."""
    out, err = io.StringIO(), io.StringIO()
    rc, value, error = 0, None, None
    start = perf_counter()
    try:
        if job.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = program.cli.main(list(job.argv))
        else:
            value = _probe(program, *job.probe)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a job that raises is a failed job, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    files = {}
    for path in job.files:
        try:
            with open(path, encoding="utf-8") as handle:
                files[path] = handle.read()
        except OSError:
            files[path] = None
    record = {
        "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
        "error": error, "value": value, "files": files,
    }
    record["ok"] = (
        error is None and rc == job.expect_rc
        and (job.expect_error is None or job.expect_error in record["stderr"])
    )
    return latency, record


def _fingerprint(record) -> str:
    h = hashlib.sha256()
    for part in (repr(record["rc"]), record["stdout"], repr(record["value"]), *map(repr, record["files"].values())):
        h.update(part.encode("utf-8"))
    return h.hexdigest()


class Loop:
    """Closed-loop client: whole passes over the job list."""

    def __init__(self, program, jobs):
        self.program = program
        self.jobs = jobs
        self.first = {}
        self.fingerprints = {}
        self.latencies = []
        self.by_key = {}
        self.failures = []
        self.nondeterministic = set()
        self.passes = 0

    def run(self, *, seconds=None, min_jobs=0, passes=None, tracer=None):
        """Run whole passes; return (passes, busy seconds, wall seconds).

        Busy time sums the job latencies; wall time adds the harness work
        between jobs (collection, capture, fingerprints).
        """
        start = perf_counter()
        first = len(self.latencies)
        done = 0
        while True:
            for job in self.jobs:
                if tracer is not None:
                    tracer.job = f"{self.passes}:{job.key}"
                # Start every job from a collected heap, as a fresh CLI
                # process would, so that one job's garbage is not
                # collected during the next one.
                gc.collect()
                latency, record = execute(self.program, job)
                self.latencies.append((latency, record["ok"]))
                self.by_key.setdefault(job.key, []).append(latency)
                if not record["ok"]:
                    self.failures.append(f"{job.key}: rc={record['rc']} {record['error'] or record['stderr'].strip()[:200]}")
                fp = _fingerprint(record)
                if job.key not in self.first:
                    self.first[job.key] = record
                    self.fingerprints[job.key] = fp
                elif fp != self.fingerprints[job.key]:
                    self.nondeterministic.add(job.key)
            self.passes += 1
            done += 1
            elapsed = perf_counter() - start
            if passes is not None:
                if done >= passes:
                    break
            # Stop at the pass boundary nearest to `seconds`, so that the
            # pass count does not flip when a pass takes about seconds/k.
            elif elapsed + elapsed / done / 2 >= seconds and len(self.latencies) >= min_jobs:
                break
        wall = perf_counter() - start
        busy = sum(latency for latency, _ in self.latencies[first:])
        return done, busy, wall


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup(workload, seed, workdir, tiny, repeats):
    """Import, build the parser, write the seeded specs, run one warm-up job."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        program = Program()
        program.cli.build_parser()
        plan = workloads.build(workload, seed, workdir, tiny)
        warm = next(job for job in plan.jobs if job.warmup)
        execute(program, warm)
        times.append(perf_counter() - start)
    return program, plan, times


def run_workload(workload, seed, seconds, trace, tiny=False):
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    program, plan, setup_times = setup(workload, seed, workdir, tiny, 2 if tiny else SETUP_REPEATS)
    min_jobs = 1 if tiny else MIN_JOBS

    loop = Loop(program, plan.jobs)
    if trace:
        passes, untraced_busy, _ = loop.run(seconds=seconds / 2, min_jobs=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced_busy, traced_wall = loop.run(passes=passes, tracer=tracer)
        finally:
            tracer.uninstall()
    else:
        _, busy, _ = loop.run(seconds=seconds, min_jobs=min_jobs)
    problems = checks.run_checks(plan, loop.first, program, tiny)
    problems += [f"{key}: output differs between passes" for key in sorted(loop.nondeterministic)]

    defects = {}
    for job in plan.defects:
        _, record = execute(program, job)
        status, fine = checks.defect_status(job, record, loop.first, program)
        defects[job.key] = status
        if not fine:
            problems.append(f"{job.key}: {status}")

    report = {
        "workload": workload, "seed": seed, "trace": trace,
        "passes": loop.passes, "jobs_per_pass": len(plan.jobs),
        "setup_times_s": setup_times, "known_defects": defects,
        "problems": problems, "failed_jobs": loop.failures[:50],
        "job_median_ms": {k: 1000 * statistics.median(v) for k, v in loop.by_key.items()},
    }

    if trace:
        tracer.write_spans(os.path.join(workdir, "spans.jsonl"))
        metrics = layer_metrics(tracer, passes, traced_wall, traced_busy / untraced_busy)
        report["spans_kept"] = len(tracer.spans)
        report["spans_dropped"] = tracer.dropped
    else:
        lat = [value for value, _ in loop.latencies]
        worst = max(lat)
        # A failed job counts as missing any latency limit: rank it slowest.
        ranked = [value if ok else worst for value, ok in loop.latencies]
        metrics = {
            "jobs_per_s": (len(lat) / busy, "1/s"),
            "job_p50_ms": (1000 * percentile(ranked, 0.5), "ms"),
            "job_p90_ms": (1000 * percentile(ranked, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_rate": ((len(lat) - len(loop.failures)) / len(lat), "ratio"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        report["samples"] = len(lat)
        report["beyond_p90"] = sum(1 for v in ranked if v > percentile(ranked, 0.9))

    attempted = len(loop.latencies)
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    _summarize(report)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(tracer, passes, traced_wall, overhead) -> dict:
    per = 1 / passes
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    endpoints = counts["construction.endpoints"]
    probes = calls["oracle.membership_probe"]
    values = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]] * per
        elif name.endswith(".self_s") and not name.startswith("layer."):
            values[name] = self_s[name[: -len(".self_s")]] * per
        else:
            values[name] = counts[name] * per
    values["construction.components_per_endpoint"] = counts["construction.components"] / endpoints if endpoints else 0.0
    values["oracle.oracle_cn_per_probe"] = counts["oracle.oracle_cn_in_probe"] / probes if probes else 0.0
    for layer, seconds in tracer.layer_self_s().items():
        values[f"layer.{layer}.self_s"] = seconds * per
    values["trace.wall_s"] = traced_wall * per
    values["trace.accounted_share"] = sum(self_s.values()) / traced_wall
    values["trace.overhead_ratio"] = overhead
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def _summarize(report) -> None:
    err = sys.stderr
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['passes']} passes x {report['jobs_per_pass']} jobs", file=err)
    for key, status in report["known_defects"].items():
        print(f"  known defect {key}: {status}", file=err)
    for line in report["problems"] + report["failed_jobs"]:
        print(f"  FAIL {line}", file=err)


# -- self-test, manifest, digests -------------------------------------------------


def self_test() -> int:
    """Run every workload at tiny depths, traced and not, and check the output."""
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        if json.load(handle) != manifest():
            print("self-test: BENCHMARK.json differs from manifest(); rerun --write-manifest")
            ok = False
    for workload in workloads.WORKLOADS:
        for trace, spec in ((0, END_TO_END), (1, PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "7",
                 "--seconds", "0", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"self-test {workload} trace={trace}: no result (rc={proc.returncode})\n{proc.stderr}")
                ok = False
                continue
            want = {s[0]: s[1] for s in spec}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (proc.returncode == 0 and result["correct"] and result["failed"] == 0
                    and set(result) == {"correct", "attempted", "failed", "metrics"} and got == want)
            ok &= good
            print(f"self-test {workload} trace={trace}: {'ok' if good else 'FAILED'}")
            if not good:
                print(proc.stderr)
                print(sorted(set(want.items()) ^ set(got.items())))
    return 0 if ok else 1


def record_digests() -> int:
    """Recompute digests.json from the current program's output."""
    digests = {}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(WORK, "digests", workload)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        program = Program()
        plan = workloads.build(workload, 0, workdir)
        for job in plan.jobs:
            if job.digest:
                _, record = execute(program, job)
                if not record["ok"]:
                    print(f"{job.key} failed: {record['error'] or record['stderr']}", file=sys.stderr)
                    return 1
                digests.update(checks.digest_items(job, record))
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {checks.DIGESTS_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny depths, one pass (self-test)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json")
    parser.add_argument("--record-digests", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if not os.path.isfile(os.path.join(SRC, "subsums", "cli.py")):
        print(f"perfbench: the subsums sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_test:
        return self_test()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, tiny=args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
