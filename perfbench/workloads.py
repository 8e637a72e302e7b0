"""Seeded inputs and job lists for the three benchmark workloads.

Everything here is stdlib only and independent of the `subsums` package:
specs are modelled with plain Fractions so that expected totals, known
subsums and gap midpoints are computed without the code under test.

A seed changes values only. Every seed yields the same job classes, in the
same order, at the same depths and counts, so a claim measured on one seed
can be rechecked on another.
"""
from __future__ import annotations

import bisect
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

WORKLOADS = ("cover", "classify", "query")

# Depth of the shallow cover whose gap midpoints are the non-member points.
GAP_DEPTH = 8
# In tiny (self-test) mode every depth is clamped to this.
TINY_DEPTH = 6
TINY_SWEEP = 3


def fmt(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Seq:
    """A positive spec: explicit prefix plus a structured tail.

    tail is None (finite), ("geometric", a, rho), ("multigeometric",
    ratios, total) or ("pseries", p, start).
    """

    prefix: tuple = ()
    tail: Optional[tuple] = None

    def terms(self, n: int) -> list:
        out = list(self.prefix[:n])
        kind = self.tail
        i = 0
        remaining = kind[2] if kind and kind[0] == "multigeometric" else None
        while len(out) < n and kind is not None:
            i += 1
            if kind[0] == "geometric":
                out.append(kind[1] * kind[2] ** (i - 1))
            elif kind[0] == "multigeometric":
                ratios = kind[1]
                x = ratios[(i - 1) % len(ratios)] * remaining
                remaining -= x
                out.append(x)
            else:
                out.append(F(1, (kind[2] + i - 1) ** kind[1]))
        return out

    @property
    def exact(self) -> bool:
        return self.tail is None or self.tail[0] != "pseries"

    def tail_after(self, k: int) -> F:
        """Exact sum of the terms after the first k (exact tails only)."""
        if not self.exact:
            raise ValueError("power-sum tails have no exact rational sum")
        rest = sum(self.prefix[k:], F(0))
        skip = max(0, k - len(self.prefix))
        kind = self.tail
        if kind is None:
            return rest
        if kind[0] == "geometric":
            return rest + kind[1] * kind[2] ** skip / (1 - kind[2])
        remaining = kind[2]
        for i in range(skip):
            remaining -= kind[1][i % len(kind[1])] * remaining
        return rest + remaining

    def total(self) -> F:
        return self.tail_after(0)

    def to_json(self, negated: bool = False) -> dict:
        data = {}
        if self.prefix:
            data["prefix"] = [fmt(x) for x in self.prefix]
        kind = self.tail
        if kind is not None and kind[0] == "geometric":
            data["tail"] = {"kind": "geometric", "a": fmt(kind[1]), "rho": fmt(kind[2])}
        elif kind is not None and kind[0] == "multigeometric":
            data["tail"] = {
                "kind": "multigeometric",
                "ratios": [fmt(r) for r in kind[1]],
                "total": fmt(kind[2]),
            }
        elif kind is not None:
            data["tail"] = {"kind": "pseries", "p": kind[1], "start": kind[2]}
        if negated:
            data["negated"] = True
        return data


def geometric(a, rho, prefix=()) -> Seq:
    return Seq(tuple(prefix), ("geometric", F(a), F(rho)))


def multigeometric(ratios, total, prefix=()) -> Seq:
    return Seq(tuple(prefix), ("multigeometric", tuple(F(r) for r in ratios), F(total)))


def pseries(p, start=1, prefix=()) -> Seq:
    return Seq(tuple(prefix), ("pseries", p, start))


# The package presets, restated so that checks do not depend on specio.
PRESETS = {
    "harmonic": pseries(1),
    "thirds": geometric(F(1, 3), F(1, 3)),
    "halves": geometric(F(1, 2), F(1, 2)),
    "gn": multigeometric((F(9, 20), F(6, 11)), F(5, 3)),
    "kenyon": multigeometric((F(9, 14), F(3, 10)), F(7, 3)),
    "ratios-2-5-3-5": multigeometric((F(2, 5), F(3, 5)), F(1)),
}


# Ratio pairs (a, b) with (1-a)(1-b) = 1/4 whose digit numerators cover
# Z/4, chosen among those whose classification costs about as much as
# kenyon's, so the seed changes values but not the work.
DIGIT_PAIRS = tuple(
    (F(a), F(b)) for a, b in (
        ("1/14", "19/26"), ("5/14", "11/18"), ("1/10", "13/18"),
        ("3/10", "9/14"), ("13/20", "2/7"), ("7/10", "1/6"),
    )
)


def subset_sums(terms) -> list:
    sums = {F(0)}
    for x in terms:
        sums |= {s + x for s in sums}
    return sorted(sums)


def _distinct_sums(terms) -> bool:
    """Whether all 2^len(terms) subset sums differ (on integer numerators)."""
    scale = math.lcm(*(x.denominator for x in terms))
    sums = {0}
    for x in terms:
        sums |= {s + x.numerator * (scale // x.denominator) for s in sums}
    return len(sums) == 2 ** len(terms)


def shallow_gaps(seq: Seq, depth: int) -> list:
    """Open gaps (lo, hi) between components of the exact depth-n cover."""
    tail = seq.tail_after(depth)
    gaps = []
    reach = None
    for s in subset_sums(seq.terms(depth)):
        if reach is not None and s > reach:
            gaps.append((reach, s))
        reach = s + tail if reach is None else max(reach, s + tail)
    return gaps


@dataclass
class Job:
    """One closed-loop request: a CLI argv or a library membership probe.

    expect_rc/expect_error describe the outcome that counts as success; a
    typed-error job succeeds only with exit code 2 and that error's name on
    stderr. check names the property check run on the output after the
    timed loop; digest marks output compared with a committed SHA-256.
    """

    key: str
    argv: Optional[tuple] = None
    probe: Optional[tuple] = None
    expect_rc: int = 0
    expect_error: Optional[str] = None
    check: Optional[tuple] = None
    digest: bool = False
    files: tuple = ()
    warmup: bool = False


@dataclass
class Plan:
    """A workload's timed job list plus its known-defect probes."""

    jobs: list
    defects: list


class _PlanMaker:
    def __init__(self, workload: str, seed: int, workdir: str, tiny: bool):
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.tiny = tiny
        self.jobs = []
        self.defects = []
        os.makedirs(os.path.join(workdir, "specs"), exist_ok=True)

    def depth(self, n: int) -> int:
        return min(n, TINY_DEPTH) if self.tiny else n

    def write(self, name: str, data: dict) -> str:
        path = os.path.join(self.workdir, "specs", f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path

    def add(self, key, argv=None, **kw) -> Job:
        job = Job(key=key, argv=None if argv is None else tuple(str(a) for a in argv), **kw)
        self.jobs.append(job)
        return job

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # -- value generators ---------------------------------------------------

    def ratio(self, lo: F, hi: F, dens=(5, 7, 8, 9, 11, 12)) -> F:
        choices = [
            F(k, q) for q in dens for k in range(1, q) if lo < F(k, q) < hi
        ]
        return self.rng.choice(choices)

    def dominant_prefix(self, count: int, tail: F) -> tuple:
        """Descending prefix whose every term exceeds all later terms plus tail."""
        values, rest = [], tail
        for _ in range(count):
            values.append(rest + F(self.rng.randint(1, 9), 10))
            rest += values[-1]
        return tuple(reversed(values))


def _cover(b: _PlanMaker) -> None:
    d = b.depth
    # Presets, seed-independent. The slowest tier is the three depth-16
    # covers (two splitting, one collapsing); p90 lands in the depth 12-13
    # tier. The depth 8-9 jobs put as many jobs below the seeded block
    # around p50 as above it, so p50 lands mid-block.
    for cmd, name, depth, fmt_ in (
        ("cn", "gn", 16, "text"), ("cn", "thirds", 16, "text"), ("cn", "halves", 16, "text"),
        ("cn", "gn", 13, "json"), ("cn", "kenyon", 13, "text"), ("cn", "ratios-2-5-3-5", 13, "text"),
        ("oracle", "kenyon", 12, "text"), ("oracle", "thirds", 12, "json"), ("render", "halves", 13, "svg"),
        ("cn", "kenyon", 10, "json"), ("oracle", "gn", 10, "text"), ("render", "gn", 10, "svg"),
        ("cn", "halves", 9, "json"), ("cn", "thirds", 9, "text"), ("cn", "ratios-2-5-3-5", 9, "text"),
        ("cn", "gn", 8, "text"), ("cn", "kenyon", 8, "text"), ("cn", "thirds", 8, "json"),
        ("cn", "ratios-2-5-3-5", 8, "json"), ("oracle", "halves", 8, "text"), ("oracle", "gn", 8, "text"),
        ("oracle", "kenyon", 8, "json"), ("render", "thirds", 9, "svg"), ("render", "kenyon", 8, "svg"),
        ("render", "ratios-2-5-3-5", 8, "svg"),
    ):
        key = f"{cmd}-{fmt_}:{name}@{depth}"
        argv = [cmd, "--seq", name, "--depth", d(depth)]
        if cmd == "render":
            svg = b.out(f"render-{name}-{depth}.svg")
            b.add(key, argv + ["--out", svg], digest=True, files=(svg,), check=("render", name))
        else:
            b.add(key, argv + ["--format", fmt_], digest=True, check=("cover", name),
                  warmup=key == "cn-json:halves@9")
    b.add("error:divergent", ["cn", "--seq", "harmonic"], expect_rc=2, expect_error="DivergentTail")
    b.add("error:cap", ["cn", "--seq", "gn", "--depth", 40, "--cap", 65536], expect_rc=2, expect_error="CapExceeded")

    # Seeded positive specs, one (class, depth) slot each, with the split
    # pattern fixed by the class. Power-sum tails are inexact, so their
    # JSON covers carry the inner union too.
    slots = [
        ("geo-split", 10), ("geo-collapse", 10), ("geo-collapse", 9),
        ("multi2-split", 9), ("multi2-collapse", 10), ("multi3-split", 8), ("multi3-collapse", 10),
        ("pseries2", 10), ("pseries3", 9),
    ]
    for i, (kind, depth) in enumerate(slots):
        # Coinciding subset sums would shrink the build; redraw until the
        # first depth+1 terms have 2^(depth+1) distinct sums.
        seq = _cover_seq(b, kind)
        while kind.endswith("collapse") and not _distinct_sums(seq.terms(depth + 1)):
            seq = _cover_seq(b, kind)
        path = b.write(f"cover-{i}", seq.to_json())
        name = f"s{i}-{kind}"
        n = d(depth)
        svg = b.out(f"render-{i}.svg")
        b.add(f"cn-text:{name}@{depth}", ["cn", "--seq", path, "--depth", n], check=("cover", seq))
        b.add(f"cn-json:{name}@{depth + 1}", ["cn", "--seq", path, "--depth", n + 1, "--format", "json"],
              check=("cover", seq, f"cn-text:{name}@{depth}"))
        b.add(f"oracle:{name}@{depth}", ["oracle", "--seq", path, "--depth", n],
              check=("cover", seq, None, f"cn-text:{name}@{depth}"))
        b.add(f"render:{name}@{depth}", ["render", "--seq", path, "--depth", n, "--out", svg], files=(svg,),
              check=("render", seq, f"cn-text:{name}@{depth}"))

    # Known defect: build_cn reads MergedSpec.negated, so positive merges
    # raise AttributeError. Probed once per run, outside the timed loop.
    parts = [_cover_seq(b, "geo-split"), _cover_seq(b, "multi2-collapse")]
    path = b.write("cover-merge", {"merge": [p.to_json() for p in parts]})
    total = sum((p.total() for p in parts), F(0))
    svg = b.out("render-merge.svg")
    for cmd in ("cn", "oracle", "render"):
        argv = [cmd, "--seq", path, "--depth", d(8)] + (["--out", svg] if cmd == "render" else [])
        b.defects.append(Job(key=f"defect:merge-{cmd}", argv=tuple(str(a) for a in argv),
                             check=("merge-cover", total), files=(svg,) if cmd == "render" else ()))


def _cover_seq(b: _PlanMaker, kind: str) -> Seq:
    """A seeded spec whose split pattern is fixed by its class.

    "split" classes have every term above the sum of the terms after it,
    so C_n has 2^n components; "collapse" classes have every term at most
    that sum, so C_n is one interval. Output sizes, and with them the
    jobs' costs, then do not depend on the seed.
    """
    rng = b.rng
    split = kind.endswith("split")
    if kind.startswith("geo"):
        rho = b.ratio(F(1, 5), F(1, 2)) if split else b.ratio(F(1, 2), F(4, 5))
        a = F(1, rng.randint(2, 5))
        tail = a / (1 - rho)
        if split:
            return geometric(a, rho, b.dominant_prefix(2, tail))
        return geometric(a, rho, (a + (tail - a) * F(rng.randint(1, 9), 10),))
    if kind.startswith("multi"):
        lo, hi = (F(1, 2), F(4, 5)) if split else (F(1, 5), F(1, 2))
        ratios = [b.ratio(lo, hi) for _ in range(int(kind[5]))]
        return multigeometric(ratios, F(rng.randint(1, 5), rng.randint(1, 3)))
    p, start = (2, 2) if kind == "pseries2" else (3, 1)
    return pseries(p, start, b.dominant_prefix(2, pseries_bound(p, start)))


def pseries_bound(p: int, start: int) -> F:
    """Upper bound of the sum of 1/k^p over k >= start (integral test)."""
    return F(1, start**p) + F(1, (p - 1) * start ** (p - 1))


def _classify(b: _PlanMaker) -> None:
    rng = b.rng
    for name in PRESETS:
        b.add(f"classify:{name}", ["classify", "--seq", name], digest=True, check=("preset-verdict", name),
              warmup=name == "thirds")
    b.add("classify-text:gn", ["classify", "--seq", "gn", "--format", "text"], digest=True)
    b.add("classify-text:kenyon", ["classify", "--seq", "kenyon", "--format", "text"], digest=True)
    b.add("sweep", ["sweep", "--depth", TINY_SWEEP if b.tiny else 21, "--out", b.out("sweep")],
          digest=True, files=(b.out("sweep.csv"), b.out("sweep.svg")), check=("sweep",))

    # Two-ratio specs in both orders. A feasible pair keeps its order; the
    # infeasible ones are classified through the MergeTail reordering.
    for i, feasible in enumerate((True, False, False, False)):
        while True:
            big = b.ratio(F(1, 2), F(9, 10))
            small = b.ratio(F(1, 10), F(1, 2))
            if (big <= small / (1 - small)) == feasible:
                break
        total = F(rng.randint(1, 4), rng.randint(1, 3))
        for order, ratios in (("ab", (big, small)), ("ba", (small, big))):
            seq = multigeometric(ratios, total)
            path = b.write(f"pair-{i}-{order}", seq.to_json())
            b.add(f"classify:pair{i}-{'feasible' if feasible else 'reordered'}-{order}",
                  ["classify", "--seq", path], check=("positive-verdict", seq))

    # Two-ratio specs in the Guthrie-Nymann family: period factor
    # (1-a)(1-b) = 1/4, one ratio on each side of 1/2, and strand heads
    # whose subset sums cover every residue mod 4. They take the
    # digit-coverage path of the gn and kenyon presets.
    for i in range(6):
        a, other = rng.choice(DIGIT_PAIRS)
        seq = multigeometric((a, other), F(rng.randint(1, 4), rng.randint(1, 3)))
        path = b.write(f"digits-{i}", seq.to_json())
        b.add(f"classify:digits{i}", ["classify", "--seq", path], check=("digit-verdict", seq))

    # Signed merges of two geometric parts: the Hornich translation by the
    # negative part's sum, then a merge of the absolute values.
    for i in range(6):
        pos = geometric(F(1, rng.randint(1, 4)), b.ratio(F(1, 5), F(4, 5)))
        neg = geometric(F(1, rng.randint(1, 4)), b.ratio(F(1, 5), F(4, 5)))
        path = b.write(f"signed-{i}", {"merge": [pos.to_json(), neg.to_json(negated=True)]})
        b.add(f"classify:signed{i}", ["classify", "--seq", path], check=("signed-verdict", pos, neg))

    # Power-sum tails behind a prefix whose every term exceeds the sum of
    # all later terms, so the exceed pattern, and with it the cover depths
    # classify builds, does not depend on the seed.
    for i, (p, start, count) in enumerate(((2, 2, 2), (3, 1, 1))):
        seq = pseries(p, start, b.dominant_prefix(count, pseries_bound(p, start)))
        path = b.write(f"pseries-{i}", seq.to_json())
        b.add(f"classify:pseries{i}", ["classify", "--seq", path], check=("pseries-verdict", seq))

    # Geometric tails (ratio below 1/2) behind an unsorted prefix whose
    # smallest entry is below the first tail term, so the reordering
    # absorbs tail terms into the prefix.
    for i in range(2):
        a = F(1, rng.randint(2, 4))
        rho = b.ratio(F(1, 5), F(1, 2))
        prefix = (a * F(rng.randint(1, 3), 5), a + F(rng.randint(1, 6), 6))
        seq = geometric(a, rho, prefix)
        path = b.write(f"unsorted-{i}", seq.to_json())
        b.add(f"classify:unsorted{i}", ["classify", "--seq", path], check=("positive-verdict", seq))


def _new_gaps(seq: Seq, depth: int) -> list:
    """Gaps of C_depth whose midpoints still lie in C_(depth-1)."""
    coarse = shallow_gaps(seq, depth - 1)
    lows = [lo for lo, _ in coarse]
    fresh = []
    for lo, hi in shallow_gaps(seq, depth):
        mid = (lo + hi) / 2
        i = bisect.bisect_left(lows, mid) - 1
        if i < 0 or coarse[i][1] <= mid:
            fresh.append((lo, hi))
    return fresh


def _query(b: _PlanMaker) -> None:
    rng = b.rng
    d = b.depth
    q1 = geometric(F(1, rng.randint(1, 3)), b.ratio(F(1, 5), F(2, 5)), (F(1) + F(rng.randint(1, 9), 10),))
    # Both seeded specs split at every depth, so their subset sums are
    # distinct and a probe's cost does not depend on the seed.
    q2 = multigeometric((b.ratio(F(1, 2), F(4, 5)), b.ratio(F(1, 2), F(4, 5))),
                        F(rng.randint(1, 4), rng.randint(1, 3)))
    specs = [("gn", PRESETS["gn"], "gn"), ("kenyon", PRESETS["kenyon"], "kenyon"),
             ("thirds", PRESETS["thirds"], "thirds"),
             ("q1", q1, b.write("probe-q1", q1.to_json())),
             ("q2", q2, b.write("probe-q2", q2.to_json()))]
    # Known subsums: a seeded subset sum of the first terms lies in every
    # cover, so the probe runs all depths up to its own.
    for i, depth in enumerate((14, 12, 13, 10, 11, 10, 12, 11, 13, 10)):
        name, seq, ref = specs[i % len(specs)]
        n = d(depth)
        point = sum((x for x in seq.terms(n) if rng.random() < 0.5), F(0))
        b.add(f"probe-member:{name}@{depth}#{i}", probe=(ref, point, n), check=("member",))
    # Gap midpoints: a gap that opens at depth GAP_DEPTH (or one less, for
    # specs that split only at odd depths) is excluded exactly there, so
    # the probe's cost does not depend on which gap the seed picks.
    fresh = {}
    for name, seq, _ in specs:
        gap_depth = d(GAP_DEPTH)
        gaps = _new_gaps(seq, gap_depth)
        if not gaps:
            gap_depth -= 1
            gaps = _new_gaps(seq, gap_depth)
        fresh[name] = gap_depth, gaps
    for i in range(10):
        name, seq, ref = specs[i % len(specs)]
        gap_depth, gaps = fresh[name]
        lo, hi = rng.choice(gaps)
        depth = d(10 + i % 5)
        b.add(f"probe-gap:{name}@{depth}#{i}", probe=(ref, (lo + hi) / 2, depth), check=("gap", gap_depth))

    def eps():
        return fmt(F(1, 10 ** rng.randint(6, 60)))

    def target(whole):
        return fmt(whole + F(rng.randint(0, 9), 100))

    # Targets stay below 9.1 on the harmonic series (a first run of about
    # 5,000 terms); at 10 the CLI fails, see the defect probe below.
    for i, whole in enumerate((2, 3, 4, 5, 6, 7, 8, 9)):
        fmt_flag = ["--format", "json"] if i % 2 else []
        b.add(f"fill:harmonic@{whole}", ["fill", "--seq", "harmonic", "--target", target(whole), "--eps", eps()] + fmt_flag,
              check=("fill",), warmup=whole == 2)
    # Shifted harmonics: a fixed start per slot and prefix terms just above
    # 1, so the length of the first run varies little with the seed.
    for i, (whole, start, count) in enumerate(((3, 2, 2), (4, 3, 0), (5, 2, 1), (6, 3, 0))):
        prefix = sorted((F(1) + F(rng.randint(0, 9), 100) for _ in range(count)), reverse=True)
        seq = pseries(1, start, prefix)
        path = b.write(f"shifted-{i}", seq.to_json())
        fmt_flag = ["--format", "json"] if i % 2 else []
        b.add(f"fill:shifted{i}@{whole}", ["fill", "--seq", path, "--target", target(whole), "--eps", eps()] + fmt_flag,
              check=("fill",))

    # Known defect: at target 10 the first run has ~12,000 terms and the
    # exact gap has more than 4,300 digits, Python's default limit for
    # int-to-str conversion, so the CLI exits 1 while printing it.
    b.defects.append(Job(key="defect:fill-target-10",
                         argv=("fill", "--seq", "harmonic", "--target", "10", "--eps", "1/1000000"),
                         check=("fill",)))


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> Plan:
    """Generate and write the inputs of one workload; return its job list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    b = _PlanMaker(workload, seed, workdir, tiny)
    {"cover": _cover, "classify": _classify, "query": _query}[workload](b)
    return Plan(b.jobs, b.defects)
