"""Command-line interface.

Exit codes: 0 success (including Undetermined verdicts), 1 usage errors,
2 computation errors (caps, depth limits, divergence), 3 oracle
disagreement. All numeric inputs are exact rationals; there is no
floating-point path.

main(argv) can be called in-process: it returns the exit code (argparse
usage errors raise SystemExit(1)) and builds its parser once per process,
so repeated calls pay only for parsing and the command itself.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .classify import classify
from .construction import DEFAULT_CAP, build_cn
from .errors import IndeterminateComparison, SubsumError, UnsupportedExponent
from .filler import fill
from .intervals import to_text
from .oracle import check_depth, oracle_cn
from .rational import format_rational, parse_rational
from .render import bar_chart, sweep
from .sequences import TermTailRelation
from .specio import PRESETS, load_spec

PROFILE_PREFIX_LEN = 10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_seq(value):
    if value in PRESETS:
        return load_spec(value)
    try:
        with open(value, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read spec {value!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"spec {value!r} is not valid JSON: {exc}") from exc
    try:
        return load_spec(data)
    except (ValueError, TypeError, KeyError, UnsupportedExponent) as exc:
        raise _UsageError(f"bad spec {value!r}: {exc}") from exc


def _rational_flag(text: str, name: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise _UsageError(f"{name} must be an exact rational: {exc}") from exc


def _fmt(value):
    return format_rational(value) if value is not None else None


def _hull_json(verdict):
    lo = "-inf" if verdict.hull_lo is None else format_rational(verdict.hull_lo)
    hi = "inf" if verdict.hull_hi is None else format_rational(verdict.hull_hi)
    return [lo, hi]


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_classify(args) -> int:
    spec = _load_seq(args.seq)
    verdict = classify(spec)
    bounds = None
    if verdict.component_lower is not None:
        bounds = [verdict.component_lower, verdict.component_upper]
    profile_prefix = []
    if verdict.profile is not None:
        try:
            relations = verdict.profile.comparisons(PROFILE_PREFIX_LEN)
        except IndeterminateComparison as stuck:
            # Report the relations up to the first one that no refinement
            # resolves, instead of losing the verdict.
            relations = verdict.profile.comparisons(stuck.index - 1)
            relations += (TermTailRelation.INDETERMINATE,)
        profile_prefix = [rel.value for rel in relations]
    payload = {
        "kind": verdict.kind.value,
        "certificate": verdict.certificate,
        "strength": verdict.strength,
        "hull": _hull_json(verdict),
        "hull_exact": verdict.hull_exact,
        "component_bounds": bounds,
        "component_count": verdict.component_count,
        "translation": _fmt(verdict.translation),
        "known_infinitely_many": verdict.known_infinitely_many,
        "summability": verdict.summability.value,
        "profile_prefix": profile_prefix,
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [f"{key}: {value}" for key, value in payload.items()]
        _emit(args, "\n".join(lines))
    return 0


def _cn_payload(result):
    hull = result.fattened.hull()
    payload = {
        "depth": result.depth,
        "components": result.fattened.components,
        "total_length": format_rational(result.fattened.total_length),
        "hull": [format_rational(hull.left), format_rational(hull.right)],
        "tail_exact": result.tail_exact,
        "intervals": result.fattened.formatted(),
    }
    if result.inner is not None:
        payload["inner_intervals"] = result.inner.formatted()
    return payload


def _cmd_cn(args) -> int:
    spec = _load_seq(args.seq)
    result = build_cn(spec, args.depth, cap=args.cap)
    if args.format == "json":
        _emit(args, json.dumps(_cn_payload(result), indent=2))
    else:
        _emit(args, to_text(result.fattened))
    return 0


def _cmd_oracle(args) -> int:
    spec = _load_seq(args.seq)
    check_depth(args.depth)
    result = build_cn(spec, args.depth, cap=args.cap)
    brute = oracle_cn(spec, args.depth)
    if brute != result.fattened:
        sys.stdout.write("DIFF\n")
        sys.stdout.write("cn:\n")
        sys.stdout.write(to_text(result.fattened))
        sys.stdout.write("oracle:\n")
        sys.stdout.write(to_text(brute))
        return 3
    if args.format == "json":
        payload = _cn_payload(result)
        payload["oracle_agrees"] = True
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, to_text(brute))
    return 0


def _cmd_fill(args) -> int:
    spec = _load_seq(args.seq)
    target = _rational_flag(args.target, "--target")
    eps = _rational_flag(args.eps, "--eps")
    result = fill(spec, target, eps)
    if args.format == "json":
        payload = {
            "runs": [[start, end] for start, end in result.runs],
            "gaps": [format_rational(g) for g in result.gaps],
            "achieved": format_rational(result.achieved),
            "target": format_rational(result.target),
            "hit_round_limit": result.hit_round_limit,
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [
            "runs: " + " ".join(f"{start}..{end}" for start, end in result.runs),
            "gaps: " + " ".join(format_rational(g) for g in result.gaps),
            f"achieved: {format_rational(result.achieved)}",
            f"target: {format_rational(result.target)}",
            f"hit_round_limit: {str(result.hit_round_limit).lower()}",
        ]
        _emit(args, "\n".join(lines))
    return 0


def _cmd_sweep(args) -> int:
    base = args.out or "sweep"
    csv_path = f"{base}.csv"
    svg_path = f"{base}.svg"
    grid = sweep(args.depth, out_csv=csv_path, out_svg=svg_path)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    print(f"cells: {len(grid.cells)}")
    return 0


def _cmd_render(args) -> int:
    spec = _load_seq(args.seq)
    result = build_cn(spec, args.depth, cap=args.cap)
    out = args.out or "cn.svg"
    bar_chart(result.fattened, out_path=out)
    print(f"wrote {out}")
    return 0


def _cmd_presets(args) -> int:
    payload = {}
    for name, spec in PRESETS.items():
        terms = []
        for i, x in enumerate(spec.terms()):
            if i == 6:
                break
            terms.append(format_rational(x))
        payload[name] = terms
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [f"{name}: {', '.join(terms)}" for name, terms in payload.items()]
        _emit(args, "\n".join(lines))
    return 0


def _add_common(parser, *, seq=False, depth=None, depth_help="cover depth", cap=False, fmt="text"):
    # fmt=None leaves out --format, for commands whose output has one form.
    if seq:
        parser.add_argument(
            "--seq",
            required=True,
            metavar="PATH|PRESET",
            help="spec JSON file or preset name (%s)" % ", ".join(PRESETS),
        )
    if depth is not None:
        parser.add_argument("--depth", type=int, default=depth, help=depth_help)
    if cap:
        parser.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_CAP,
            help="component cap (default 2^22)",
        )
    if fmt is not None:
        parser.add_argument("--format", choices=("json", "text"), default=fmt)
    parser.add_argument("--out", default=None, help="write output to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser shared by every call in this process, built on the first.

    Callers must not change it. Each subcommand keeps only its handler,
    which looks up build_cn, oracle_cn and the rest on this module when it
    runs, so a name replaced on the module still takes effect.
    """
    parser = _Parser(prog="subsums", description="Subsum sets of null sequences")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", help="decide the topological type")
    _add_common(p, seq=True, fmt="json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cn", help="build the depth-n interval cover")
    _add_common(p, seq=True, depth=8, cap=True)
    p.set_defaults(func=_cmd_cn)

    p = sub.add_parser("oracle", help="brute-force cover, checked against cn")
    _add_common(p, seq=True, depth=8, cap=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fill", help="greedily pack a target sum")
    _add_common(p, seq=True)
    p.add_argument("--target", required=True, help="target sum, exact rational")
    p.add_argument("--eps", default="1/1000000", help="stop when the gap drops below this")
    p.set_defaults(func=_cmd_fill)

    p = sub.add_parser("sweep", help="classify the two-ratio parameter grid")
    _add_common(p, depth=21, depth_help="grid resolution", fmt=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("render", help="bar chart of a cover")
    _add_common(p, seq=True, depth=8, cap=True, fmt=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("presets", help="list presets with their first terms")
    _add_common(p)
    p.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"subsums: error: {exc}", file=sys.stderr)
        return 1
    except SubsumError as exc:
        print(f"subsums: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"subsums: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"subsums: io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
