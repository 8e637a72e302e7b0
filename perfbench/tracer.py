"""Span tracing installed from outside the package.

Wrappers replace each layer module's public functions on the module
objects, including the copies other modules imported by name (so
`cli.build_cn` and `classify.build_cn` are traced too), plus the methods
`SequenceSpec.tail_sum` (a span) and `SequenceSpec.term` and
`MergeTail.terms` (counters). Nothing under src/ is edited, and
uninstall() restores every original.

Each span records name, start, end, parent span and job id. Spans are
kept in memory, up to SPAN_CAP, and written out when the run ends. Self
time is a span's duration minus the time its child spans cover; it is
aggregated for every call, also past the cap.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("sequences", "intervals", "construction", "oracle", "classify",
          "filler", "render", "specio", "cli")
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.job = None
        self.stack = []  # frames: [name, child_s, span_id]
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self._restore = []

    # -- span wrapper --------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stack, spans, active = self.stack, self.spans, self.active
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            parent = stack[-1][2] if stack else -1
            if len(spans) < SPAN_CAP:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = -1
                self.dropped += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span_id >= 0:
                    spans[span_id] = (name, start, end, parent, self.job)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    # -- per-function hooks --------------------------------------------------

    def _hooks(self, name):
        count = self.counts

        def normalize_in(tracer, args):
            items = list(args[0])
            count["intervals.normalize.items_in"] += len(items)
            return (items,) + tuple(args[1:])

        def normalize_out(tracer, args, result):
            count["intervals.normalize.items_out"] += len(result)

        def build_cn_out(tracer, args, result):
            count["construction.endpoints"] += len(result.left_endpoints)
            count["construction.components"] += result.fattened.components
            if self.active["classify.classify"]:
                count["classify.build_cn_calls"] += 1

        def subset_sums_out(tracer, args, result):
            count["oracle.sums_enumerated"] += len(result.sums)

        def oracle_cn_in(tracer, args):
            if self.active["oracle.membership_probe"]:
                count["oracle.oracle_cn_in_probe"] += 1
            return args

        def fill_out(tracer, args, result):
            count["filler.run_terms"] += sum(end - start + 1 for start, end in result.runs)

        def text_out(tracer, args, result):
            count["render.bytes_out"] += len(result.encode("utf-8"))

        return {
            "intervals.normalize": (normalize_in, normalize_out),
            "construction.build_cn": (None, build_cn_out),
            "oracle.subset_sums": (None, subset_sums_out),
            "oracle.oracle_cn": (oracle_cn_in, None),
            "filler.fill": (None, fill_out),
            "render.bar_chart": (None, text_out),
            "render.sweep_csv_text": (None, text_out),
            "render.sweep_svg_text": (None, text_out),
        }.get(name, (None, None))

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"subsums.{layer}"]
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self._span(name, fn, *self._hooks(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "subsums" or mod_name.startswith("subsums."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        self._set(module, attr, wrapped[value])

        sequences = sys.modules["subsums.sequences"]
        spec_cls, merge_cls = sequences.SequenceSpec, sequences.MergeTail
        self._set(spec_cls, "tail_sum", self._span("sequences.tail_sum", spec_cls.tail_sum))

        term = spec_cls.term
        active, count = self.active, self.counts

        @functools.wraps(term)
        def counted_term(spec, index):
            if active["filler.fill"]:
                count["filler.term_evals"] += 1
            return term(spec, index)

        self._set(spec_cls, "term", counted_term)

        terms = merge_cls.terms

        @functools.wraps(terms)
        def counted_terms(tail):
            for value in terms(tail):
                count["sequences.merge_terms_yielded"] += 1
                yield value

        self._set(merge_cls, "terms", counted_terms)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, job = span
                    handle.write(json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                    ) + "\n")
