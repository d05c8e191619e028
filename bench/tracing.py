"""Per-layer tracing of delbisim from outside the package.

The tracer replaces the names each module imports (``cli.check``,
``charform.evaluate``, ``bisim.delete_edge``...) with wrappers.  A wrapper
records a span: name, the trace (instance) it belongs to, its parent span,
start and end.  Self time is a span's duration minus the time its child
spans and leaf calls cover.  The hot leaves (``delete_edge`` and
``delete_point``, up to ~10^6 calls per instance) only add to a call count
and a time sum.  Spans stay in memory until ``write`` at the end of a run.

A patched name that no longer exists is reported, and every metric that
depends on it is ``None`` rather than 0.
"""

from __future__ import annotations

import importlib
import json
import time

perf = time.perf_counter

LEAF = "leaf"


def _verdict_info(span, args, kwargs, verdict):
    span.info = {"kind": args[0], "calls": verdict.calls,
                 "max_depth": verdict.max_depth, "answer": verdict.answer}


def _keep_formula(span, args, kwargs, formula):
    span.info = {"formula": formula}


def _cache_size(span, args, kwargs, result):
    cache = kwargs.get("cache", args[2] if len(args) > 2 else None)
    span.info = {"cache_entries": len(cache) if cache is not None else 0}


# (module, imported name, span name or LEAF, hook run on the result)
PATCHES = (
    ("delbisim.cli", "load_model", "model.load_model", None),
    ("delbisim.cli", "random_model", "model.random_model", None),
    ("delbisim.cli", "check", "bisim.check", _verdict_info),
    ("delbisim.cli", "oracle_bisimilar", "oracle.oracle_bisimilar", _verdict_info),
    ("delbisim.cli", "char_check", "charform.char_check", None),
    ("delbisim.charform", "build_char", "charform.build_char", _keep_formula),
    ("delbisim.charform", "canonical_expansion", "charform.canonical_expansion", None),
    ("delbisim.charform", "check", "bisim.check", _verdict_info),
    ("delbisim.charform", "evaluate", "semantics.evaluate", _cache_size),
    ("delbisim.bisim", "delete_edge", LEAF, None),
    ("delbisim.bisim", "delete_point", LEAF, None),
    ("delbisim.semantics", "delete_edge", LEAF, None),
    ("delbisim.semantics", "delete_point", LEAF, None),
)

_CHECK = ("delbisim.cli.check", "delbisim.charform.check")
_DELETE = tuple(f"delbisim.{m}.{f}" for m in ("bisim", "semantics")
                for f in ("delete_edge", "delete_point"))

# Each per-layer metric and the patched names it is measured through.
# Values are per attempted instance, except bisim.max_depth (the maximum).
METRIC_SOURCES = {
    "cli.self_s": (),
    "model.load_calls": ("delbisim.cli.load_model",),
    "model.load_s": ("delbisim.cli.load_model",),
    "model.random_model_s": ("delbisim.cli.random_model",),
    "model.delete_calls": _DELETE,
    "model.delete_s": _DELETE,
    "bisim.check_calls": _CHECK,
    "bisim.rec_calls": _CHECK,
    "bisim.max_depth": _CHECK,
    "bisim.modal_pair_checks": _CHECK,
    "bisim.self_s": _CHECK,
    "oracle.calls": ("delbisim.cli.oracle_bisimilar",),
    "oracle.pair_checks": ("delbisim.cli.oracle_bisimilar",),
    "oracle.self_s": ("delbisim.cli.oracle_bisimilar",),
    "charform.expansion_checks": ("delbisim.charform.check",
                                  "delbisim.charform.canonical_expansion"),
    "charform.expansion_self_s": ("delbisim.charform.canonical_expansion",),
    "charform.build_s": ("delbisim.charform.build_char",),
    "charform.dag_nodes": ("delbisim.charform.build_char",),
    "semantics.evaluate_s": ("delbisim.charform.evaluate",),
    "semantics.cache_entries": ("delbisim.charform.evaluate",),
}


class Span:
    __slots__ = ("trace", "name", "parent", "start", "end", "child", "info")

    def __init__(self, trace, name, parent, start):
        self.trace = trace
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.child = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def dag_nodes(formula) -> int:
    """Distinct node objects reachable from ``formula``."""
    seen = {id(formula)}
    todo = [formula]
    while todo:
        node = todo.pop()
        for child in getattr(node, "__dict__", {}).values():
            if not isinstance(child, str) and id(child) not in seen:
                seen.add(id(child))
                todo.append(child)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.trace = None
        self.leaf_counts: dict = {}
        self.cell = [0, 0.0]
        self.missing: set[str] = set()
        self._undo = []

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if target is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = self.leaf(target) if name == LEAF else self.wrap(name, target, hook)
            setattr(module, attr, wrapper)
            self._undo.append((module, attr, target))

    def uninstall(self) -> None:
        for module, attr, target in reversed(self._undo):
            setattr(module, attr, target)
        self._undo.clear()

    def start_trace(self, trace) -> None:
        self.trace = trace
        self.cell = self.leaf_counts.setdefault(trace, [0, 0.0])

    def wrap(self, name, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = Span(tracer.trace, name, stack[-1] if stack else None, perf())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                tracer.spans.append(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                cell = tracer.cell
                cell[0] += 1
                cell[1] += dt
                if tracer.stack:
                    tracer.stack[-1].child += dt

        return wrapper

    def end_instance(self) -> None:
        """Replace kept formulas by their node counts once timing is over."""
        for span in reversed(self.spans):
            if span.trace != self.trace:
                break
            if span.info and "formula" in span.info:
                span.info = {"dag_nodes": dag_nodes(span.info["formula"])}

    # -- results -----------------------------------------------------------

    def layer_metrics(self, attempted: int) -> dict:
        n = attempted
        named: dict[str, list[Span]] = {}
        for span in self.spans:
            named.setdefault(span.name, []).append(span)

        def spans(name):
            return named.get(name, [])

        def total(name, value):
            return sum(value(s) for s in spans(name)) / n

        def info_sum(name, key, kinds=None):
            return sum(
                s.info[key] for s in spans(name)
                if s.info and key in s.info and (kinds is None or s.info["kind"] in kinds)
            ) / n

        checks = spans("bisim.check")
        deleted_calls = sum(c[0] for c in self.leaf_counts.values())
        deleted_time = sum(c[1] for c in self.leaf_counts.values())
        values = {
            "cli.self_s": total("cli.main", lambda s: s.self_time),
            "model.load_calls": len(spans("model.load_model")) / n,
            "model.load_s": total("model.load_model", lambda s: s.duration),
            "model.random_model_s": total("model.random_model", lambda s: s.duration),
            "model.delete_calls": deleted_calls / n,
            "model.delete_s": deleted_time / n,
            "bisim.check_calls": len(checks) / n,
            "bisim.rec_calls": info_sum("bisim.check", "calls", ("s", "d", "g", "r")),
            "bisim.max_depth": max(
                (s.info["max_depth"] for s in checks if s.info), default=0),
            "bisim.modal_pair_checks": info_sum("bisim.check", "calls", ("modal",)),
            "bisim.self_s": total("bisim.check", lambda s: s.self_time),
            "oracle.calls": len(spans("oracle.oracle_bisimilar")) / n,
            "oracle.pair_checks": info_sum("oracle.oracle_bisimilar", "calls"),
            "oracle.self_s": total("oracle.oracle_bisimilar", lambda s: s.self_time),
            "charform.expansion_checks": sum(
                1 for s in checks
                if s.parent is not None and s.parent.name == "charform.canonical_expansion"
            ) / n,
            "charform.expansion_self_s": total(
                "charform.canonical_expansion", lambda s: s.self_time),
            "charform.build_s": total("charform.build_char", lambda s: s.duration),
            "charform.dag_nodes": info_sum("charform.build_char", "dag_nodes"),
            "semantics.evaluate_s": total("semantics.evaluate", lambda s: s.duration),
            "semantics.cache_entries": info_sum("semantics.evaluate", "cache_entries"),
        }
        for metric, sources in METRIC_SOURCES.items():
            if any(src in self.missing for src in sources):
                values[metric] = None
        return values

    def write(self, path: str, records: list[dict], origin: float) -> None:
        """One JSON line per instance: its record, leaf counts and spans."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        by_trace: dict = {}
        for i, s in enumerate(self.spans):
            span = {
                "span": i,
                "parent": index.get(id(s.parent)),
                "name": s.name,
                "start_ms": (s.start - origin) * 1e3,
                "dur_ms": s.duration * 1e3,
                "self_ms": s.self_time * 1e3,
            }
            span.update(s.info or {})
            by_trace.setdefault(s.trace, []).append(span)
        with open(path, "w", encoding="utf-8") as f:
            for record in records:
                calls, seconds = self.leaf_counts.get(record["trace"], (0, 0.0))
                line = dict(record, delete_calls=calls, delete_ms=seconds * 1e3,
                            spans=by_trace.get(record["trace"], []))
                f.write(json.dumps(line, separators=(",", ":")) + "\n")
