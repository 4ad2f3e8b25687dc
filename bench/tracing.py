"""In-memory spans around calls into the library's public functions.

The library itself is not instrumented. `Tracer.installed()` replaces each
traced function in every `betalike` module that binds it (the package, the
defining module and each importing module, since callers look functions up
in their own module globals), records one span per call, and restores the
originals on exit. Spans keep name, start, end and parent; the runner groups
them by the phase instance (one set-up, op or query batch) they ran in.
"""
from __future__ import annotations

import contextlib
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    phase: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


# (span name, defining module, attribute, counters from (args, kwargs, result)).
# A class attribute is written "Class.method".
TRACED = (
    ("data.generate_synthetic", "betalike.data", "generate_synthetic", None),
    ("data.load_table", "betalike.data", "load_table", lambda a, k, r: _file_bytes(a[0])),
    ("data.save_table", "betalike.data", "save_table", lambda a, k, r: _file_bytes(a[1])),
    ("hilbert.table_keys", "betalike.hilbert", "table_keys",
     lambda a, k, r: {"key_bits": len(a[0].schema.qi_attributes) * a[1]}),
    ("buckets.dp_partition", "betalike.buckets", "dp_partition",
     lambda a, k, r: {"count": len(r.buckets)}),
    ("ectree.bi_split", "betalike.ectree", "bi_split", lambda a, k, r: {"leaves": len(r)}),
    ("generalize.generalize", "betalike.generalize", "generalize", None),
    ("generalize.draw_nearest", "betalike.generalize", "SortedBucket.draw_nearest", None),
    ("release.build_ec", "betalike.release", "build_ec", None),
    ("release.save_release", "betalike.release", "save_release", lambda a, k, r: _file_bytes(a[1])),
    ("release.load_release", "betalike.release", "load_release", lambda a, k, r: _file_bytes(a[0])),
    ("audit.achieved_beta", "betalike.audit", "achieved_beta", None),
    ("audit.ec_audit_lines", "betalike.audit", "ec_audit_lines", None),
    ("audit.nb_bound_audit", "betalike.audit", "nb_bound_audit", lambda a, k, r: {"pairs": r.pairs}),
    ("infoloss.ail", "betalike.infoloss", "ail", None),
    ("perturb.build_model", "betalike.perturb", "build_model", None),
    ("perturb.perturb", "betalike.perturb", "perturb", None),
    ("perturb.reconstruct", "betalike.perturb", "reconstruct", None),
    ("perturb.save_perturbation", "betalike.perturb", "save_perturbation", None),
    ("perturb.load_perturbation", "betalike.perturb", "load_perturbation", None),
    ("queries.gen_workload", "betalike.queries", "gen_workload", lambda a, k, r: {"queries": len(r)}),
    ("queries.exact_count", "betalike.queries", "exact_count", None),
    ("queries.report_generalized", "betalike.queries", "workload_report_generalized", None),
    ("queries.report_perturbed", "betalike.queries", "workload_report_perturbed", None),
    ("queries.report_baseline", "betalike.queries", "workload_report_baseline", None),
)

# Peak traced memory is recorded for these spans only; tracemalloc runs
# nowhere else, so it slows no other layer.
MEMORY_TRACED = {"audit.nb_bound_audit"}


class Tracer:
    """Span recorder; inactive (every call a no-op) until `installed()`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._phase: int | None = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, phase=self._phase))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code, when active."""
        if not self.active:
            yield None
            return
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span of one set-up or op; layer spans inside it belong to it."""
        with self.span(name) as root:
            if root is None:
                yield
                return
            self._phase = len(self.spans) - 1
            try:
                yield
            finally:
                self._phase = None

    # -- function wrappers ---------------------------------------------------

    def _wrap(self, name: str, fn, counters):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            memory = name in MEMORY_TRACED
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.spans[idx].attrs["peak_mb"] = peak / 2**20
                tracer._close(idx)
            if counters is not None:
                tracer.spans[idx].attrs.update(counters(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every function in TRACED until the block exits."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "betalike" or n.startswith("betalike."))]
        for name, module_name, attr, counters in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    # -- output --------------------------------------------------------------

    def to_obj(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "phase": s.phase, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]


# Per-layer metrics read from counters rather than durations:
# metric -> (span names, counter).
COUNTER_METRICS = {
    "hilbert.key_bits": (("hilbert.table_keys",), "key_bits"),
    "buckets.count": (("buckets.dp_partition",), "count"),
    "ectree.leaves": (("ectree.bi_split",), "leaves"),
    "audit.nb_bound_audit_peak_mb": (("audit.nb_bound_audit",), "peak_mb"),
    "audit.nb_pairs": (("audit.nb_bound_audit",), "pairs"),
    "data.csv_bytes": (("data.save_table", "data.load_table"), "bytes"),
    "release.json_bytes": (("release.save_release", "release.load_release"), "bytes"),
}

# Stages of `generalize` that get their own metric; the rest of its time is
# generalize.rest_s.
GENERALIZE_STAGES = {"hilbert.table_keys", "buckets.dp_partition", "ectree.bi_split"}


def layer_metrics(spans: list[Span], names) -> dict[str, float]:
    """Per-layer values for the metric names given.

    `<span>_s` is a span's total seconds and `<span>_calls` its call count,
    each summed within one phase instance (a set-up, an op or a query batch
    phase) and averaged over the instances that call it; counters are
    averaged over the spans that carry them. A layer the workload never
    calls reads 0.
    """
    per_phase: dict[str, dict[int, list[float]]] = {}
    for i, s in enumerate(spans):
        seconds = s.seconds
        if s.name == "generalize.generalize":
            staged = sum(c.seconds for c in spans[i + 1:] if c.parent == i and c.name in GENERALIZE_STAGES)
            per_phase.setdefault("generalize.rest", {}).setdefault(s.phase, []).append(seconds - staged)
        per_phase.setdefault(s.name, {}).setdefault(s.phase, []).append(seconds)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    out = {}
    for name in names:
        if name in COUNTER_METRICS:
            span_names, key = COUNTER_METRICS[name]
            out[name] = mean([s.attrs[key] for s in spans if s.name in span_names and key in s.attrs])
        elif name == "queries.exact_count_calls_per_query":
            queries = sum(s.attrs.get("queries", 0) for s in spans if s.name == "queries.gen_workload")
            calls = sum(1 for s in spans if s.name == "queries.exact_count")
            out[name] = calls / queries if queries else 0.0
        elif name.endswith("_calls"):
            phases = per_phase.get(name[: -len("_calls")], {})
            out[name] = mean([len(v) for v in phases.values()])
        elif name.endswith("_s"):
            phases = per_phase.get(name[: -len("_s")], {})
            out[name] = mean([sum(v) for v in phases.values()])
    return out
