"""Span tracing from outside the program, for the traced benchmark run.

Timing wrappers replace module attributes that each caller looks up at call
time: the library names `spancores.cli` imported, and the names the engines
and analyses import from lower layers. Nothing under `src/` changes. A
wrapper records one span (name, start, end, parent span, job id) in flat
arrays and updates call counters; spans are kept in memory and written out
once the run ends.

A wrapped name that no longer exists is not an error: its metrics are
reported as absent, so the benchmark keeps working when a later change drops
a function from the hot path.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Span name -> the per-layer time metric its self time counts toward.
# A span is named after the module attribute it wraps.
SPAN_METRIC = {
    "cli.parse_contact_lines": "temporal_graph.parse_s",
    "cli.ingest_contacts": "temporal_graph.ingest_s",
    "cli.contact_lines": "temporal_graph.contact_lines_s",
    "span_cores.edges_in_interval": "temporal_graph.interval_edges_s",
    "analysis.edges_in_interval": "temporal_graph.interval_edges_s",
    "maximal.edge_diff_sets": "temporal_graph.diff_sets_s",
    "span_cores.core_decomposition": "core_kernel.s",
    "analysis.core_decomposition": "core_kernel.s",
    "maximal.innermost_core": "core_kernel.s",
    "cli.span_cores": "span_cores.self_s",
    "cli.naive_span_cores": "span_cores.self_s",
    "maximal.span_cores": "span_cores.self_s",
    "cli.maximal_span_cores": "maximal.self_s",
    "cli.naive_maximal_span_cores": "maximal.self_s",
    "cli.cores_to_csv": "serialize.write_s",
    "cli.cores_to_jsonl": "serialize.write_s",
    "cli.metrics_to_json": "serialize.write_s",
    "cli.table_to_csv": "serialize.write_s",
    "cli.read_cores": "serialize.read_s",
    "cli.stats_by_order": "analysis.summary_s",
    "cli.stats_by_span": "analysis.summary_s",
    "cli.activity_grid": "analysis.summary_s",
    "cli.detect_anomalies": "analysis.anomaly_s",
    "cli.precision_recall": "analysis.anomaly_s",
    "cli.reshuffle_timestamps": "analysis.shuffle_s",
}
JOB_SPAN = "job"  # root span of one pipeline; its self time is cli.self_s

# Count-only hook: innermost_core reaches the kernel through this module
# attribute, which is how labelled vertices are counted for its calls.
KERNEL_COUNT_HOOK = "core_kernel.core_decomposition"

KERNEL_SPANS = ("span_cores.core_decomposition", "analysis.core_decomposition",
                "maximal.innermost_core")
ENGINE_SPANS = ("cli.span_cores", "cli.naive_span_cores", "maximal.span_cores")
MAXIMAL_SPANS = ("cli.maximal_span_cores", "cli.naive_maximal_span_cores")
DIRECT_ENGINE = "cli.maximal_span_cores"
# Pseudo-hook: the direct engine accepts a MaximalTrace for its visit counts.
MAXIMAL_TRACE = "maximal.trace"
WRITE_SPANS = ("cli.cores_to_csv", "cli.cores_to_jsonl", "cli.metrics_to_json",
               "cli.table_to_csv")


class Tracer:
    """In-memory span store and counters for one traced process."""

    def __init__(self):
        self.names: list[str] = [JOB_SPAN]  # span name per name code
        self.name_code = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        self._stack: list[int] = []
        self._job_id = -1

    # -- recording -------------------------------------------------------

    def _open(self, code: int) -> int:
        index = len(self.name_code)
        self.name_code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.start[index] = start
        self.end[index] = end

    def run_job(self, job_id: int, fn, *args):
        """Return `fn(*args)`, run as a root span of job `job_id`.

        A job may hold several root spans, one per pipeline step.
        """
        self._job_id = job_id
        index = self._open(0)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(index, start, perf_counter())

    def reset(self) -> None:
        """Drop recorded spans and counts (after the warm-up job)."""
        for column in (self.name_code, self.parent, self.job, self.start, self.end):
            del column[:]
        self.counts.clear()

    def _wrap(self, name: str, fn, observe=None, prepare=None):
        code = len(self.names)
        self.names.append(name)
        counts = self.counts
        materialize = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            context = prepare(kwargs) if prepare is not None else None
            index = self._open(code)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    # Lines are produced inside the span, not by the consumer.
                    result = list(result)
            finally:
                end = perf_counter()
                self._close(index, start, end)
            counts[name] += 1
            if observe is not None:
                observe(counts, args, result, context)
            return iter(result) if materialize else result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def prepare(self) -> None:
        """Build a wrapper for every target that exists; remember the ones that do not.

        The wrappers replace their targets only inside `active()`.
        """
        for name in (*SPAN_METRIC, KERNEL_COUNT_HOOK):
            module_name, attr = name.split(".")
            module = importlib.import_module(f"spancores.{module_name}")
            fn = getattr(module, attr, None)
            prepare = _maximal_trace(fn) if name in MAXIMAL_SPANS and fn else None
            if fn is None:
                self.absent.append(name)
            elif name == KERNEL_COUNT_HOOK:
                self._patches.append((module, attr, fn, self._count_labelled(fn)))
            else:
                wrapper = self._wrap(name, fn, _OBSERVERS.get(name), prepare)
                self._patches.append((module, attr, fn, wrapper))
            if name == DIRECT_ENGINE and prepare is None:
                self.absent.append(MAXIMAL_TRACE)

    @contextmanager
    def active(self):
        """Replace every target by its wrapper for the duration of the block."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def _count_labelled(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["kernel.labelled_via_innermost"] += len(result.coreness)
            return result

        return counted

    # -- reduction -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        count = len(self.name_code)
        own = [self.end[i] - self.start[i] for i in range(count)]
        result = list(own)
        parent = self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                result[p] -= own[i]
        return result

    def summary(self) -> dict:
        """Self time summed per layer metric, call counts and absent hooks.

        Every span's self time lands in exactly one metric, and spans not
        named in SPAN_METRIC (the job roots) land in cli.self_s, so the
        metrics add up to the summed job spans.
        """
        self_s: dict[str, float] = {}
        for i, seconds in enumerate(self.self_times()):
            metric = SPAN_METRIC.get(self.names[self.name_code[i]], "cli.self_s")
            self_s[metric] = self_s.get(metric, 0.0) + seconds
        job_span_s = sum(self.end[i] - self.start[i]
                         for i in range(len(self.parent)) if self.parent[i] < 0)
        return {"self_s": self_s, "job_span_s": job_span_s,
                "counts": dict(self.counts), "absent": list(self.absent)}

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header and the raw columns beside it."""
        columns = {}
        with path.with_suffix(".bin").open("wb") as handle:
            for key in ("name_code", "parent", "job", "start", "end"):
                column = getattr(self, key)
                columns[key] = {"typecode": column.typecode, "offset": handle.tell(),
                                "length": len(column)}
                column.tofile(handle)
        header = {"names": self.names, "columns": columns, "absent": self.absent}
        path.write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")


def _maximal_trace(fn):
    """Hand the direct engine a MaximalTrace when it accepts one."""
    maximal = importlib.import_module("spancores.maximal")
    trace_cls = getattr(maximal, "MaximalTrace", None)
    try:
        accepts = "trace" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        accepts = False
    if trace_cls is None or not accepts:
        return None

    def prepare(kwargs):
        if "trace" in kwargs:
            return None
        kwargs["trace"] = trace = trace_cls()
        return trace
    return prepare


def _observe_kernel(counts, args, result, context):
    vertices, edges = args[0], args[1]
    counts["kernel.vertices_in"] += len(vertices)
    counts["kernel.edges_in"] += len(edges)
    counts["kernel.labelled"] += len(result.coreness)


def _observe_innermost(counts, args, result, context):
    counts["kernel.vertices_in"] += len(args[0])
    counts["kernel.edges_in"] += len(args[1])


def _observe_engine(counts, args, result, context):
    counts["span_cores.processed_vertices"] += result.metrics.processed_vertices
    counts["span_cores.cores_emitted"] += result.metrics.cores_emitted


def _observe_maximal(counts, args, result, context):
    counts["maximal.processed_vertices"] += result.metrics.processed_vertices
    if context is not None:
        counts["maximal.intervals_visited"] += len(context.steps)
        counts["maximal.accepted"] += sum(1 for step in context.steps if step.accepted)


def _observe_write(counts, args, result, context):
    counts["serialize.write_bytes"] += len(result)


def _observe_read(counts, args, result, context):
    counts["serialize.records_read"] += len(result.cores)


_OBSERVERS = {
    "span_cores.core_decomposition": _observe_kernel,
    "analysis.core_decomposition": _observe_kernel,
    "maximal.innermost_core": _observe_innermost,
    **{name: _observe_engine for name in ENGINE_SPANS},
    **{name: _observe_maximal for name in MAXIMAL_SPANS},
    # metrics.json is left out: its elapsed_ms makes the byte count vary.
    **{name: _observe_write for name in WRITE_SPANS if name != "cli.metrics_to_json"},
    "cli.read_cores": _observe_read,
}
