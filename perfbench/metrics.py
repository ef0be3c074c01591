"""Metric definitions and the reductions that produce them.

End-to-end metrics come from the untraced child: the wall time of each job
(a whole CLI pipeline, from reading the contact file to the last atomic
write), its peak RSS, and the cold start of the CLI. Wall times are scaled
to the reference machine speed (see calibrate.py). Per-layer metrics come
from the traced jobs of the paired child and are means per job, in raw wall
seconds.

`moves` records, for each per-layer metric, which end-to-end metric it
should move and on which workload; a change that claims a gain on one layer
should show it there and no change elsewhere. Units, directions and bounds
are kept in BENCHMARK.json only; run.py reads the units from there.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from tracer import KERNEL_SPANS as KERNEL
from tracer import MAXIMAL_TRACE
from tracer import WRITE_SPANS as WRITES

ABSENT = "absent"
TAIL_BEYOND = 10  # jobs that must lie above the tail percentile


def job_time_stats(seconds: list[float]) -> dict:
    """Median and tail job time.

    The tail is the job with ten jobs above it (the fastest job when fewer
    than eleven ran), and tail_percentile the share of jobs at or below it.
    """
    ordered = sorted(seconds)
    count = len(ordered)
    rank = max(count - TAIL_BEYOND - 1, 0)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank],
        "tail_percentile": round(100.0 * (rank + 1) / count, 2),
        "jobs": count,
    }


class _Totals:
    """Per-job means over a traced summary, with absence checks."""

    def __init__(self, summary: dict, jobs: int, facts: dict):
        self.self_s = summary["self_s"]
        self.counts = summary["counts"]
        self.absent = set(summary["absent"])
        self.jobs = jobs
        self.facts = facts

    def missing(self, hooks: tuple[str, ...]) -> bool:
        return bool(hooks) and all(hook in self.absent for hook in hooks)

    def time(self, metric: str) -> float:
        return self.self_s.get(metric, 0.0) / self.jobs

    def count(self, *names: str) -> float:
        return sum(self.counts.get(name, 0) for name in names) / self.jobs

    def ratio(self, numerator: float, denominator: float) -> float:
        """0 where the layer never ran on this workload; bases are in the details."""
        return numerator / denominator if denominator else 0.0


INTERVAL_EDGES = ("span_cores.edges_in_interval", "analysis.edges_in_interval")


@dataclass(frozen=True)
class Layer:
    name: str
    hooks: tuple[str, ...]  # absent when every one of these is missing
    value: Callable[[_Totals], float]
    moves: str


LAYERS = (
    Layer("temporal_graph.parse_s", ("cli.parse_contact_lines",),
          lambda t: t.time("temporal_graph.parse_s"),
          "job_s.p50 and contacts_per_s on maximal-community"),
    Layer("temporal_graph.ingest_s", ("cli.ingest_contacts",),
          lambda t: t.time("temporal_graph.ingest_s"),
          "job_s.p50 and contacts_per_s on maximal-community"),
    Layer("temporal_graph.interval_edges_s", INTERVAL_EDGES,
          lambda t: t.time("temporal_graph.interval_edges_s"),
          "job_s.p50 on full-community"),
    Layer("temporal_graph.interval_edges_calls", INTERVAL_EDGES,
          lambda t: t.count(*INTERVAL_EDGES), "job_s.p50 on full-community"),
    Layer("temporal_graph.diff_sets_s", ("maximal.edge_diff_sets",),
          lambda t: t.time("temporal_graph.diff_sets_s"), "job_s.p50 on maximal-community"),
    Layer("temporal_graph.diff_sets_calls", ("maximal.edge_diff_sets",),
          lambda t: t.count("maximal.edge_diff_sets"), "job_s.p50 on maximal-community"),
    Layer("temporal_graph.contact_lines_s", ("cli.contact_lines",),
          lambda t: t.time("temporal_graph.contact_lines_s"), "job_s.p50 on anomaly-sparse"),
    Layer("temporal_graph.timestamps", (),
          lambda t: t.facts["timestamps"] / t.jobs,
          "input property: sparse-time changes help only where it dwarfs the contacts"),
    Layer("temporal_graph.empty_timestamp_share", (),
          lambda t: t.ratio(t.facts["empty_timestamps"], t.facts["timestamps"]),
          "input property: above 1/2 only on anomaly-sparse"),
    Layer("core_kernel.s", KERNEL, lambda t: t.time("core_kernel.s"),
          "job_s.p50 on full-community and maximal-community"),
    Layer("core_kernel.calls", KERNEL, lambda t: t.count(*KERNEL),
          "job_s.p50 on full-community and maximal-community"),
    Layer("core_kernel.vertices_in", KERNEL,
          lambda t: t.count("kernel.vertices_in"),
          "job_s.p50 on full-community and maximal-community"),
    Layer("core_kernel.edges_in", KERNEL,
          lambda t: t.count("kernel.edges_in"),
          "job_s.p50 on full-community and maximal-community"),
    Layer("core_kernel.useful_vertex_ratio", KERNEL,
          lambda t: t.ratio(t.count("kernel.labelled", "kernel.labelled_via_innermost"),
                            t.count("kernel.vertices_in")),
          "job_s.p50 on full-community and maximal-community"),
    Layer("span_cores.self_s", ("cli.span_cores",),
          lambda t: t.time("span_cores.self_s"),
          "job_s.p50 on full-community; per-timestamp visits on anomaly-sparse"),
    Layer("span_cores.intervals_visited", ("span_cores.edges_in_interval",),
          lambda t: t.count("span_cores.edges_in_interval"),
          "job_s.p50 on full-community and anomaly-sparse"),
    Layer("span_cores.kernel_call_ratio", ("span_cores.edges_in_interval",),
          lambda t: t.ratio(t.count("span_cores.core_decomposition"),
                            t.count("span_cores.edges_in_interval")),
          "job_s.p50 on full-community and anomaly-sparse"),
    Layer("span_cores.processed_vertices", ("cli.span_cores",),
          lambda t: t.count("span_cores.processed_vertices"),
          "job_s.p50 on full-community"),
    Layer("span_cores.cores_emitted", ("cli.span_cores",),
          lambda t: t.count("span_cores.cores_emitted"), "job_s.p50 on full-community"),
    Layer("maximal.self_s", ("cli.maximal_span_cores",),
          lambda t: t.time("maximal.self_s"), "job_s.p50 on maximal-community"),
    Layer("maximal.intervals_visited", (MAXIMAL_TRACE,),
          lambda t: t.count("maximal.intervals_visited"), "job_s.p50 on maximal-community"),
    Layer("maximal.accept_ratio", (MAXIMAL_TRACE,),
          lambda t: t.ratio(t.count("maximal.accepted"), t.count("maximal.intervals_visited")),
          "job_s.p50 on maximal-community"),
    Layer("maximal.processed_vertices", ("cli.maximal_span_cores",),
          lambda t: t.count("maximal.processed_vertices"), "job_s.p50 on maximal-community"),
    Layer("serialize.write_s", WRITES, lambda t: t.time("serialize.write_s"),
          "job_s.p50 on full-community"),
    Layer("serialize.write_bytes", WRITES,
          lambda t: t.count("serialize.write_bytes"), "job_s.p50 on full-community"),
    Layer("serialize.read_s", ("cli.read_cores",),
          lambda t: t.time("serialize.read_s"), "job_s.p50 on full-community"),
    Layer("serialize.records_read", ("cli.read_cores",),
          lambda t: t.count("serialize.records_read"), "job_s.p50 on full-community"),
    Layer("analysis.summary_s",
          ("cli.stats_by_order", "cli.stats_by_span", "cli.activity_grid"),
          lambda t: t.time("analysis.summary_s"), "job_s.p50 on full-community"),
    Layer("analysis.anomaly_s", ("cli.detect_anomalies", "cli.precision_recall"),
          lambda t: t.time("analysis.anomaly_s"), "job_s.p50 on anomaly-sparse"),
    Layer("analysis.shuffle_s", ("cli.reshuffle_timestamps",),
          lambda t: t.time("analysis.shuffle_s"), "job_s.p50 on anomaly-sparse"),
    Layer("cli.self_s", (), lambda t: t.time("cli.self_s"),
          "job_s.p50 on every workload"),
)
OVERHEAD = "trace.overhead_ratio"


def layer_values(summary: dict, jobs: int, facts: dict) -> dict[str, float | str]:
    """Per-layer metric values, or ABSENT where the hook target is gone."""
    totals = _Totals(summary, jobs, facts)
    return {layer.name: ABSENT if totals.missing(layer.hooks) else layer.value(totals)
            for layer in LAYERS}

