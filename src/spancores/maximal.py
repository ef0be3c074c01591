"""Mining maximal span-cores.

A span-core is maximal when no other span-core has at least its order and an
interval covering its own. Two routes: filter the full decomposition, or walk
intervals directly from widest to narrowest per start time, using orders
already established for neighboring intervals as lower bounds that prune
both candidate vertices and whole intervals. The direct walk counts degrees
in one list for the whole run and resets only the vertices a start time
touched, so its replay cost follows the arriving edges, not |V| per start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .core_kernel import innermost_core
from .span_cores import DecompositionResult, RunMetrics, SpanCore, span_cores
from .temporal_graph import Interval, TemporalGraph, edge_diff_sets


class TraceStep(NamedTuple):
    """One interval visit of the direct engine."""

    t_s: int
    t_e: int
    lower_bound: int
    candidate_count: int
    order: int
    accepted: bool


@dataclass
class MaximalTrace:
    """Optional instrumentation: interval visits in processing order.

    final_k_prime maps each non-empty timestamp to the lower bound k' the
    engine held for it when the run ended.
    """

    steps: list[TraceStep] = field(default_factory=list)
    final_k_prime: dict[int, int] = field(default_factory=dict)


def naive_maximal_span_cores(g: TemporalGraph) -> DecompositionResult:
    """Run the full decomposition, then keep only undominated cores.

    Only the innermost core of each interval can be maximal. Span-cores nest
    under interval containment: a core of order k over D yields one of order
    at least k over every interval inside D. Every interval strictly
    containing [s, e] contains [s-1, e] or [s, e+1], so the innermost core
    of [s, e] is maximal exactly when its order beats the innermost orders
    of those two one-step extensions (0 where there is none).
    """
    started = time.perf_counter()
    full = span_cores(g)
    # Cores come sorted by (start, end, order), so the last one of a span is
    # its innermost, and the spans keep that order.
    innermost = {(core.span.start, core.span.end): core for core in full.cores}
    cores = []
    for (s, e), core in innermost.items():
        wider = (innermost.get((s - 1, e)), innermost.get((s, e + 1)))
        if all(other is None or other.order < core.order for other in wider):
            cores.append(core)
    metrics = RunMetrics(
        processed_vertices=full.metrics.processed_vertices,
        cores_emitted=len(cores),
        elapsed=time.perf_counter() - started,
    )
    return DecompositionResult(tuple(cores), g.labels, metrics)


def maximal_span_cores(g: TemporalGraph, trace: MaximalTrace | None = None) -> DecompositionResult:
    """Direct engine: visit intervals widest-first within each start time.

    For a fixed start, interval edge sets are replayed from the
    difference encoding, growing as the end moves earlier. Before
    decomposing an interval, its innermost order is lower-bounded by the
    orders of the two intervals that extend it (one more timestamp before
    the start, one fewer trimmed from the end); only vertices whose degree
    beats the bound can matter, and the interval is skipped as non-maximal
    unless it strictly beats the bound.
    """
    started = time.perf_counter()
    metrics = RunMetrics()
    cores: list[SpanCore] = []
    # k_prime[t] carries the innermost order of [previous start, t] across
    # start times; it is never reset. Intervals with edges cover only
    # non-empty timestamps, so only those need an entry.
    k_prime = dict.fromkeys(g.nonempty_times, 0)
    # Degrees in the current start's replay; only the touched vertices are
    # ever non-zero, and they are zeroed again before the next start.
    degree = [0] * g.vertex_count
    for t_s in g.nonempty_times:
        t_star, removed = edge_diff_sets(g, t_s)
        edges = set(g.edges_at(t_s)).difference(*removed)  # edges of [t_s, t_star]
        touched: list[int] = []  # vertices of degree >= 1, in order of arrival
        k_trim = 0  # innermost order seen for [t_s, t_e + 1]
        for t_e in range(t_star, t_s - 1, -1):
            arriving = edges if t_e == t_star else removed[t_e - t_s]
            if t_e != t_star:
                edges |= arriving
            for u, v in arriving:
                if not degree[u]:
                    touched.append(u)
                degree[u] += 1
                if not degree[v]:
                    touched.append(v)
                degree[v] += 1
            bound = max(k_prime[t_e], k_trim)
            candidates = [u for u in touched if degree[u] > bound] if bound else touched
            if candidates:
                if bound:
                    subgraph = [e for e in edges
                                if degree[e[0]] > bound and degree[e[1]] > bound]
                else:
                    subgraph = edges  # every endpoint has degree >= 1
                order, members = innermost_core(candidates, subgraph)
                metrics.processed_vertices += len(candidates)
            else:
                order, members = 0, frozenset()
            accepted = order > bound
            if accepted:
                cores.append(SpanCore(order, Interval(t_s, t_e), members))
                metrics.cores_emitted += 1
            k_trim = max(k_trim, order)
            k_prime[t_e] = max(k_prime[t_e], k_trim)
            if trace is not None:
                trace.steps.append(
                    TraceStep(t_s, t_e, bound, len(candidates), order, accepted)
                )
        for u in touched:
            degree[u] = 0
    if trace is not None:
        trace.final_k_prime = k_prime
    metrics.elapsed = time.perf_counter() - started
    cores.sort(key=SpanCore.sort_key)
    return DecompositionResult(tuple(cores), g.labels, metrics)
