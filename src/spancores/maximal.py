"""Mining maximal span-cores.

A span-core is maximal when no other span-core has at least its order and an
interval covering its own. Two routes: filter the full decomposition, or walk
intervals directly from widest to narrowest per start time, using orders
already established for neighboring intervals as lower bounds that prune
both candidate vertices and whole intervals. The direct walk keeps each
vertex's neighbour list, whose length is its degree, in one run-wide list
indexed by vertex id, adds only the edges that arrive at each step, and
resets only the vertices a start time touched, so its replay cost follows
the arriving edges, not |V| or the interval's whole edge set per step. The
kernel peels the candidates straight from those neighbour lists.
"""

from __future__ import annotations

from typing import NamedTuple

from .core_kernel import innermost_core
from .span_cores import DecompositionResult, SpanCore, _result, span_cores
from .temporal_graph import Interval, TemporalGraph, check_min_span, edge_diff_sets


class TraceStep(NamedTuple):
    """One interval visit of the direct engine."""

    t_s: int
    t_e: int
    lower_bound: int
    candidate_count: int
    order: int
    accepted: bool


class MaximalTrace:
    """Optional instrumentation: interval visits in processing order.

    The one record an engine fills in. final_k_prime maps each non-empty
    timestamp to the lower bound k' the engine held for it when the run
    ended. Under min_span it holds the bounds of the visited ends: a
    timestamp that no visited interval ends at keeps 0.
    """

    def __init__(self):
        self.steps: list[TraceStep] = []
        self.final_k_prime: dict[int, int] = {}


def naive_maximal_span_cores(g: TemporalGraph) -> DecompositionResult:
    """Run the full decomposition, then keep only undominated cores.

    Only the innermost core of each interval can be maximal. Span-cores nest
    under interval containment: a core of order k over D yields one of order
    at least k over every interval inside D. Every interval strictly
    containing [s, e] contains [s-1, e] or [s, e+1], so the innermost core
    of [s, e] is maximal exactly when its order beats the innermost orders
    of those two one-step extensions (0 where there is none).
    """
    full = span_cores(g)
    # Cores come sorted by (start, end, order), so the last one of a span is
    # its innermost, and the spans keep that order.
    innermost = {(core.span.start, core.span.end): core for core in full.cores}
    cores = []
    for (s, e), core in innermost.items():
        wider = (innermost.get((s - 1, e)), innermost.get((s, e + 1)))
        if all(other is None or other.order < core.order for other in wider):
            cores.append(core)
    return _result(g, cores, full.metrics.processed_vertices)


def maximal_span_cores(g: TemporalGraph, trace: MaximalTrace | None = None, *,
                       min_span: int = 1) -> DecompositionResult:
    """Direct engine: visit intervals widest-first within each start time.

    For a fixed start, interval edge sets are replayed from the
    difference encoding, growing as the end moves earlier: the edges of the
    widest interval arrive first, then each step's diff set, and every
    arriving edge joins both endpoints' neighbour lists. Before decomposing
    an interval, its innermost order is lower-bounded by the orders of the
    two intervals that extend it (one more timestamp before the start, one
    fewer trimmed from the end); only vertices whose degree beats the bound
    can matter, so they are the candidates the kernel peels, and the
    interval is skipped as non-maximal unless it strictly beats the bound.

    Both bounds come from wider intervals, so min_span can stop each walk
    short, and skip a start unless its first min_span timestamps all have
    edges: the cores and trace steps are a full run's of width >= min_span.
    """
    check_min_span(min_span)
    processed_vertices = 0
    cores: list[SpanCore] = []
    # k_prime[t] carries the innermost order of [previous start, t] across
    # start times; it is never reset. Intervals with edges cover only
    # non-empty timestamps, so only those need an entry.
    times = g.nonempty_times
    k_prime = dict.fromkeys(times, 0)
    # Neighbour lists in the current start's replay, a vertex's degree being
    # the length of its list; only the touched vertices' lists are non-empty,
    # and they are emptied again before the next start. `work` is the
    # kernel's scratch list, all zeros between calls.
    adjacency: list[list[int]] = [[] for _ in range(g.vertex_count)]
    work = [0] * g.vertex_count
    for i, t_s in enumerate(times):
        if i + min_span > len(times) or times[i + min_span - 1] != t_s + min_span - 1:
            continue  # [t_s, t_s + min_span - 1] covers an empty timestamp
        t_star, removed, arriving = edge_diff_sets(g, t_s)
        touched: list[int] = []  # vertices of degree >= 1, in order of arrival
        k_trim = 0  # innermost order seen for [t_s, t_e + 1]
        for t_e in range(t_star, t_s + min_span - 2, -1):
            if t_e != t_star:
                arriving = removed[t_e - t_s]
            for u, v in arriving:
                if not adjacency[u]:
                    touched.append(u)
                adjacency[u].append(v)
                if not adjacency[v]:
                    touched.append(v)
                adjacency[v].append(u)
            bound = max(k_prime[t_e], k_trim)
            candidates = [u for u in touched if len(adjacency[u]) > bound] if bound else touched
            if candidates:
                order, members = innermost_core(candidates, adjacency, bound, work)
                processed_vertices += len(candidates)
            else:
                order, members = 0, frozenset()
            accepted = order > bound
            if accepted:
                cores.append(SpanCore(order, Interval(t_s, t_e), members))
            k_trim = max(k_trim, order)
            k_prime[t_e] = max(k_prime[t_e], k_trim)
            if trace is not None:
                trace.steps.append(
                    TraceStep(t_s, t_e, bound, len(candidates), order, accepted)
                )
        for u in touched:
            adjacency[u] = []
    if trace is not None:
        trace.final_k_prime = k_prime
    return _result(g, cores, processed_vertices)
