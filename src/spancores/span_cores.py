"""Full span-core decomposition of a temporal graph.

A span-core of order k over interval D is the largest vertex set in which
every member keeps at least k neighbors inside the set at every timestamp of
D. Two engines compute all of them: a per-interval baseline and a pruned
search that hands each core-decomposition call only vertices that survived
both one-step-smaller intervals.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .core_kernel import core_decomposition
from .temporal_graph import Interval, TemporalGraph, edges_in_interval


@dataclass(frozen=True)
class SpanCore:
    """One span-core: order, interval, member vertex ids."""

    order: int
    span: Interval
    members: frozenset[int]

    def sort_key(self) -> tuple[int, int, int]:
        return (self.span.start, self.span.end, self.order)


@dataclass
class RunMetrics:
    """Cost accounting for one engine run.

    processed_vertices counts the vertices handed to every decomposition
    call, which is the cost model the engines compete on.
    """

    processed_vertices: int = 0
    cores_emitted: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class DecompositionResult:
    """Engine output: cores sorted by (start, end, order), plus label table."""

    cores: tuple[SpanCore, ...]
    labels: tuple[str, ...]
    metrics: RunMetrics

    def member_labels(self, core: SpanCore) -> list[str]:
        return sorted(self.labels[u] for u in core.members)


def _emit_cores(labeling, span: Interval, out: list[SpanCore], metrics: RunMetrics) -> frozenset[int]:
    """Append the k-cores of one interval, k descending; returns the 1-core."""
    by_order = defaultdict(list)
    for u, c in labeling.coreness.items():
        by_order[c].append(u)
    members: set[int] = set()
    for k in range(labeling.max_order, 0, -1):
        members.update(by_order.get(k, ()))
        out.append(SpanCore(k, span, frozenset(members)))
        metrics.cores_emitted += 1
    return frozenset(members)


def naive_span_cores(g: TemporalGraph) -> DecompositionResult:
    """Baseline: decompose (V, E_D) for every interval D with edges.

    Every call sees the full vertex set, so processed_vertices grows by |V|
    per non-empty interval.
    """
    started = time.perf_counter()
    metrics = RunMetrics()
    cores: list[SpanCore] = []
    everyone = range(g.vertex_count)
    for t_s in g.nonempty_times:
        edges = set(g.edges_at(t_s))
        for t_e in range(t_s, g.t_max + 1):
            if t_e > t_s:
                edges &= g.edges_at(t_e)
            if not edges:
                break  # interval edge sets only shrink as the interval grows
            labeling = core_decomposition(everyone, edges)
            metrics.processed_vertices += g.vertex_count
            _emit_cores(labeling, Interval(t_s, t_e), cores, metrics)
    metrics.elapsed = time.perf_counter() - started
    cores.sort(key=SpanCore.sort_key)
    return DecompositionResult(tuple(cores), g.labels, metrics)


@dataclass
class _Frontier:
    """Candidate bookkeeping for the pruned engine.

    Candidate sets live at most two generations: an interval's entry is
    dropped when it is dequeued, and entries whose second parent never
    produced cores are purged when their generation starts.
    """

    candidates: dict[tuple[int, int], frozenset[int]] = field(default_factory=dict)
    ever_enqueued: set[tuple[int, int]] = field(default_factory=set)

    def purge_dead(self, width: int) -> None:
        dead = [iv for iv in self.candidates
                if iv[1] - iv[0] + 1 == width and iv not in self.ever_enqueued]
        for iv in dead:
            del self.candidates[iv]


def span_cores(g: TemporalGraph) -> DecompositionResult:
    """Pruned engine: grow intervals breadth-first, shrinking candidates.

    Any member of a span-core over D must sit in the order-1 core of both
    intervals obtained by trimming one endpoint of D. The queue visits
    intervals by increasing width; each interval's candidate set is the
    intersection of its two parents' order-1 cores, so decomposition calls
    shrink as intervals grow. Intervals whose candidate intersection is empty
    are still visited and resolve to nothing via the edge guard.

    Only non-empty timestamps seed the queue. An interval is enqueued once
    both of its parents yielded cores, so no queued interval covers an empty
    timestamp.
    """
    started = time.perf_counter()
    metrics = RunMetrics()
    cores: list[SpanCore] = []
    everyone = frozenset(range(g.vertex_count))
    queue: deque[tuple[int, int]] = deque()
    frontier = _Frontier()
    for t in g.nonempty_times:
        singleton = (t, t)
        queue.append(singleton)
        frontier.candidates[singleton] = everyone
        frontier.ever_enqueued.add(singleton)

    current_width = 1
    while queue:
        t_s, t_e = queue.popleft()
        width = t_e - t_s + 1
        if width > current_width:
            current_width = width
            frontier.purge_dead(width)
        candidates = frontier.candidates.pop((t_s, t_e))
        edges = edges_in_interval(g, Interval(t_s, t_e))
        if len(candidates) < g.vertex_count:
            edges = frozenset(e for e in edges if e[0] in candidates and e[1] in candidates)
        if not edges:
            continue
        labeling = core_decomposition(candidates, edges)
        metrics.processed_vertices += len(candidates)
        order_one = _emit_cores(labeling, Interval(t_s, t_e), cores, metrics)
        for child in ((max(t_s - 1, 0), t_e), (t_s, min(t_e + 1, g.t_max))):
            if child == (t_s, t_e):
                continue  # at the domain boundary the trimmed child folds back
            if child in frontier.candidates:
                frontier.candidates[child] = frontier.candidates[child] & order_one
                if child not in frontier.ever_enqueued:
                    queue.append(child)
                    frontier.ever_enqueued.add(child)
            else:
                frontier.candidates[child] = order_one
    metrics.elapsed = time.perf_counter() - started
    cores.sort(key=SpanCore.sort_key)
    return DecompositionResult(tuple(cores), g.labels, metrics)
