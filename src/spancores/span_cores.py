"""Full span-core decomposition of a temporal graph.

A span-core of order k over interval D is the largest vertex set in which
every member keeps at least k neighbors inside the set at every timestamp of
D. Two engines compute all of them: a per-interval baseline and a pruned
search that hands each core-decomposition call only vertices that survived
both one-step-smaller intervals, and makes no call for an interval that keeps
all the edges of one of them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

from .core_kernel import core_decomposition
from .temporal_graph import Edge, Interval, TemporalGraph, edges_in_interval


class SpanCore:
    """One span-core: order, interval, member vertex ids, member count.

    A core read back from a core file shares its `members` frozenset with
    every core of its result that lists the same members.
    """

    __slots__ = ("order", "span", "size", "members")

    def __init__(self, order: int, span: Interval, members: frozenset[int]):
        self.order = order
        self.span = span
        self.size = len(members)
        self.members = members

    def sort_key(self) -> tuple[int, int, int]:
        return (self.span.start, self.span.end, self.order)

    def __eq__(self, other):
        if other.__class__ is not SpanCore:
            return NotImplemented
        return (self.order, self.span, self.members) == (other.order, other.span, other.members)

    def __hash__(self) -> int:
        return hash((self.order, self.span, self.members))

    def __repr__(self) -> str:
        return f"SpanCore(order={self.order}, span={self.span!r}, members={self.members!r})"


@dataclass
class RunMetrics:
    """Cost accounting for one engine run.

    processed_vertices is the cost model the engines compete on. The naive
    engine charges |V| for every interval it decomposes. The pruned engine
    charges |V| for a single-timestamp interval, since any vertex may be in
    its order-1 core, and the candidates of every wider interval it visits,
    whether it decomposes it or reuses a parent's cores. The direct maximal
    engine charges the candidates of every interval.
    """

    processed_vertices: int = 0
    cores_emitted: int = 0
    elapsed: float = 0.0


class DecompositionResult:
    """Engine output: cores sorted by (start, end, order), plus label table.

    Vertex id u is labelled `labels[u]`. A result read back from a core file
    numbers its labels in order of first appearance across its cores.
    """

    __slots__ = ("cores", "labels", "metrics")

    def __init__(self, cores: tuple[SpanCore, ...], labels: tuple[str, ...], metrics: RunMetrics):
        self.cores = cores
        self.labels = labels
        self.metrics = metrics

    def member_labels(self, core: SpanCore) -> list[str]:
        return sorted(map(self.labels.__getitem__, core.members))


def kernel_vertices(g: TemporalGraph, edges: frozenset[Edge]) -> set[int] | range:
    """The vertex set to hand the kernel with `edges`: their endpoints, or all of V.

    Only endpoints can get a coreness, so both give the same labeling. The
    endpoint set costs a pass over the edges and saves the kernel an entry
    per isolated vertex; it is built only when the edges are too few to
    touch half the vertices. Otherwise V goes in as a `range`, which costs
    nothing to build.
    """
    if 2 * len(edges) < g.vertex_count:
        return set(chain.from_iterable(edges))
    return range(g.vertex_count)


def _emit_cores(labeling, span: Interval, out: list[SpanCore], metrics: RunMetrics) -> frozenset[int]:
    """Append the k-cores of one interval, k from max_order (at least 1) down; return the 1-core."""
    by_order = defaultdict(list)
    for u, c in labeling.coreness.items():
        by_order[c].append(u)
    members: set[int] = set()
    for k in range(labeling.max_order, 0, -1):
        members.update(by_order.get(k, ()))
        core = SpanCore(k, span, frozenset(members))
        out.append(core)
        metrics.cores_emitted += 1
    return core.members


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


def span_cores(g: TemporalGraph) -> DecompositionResult:
    """Pruned engine: grow intervals width by width, shrinking candidates.

    Any member of a span-core over D must sit in the order-1 core of both
    intervals obtained by trimming one endpoint of D, and any edge of D is an
    edge of both. So [s, e] is visited only when [s, e-1] and [s+1, e] both
    yielded cores: its candidates are the intersection of their order-1
    cores, and its edges the intersection of the edge sets their kernel calls
    saw. Both endpoints of an edge a kernel call saw lie in that interval's
    order-1 core, so the intersection is exactly the edges of [s, e] among
    the candidates, and decomposition calls shrink as intervals grow.

    That intersection is a subset of both parents' edge sets. When it is as
    large as one of them, it is that parent's set, and coreness depends only
    on the edges, so [s, e] has the parent's cores over a wider span: they
    are re-emitted, sharing the parent's member sets, and the kernel is not
    called. Every visited interval is charged its candidates either way.

    A level maps the start of each interval of the current width that
    yielded cores to (order-1 core, kernel edges, emitted cores). Only
    non-empty timestamps seed the first level, so no visited interval covers
    an empty timestamp.
    """
    started = time.perf_counter()
    metrics = RunMetrics()
    cores: list[SpanCore] = []
    level: dict[int, tuple[frozenset[int], frozenset[Edge], list[SpanCore]]] = {}

    def decompose(vertices, edges, span):
        emitted = len(cores)
        order_one = _emit_cores(core_decomposition(vertices, edges), span, cores, metrics)
        return order_one, edges, cores[emitted:]

    for t in g.nonempty_times:
        span = Interval(t, t)
        edges = edges_in_interval(g, span)
        level[t] = decompose(kernel_vertices(g, edges), edges, span)
        metrics.processed_vertices += g.vertex_count

    width = 1
    while level:
        wider = {}
        for t_s, left in level.items():
            right = level.get(t_s + 1)
            if right is None:
                continue
            (left_core, left_edges, _), (right_core, right_edges, _) = left, right
            edges = left_edges & right_edges
            if not edges:
                continue
            span = Interval(t_s, t_s + width)
            if len(edges) == len(left_edges):
                parent = left
            elif len(edges) == len(right_edges):
                parent = right
            else:
                candidates = left_core & right_core
                metrics.processed_vertices += len(candidates)
                wider[t_s] = decompose(candidates, edges, span)
                continue
            # The parent's order-1 core holds the endpoints of its edges, which
            # are edges of the other parent too, so it is the candidate set.
            order_one, _, shells = wider[t_s] = parent
            metrics.processed_vertices += len(order_one)
            cores.extend([SpanCore(shell.order, span, shell.members) for shell in shells])
            metrics.cores_emitted += len(shells)
        level = wider
        width += 1
    metrics.elapsed = time.perf_counter() - started
    cores.sort(key=SpanCore.sort_key)
    return DecompositionResult(tuple(cores), g.labels, metrics)
