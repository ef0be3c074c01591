"""Full span-core decomposition of a temporal graph.

A span-core of order k over interval D is the largest vertex set in which
every member keeps at least k neighbors inside the set at every timestamp of
D. Two engines compute all of them: a per-interval baseline and a pruned
search that hands each core-decomposition call only vertices that survived
both one-step-smaller intervals, and makes no call for an interval that keeps
all the edges of one of them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .core_kernel import core_decomposition
from .temporal_graph import Edge, Interval, TemporalGraph, _edge_walk, edges_in_interval


class SpanCore:
    """One span-core: order, interval, member vertex ids.

    A core read back from a core file shares its `members` frozenset with
    every core of its result that lists the same members.
    """

    # SpanCore and Interval stay __slots__ classes while every other record
    # is a named tuple: a core-file read builds and reads thousands of both,
    # and as named tuples (CPython 3.11, 2-CPU Xeon) 20K constructions took
    # 6.0 ms instead of 4.0 ms (SpanCore) and 6.9 ms instead of 4.5 ms
    # (Interval).
    __slots__ = ("order", "span", "members")

    def __init__(self, order: int, span: Interval, members: frozenset[int]):
        self.order = order
        self.span = span
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


class RunMetrics(NamedTuple):
    """Cost accounting for one engine run, a function of its arguments alone.

    processed_vertices is the cost model the engines compete on. The naive
    engine charges |V| for every interval it decomposes. The pruned engine
    charges |V| for a single-timestamp interval, since any vertex may be in
    its order-1 core, and the candidates of every wider interval it visits,
    whether it decomposes it or reuses a parent's cores. The direct maximal
    engine charges the candidates of every interval it visits, so under
    min_span none of a narrower interval. cores_emitted is the
    number of cores in the result. Run time is not an engine's to measure:
    the CLI times the whole engine call.
    """

    processed_vertices: int = 0
    cores_emitted: int = 0


class DecompositionResult(NamedTuple):
    """Engine output: cores sorted by (start, end, order), plus label table.

    Vertex id u is labelled `labels[u]`. A result read back from a core file
    numbers its labels in order of first appearance across its cores.
    """

    cores: tuple[SpanCore, ...]
    labels: tuple[str, ...]
    metrics: RunMetrics

    def member_labels(self, core: SpanCore) -> list[str]:
        return sorted(map(self.labels.__getitem__, core.members))


def _emit_cores(vertices, edges, span: Interval, out: list[SpanCore]) -> list[SpanCore]:
    """Decompose (vertices, edges); append and return its k-cores over `span`, the 1-core last."""
    labeling = core_decomposition(vertices, edges)
    by_order = defaultdict(list)
    for u, c in labeling.coreness.items():
        by_order[c].append(u)
    members: set[int] = set()
    emitted = len(out)
    for k in range(labeling.max_order, 0, -1):
        members.update(by_order.get(k, ()))
        out.append(SpanCore(k, span, frozenset(members)))
    return out[emitted:]


def _result(g: TemporalGraph, cores: list[SpanCore], processed_vertices: int) -> DecompositionResult:
    """Every engine's ending: sort the cores by (start, end, order), count them and wrap them."""
    cores.sort(key=SpanCore.sort_key)
    return DecompositionResult(tuple(cores), g.labels, RunMetrics(processed_vertices, len(cores)))


def naive_span_cores(g: TemporalGraph) -> DecompositionResult:
    """Baseline: decompose (V, E_D) for every interval D with edges.

    Every call sees the full vertex set, so processed_vertices grows by |V|
    per non-empty interval.
    """
    processed_vertices = 0
    cores: list[SpanCore] = []
    everyone = range(g.vertex_count)
    for t_s in g.nonempty_times:
        for t_e, edges in _edge_walk(g, t_s):
            _emit_cores(everyone, edges, Interval(t_s, t_e), cores)
            processed_vertices += g.vertex_count
    return _result(g, cores, processed_vertices)


def span_cores(g: TemporalGraph) -> DecompositionResult:
    """Pruned engine: walk start times latest first, shrinking candidates.

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

    A start's row holds (kernel edges, emitted cores) for [s, s], [s, s+1],
    ... while they yield cores, the order-1 core last. [s, e] reads its left
    parent from the end of its own row and its right parent from the row of
    s+1, the one other row kept. Only non-empty timestamps start a row, so
    no visited interval covers an empty timestamp.
    """
    processed_vertices = 0
    cores: list[SpanCore] = []
    row: list[tuple[frozenset[Edge], list[SpanCore]]] = []
    previous = None  # the start whose row `row` is
    for t_s in reversed(g.nonempty_times):
        right_row = row if previous == t_s + 1 else []
        span = Interval(t_s, t_s)
        edges = edges_in_interval(g, span)
        row = [(edges, _emit_cores(range(g.vertex_count), edges, span, cores))]
        processed_vertices += g.vertex_count
        # right_row[i] is [t_s+1, t_s+1+i], whose left parent [t_s, t_s+i] ends the row.
        for right_edges, right_cores in right_row:
            left_edges, left_cores = row[-1]
            edges = left_edges & right_edges
            if not edges:
                break
            span = Interval(t_s, t_s + len(row))
            if len(edges) == len(left_edges):
                parent = left_cores
            elif len(edges) == len(right_edges):
                parent = right_cores
            else:
                candidates = left_cores[-1].members & right_cores[-1].members
                processed_vertices += len(candidates)
                row.append((edges, _emit_cores(candidates, edges, span, cores)))
                continue
            # The parent's order-1 core holds the endpoints of its edges, which
            # are edges of the other parent too, so it is the candidate set.
            row.append((edges, parent))
            processed_vertices += len(parent[-1].members)
            cores.extend([SpanCore(shell.order, span, shell.members) for shell in parent])
        previous = t_s
    return _result(g, cores, processed_vertices)
