"""Core decomposition of a static undirected graph.

Bucket-based peeling: vertices are processed in nondecreasing order of
residual degree, and the degree a vertex holds when its turn comes is its
coreness. Runs in O(|vertices| + |edges|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .temporal_graph import Edge


@dataclass(frozen=True)
class CoreLabeling:
    """Coreness per vertex; vertices of degree zero get no entry."""

    coreness: Mapping[int, int]
    max_order: int


def core_decomposition(vertices: Iterable[int], edges: Iterable[Edge]) -> CoreLabeling:
    """Peel the graph and label every non-isolated vertex with its coreness.

    `edges` must connect vertices drawn from `vertices`; a stray endpoint is
    a caller bug and raises. Ties inside a degree bucket are broken by
    ascending vertex id so runs are reproducible.
    """
    adjacency: dict[int, list[int]] = {u: [] for u in vertices}
    for u, v in edges:
        if u not in adjacency or v not in adjacency:
            raise ValueError(f"edge ({u},{v}) references a vertex outside the input set")
        adjacency[u].append(v)
        adjacency[v].append(u)

    degree = {u: len(nbrs) for u, nbrs in adjacency.items() if nbrs}
    if not degree:
        return CoreLabeling({}, 0)

    max_degree = max(degree.values())
    counts = [0] * (max_degree + 1)
    for d in degree.values():
        counts[d] += 1
    starts = [0] * (max_degree + 1)
    acc = 0
    for d in range(max_degree + 1):
        starts[d] = acc
        acc += counts[d]

    order = [0] * len(degree)
    position = {}
    fill = list(starts)
    for u in sorted(degree):
        d = degree[u]
        order[fill[d]] = u
        position[u] = fill[d]
        fill[d] += 1

    coreness: dict[int, int] = {}
    for i in range(len(order)):
        u = order[i]
        du = degree[u]
        coreness[u] = du
        for v in adjacency[u]:
            dv = degree[v]
            if dv > du:
                # pull v to the front of its bucket, then shrink the bucket
                pv = position[v]
                pw = starts[dv]
                w = order[pw]
                if v != w:
                    order[pv], order[pw] = w, v
                    position[v], position[w] = pw, pv
                starts[dv] += 1
                degree[v] = dv - 1
    return CoreLabeling(coreness, max(coreness.values()))


def innermost_core(vertices: Iterable[int], edges: Iterable[Edge]) -> tuple[int, frozenset[int]]:
    """Order and members of the highest-order core; (0, empty) if edgeless."""
    labeling = core_decomposition(vertices, edges)
    if labeling.max_order == 0:
        return 0, frozenset()
    members = frozenset(
        u for u, c in labeling.coreness.items() if c == labeling.max_order
    )
    return labeling.max_order, members
