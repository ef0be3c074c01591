"""Core decomposition of a static undirected graph.

Bucket-based peeling (Batagelj and Zaversnik, arXiv cs/0310049): vertices
are processed in nondecreasing order of residual degree, and the degree a
vertex holds when its turn comes is its coreness. Coreness is unique, so it
does not depend on the order in which vertices of one degree are peeled.
Runs in O(|vertices| + |edges|).
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
    a caller bug and raises. `buckets[d]` lists the vertices that reached
    residual degree d: a vertex is appended again each time a peeled neighbour
    lowers its degree, and an entry whose vertex has since moved lower is
    skipped. Only the endpoint of an edge peeled later is lowered, so the peel
    appends at most |V| + |E| entries, and the bucket being walked may grow
    while it is walked.
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

    buckets: list[list[int]] = [[] for _ in range(max(degree.values()) + 1)]
    for u, d in degree.items():
        buckets[d].append(u)
    coreness: dict[int, int] = {}
    for d, bucket in enumerate(buckets):
        for u in bucket:
            if degree[u] != d:
                continue
            coreness[u] = d
            for v in adjacency[u]:
                if degree[v] > d:
                    degree[v] -= 1
                    buckets[degree[v]].append(v)
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
