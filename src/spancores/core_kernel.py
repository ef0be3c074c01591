"""Core decomposition of a static undirected graph.

Bucket-based peeling (Batagelj and Zaversnik, arXiv cs/0310049): vertices
are processed in nondecreasing order of residual degree, and the degree a
vertex holds when its turn comes is its coreness. Coreness is unique, so it
does not depend on the order in which vertices of one degree are peeled.
Runs in O(|vertices| + |edges|).

One peel loop serves every engine. `core_decomposition` builds adjacency
lists from an edge list for the full decompositions; `innermost_core` peels
the direct maximal engine's candidates straight from the adjacency lists its
replay keeps.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Container, Iterable, Mapping, MutableSequence, NamedTuple, Sequence

from .temporal_graph import Edge


class CoreLabeling(NamedTuple):
    """Coreness per vertex; vertices of degree zero get no entry."""

    coreness: Mapping[int, int]
    max_order: int


def _peel(vertices: Iterable[int], adjacency, degree) -> dict[int, int]:
    """Coreness of every vertex of `vertices` whose degree is positive.

    `adjacency[u]` lists u's neighbours and `degree[u]` holds u's degree
    within `vertices`; both are dicts or lists indexed by vertex id. A
    neighbour outside `vertices` must read degree 0, so the peel never
    lowers it. `degree` is lowered in place and ends holding each vertex's
    coreness. `buckets[d]` lists the vertices that reached residual degree
    d: a vertex is appended again each time a peeled neighbour lowers its
    degree, and an entry whose vertex has since moved lower is skipped. Only
    the endpoint of an edge peeled later is lowered, so the peel appends at
    most |V| + |E| entries, and the bucket being walked may grow while it is
    walked.
    """
    top = max(map(degree.__getitem__, vertices), default=0)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for u in vertices:
        buckets[degree[u]].append(u)
    coreness: dict[int, int] = {}
    for d in range(1, top + 1):  # bucket 0 holds the isolated vertices
        for u in buckets[d]:
            if degree[u] != d:
                continue
            coreness[u] = d
            for v in adjacency[u]:
                if degree[v] > d:
                    degree[v] -= 1
                    buckets[degree[v]].append(v)
    return coreness


def core_decomposition(vertices: Container[int], edges: Iterable[Edge]) -> CoreLabeling:
    """Peel the graph and label every non-isolated vertex with its coreness.

    Only an endpoint of `edges` can get a coreness, so adjacency is built for
    the endpoints alone and a call costs O(|edges|): `vertices` is only asked
    whether each endpoint is a member (a list answers in linear time). A
    stray endpoint is a caller bug and raises.
    """
    adjacency: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    if not all(map(vertices.__contains__, adjacency)):
        stray = next(u for u in adjacency if u not in vertices)
        raise ValueError(f"edge endpoint {stray} is a vertex outside the input set")
    degree = {u: len(nbrs) for u, nbrs in adjacency.items()}
    coreness = _peel(degree, adjacency, degree)
    return CoreLabeling(coreness, max(coreness.values(), default=0))


def innermost_core(candidates: Sequence[int], adjacency: Sequence[Sequence[int]],
                   bound: int, work: MutableSequence[int]) -> tuple[int, frozenset[int]]:
    """Order and members of the candidates' highest-order core; (0, empty) if edgeless.

    The graph is the subgraph the candidates induce. `adjacency[u]` lists
    every neighbour of vertex u, so its length is u's degree. The
    candidates are exactly the vertices whose degree beats `bound`, so a
    candidate's induced degree is its degree minus its neighbours at or
    below the bound. `work` holds one zero per vertex id; the peel counts in
    it and leaves it all zeros again.
    """
    for u in candidates:
        d = len(adjacency[u])
        if bound:
            for v in adjacency[u]:
                if len(adjacency[v]) <= bound:
                    d -= 1
        work[u] = d
    coreness = _peel(candidates, adjacency, work)
    for u in candidates:
        work[u] = 0
    if not coreness:
        return 0, frozenset()
    order = max(coreness.values())
    return order, frozenset(u for u, c in coreness.items() if c == order)
