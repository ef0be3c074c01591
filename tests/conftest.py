"""Shared fixtures: the worked example graph, random generators, and
definition-level oracles the engines are checked against.

The oracles deliberately avoid the production kernels: k-cores come from
fixed-point deletion and maximality from a pairwise dominance scan, so an
engine bug cannot hide in a shared helper. The reference parser and ingest
are the straightforward versions the optimized ones must stay equal to.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from spancores import ContactParseError, TemporalGraph

OracleCore = tuple[int, tuple[int, int], frozenset[int]]


@pytest.fixture
def g_ex() -> TemporalGraph:
    """Four vertices over three timestamps; every expected value below is
    derived from this graph."""
    return TemporalGraph(
        ["a", "b", "c", "d"],
        [
            {(0, 1), (1, 2), (0, 2), (2, 3)},
            {(0, 1), (1, 2), (0, 2)},
            {(0, 1)},
        ],
    )


def random_temporal_graph(rng: random.Random, max_vertices: int = 25,
                          max_timestamps: int = 8,
                          p_range: tuple[float, float] = (0.05, 0.4)) -> TemporalGraph:
    n = rng.randint(2, max_vertices)
    horizon = rng.randint(1, max_timestamps)
    p = rng.uniform(*p_range)
    labels = [f"v{i}" for i in range(n)]
    edges_by_time = []
    for _ in range(horizon):
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
        edges_by_time.append(edges)
    return TemporalGraph(labels, edges_by_time)


def community_temporal_graph(vertices: int = 2000, horizon: int = 50,
                             communities: int = 40, active_p: float = 0.4,
                             p_in: float = 0.3, clique: int = 8,
                             seed: int = 20260814) -> TemporalGraph:
    """Bursty community activity plus one small persistent clique.

    Communities flick on and off per timestamp, so most vertices are
    isolated most of the time; the clique keeps every interval's edge
    intersection non-empty, which is the worst case for the per-interval
    baseline.
    """
    rng = random.Random(seed)
    size = vertices // communities
    members = [list(range(c * size, (c + 1) * size)) for c in range(communities)]
    edges_by_time = []
    for _ in range(horizon):
        edges = {(i, j) for i in range(clique) for j in range(i + 1, clique)}
        for group in members:
            if rng.random() < active_p:
                for a in range(len(group)):
                    for b in range(a + 1, len(group)):
                        if rng.random() < p_in:
                            edges.add((group[a], group[b]))
        for _ in range(20):
            u = rng.randrange(vertices)
            v = rng.randrange(vertices)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        edges_by_time.append(edges)
    return TemporalGraph([f"v{i}" for i in range(vertices)], edges_by_time)


def planted_clique_graph(background_p: float = 0.1, seed: int = 8) -> TemporalGraph:
    """A 4-clique on vertices 0..3 at every one of 10 timestamps, with
    random background edges among the other 26 vertices."""
    rng = random.Random(seed)
    clique = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    edges_by_time = []
    for _ in range(10):
        edges = set(clique)
        for i in range(4, 30):
            for j in range(i + 1, 30):
                if rng.random() < background_p:
                    edges.add((i, j))
        edges_by_time.append(edges)
    return TemporalGraph([f"v{i}" for i in range(30)], edges_by_time)


def ratio_fixture_graph() -> TemporalGraph:
    """Clique on 0..3 at all 10 timestamps; 20 fixed background edges among
    4..29 everywhere except timestamps 2, 5, 7, which carry clique contacts
    only."""
    rng = random.Random(15)
    background = set()
    while len(background) < 20:
        u, v = rng.sample(range(4, 30), 2)
        background.add((min(u, v), max(u, v)))
    clique = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    edges_by_time = []
    for t in range(10):
        edges = set(clique)
        if t not in (2, 5, 7):
            edges |= background
        edges_by_time.append(edges)
    return TemporalGraph([f"v{i}" for i in range(30)], edges_by_time)


def fixed_point_core(vertex_count: int, edges: frozenset, k: int) -> frozenset[int]:
    """Maximal set where everyone keeps >= k neighbors, by repeated deletion."""
    members = set(range(vertex_count))
    while True:
        degree = Counter()
        for u, v in edges:
            if u in members and v in members:
                degree[u] += 1
                degree[v] += 1
        violating = {u for u in members if degree[u] < k}
        if not violating:
            return frozenset(members)
        members -= violating


def interval_edges(g: TemporalGraph, t_s: int, t_e: int) -> frozenset:
    edges = g.edges_at(t_s)
    for t in range(t_s + 1, t_e + 1):
        edges = edges & g.edges_at(t)
    return frozenset(edges)


def oracle_span_cores(g: TemporalGraph) -> set[OracleCore]:
    """Every (order, interval, members) triple straight from the definition."""
    out: set[OracleCore] = set()
    for t_s in range(g.t_max + 1):
        for t_e in range(t_s, g.t_max + 1):
            edges = interval_edges(g, t_s, t_e)
            if not edges:
                continue
            k = 1
            while True:
                core = fixed_point_core(g.vertex_count, edges, k)
                if not core:
                    break
                out.add((k, (t_s, t_e), core))
                k += 1
    return out


def _covers(outer: tuple[int, int], inner: tuple[int, int]) -> bool:
    return outer[0] <= inner[0] and outer[1] >= inner[1]


def oracle_maximal(full: set[OracleCore]) -> set[OracleCore]:
    """Pairwise dominance scan over the full decomposition."""
    kept = set()
    for k, span, members in full:
        dominated = any(
            other_k >= k and _covers(other_span, span) and (other_k, other_span) != (k, span)
            for other_k, other_span, _ in full
        )
        if not dominated:
            kept.add((k, span, members))
    return kept


def as_triples(result) -> set[OracleCore]:
    """Engine output in the oracle's comparable shape."""
    return {(c.order, (c.span.start, c.span.end), c.members) for c in result.cores}


def reference_parse_contact_lines(lines, strict: bool = True):
    """Line parser the optimized parse_contact_lines must agree with."""
    contacts = []
    skipped = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in (line.split(",") if "," in line else line.split())]
        reason = None
        if len(parts) != 3:
            reason = "expected three fields"
        elif not parts[0] or not parts[1]:
            reason = "empty vertex label"
        else:
            try:
                raw_time = int(parts[2])
            except ValueError:
                reason = "time is not an integer"
            else:
                if raw_time < 0:
                    reason = "negative time"
        if reason is not None:
            if strict:
                raise ContactParseError(line_number, line, reason)
            skipped += 1
            continue
        contacts.append((parts[0], parts[1], raw_time))
    return contacts, skipped


def reference_ingest_contacts(contacts, window: int = 1, origin: int | None = None) -> TemporalGraph:
    """Ingest the optimized ingest_contacts must agree with: per-contact checks,
    then the validating public constructor."""
    contacts = list(contacts)
    if not contacts:
        raise ValueError("no contacts")
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    if origin is None:
        origin = min(t for _, _, t in contacts)
    ids: dict[str, int] = {}
    labels: list[str] = []

    def intern(label: str) -> int:
        vid = ids.get(label)
        if vid is None:
            vid = len(labels)
            ids[label] = vid
            labels.append(label)
        return vid

    staged: dict[int, set] = {}
    t_max = 0
    for label_u, label_v, raw_time in contacts:
        if raw_time < origin:
            raise ValueError(f"contact time {raw_time} precedes origin {origin}")
        t = (raw_time - origin) // window
        u = intern(label_u)
        v = intern(label_v)
        t_max = max(t_max, t)
        if u == v:
            continue
        staged.setdefault(t, set()).add((u, v) if u < v else (v, u))
    empty: set = set()
    return TemporalGraph(labels, [staged.get(t, empty) for t in range(t_max + 1)])
