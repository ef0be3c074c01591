"""Shared fixtures: the worked example graph, random generators, and
definition-level oracles the engines are checked against.

The oracles deliberately avoid the production kernels: k-cores come from
fixed-point deletion and maximality from a pairwise dominance scan, so an
engine bug cannot hide in a shared helper. The reference parser, ingest,
null model, anomaly pass and contact writer are the straightforward versions
that walk every timestamp, the reference pruned engine is the queue-based
one, and the reference direct maximal engine buckets degrees per start time;
the optimized ones must stay equal to them.
"""

from __future__ import annotations

import random
import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable

import pytest
from hypothesis import strategies as st

from spancores import (
    AnomalyReport,
    ContactParseError,
    Interval,
    MaximalTrace,
    TemporalGraph,
    TraceStep,
    core_decomposition,
    edge_diff_sets,
    edges_in_interval,
    innermost_core,
)
from spancores.span_cores import DecompositionResult, RunMetrics, SpanCore, _emit_cores
from spancores.temporal_graph import Edge

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


def k_core(labeling, k: int) -> frozenset[int]:
    """The k-core of a core labeling: vertices with coreness >= k."""
    return frozenset(u for u, c in labeling.coreness.items() if c >= k)


def contains(outer: Interval, inner: Interval) -> bool:
    """True if `inner` lies entirely within `outer`."""
    return outer.start <= inner.start and outer.end >= inner.end


def dominates(first: SpanCore, second: SpanCore) -> bool:
    """True if `first` has at least the order of `second` and covers its span.

    The two cores must differ in (order, span); comparing a core against
    itself is a caller bug.
    """
    if first.order == second.order and first.span == second.span:
        raise ValueError("dominance is only defined between distinct (order, span) pairs")
    return first.order >= second.order and contains(first.span, second.span)


def canonical_dump(g: TemporalGraph) -> str:
    """Stable textual form: one "t: (u,v) (u,v)" line per timestamp.

    Edge endpoints and edges are ordered lexicographically by label, so two
    graphs are equal iff their dumps are byte-identical.
    """
    lines = []
    for t in range(g.t_max + 1):
        pairs = sorted(
            tuple(sorted((g.label_of(u), g.label_of(v)))) for u, v in g.edges_at(t)
        )
        rendered = "".join(f" ({a},{b})" for a, b in pairs)
        lines.append(f"{t}:{rendered}")
    return "\n".join(lines) + "\n"


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


@st.composite
def gappy_temporal_graphs(draw, max_vertices: int = 7, max_timestamps: int = 30) -> TemporalGraph:
    """Graphs with runs of empty timestamps, as in a log that sleeps at night.

    Shapes: leading, trailing and interior runs of empty timestamps around
    random edge sets; a lone edge at one timestamp, possibly far from 0; and
    a clique that persists through every non-empty timestamp. A horizon of
    one timestamp comes up in each shape.
    """
    n = draw(st.integers(2, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Hypothesis leans to small integers; the second branch keeps long spans common.
    middle = draw(st.integers(1, max_timestamps) | st.integers(max_timestamps // 2, max_timestamps))
    lead = draw(st.integers(0, max_timestamps - middle))
    trail = draw(st.integers(0, max_timestamps - middle - lead))
    edges_by_time: list[set] = [set() for _ in range(lead + middle + trail)]
    shape = draw(st.sampled_from(["gaps", "lone edge", "persistent clique"]))
    if shape == "lone edge":
        edges_by_time[lead + middle - 1].add(draw(st.sampled_from(pairs)))
        return TemporalGraph([f"v{i}" for i in range(n)], edges_by_time)
    clique = set()
    if shape == "persistent clique":
        size = draw(st.integers(2, min(n, 4)))
        clique = {(i, j) for i, j in pairs if j < size}
    # Three timestamps in four carry edges; the runs of leading and trailing
    # gaps end at the first and last of them.
    active = draw(st.lists(st.integers(0, 3), min_size=middle, max_size=middle))
    active[0] = active[-1] = 1
    for offset, on in enumerate(active):
        if on:
            edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
            edges_by_time[lead + offset] = clique | edges or {pairs[0]}
    return TemporalGraph([f"v{i}" for i in range(n)], edges_by_time)


@st.composite
def sticky_temporal_graphs(draw, max_vertices: int = 8, max_timestamps: int = 20) -> TemporalGraph:
    """Graphs whose edge set mostly persists from one timestamp to the next.

    Each timestamp copies the previous edge set, adds a few edges, drops a
    few, or does both. After a copy or an addition, an interval keeps every
    edge of the interval one step shorter on its right end; after a drop, it
    can keep every edge of the one a step shorter on its left end. So the
    pruned engine reuses a parent's cores from either side. A drop may empty
    a timestamp, which cuts the intervals that cross it.
    """
    n = draw(st.integers(2, max_vertices))
    pairs = st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)])
    edges = draw(st.sets(pairs, min_size=1, max_size=6))
    edges_by_time = [edges]
    for step in draw(st.lists(st.sampled_from(["copy", "add", "drop", "both"]),
                              max_size=max_timestamps - 1)):
        edges = set(edges)
        if step in ("add", "both"):
            edges |= draw(st.sets(pairs, min_size=1, max_size=3))
        if step in ("drop", "both") and edges:
            edges -= draw(st.sets(st.sampled_from(sorted(edges)), min_size=1, max_size=3))
        edges_by_time.append(edges)
    return TemporalGraph([f"v{i}" for i in range(n)], edges_by_time)


def interval_edges(g: TemporalGraph, t_s: int, t_e: int) -> frozenset:
    edges = g.edges_at(t_s)
    for t in range(t_s + 1, t_e + 1):
        edges = edges & g.edges_at(t)
    return frozenset(edges)


def temporal_degree(g: TemporalGraph, members: frozenset[int], vertex: int,
                    interval: Interval) -> int:
    """Neighbors of `vertex` inside `members`, over the edges that persist
    through every timestamp of the interval."""
    return sum(1 for u, v in interval_edges(g, interval.start, interval.end)
               if (u == vertex and v in members) or (v == vertex and u in members))


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


def writable_label(label: str) -> bool:
    """True for a label that core files and contact lines carry back intact:
    no member separator, comma or whitespace, not empty, no leading '#'."""
    return (";" not in label and "," not in label and label.split() == [label]
            and not label.startswith("#"))


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


# The null model, anomaly pass, scoring and contact writer as they were when
# every one of them walked all timestamps 0..t_max.

_SEED_MIX = 0x9E3779B1


def reference_reshuffle_timestamps(g: TemporalGraph, seed: int = 0) -> TemporalGraph:
    shuffled = []
    for t in range(g.t_max + 1):
        rng = random.Random(seed * _SEED_MIX + t)
        shuffled.append(_reference_reshuffle_edges(g.edges_at(t), rng))
    return TemporalGraph(g.labels, shuffled)


def _reference_reshuffle_edges(edges, rng: random.Random) -> set:
    current = set(edges)
    pool = sorted(edges)  # deterministic draw order
    budget = 10 * len(pool)
    while len(pool) >= 2 and budget > 0:
        budget -= 1
        i, j = rng.sample(range(len(pool)), 2)
        u, v = pool[i]
        w, z = pool[j]
        if u in (w, z) or v in (w, z):
            continue
        first = (u, z) if u < z else (z, u)
        second = (w, v) if w < v else (v, w)
        if first in current or second in current:
            continue
        current.remove(pool[i])
        current.remove(pool[j])
        current.add(first)
        current.add(second)
        for index in sorted((i, j), reverse=True):
            pool.pop(index)
    return current


def _reference_order_one_core(g: TemporalGraph, interval: Interval) -> frozenset[int]:
    labeling = core_decomposition(range(g.vertex_count), edges_in_interval(g, interval))
    return frozenset(labeling.coreness)


def reference_detect_anomalies(g: TemporalGraph, maximal, tr: int,
                               ratio: float | None = None,
                               span_cores_of=None) -> AnomalyReport:
    if tr < 1:
        raise ValueError(f"tr must be >= 1, got {tr}")
    if ratio is not None and ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    if span_cores_of is None:
        span_cores_of = lambda interval: _reference_order_one_core(g, interval)

    intervals = frozenset(c.span for c in maximal.cores if c.span.width > tr)
    flagged_members = {interval: span_cores_of(interval) for interval in sorted(intervals)}
    anomalous_by_time: dict[int, set[int]] = defaultdict(set)
    for interval, members in flagged_members.items():
        for t in interval.timestamps():
            anomalous_by_time[t].update(members)

    removed_counts: dict[int, int] = {}
    kept: list[set] = []
    for t in range(g.t_max + 1):
        flagged = anomalous_by_time.get(t, ())
        edges = g.edges_at(t)
        surviving = {e for e in edges if e[0] not in flagged and e[1] not in flagged}
        removed_counts[t] = len(edges) - len(surviving)
        kept.append(surviving)

    dropped: set[int] = set()
    if ratio is not None:
        for t in range(g.t_max + 1):
            original = len(g.edges_at(t))
            if original == 0:
                continue
            if not kept[t] or original / len(kept[t]) > ratio:
                dropped.add(t)
                kept[t] = set()

    return AnomalyReport(
        anomalous_intervals=intervals,
        anomalous_vertices_by_time={t: frozenset(vs) for t, vs in sorted(anomalous_by_time.items())},
        removed_contacts=removed_counts,
        dropped_timestamps=frozenset(dropped),
        surviving=TemporalGraph(g.labels, kept),
    )


def reference_precision_recall(original: TemporalGraph, report: AnomalyReport,
                               positive_timestamps) -> tuple[float | None, float | None]:
    positives = set(positive_timestamps)
    out_of_range = [t for t in positives if not 0 <= t <= original.t_max]
    if out_of_range:
        raise ValueError(f"positive timestamps {sorted(out_of_range)} outside 0..{original.t_max}")
    tp = fp = fn = 0
    for t in range(original.t_max + 1):
        total = len(original.edges_at(t))
        surviving = len(report.surviving.edges_at(t))
        removed = total - surviving
        if t in positives:
            tp += removed
            fn += surviving
        else:
            fp += removed
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return precision, recall


def reference_contact_lines(g: TemporalGraph):
    for t in range(g.t_max + 1):
        pairs = sorted(
            tuple(sorted((g.label_of(u), g.label_of(v)))) for u, v in g.edges_at(t)
        )
        for a, b in pairs:
            yield f"{a} {b} {t}"


# The pruned engine as it was when it ran a queue of intervals, each taking
# its edges from edges_in_interval; the width-by-width engine must match it
# core for core and count for count.

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


def reference_span_cores(g: TemporalGraph) -> DecompositionResult:
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


# The direct maximal engine as it was when it bucketed vertex degrees in a
# fresh |V|-sized list per start time; the one-degree-list engine must match
# it core for core, count for count and trace step for trace step.

class _DegreeBuckets:
    """Vertex degrees under edge arrivals, bucketed for threshold queries.

    bucket[b] accumulates every vertex whose degree has exceeded b; a vertex
    of degree d therefore appears in buckets 0..d-1, and bucket[lb] is
    exactly the vertex set with degree > lb. Degrees only grow here, so
    buckets are append-only.
    """

    __slots__ = ("degree", "buckets")

    def __init__(self, vertex_count: int):
        self.degree = [0] * vertex_count
        self.buckets: list[list[int]] = []

    def add_edges(self, edges: Iterable[Edge]) -> None:
        degree = self.degree
        buckets = self.buckets
        for u, v in edges:
            # A missing bucket means the vertex reached a new maximum degree.
            d = degree[u]
            degree[u] = d + 1
            try:
                buckets[d].append(u)
            except IndexError:
                buckets.append([u])
            d = degree[v]
            degree[v] = d + 1
            try:
                buckets[d].append(v)
            except IndexError:
                buckets.append([v])

    def above(self, threshold: int) -> list[int]:
        if threshold >= len(self.buckets):
            return []
        return self.buckets[threshold]


def reference_maximal_span_cores(g: TemporalGraph,
                                 trace: MaximalTrace | None = None) -> DecompositionResult:
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
    for t_s in g.nonempty_times:
        t_star, removed = edge_diff_sets(g, t_s)
        edges = set(g.edges_at(t_s))
        for dropped in removed:
            edges -= dropped  # edges of [t_s, t_star]
        buckets = _DegreeBuckets(g.vertex_count)
        k_trim = 0  # innermost order seen for [t_s, t_e + 1]
        for t_e in range(t_star, t_s - 1, -1):
            arriving = edges if t_e == t_star else removed[t_e - t_s]
            if t_e != t_star:
                edges |= arriving
            buckets.add_edges(arriving)
            bound = max(k_prime[t_e], k_trim)
            candidates = buckets.above(bound)
            if candidates:
                if bound:
                    degree = buckets.degree
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
    if trace is not None:
        trace.final_k_prime = k_prime
    metrics.elapsed = time.perf_counter() - started
    cores.sort(key=SpanCore.sort_key)
    return DecompositionResult(tuple(cores), g.labels, metrics)
