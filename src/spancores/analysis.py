"""Downstream analyses over decomposition results.

Covers the summary tables used to characterize a decomposition, attribute
purity of maximal cores, a degree-preserving temporal null model, and
span-core-based anomaly detection on contact logs.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter, defaultdict
from itertools import chain, combinations, groupby, islice
from typing import Callable, Iterable, Mapping, NamedTuple, TextIO

from .span_cores import DecompositionResult
from .temporal_graph import Edge, Interval, TemporalGraph, _edge_walk, check_min_span


def stats_by_order(result: DecompositionResult) -> list[tuple[int, int, float]]:
    """Rows (order, count, mean member count), ascending by order."""
    sizes = defaultdict(list)
    for core in result.cores:
        sizes[core.order].append(len(core.members))
    return [(k, len(sizes[k]), sum(sizes[k]) / len(sizes[k])) for k in sorted(sizes)]


def stats_by_span(result: DecompositionResult) -> list[tuple[int, int, float]]:
    """Rows (interval width, count, mean member count), ascending by width."""
    sizes = defaultdict(list)
    for core in result.cores:
        sizes[core.span.width].append(len(core.members))
    return [(w, len(sizes[w]), sum(sizes[w]) / len(sizes[w])) for w in sorted(sizes)]


def activity_grid(result: DecompositionResult, min_span: int = 1) -> dict[tuple[int, int], int]:
    """Highest order per (start, width) cell, dropping widths below min_span."""
    check_min_span(min_span)
    grid: dict[tuple[int, int], int] = {}
    for core in result.cores:
        if core.span.width < min_span:
            continue
        cell = (core.span.start, core.span.width)
        if core.order > grid.get(cell, 0):
            grid[cell] = core.order
    return grid


class AttributeTable:
    """Categorical vertex attributes, keyed by vertex label.

    Expected CSV shape: a header "label,attr1,attr2,..." then one row per
    vertex.
    """

    def __init__(self, attributes: Iterable[str], values: Mapping[str, Mapping[str, str]]):
        self.attributes = tuple(attributes)
        self._values = {label: dict(row) for label, row in values.items()}

    @classmethod
    def from_csv(cls, stream: TextIO) -> "AttributeTable":
        reader = csv.reader(stream)
        try:
            header = next(reader, None)
            if not header or header[0] != "label" or len(header) < 2:
                raise ValueError("line 1: attribute CSV must start with 'label,<attr>,...', "
                                 f"got {header!r}")
            attributes = header[1:]
            for i, attribute in enumerate(attributes):
                if attribute in attributes[:i]:
                    raise ValueError(f"line 1: attribute {attribute!r} is listed twice")
            values: dict[str, dict[str, str]] = {}
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"line {reader.line_num}: attribute row {row!r} "
                                     "does not match header width")
                if row[0] in values:
                    raise ValueError(f"line {reader.line_num}: label {row[0]!r} is listed twice")
                values[row[0]] = dict(zip(attributes, row[1:]))
        except csv.Error as error:  # a field over csv.field_size_limit(), say
            raise ValueError(f"line {reader.line_num}: {error}") from None
        return cls(attributes, values)

    def check_attribute(self, attribute: str) -> None:
        if attribute not in self.attributes:
            raise ValueError(f"unknown attribute {attribute!r}; table has {self.attributes}")

    def value(self, label: str, attribute: str) -> str | None:
        row = self._values.get(label)
        if row is None:
            return None
        return row.get(attribute)


class PurityCurve(NamedTuple):
    """Mean core purity per timestamp; timestamps no core spans are absent."""

    by_timestamp: dict[int, float]
    skipped_vertices: int


def purity_curve(result: DecompositionResult, attrs: AttributeTable,
                 attribute: str) -> PurityCurve:
    """Average attribute purity of the cores spanning each timestamp.

    A core's purity is its largest single-category share: the most common
    attribute value among members divided by member count. Members without a
    value are skipped and counted; a core with no valued members contributes
    nothing.
    """
    attrs.check_attribute(attribute)
    skipped = 0
    per_timestamp: dict[int, list[float]] = defaultdict(list)
    for core in result.cores:
        categories: Counter[str] = Counter()
        for label in result.member_labels(core):
            value = attrs.value(label, attribute)
            if value is None:
                skipped += 1
            else:
                categories[value] += 1
        if not categories:
            continue
        purity = max(categories.values()) / len(core.members)
        for t in core.span.timestamps():
            per_timestamp[t].append(purity)
    curve = {t: sum(vals) / len(vals) for t, vals in sorted(per_timestamp.items())}
    return PurityCurve(curve, skipped)


_SEED_MIX = 0x9E3779B1  # per-timestamp stream: mix(seed, t), fixed across runs


def reshuffle_timestamps(g: TemporalGraph, seed: int = 0) -> TemporalGraph:
    """Degree-preserving null model: rewire each timestamp independently.

    Within a timestamp, two pending edges with four distinct endpoints are
    drawn and their endpoints crossed; swaps that would duplicate an existing
    edge are rejected. Processed edges leave the pending pool, and after
    10 * |E_t| draws whatever is still pending stays as-is. Every vertex
    keeps its exact degree at every timestamp. Timestamp t draws from
    random.Random(seed * _SEED_MIX + t), built only for a pool of three or
    more edges: a pool of two crosses alike whichever way it is drawn, so it
    takes one attempt and no draw. After len(pool) draws without a swap, a
    pool with no more pairs than draws left tests each pair once and stops
    if none can swap, as no later draw could.
    """
    shuffled = {t: _reshuffle_edges(g.edges_at(t), seed * _SEED_MIX + t)
                for t in g.nonempty_times}
    return TemporalGraph._from_canonical(g.labels, g.t_max, shuffled)


def _reshuffle_edges(edges: frozenset[Edge], seed: int) -> frozenset[Edge]:
    current = set(edges)
    pool = sorted(edges)  # deterministic draw order
    budget = 10 * len(pool)
    getrandbits = random.Random(seed).getrandbits if len(pool) > 2 else None
    check_at = budget - len(pool) - 1  # the budget left once len(pool) draws missed in a row
    while len(pool) >= 2 and budget > 0:
        budget -= 1
        if len(pool) == 2:  # (0, 1) and (1, 0) cross alike: swap now or never
            i, j, budget = 0, 1, 0
        elif (budget == check_at and len(pool) * (len(pool) - 1) // 2 <= budget
              and not _can_swap(pool, current)):
            break  # found in fewer pair tests than the draws it skips
        else:
            i, j = _draw_pair(getrandbits, len(pool))
        u, v = pool[i]
        w, z = pool[j]
        if u in (w, z) or v in (w, z):
            continue
        first = (u, z) if u < z else (z, u)
        second = (w, v) if w < v else (v, w)
        if first in current or second in current:
            continue
        current.difference_update((pool[i], pool[j]))
        current.update((first, second))
        if i < j:  # delete the later index first
            i, j = j, i
        del pool[i], pool[j]
        check_at = budget - len(pool) - 1
    return frozenset(current)


def _can_swap(pool: list[Edge], current: set[Edge]) -> bool:
    """Whether some pair of `pool` passes both tests of `_reshuffle_edges`."""
    return any(u not in (w, z) and v not in (w, z)
               and ((u, z) if u < z else (z, u)) not in current
               and ((w, v) if w < v else (v, w)) not in current
               for (u, v), (w, z) in combinations(pool, 2))


def _draw_pair(getrandbits: Callable[[int], int], n: int) -> tuple[int, int]:
    """Two distinct indices below n, drawn as `sample(range(n), 2)` draws them.

    This copies the two branches CPython 3.11's `sample` takes for k=2: up
    to 21 items it swaps the first pick out of a pool, above that it redraws
    the second pick on a collision. A pick below m is the rejection loop of
    `Random._randbelow_with_getrandbits`, which `sample` and `randrange` run:
    redraw `getrandbits(m.bit_length())` until it is below m. So the numbers
    are the same, without their Python frames, and so are the shuffled bytes.
    """
    i = j = n
    k = n.bit_length()
    while i >= n:
        i = getrandbits(k)
    if n <= 21:
        k = (n - 1).bit_length()
        while j >= n - 1:
            j = getrandbits(k)
        return i, n - 1 if j == i else j
    while j >= n or j == i:
        j = getrandbits(k)
    return i, j


class AnomalyReport(NamedTuple):
    """Outcome of span-core anomaly detection on a contact log.

    removed_contacts holds one count per non-empty timestamp of the log.
    """

    anomalous_intervals: frozenset[Interval]
    anomalous_vertices_by_time: dict[int, frozenset[int]]
    removed_contacts: dict[int, int]
    dropped_timestamps: frozenset[int]
    surviving: TemporalGraph


def check_anomaly_thresholds(tr: int, ratio: float | None) -> None:
    """Raise ValueError unless tr >= 1 and ratio is None or positive and finite."""
    if tr < 1:
        raise ValueError(f"tr must be >= 1, got {tr}")
    if ratio is not None and not 0 < ratio < math.inf:
        raise ValueError(f"ratio must be positive and finite, got {ratio}")


def detect_anomalies(g: TemporalGraph, maximal: DecompositionResult, tr: int,
                     ratio: float | None = None) -> AnomalyReport:
    """Flag and strip contacts tied to suspiciously long-lived cores.

    Intervals of maximal cores wider than tr are anomalous. At each timestamp
    such an interval covers, every vertex of its order-1 core (every vertex
    with an edge present throughout the interval) is anomalous, and contacts
    touching an anomalous vertex are removed. With a ratio, which must be
    positive and finite, whole timestamps are dropped where original/surviving
    contact counts exceed it (a timestamp filtered to zero counts as infinite).
    """
    check_anomaly_thresholds(tr, ratio)

    intervals = frozenset(c.span for c in maximal.cores if c.span.width > tr)
    anomalous_by_time: dict[int, set[int]] = defaultdict(set)
    for start, flagged in groupby(sorted(intervals), key=lambda interval: interval.start):
        order_one = {interval.end: frozenset() for interval in flagged}  # unreached: no edges
        for t_e, edges in islice(_edge_walk(g, start), max(order_one) - start + 1):
            if t_e in order_one:
                order_one[t_e] = frozenset(chain.from_iterable(edges))
        for end, members in order_one.items():
            if end > g.t_max:
                raise ValueError(f"interval {Interval(start, end)} exceeds t_max={g.t_max}")
            for t in range(start, end + 1):
                anomalous_by_time[t].update(members)

    removed_counts = dict.fromkeys(g.nonempty_times, 0)
    kept: dict[int, frozenset[Edge]] = {}
    dropped: set[int] = set()
    for t in g.nonempty_times:
        edges = g.edges_at(t)
        flagged = anomalous_by_time.get(t)
        if flagged:
            surviving = frozenset(e for e in edges if e[0] not in flagged and e[1] not in flagged)
            removed_counts[t] = len(edges) - len(surviving)
        else:
            surviving = edges
        if ratio is not None and (not surviving or len(edges) / len(surviving) > ratio):
            dropped.add(t)
        elif surviving:
            kept[t] = surviving

    return AnomalyReport(
        anomalous_intervals=intervals,
        anomalous_vertices_by_time={t: frozenset(vs) for t, vs in sorted(anomalous_by_time.items())},
        removed_contacts=removed_counts,
        dropped_timestamps=frozenset(dropped),
        surviving=TemporalGraph._from_canonical(g.labels, g.t_max, kept),
    )


def check_positive_timestamps(positives: Iterable[int], t_max: int) -> None:
    """Raise ValueError unless every positive timestamp lies in 0..t_max."""
    out_of_range = sorted({t for t in positives if not 0 <= t <= t_max})
    if out_of_range:
        raise ValueError(f"positive timestamps {out_of_range} outside 0..{t_max}")


def precision_recall(original: TemporalGraph, report: AnomalyReport,
                     positive_timestamps: Iterable[int]) -> tuple[float | None, float | None]:
    """Score removed contacts against ground-truth anomalous timestamps.

    A removed contact at a positive timestamp is a true positive, a removed
    contact elsewhere a false positive, a surviving contact at a positive
    timestamp a false negative. Either score is None when its denominator is
    zero (nothing removed, or no positive contacts). The report's surviving
    graph is a subgraph of `original`, so empty timestamps of `original`
    score nothing.
    """
    positives = set(positive_timestamps)
    check_positive_timestamps(positives, original.t_max)
    tp = fp = fn = 0
    for t in original.nonempty_times:
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
