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
from dataclasses import dataclass
from typing import Iterable, Mapping, TextIO

from .core_kernel import core_decomposition
from .span_cores import DecompositionResult, kernel_vertices
from .temporal_graph import Edge, Interval, TemporalGraph, edges_in_interval


def stats_by_order(result: DecompositionResult) -> list[tuple[int, int, float]]:
    """Rows (order, count, mean member count), ascending by order."""
    sizes = defaultdict(list)
    for core in result.cores:
        sizes[core.order].append(core.size)
    return [(k, len(sizes[k]), sum(sizes[k]) / len(sizes[k])) for k in sorted(sizes)]


def stats_by_span(result: DecompositionResult) -> list[tuple[int, int, float]]:
    """Rows (interval width, count, mean member count), ascending by width."""
    sizes = defaultdict(list)
    for core in result.cores:
        sizes[core.span.width].append(core.size)
    return [(w, len(sizes[w]), sum(sizes[w]) / len(sizes[w])) for w in sorted(sizes)]


def activity_grid(result: DecompositionResult, min_span: int = 1) -> dict[tuple[int, int], int]:
    """Highest order per (start, width) cell, dropping widths below min_span."""
    if min_span < 1:
        raise ValueError(f"min_span must be at least 1, got {min_span}")
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
        header = next(reader, None)
        if not header or header[0] != "label" or len(header) < 2:
            raise ValueError("line 1: attribute CSV must start with 'label,<attr>,...', "
                             f"got {header!r}")
        attributes = header[1:]
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
        return cls(attributes, values)

    def check_attribute(self, attribute: str) -> None:
        if attribute not in self.attributes:
            raise ValueError(f"unknown attribute {attribute!r}; table has {self.attributes}")

    def value(self, label: str, attribute: str) -> str | None:
        row = self._values.get(label)
        if row is None:
            return None
        return row.get(attribute)


@dataclass
class PurityCurve:
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
        purity = max(categories.values()) / core.size
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
    keeps its exact degree at every timestamp.
    """
    shuffled = {}
    for t in g.nonempty_times:
        edges = g.edges_at(t)
        if len(edges) < 2:
            shuffled[t] = edges  # nothing to swap, so no draw
        else:
            shuffled[t] = _reshuffle_edges(edges, random.Random(seed * _SEED_MIX + t))
    return TemporalGraph._from_canonical(g.labels, g.t_max, shuffled)


def _reshuffle_edges(edges: frozenset[Edge], rng: random.Random) -> frozenset[Edge]:
    current = set(edges)
    pool = sorted(edges)  # deterministic draw order
    budget = 10 * len(pool)
    while len(pool) >= 2 and budget > 0:
        budget -= 1
        i, j = _draw_pair(rng, len(pool))
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
    return frozenset(current)


def _draw_pair(rng: random.Random, n: int) -> tuple[int, int]:
    """Two distinct indices below n, drawn as `rng.sample(range(n), 2)` draws them.

    This copies the two branches CPython 3.11's `sample` takes for k=2: up
    to 21 items it swaps the first pick out of a pool, above that it redraws
    the second pick on a collision. The two `randrange` calls skip the rest
    of `sample`'s set-up but draw the same numbers, so the shuffled bytes
    stay the same.
    """
    i = rng.randrange(n)
    if n <= 21:
        j = rng.randrange(n - 1)
        if j == i:
            j = n - 1
    else:
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
    return i, j


@dataclass
class AnomalyReport:
    """Outcome of span-core anomaly detection on a contact log.

    removed_contacts holds one count per non-empty timestamp of the log.
    """

    anomalous_intervals: frozenset[Interval]
    anomalous_vertices_by_time: dict[int, frozenset[int]]
    removed_contacts: dict[int, int]
    dropped_timestamps: frozenset[int]
    surviving: TemporalGraph


def _order_one_core(g: TemporalGraph, interval: Interval) -> frozenset[int]:
    edges = edges_in_interval(g, interval)
    labeling = core_decomposition(kernel_vertices(g, edges), edges)
    return frozenset(labeling.coreness)


def check_anomaly_thresholds(tr: int, ratio: float | None) -> None:
    """Raise ValueError unless tr >= 1 and ratio is None or positive and finite."""
    if tr < 1:
        raise ValueError(f"tr must be >= 1, got {tr}")
    if ratio is not None and not 0 < ratio < math.inf:
        raise ValueError(f"ratio must be positive and finite, got {ratio}")


def detect_anomalies(g: TemporalGraph, maximal: DecompositionResult, tr: int,
                     ratio: float | None = None) -> AnomalyReport:
    """Flag and strip contacts tied to suspiciously long-lived cores.

    Intervals of maximal cores wider than tr are anomalous. At each
    timestamp such an interval covers, every vertex of its order-1 core is
    anomalous, and contacts touching an anomalous vertex are removed. With a
    ratio, which must be positive and finite, whole timestamps are dropped
    where original/surviving contact counts exceed it (a timestamp filtered
    to zero counts as infinite).
    """
    check_anomaly_thresholds(tr, ratio)

    intervals = frozenset(c.span for c in maximal.cores if c.span.width > tr)
    anomalous_by_time: dict[int, set[int]] = defaultdict(set)
    for interval in sorted(intervals):
        members = _order_one_core(g, interval)
        for t in interval.timestamps():
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
    out_of_range = [t for t in positives if not 0 <= t <= original.t_max]
    if out_of_range:
        raise ValueError(f"positive timestamps {sorted(out_of_range)} outside 0..{original.t_max}")
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
