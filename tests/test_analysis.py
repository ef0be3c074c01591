from __future__ import annotations

import io
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from spancores import analysis
from spancores import (
    AnomalyReport,
    AttributeTable,
    DecompositionResult,
    Interval,
    RunMetrics,
    SpanCore,
    TemporalGraph,
    activity_grid,
    detect_anomalies,
    maximal_span_cores,
    naive_span_cores,
    precision_recall,
    purity_curve,
    reshuffle_timestamps,
    span_cores,
    stats_by_order,
    stats_by_span,
)
from spancores.analysis import _draw_pair
from .conftest import (
    canonical_dump,
    planted_clique_graph,
    random_temporal_graph,
    ratio_fixture_graph,
    reference_detect_anomalies,
    reference_reshuffle_timestamps,
)


class TestStats:
    def test_by_order_on_fixture(self, g_ex):
        rows = stats_by_order(naive_span_cores(g_ex))
        assert rows == [(1, 6, pytest.approx(16 / 6)), (2, 3, pytest.approx(3.0))]

    def test_by_span_on_fixture(self, g_ex):
        rows = stats_by_span(naive_span_cores(g_ex))
        assert rows == [
            (1, 5, pytest.approx(3.0)),
            (2, 3, pytest.approx(8 / 3)),
            (3, 1, pytest.approx(2.0)),
        ]

    def test_on_fixture_maximal(self, g_ex):
        result = maximal_span_cores(g_ex)
        assert stats_by_order(result) == [(1, 1, pytest.approx(2.0)), (2, 1, pytest.approx(3.0))]
        assert stats_by_span(result) == [(2, 1, pytest.approx(3.0)), (3, 1, pytest.approx(2.0))]

    def test_empty_result(self):
        empty = DecompositionResult((), (), RunMetrics())
        assert stats_by_order(empty) == []
        assert stats_by_span(empty) == []

    def test_counts_cover_the_whole_result(self):
        rng = random.Random(19)
        g = random_temporal_graph(rng)
        result = span_cores(g)
        assert sum(count for _, count, _ in stats_by_order(result)) == len(result.cores)
        assert sum(count for _, count, _ in stats_by_span(result)) == len(result.cores)


class TestActivityGrid:
    def test_fixture_cells(self, g_ex):
        grid = activity_grid(naive_span_cores(g_ex))
        assert grid == {
            (0, 1): 2, (1, 1): 2, (2, 1): 1,
            (0, 2): 2, (1, 2): 1,
            (0, 3): 1,
        }

    def test_min_span_drops_narrow_cells(self, g_ex):
        grid = activity_grid(naive_span_cores(g_ex), min_span=2)
        assert grid == {(0, 2): 2, (1, 2): 1, (0, 3): 1}

    @pytest.mark.parametrize("min_span", [0, -1])
    def test_min_span_below_one_is_rejected(self, g_ex, min_span):
        with pytest.raises(ValueError, match=f"min_span must be at least 1, got {min_span}"):
            activity_grid(naive_span_cores(g_ex), min_span=min_span)

    def test_cell_value_is_the_innermost_order(self):
        rng = random.Random(20)
        g = random_temporal_graph(rng, max_vertices=10, max_timestamps=5)
        result = span_cores(g)
        grid = activity_grid(result)
        for core in result.cores:
            assert grid[(core.span.start, core.span.width)] >= core.order


def _purity_fixture():
    cores = (
        SpanCore(2, Interval(0, 1), frozenset({0, 1})),
        SpanCore(1, Interval(1, 2), frozenset({2, 3})),
    )
    result = DecompositionResult(cores, ("w", "x", "y", "z"), RunMetrics())
    table = AttributeTable(["dept"], {
        "w": {"dept": "P"}, "x": {"dept": "P"},
        "y": {"dept": "P"}, "z": {"dept": "Q"},
    })
    return result, table


class TestPurity:
    def test_worked_example(self):
        result, table = _purity_fixture()
        curve = purity_curve(result, table, "dept")
        assert curve.by_timestamp == {
            0: pytest.approx(1.0),
            1: pytest.approx(0.75),
            2: pytest.approx(0.5),
        }
        assert curve.skipped_vertices == 0

    def test_unspanned_timestamps_are_absent(self):
        result, table = _purity_fixture()
        cores = tuple(c for c in result.cores if c.span == Interval(0, 1))
        trimmed = DecompositionResult(cores, result.labels, RunMetrics())
        curve = purity_curve(trimmed, table, "dept")
        assert sorted(curve.by_timestamp) == [0, 1]

    def test_missing_values_are_skipped_and_counted(self):
        cores = (SpanCore(1, Interval(0, 0), frozenset({0, 1, 2})),)
        result = DecompositionResult(cores, ("w", "x", "y"), RunMetrics())
        table = AttributeTable(["dept"], {"w": {"dept": "P"}, "x": {"dept": "P"}})
        curve = purity_curve(result, table, "dept")
        assert curve.by_timestamp == {0: pytest.approx(2 / 3)}
        assert curve.skipped_vertices == 1

    def test_core_with_no_valued_members_contributes_nothing(self):
        cores = (SpanCore(1, Interval(0, 0), frozenset({0})),)
        result = DecompositionResult(cores, ("w",), RunMetrics())
        table = AttributeTable(["dept"], {})
        curve = purity_curve(result, table, "dept")
        assert curve.by_timestamp == {}
        assert curve.skipped_vertices == 1

    def test_unknown_attribute_is_an_error(self):
        result, table = _purity_fixture()
        with pytest.raises(ValueError, match="unknown attribute 'role'"):
            purity_curve(result, table, "role")

    def test_bounds_with_complete_table(self):
        rng = random.Random(22)
        for _ in range(10):
            g = random_temporal_graph(rng, max_vertices=10, max_timestamps=5)
            table = AttributeTable(
                ["color"],
                {label: {"color": rng.choice("rgb")} for label in g.labels},
            )
            result = maximal_span_cores(g)
            curve = purity_curve(result, table, "color")
            for value in curve.by_timestamp.values():
                assert 0 < value <= 1.0

    def test_from_csv(self):
        stream = io.StringIO("label,dept,role\nw,P,eng\nx,Q,ops\n")
        table = AttributeTable.from_csv(stream)
        assert table.attributes == ("dept", "role")
        assert table.value("w", "dept") == "P"
        assert table.value("x", "role") == "ops"
        assert table.value("missing", "dept") is None

    def test_from_csv_rejects_bad_header(self):
        with pytest.raises(ValueError, match="label"):
            AttributeTable.from_csv(io.StringIO("name,dept\nw,P\n"))

    def test_from_csv_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="header width"):
            AttributeTable.from_csv(io.StringIO("label,dept\nw\n"))


def _degrees(g: TemporalGraph, t: int) -> Counter:
    degree: Counter = Counter()
    for u, v in g.edges_at(t):
        degree[u] += 1
        degree[v] += 1
    return degree


class TestReshuffle:
    def test_preserves_degrees_and_counts(self):
        rng = random.Random(30)
        for seed in range(10):
            g = random_temporal_graph(rng, max_vertices=15, max_timestamps=5)
            shuffled = reshuffle_timestamps(g, seed=seed)
            assert shuffled.labels == g.labels
            assert shuffled.t_max == g.t_max
            for t in range(g.t_max + 1):
                assert len(shuffled.edges_at(t)) == len(g.edges_at(t))
                assert _degrees(shuffled, t) == _degrees(g, t)

    def test_same_seed_is_byte_identical(self):
        rng = random.Random(31)
        g = random_temporal_graph(rng)
        assert canonical_dump(reshuffle_timestamps(g, seed=5)) == \
            canonical_dump(reshuffle_timestamps(g, seed=5))

    def test_seeds_change_the_outcome(self):
        # a large dense timestamp; some seed pair must diverge
        rng = random.Random(32)
        edges = {(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3}
        g = TemporalGraph([f"v{i}" for i in range(20)], [edges])
        dumps = {canonical_dump(reshuffle_timestamps(g, seed=s)) for s in range(5)}
        assert len(dumps) > 1

    def test_actually_rewires_something(self):
        rng = random.Random(33)
        edges = {(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3}
        g = TemporalGraph([f"v{i}" for i in range(20)], [edges])
        shuffled = reshuffle_timestamps(g, seed=0)
        assert shuffled.edges_at(0) != g.edges_at(0)

    def test_undersized_pools_pass_through(self):
        g = TemporalGraph(["a", "b", "c"], [{(0, 1)}, set(), {(0, 1), (1, 2)}])
        shuffled = reshuffle_timestamps(g, seed=0)
        # one edge, or two edges sharing a vertex: nothing can move
        assert canonical_dump(shuffled) == canonical_dump(g)

    def test_small_pools_match_the_reference(self):
        # 2-6 edges per timestamp: pools of four to six often shrink to two
        # edges with budget left, where the reference keeps drawing.
        for seed in range(20):
            rng = random.Random(f"small pools {seed}")
            n = 8
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = TemporalGraph([f"v{i}" for i in range(n)],
                              [rng.sample(pairs, rng.randint(2, 6)) for _ in range(12)])
            assert canonical_dump(reshuffle_timestamps(g, seed=seed)) == \
                canonical_dump(reference_reshuffle_timestamps(g, seed=seed))

    def test_a_dense_pool_matches_the_reference(self):
        rng = random.Random(34)
        edges = {(i, j) for i in range(40) for j in range(i + 1, 40) if rng.random() < 0.5}
        g = TemporalGraph([f"v{i}" for i in range(40)], [edges])
        for seed in range(2):
            assert canonical_dump(reshuffle_timestamps(g, seed=seed)) == \
                canonical_dump(reference_reshuffle_timestamps(g, seed=seed))

    def test_only_a_pool_of_three_or_more_builds_a_generator(self, monkeypatch):
        built = []

        def spy(seed):
            built.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(analysis, "random", SimpleNamespace(Random=spy))
        g = TemporalGraph([f"v{i}" for i in range(8)],
                          [{(0, 1)}, {(0, 1), (2, 3)}, {(0, 1), (1, 2)}, {(0, 1), (2, 3), (4, 5)}])
        shuffled = reshuffle_timestamps(g, seed=9)
        assert built == [9 * analysis._SEED_MIX + 3]
        assert canonical_dump(shuffled) == canonical_dump(reference_reshuffle_timestamps(g, seed=9))

    def test_pair_draw_matches_sample(self):
        # Both branches of sample: the pool swap up to 21 items, the redraw above.
        for n in range(2, 61):
            for seed in range(40):
                fast, slow = random.Random(seed), random.Random(seed)
                for _ in range(25):
                    assert _draw_pair(fast.getrandbits, n) == tuple(slow.sample(range(n), 2))
                assert fast.getstate() == slow.getstate()

    @staticmethod
    def _clique(vertices) -> set:
        return {(u, v) for u in vertices for v in vertices if u < v}

    def test_pools_that_stop_early_match_the_reference(self):
        # A clique can never swap; two disjoint edges beside it can, and a star never can.
        pools = [self._clique(range(6)), self._clique(range(6)) | {(6, 7), (8, 9)},
                 {(min(6, v), max(6, v)) for v in range(13) if v != 6}]
        rng = random.Random(35)
        pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        for _ in range(40):
            vertices = rng.randint(4, 12)
            within = [(u, v) for u, v in pairs if v < vertices]
            pools.append(set(rng.sample(within, rng.randint(3, min(24, len(within))))))
        g = TemporalGraph([f"v{i}" for i in range(13)], pools)
        for seed in range(6):
            assert canonical_dump(reshuffle_timestamps(g, seed=seed)) == \
                canonical_dump(reference_reshuffle_timestamps(g, seed=seed))

    @staticmethod
    def _draws(monkeypatch) -> list[int]:
        """The pool size of every draw `reshuffle_timestamps` makes from here on."""
        calls = []

        def spy(getrandbits, n):
            calls.append(n)
            return _draw_pair(getrandbits, n)

        monkeypatch.setattr(analysis, "_draw_pair", spy)
        return calls

    @pytest.mark.parametrize("edges, draws", [
        # 15 misses, then 105 pair tests instead of 135 more draws
        ({(u, v) for u in range(6) for v in range(u + 1, 6)}, 15),
        # every pair shares the centre, whose id lies between the leaves'
        ({(min(6, v), max(6, v)) for v in range(13) if v != 6}, 12),
        # a path: its two disjoint edges would cross into its middle one
        ({(0, 1), (1, 2), (2, 3)}, 3),
        # 749,700 pairs exceed the budget: every draw is made
        ({(u, v) for u in range(50) for v in range(u + 1, 50)}, 12_250),
    ], ids=["6-clique", "star", "path", "50-clique"])
    def test_a_pool_that_cannot_swap_stops_once_its_pairs_are_cheaper(
            self, monkeypatch, edges, draws):
        calls = self._draws(monkeypatch)
        g = TemporalGraph([f"v{i}" for i in range(50)], [edges])
        assert reshuffle_timestamps(g, seed=3).edges_at(0) == g.edges_at(0)
        assert len(calls) == draws

    def test_a_pool_stops_as_many_draws_after_its_last_swap_as_it_holds(self, monkeypatch):
        # The two edges beside the clique swap, and the clique's edges are left.
        edges = self._clique(range(6)) | {(6, 7), (8, 9)}
        g = TemporalGraph([f"v{i}" for i in range(10)], [edges])
        for seed in range(8):
            calls = self._draws(monkeypatch)
            reshuffle_timestamps(g, seed=seed)
            left = calls[-1]
            assert left < len(edges)
            assert calls[-left - 1:] == [calls[-left - 1]] + [left] * left
            assert calls[-left - 1] > left


class TestDetectAnomalies:
    def test_planted_clique_is_flagged_and_stripped(self):
        g = planted_clique_graph()
        report = detect_anomalies(g, maximal_span_cores(g), tr=5)
        assert Interval(0, 9) in report.anomalous_intervals
        clique = frozenset({0, 1, 2, 3})
        for t in range(10):
            assert report.anomalous_vertices_by_time[t] >= clique
            surviving = report.surviving.edges_at(t)
            assert not any(u in clique or v in clique for u, v in surviving)
        assert report.dropped_timestamps == frozenset()

    def test_tr_wider_than_domain_flags_nothing(self):
        g = planted_clique_graph()
        report = detect_anomalies(g, maximal_span_cores(g), tr=10)
        assert report.anomalous_intervals == frozenset()
        assert report.anomalous_vertices_by_time == {}
        assert sum(report.removed_contacts.values()) == 0
        assert canonical_dump(report.surviving) == canonical_dump(g)

    def test_raising_tr_never_adds_intervals(self):
        g = planted_clique_graph()
        maximal = maximal_span_cores(g)
        for tr in range(1, 10):
            wide = detect_anomalies(g, maximal, tr=tr).anomalous_intervals
            narrow = detect_anomalies(g, maximal, tr=tr + 1).anomalous_intervals
            assert narrow <= wide

    def test_ratio_stage_drops_fully_anomalous_timestamps(self):
        g = ratio_fixture_graph()
        report = detect_anomalies(g, maximal_span_cores(g), tr=5, ratio=1.5)
        assert report.dropped_timestamps == frozenset({2, 5, 7})
        for t in (2, 5, 7):
            assert report.surviving.edges_at(t) == frozenset()
        # 26 original vs 20 surviving elsewhere: ratio 1.3 stays
        assert len(report.surviving.edges_at(0)) == 20

    def test_without_ratio_no_timestamp_is_dropped(self):
        g = ratio_fixture_graph()
        report = detect_anomalies(g, maximal_span_cores(g), tr=5)
        assert report.dropped_timestamps == frozenset()

    def test_removed_counts_match_the_surviving_graph(self):
        g = planted_clique_graph()
        report = detect_anomalies(g, maximal_span_cores(g), tr=5)
        for t in range(10):
            removed = len(g.edges_at(t)) - len(report.surviving.edges_at(t))
            assert report.removed_contacts[t] == removed

    def test_parameter_validation(self):
        g = planted_clique_graph()
        maximal = maximal_span_cores(g)
        with pytest.raises(ValueError, match="tr"):
            detect_anomalies(g, maximal, tr=0)
        for ratio in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="ratio must be positive and finite"):
                detect_anomalies(g, maximal, tr=5, ratio=ratio)


    @pytest.mark.parametrize("tr", [1, 2])
    def test_one_edge_walk_per_flagged_start_on_a_sliding_clique(self, monkeypatch, tr):
        """Every flagged interval that starts at s reads its order-1 core from one walk from s.

        At timestamp t the graph holds a 6-clique on vertices t..t+5, so every
        interval of width 2..5 carries a maximal core and each start has
        several flagged ends.
        """
        size, timestamps = 6, 40
        g = TemporalGraph([f"v{u}" for u in range(timestamps + size - 1)],
                          [{(u, v) for u in range(t, t + size) for v in range(u + 1, t + size)}
                           for t in range(timestamps)])
        maximal = maximal_span_cores(g)
        walk, starts = analysis._edge_walk, []

        def spy(graph, start):
            starts.append(start)
            return walk(graph, start)

        monkeypatch.setattr(analysis, "_edge_walk", spy)
        report = detect_anomalies(g, maximal, tr=tr)
        monkeypatch.undo()
        expected = reference_detect_anomalies(g, maximal, tr=tr)
        assert _report_fields(report) == _report_fields(expected)
        assert report.removed_contacts == expected.removed_contacts
        flagged_starts = {interval.start for interval in report.anomalous_intervals}
        assert len(report.anomalous_intervals) > 2 * len(flagged_starts)
        assert sorted(starts) == sorted(flagged_starts)

    def test_interval_past_t_max_raises(self):
        g = planted_clique_graph()
        late = Interval(3, g.t_max + 1)
        result = DecompositionResult((SpanCore(1, late, frozenset({0, 1})),), g.labels,
                                     RunMetrics())
        with pytest.raises(ValueError,
                           match=re.escape(f"interval {late} exceeds t_max={g.t_max}")):
            detect_anomalies(g, result, tr=1)

    def test_flagged_interval_without_edges_keys_its_timestamps(self):
        """A result from another graph may flag intervals that have no edges in this one."""
        g = TemporalGraph(["a", "b", "c", "d"], [{(0, 1), (2, 3)}, {(0, 1)}, {(2, 3)}])
        spans = (Interval(0, 1), Interval(0, 2), Interval(1, 2))
        result = DecompositionResult(tuple(SpanCore(1, span, frozenset({0, 1})) for span in spans),
                                     g.labels, RunMetrics())
        report = detect_anomalies(g, result, tr=1)
        assert report.anomalous_intervals == frozenset(spans)
        assert report.anomalous_vertices_by_time == {
            0: frozenset({0, 1}), 1: frozenset({0, 1}), 2: frozenset()}
        assert report.removed_contacts == {0: 1, 1: 1, 2: 0}
        assert report.dropped_timestamps == frozenset()
        assert _report_fields(report) == _report_fields(reference_detect_anomalies(g, result, 1))


def _report_fields(report: AnomalyReport) -> tuple:
    return (report.anomalous_intervals, report.anomalous_vertices_by_time,
            report.dropped_timestamps, canonical_dump(report.surviving))


class TestPrecisionRecall:
    def test_worked_example(self):
        labels = [f"v{i}" for i in range(25)]
        t0 = {(0, i) for i in range(1, 21)}            # 20 positive contacts
        t1 = {(1, i) for i in range(2, 7)}             # 5 background contacts
        original = TemporalGraph(labels, [t0, t1])
        survived_t0 = set(sorted(t0)[9:])              # 9 removed at the positive t
        survived_t1 = set(sorted(t1)[1:])              # 1 removed elsewhere
        report = _report_for(original, [survived_t0, survived_t1])
        precision, recall = precision_recall(original, report, [0])
        assert precision == pytest.approx(0.9)
        assert recall == pytest.approx(0.45)

    def test_no_removals_means_no_precision(self):
        g = planted_clique_graph()
        report = detect_anomalies(g, maximal_span_cores(g), tr=10)
        precision, recall = precision_recall(g, report, [0])
        assert precision is None
        assert recall == pytest.approx(0.0)

    def test_out_of_range_positive_rejected(self):
        g = planted_clique_graph()
        report = detect_anomalies(g, maximal_span_cores(g), tr=5)
        with pytest.raises(ValueError, match="outside"):
            precision_recall(g, report, [99])

    def test_perfect_detection(self):
        g = ratio_fixture_graph()
        # strip the clique everywhere; positives are every timestamp
        report = detect_anomalies(g, maximal_span_cores(g), tr=5)
        clique_free = all(
            not ({u, v} & {0, 1, 2, 3})
            for t in range(10) for u, v in report.surviving.edges_at(t)
        )
        assert clique_free
        precision, recall = precision_recall(g, report, range(10))
        assert precision == pytest.approx(1.0)


def _report_for(original: TemporalGraph, surviving_edges) -> AnomalyReport:
    surviving = TemporalGraph(original.labels, surviving_edges)
    removed = {
        t: len(original.edges_at(t)) - len(surviving.edges_at(t))
        for t in range(original.t_max + 1)
    }
    return AnomalyReport(
        anomalous_intervals=frozenset(),
        anomalous_vertices_by_time={},
        removed_contacts=removed,
        dropped_timestamps=frozenset(),
        surviving=surviving,
    )
