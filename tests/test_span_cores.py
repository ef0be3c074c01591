from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from spancores import (
    Interval,
    SpanCore,
    TemporalGraph,
    naive_span_cores,
    span_cores,
)
from .conftest import (
    as_triples,
    contains,
    gappy_temporal_graphs,
    oracle_span_cores,
    random_temporal_graph,
    reference_span_cores,
    temporal_degree,
)

# Expected decomposition of the g_ex fixture, checked against the
# fixed-point oracle in test_fixture_matches_oracle before being trusted here.
G_EX_CORES = {
    (1, (0, 0), frozenset({0, 1, 2, 3})),
    (2, (0, 0), frozenset({0, 1, 2})),
    (1, (1, 1), frozenset({0, 1, 2})),
    (2, (1, 1), frozenset({0, 1, 2})),
    (1, (2, 2), frozenset({0, 1})),
    (1, (0, 1), frozenset({0, 1, 2})),
    (2, (0, 1), frozenset({0, 1, 2})),
    (1, (1, 2), frozenset({0, 1})),
    (1, (0, 2), frozenset({0, 1})),
}


class TestFixture:
    def test_fixture_matches_oracle(self, g_ex):
        assert oracle_span_cores(g_ex) == G_EX_CORES

    def test_naive_engine(self, g_ex):
        result = naive_span_cores(g_ex)
        assert as_triples(result) == G_EX_CORES
        # six intervals have a non-empty edge intersection, four vertices each
        assert result.metrics.processed_vertices == 24
        assert result.metrics.cores_emitted == 9

    def test_pruned_engine(self, g_ex):
        result = span_cores(g_ex)
        assert as_triples(result) == G_EX_CORES
        # 3 non-empty singletons at |V|=4, then candidate sets 3, 2, 2
        # for [0,1], [1,2], [0,2]
        assert result.metrics.processed_vertices == 19
        assert result.metrics.cores_emitted == 9

    def test_pruning_is_strictly_cheaper_here(self, g_ex):
        assert (span_cores(g_ex).metrics.processed_vertices
                < naive_span_cores(g_ex).metrics.processed_vertices)

    def test_results_are_sorted_for_output(self, g_ex):
        result = span_cores(g_ex)
        keys = [c.sort_key() for c in result.cores]
        assert keys == sorted(keys)


class TestEngineProperties:
    def test_engines_agree_with_oracle_on_random_graphs(self):
        rng = random.Random(1234)
        for _ in range(40):
            g = random_temporal_graph(rng, max_vertices=12, max_timestamps=6)
            expected = oracle_span_cores(g)
            assert as_triples(naive_span_cores(g)) == expected
            assert as_triples(span_cores(g)) == expected

    def test_every_member_meets_the_temporal_degree_bound(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_temporal_graph(rng, max_vertices=10, max_timestamps=5)
            for core in span_cores(g).cores:
                for u in core.members:
                    assert temporal_degree(g, core.members, u, core.span) >= core.order

    def test_containment_under_lower_order_and_narrower_span(self):
        rng = random.Random(77)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=12, max_timestamps=6)
            cores = span_cores(g).cores
            by_key = {(c.order, c.span): c.members for c in cores}
            for c in cores:
                for (k, span), members in by_key.items():
                    if k <= c.order and contains(c.span, span):
                        assert c.members <= members

    def test_orders_form_contiguous_range_per_span(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=12, max_timestamps=6)
            spans = {}
            for c in span_cores(g).cores:
                spans.setdefault(c.span, set()).add(c.order)
            for orders in spans.values():
                assert orders == set(range(1, max(orders) + 1))

    def test_no_duplicate_order_span_pairs(self):
        rng = random.Random(14)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=12, max_timestamps=6)
            cores = span_cores(g).cores
            assert len({(c.order, c.span) for c in cores}) == len(cores)

    def test_cost_never_exceeds_naive(self):
        rng = random.Random(15)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=15, max_timestamps=7)
            assert (span_cores(g).metrics.processed_vertices
                    <= naive_span_cores(g).metrics.processed_vertices)

    def test_deterministic_across_runs(self):
        rng = random.Random(16)
        g = random_temporal_graph(rng)
        first = span_cores(g)
        second = span_cores(g)
        assert first.cores == second.cores
        assert (first.metrics.processed_vertices
                == second.metrics.processed_vertices)


    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.randoms(use_true_random=False).map(
            lambda rng: random_temporal_graph(rng, max_vertices=15, max_timestamps=30)),
        gappy_temporal_graphs(),
    ))
    def test_matches_the_queue_engine(self, g):
        result = span_cores(g)
        expected = reference_span_cores(g)
        assert result.cores == expected.cores
        assert result.metrics.processed_vertices == expected.metrics.processed_vertices
        assert result.metrics.cores_emitted == expected.metrics.cores_emitted


class TestEdgeCases:
    def test_single_timestamp_reduces_to_static_cores(self, g_ex):
        g = TemporalGraph(g_ex.labels, [g_ex.edges_at(0)])
        result = span_cores(g)
        assert as_triples(result) == {
            (1, (0, 0), frozenset({0, 1, 2, 3})),
            (2, (0, 0), frozenset({0, 1, 2})),
        }

    def test_all_empty_timestamps(self):
        g = TemporalGraph(["a", "b"], [set(), set()])
        result = naive_span_cores(g)
        assert result.cores == ()
        assert result.metrics.processed_vertices == 0
        pruned = span_cores(g)
        assert pruned.cores == ()
        assert pruned.metrics.processed_vertices == 0

    def test_gap_timestamp_blocks_crossing_intervals(self):
        g = TemporalGraph(["a", "b"], [{(0, 1)}, set(), {(0, 1)}])
        result = span_cores(g)
        assert as_triples(result) == {
            (1, (0, 0), frozenset({0, 1})),
            (1, (2, 2), frozenset({0, 1})),
        }

    def test_constant_graph_spans_everything(self):
        triangle = {(0, 1), (1, 2), (0, 2)}
        g = TemporalGraph(["a", "b", "c"], [triangle, triangle, triangle])
        result = span_cores(g)
        spans = {(c.span.start, c.span.end) for c in result.cores}
        assert spans == {(s, e) for s in range(3) for e in range(s, 3)}
        assert all(c.members == frozenset({0, 1, 2}) for c in result.cores)

    def test_span_core_type_is_hashable_and_ordered(self):
        a = SpanCore(1, Interval(0, 1), frozenset({0}))
        b = SpanCore(1, Interval(0, 1), frozenset({0}))
        assert a == b
        assert len({a, b}) == 1
