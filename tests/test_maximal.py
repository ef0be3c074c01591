from __future__ import annotations

import importlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancores import (
    DecompositionResult,
    Interval,
    MaximalTrace,
    SpanCore,
    TemporalGraph,
    contact_lines,
    ingest_contacts,
    maximal_span_cores,
    naive_maximal_span_cores,
    naive_span_cores,
    parse_contact_lines,
    span_cores,
)
from spancores.serialize import cores_to_csv, cores_to_jsonl
from spancores.temporal_graph import edge_diff_sets
from .conftest import (
    as_triples,
    community_temporal_graph,
    contains,
    dominates,
    gappy_temporal_graphs,
    innermost_of,
    interval_edges,
    oracle_maximal,
    oracle_span_cores,
    random_temporal_graph,
    reference_maximal_span_cores,
    sticky_temporal_graphs,
)

ENGINES = [naive_span_cores, span_cores, naive_maximal_span_cores, maximal_span_cores]
MAXIMAL_ENGINES = (naive_maximal_span_cores, maximal_span_cores)

G_EX_MAXIMAL = {
    (2, (0, 1), frozenset({0, 1, 2})),
    (1, (0, 2), frozenset({0, 1})),
}


@pytest.fixture(scope="module")
def community_oracle() -> tuple[TemporalGraph, set, set]:
    """A 200-vertex, 31-timestamp graph with its full and maximal oracle cores."""
    g = community_temporal_graph(200, 30, communities=4)
    full = oracle_span_cores(g)
    return g, full, oracle_maximal(full)


@pytest.fixture(scope="module")
def generator_oracle(tmp_path_factory) -> tuple[TemporalGraph, set, set]:
    """The first full-community benchmark instance with its full and maximal oracle cores."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

    inputs = tmp_path_factory.mktemp("full-community")
    workloads.generate("full-community", 777, inputs)
    with open(inputs / "i0.txt", encoding="utf-8") as handle:
        contacts, _ = parse_contact_lines(handle)
    g = ingest_contacts(contacts, origin=0)
    full = oracle_span_cores(g)
    return g, full, oracle_maximal(full)


def _labelled(result: DecompositionResult) -> set:
    return {(c.order, c.span, frozenset(result.member_labels(c))) for c in result.cores}


def traced_run(engine, g: TemporalGraph) -> tuple:
    """Cores, processed_vertices, cores_emitted, TraceSteps and final_k_prime of one run."""
    trace = MaximalTrace()
    result = engine(g, trace=trace)
    return (result.cores, result.metrics.processed_vertices, result.metrics.cores_emitted,
            trace.steps, trace.final_k_prime)


class TestDominates:
    def test_basic_cases(self):
        wide = SpanCore(2, Interval(0, 2), frozenset({0, 1, 2}))
        narrow = SpanCore(1, Interval(1, 2), frozenset({0, 1}))
        assert dominates(wide, narrow)
        assert not dominates(narrow, wide)

    def test_same_order_needs_covering_span(self):
        a = SpanCore(2, Interval(0, 1), frozenset({0}))
        b = SpanCore(2, Interval(1, 2), frozenset({0}))
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_identical_pair_is_a_contract_violation(self):
        a = SpanCore(2, Interval(0, 1), frozenset({0}))
        b = SpanCore(2, Interval(0, 1), frozenset({0, 1}))
        with pytest.raises(ValueError):
            dominates(a, b)


class TestFixture:
    def test_oracle_agrees(self, g_ex):
        assert oracle_maximal(oracle_span_cores(g_ex)) == G_EX_MAXIMAL

    def test_filter_engine(self, g_ex):
        result = naive_maximal_span_cores(g_ex)
        assert as_triples(result) == G_EX_MAXIMAL
        # inherits the full run's cost
        assert result.metrics.processed_vertices == 19
        assert result.metrics.cores_emitted == 2

    def test_direct_engine(self, g_ex):
        result = maximal_span_cores(g_ex)
        assert as_triples(result) == G_EX_MAXIMAL
        # candidate counts 2 + 3 + 1 across the t_s=0 sweep, none afterwards
        assert result.metrics.processed_vertices == 6
        assert result.metrics.cores_emitted == 2

    def test_instrumented_trace(self, g_ex):
        trace = MaximalTrace()
        maximal_span_cores(g_ex, trace=trace)
        first_sweep = [step for step in trace.steps if step.t_s == 0]
        assert [step.lower_bound for step in first_sweep] == [0, 1, 2]
        assert [step.candidate_count for step in first_sweep] == [2, 3, 1]
        assert [step.order for step in first_sweep] == [1, 2, 0]
        assert [step.accepted for step in first_sweep] == [True, True, False]
        assert trace.final_k_prime == {0: 2, 1: 2, 2: 1}


class TestEngineProperties:
    def test_engines_agree_with_oracle_on_random_graphs(self):
        rng = random.Random(4321)
        for _ in range(40):
            g = random_temporal_graph(rng, max_vertices=12, max_timestamps=6)
            expected = oracle_maximal(oracle_span_cores(g))
            assert as_triples(naive_maximal_span_cores(g)) == expected
            assert as_triples(maximal_span_cores(g)) == expected

    def test_output_is_an_antichain(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=12, max_timestamps=6)
            cores = maximal_span_cores(g).cores
            for i, a in enumerate(cores):
                for b in cores[i + 1:]:
                    assert not dominates(a, b)
                    assert not dominates(b, a)

    def test_each_maximal_is_the_innermost_core_of_its_span(self):
        rng = random.Random(8)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=12, max_timestamps=6)
            for core in maximal_span_cores(g).cores:
                order, members = innermost_of(
                    range(g.vertex_count), interval_edges(g, core.span.start, core.span.end))
                assert (order, members) == (core.order, core.members)

    def test_no_interval_processed_before_a_superinterval(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=12, max_timestamps=6)
            trace = MaximalTrace()
            maximal_span_cores(g, trace=trace)
            seen: list[Interval] = []
            for step in trace.steps:
                current = Interval(step.t_s, step.t_e)
                for earlier in seen:
                    assert not (contains(current, earlier) and current != earlier)
                seen.append(current)

    def test_direct_engine_never_costs_more_than_filtering(self):
        rng = random.Random(10)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=15, max_timestamps=7)
            direct = maximal_span_cores(g).metrics.processed_vertices
            filtered = naive_maximal_span_cores(g).metrics.processed_vertices
            assert direct <= filtered

    @settings(max_examples=200, deadline=None)
    @given(gappy_temporal_graphs() | sticky_temporal_graphs()
           | st.integers(0, 2 ** 32).map(lambda seed: random_temporal_graph(random.Random(seed))))
    def test_direct_engine_matches_the_bucketed_reference(self, g):
        """Same cores, counts and trace as the engine that bucketed degrees per start."""
        direct, reference = (traced_run(engine, g) for engine in
                             (maximal_span_cores, reference_maximal_span_cores))
        assert direct == reference

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("communities, active_p, p_in", [(10, 0.8, 0.6), (5, 0.9, 0.7)])
    def test_direct_engine_matches_the_references_on_larger_graphs(self, seed, communities,
                                                                    active_p, p_in):
        """150 vertices over 15 timestamps, beyond the random corpus's 25.

        The bounded path must fire: some step prunes touched vertices from
        its candidates under a positive bound.
        """
        g = community_temporal_graph(vertices=150, horizon=15, communities=communities,
                                     active_p=active_p, p_in=p_in, clique=6, seed=seed)
        direct = traced_run(maximal_span_cores, g)
        assert direct == traced_run(reference_maximal_span_cores, g)
        cores, _, _, steps, _ = direct
        assert cores == naive_maximal_span_cores(g).cores
        assert len(cores) > 5
        assert any(
            step.lower_bound > 0 and 0 < step.candidate_count < len(
                {u for edge in interval_edges(g, step.t_s, step.t_e)
                 for u in edge})
            for step in steps)

    def test_deterministic_across_runs(self):
        rng = random.Random(12)
        g = random_temporal_graph(rng)
        assert maximal_span_cores(g).cores == maximal_span_cores(g).cores


class TestMinSpan:
    @settings(max_examples=100, deadline=None)
    @given(gappy_temporal_graphs() | sticky_temporal_graphs()
           | st.integers(0, 2 ** 32).map(lambda seed: random_temporal_graph(random.Random(seed))))
    def test_a_run_from_min_span_is_the_full_run_cut_at_that_width(self, g):
        """The cores and trace steps are exactly the full run's of width >= min_span."""
        full_trace = MaximalTrace()
        full = maximal_span_cores(g, trace=full_trace)
        oracle = oracle_maximal(oracle_span_cores(g))
        for min_span in range(1, g.t_max + 3):
            trace = MaximalTrace()
            result = maximal_span_cores(g, trace=trace, min_span=min_span)
            assert result.cores == tuple(c for c in full.cores if c.span.width >= min_span)
            assert as_triples(result) == {
                (k, (s, e), members) for k, (s, e), members in oracle if e - s + 1 >= min_span}
            assert trace.steps == [step for step in full_trace.steps
                                   if step.t_e - step.t_s + 1 >= min_span]

    @settings(max_examples=100, deadline=None)
    @given(gappy_temporal_graphs() | sticky_temporal_graphs())
    def test_only_starts_that_can_reach_min_span_are_walked(self, g):
        """A start is walked, its diff sets built, only when its first
        min_span timestamps all have edges; the others cannot hold a core
        that wide."""
        walked = []

        def counted(graph, start):
            walked.append(start)
            return edge_diff_sets(graph, start)

        nonempty = set(g.nonempty_times)
        with pytest.MonkeyPatch.context() as patch:
            # The package's `maximal_span_cores` attribute is the engine, not the module.
            patch.setattr(importlib.import_module("spancores.maximal"), "edge_diff_sets", counted)
            for min_span in range(1, g.t_max + 3):
                walked.clear()
                maximal_span_cores(g, min_span=min_span)
                assert walked == [t for t in g.nonempty_times
                                  if all(t + d in nonempty for d in range(min_span))]

    @pytest.mark.parametrize("min_span", [0, -1])
    def test_min_span_below_one_is_rejected(self, g_ex, min_span):
        with pytest.raises(ValueError, match=f"min_span must be at least 1, got {min_span}"):
            maximal_span_cores(g_ex, min_span=min_span)


class TestEdgeCases:
    def test_all_empty_graph(self):
        g = TemporalGraph(["a", "b"], [set(), set()])
        result = maximal_span_cores(g)
        assert result.cores == ()
        assert result.metrics.processed_vertices == 0

    def test_constant_graph_has_one_maximal_core(self):
        triangle = {(0, 1), (1, 2), (0, 2)}
        g = TemporalGraph(["a", "b", "c"], [triangle, triangle, triangle])
        result = maximal_span_cores(g)
        assert as_triples(result) == {(2, (0, 2), frozenset({0, 1, 2}))}

    def test_empty_start_timestamp_is_skipped(self):
        g = TemporalGraph(["a", "b", "c"], [set(), {(0, 1), (1, 2), (0, 2)}])
        result = maximal_span_cores(g)
        assert as_triples(result) == {(2, (1, 1), frozenset({0, 1, 2}))}


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.__name__)
class TestEveryEngine:
    def test_result_is_a_function_of_the_graph(self, engine, g_ex):
        """Two runs give equal metrics, and every core is counted once."""
        rng = random.Random(21)
        for g in [g_ex] + [random_temporal_graph(rng) for _ in range(5)]:
            first, second = engine(g), engine(g)
            assert first.cores == second.cores
            assert first.metrics == second.metrics
            assert first.metrics.cores_emitted == len(first.cores)

    def test_time_reversal_mirrors_the_cores(self, engine):
        """The direct engine walks each start's ends backwards; reversing time
        hands it the intervals in a different order."""
        g = community_temporal_graph(200, 30, communities=4)
        t_max = g.t_max
        reversed_g = TemporalGraph(g.labels, [g.edges_at(t_max - t) for t in range(t_max + 1)])
        mirrored = {(order, (t_max - end, t_max - start), members)
                    for order, (start, end), members in as_triples(engine(g))}
        assert len(mirrored) > 10
        assert as_triples(engine(reversed_g)) == mirrored

    def test_matches_the_oracle_at_benchmark_scale(self, engine, community_oracle):
        g, full, maximal = community_oracle
        assert (g.vertex_count, g.contact_count(), len(full), len(maximal)) == (200, 12906,
                                                                                3336, 21)
        assert as_triples(engine(g)) == (maximal if engine in MAXIMAL_ENGINES else full)

    def test_matches_the_oracle_on_the_benchmark_generator(self, engine, generator_oracle):
        g, full, maximal = generator_oracle
        assert (g.vertex_count, g.t_max + 1, g.contact_count(), len(full),
                len(maximal)) == (200, 39, 30536, 5621, 40)
        assert as_triples(engine(g)) == (maximal if engine in MAXIMAL_ENGINES else full)

    def test_vertex_relabelling_changes_no_labelled_core(self, engine, community_oracle):
        """A permutation of vertex ids gives the same labelled cores and file bytes."""
        g = community_oracle[0]
        new_id = list(range(g.vertex_count))
        random.Random(31).shuffle(new_id)
        labels = [""] * g.vertex_count
        for u, label in enumerate(g.labels):
            labels[new_id[u]] = label
        permuted = TemporalGraph(labels, [{(new_id[u], new_id[v]) for u, v in g.edges_at(t)}
                                          for t in range(g.t_max + 1)])
        result, relabelled = engine(g), engine(permuted)
        assert _labelled(relabelled) == _labelled(result)
        assert cores_to_csv(relabelled) == cores_to_csv(result)
        assert cores_to_jsonl(relabelled) == cores_to_jsonl(result)

    def test_raw_time_scaling_and_repeated_contacts_change_no_core(self, engine,
                                                                 community_oracle):
        """Times scaled by a window, each with an offset inside its window, and every
        contact listed twice in shuffled order ingest to the same core file."""
        g = community_oracle[0]
        contacts = [(u, v, int(t)) for u, v, t in map(str.split, contact_lines(g))]
        rng = random.Random(41)
        window = 7
        scaled = [(u, v, t * window + rng.randrange(window)) for u, v, t in contacts]
        doubled = contacts * 2
        rng.shuffle(doubled)
        expected = cores_to_csv(engine(g))
        for variant in (ingest_contacts(scaled, window=window, origin=0),
                        ingest_contacts(doubled, origin=0)):
            assert cores_to_csv(engine(variant)) == expected
