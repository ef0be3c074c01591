"""Acceptance checks, one test per criterion.

Each test prints a single "criterion N [...]: PASS/FAIL" line (visible with
pytest -s or in captured output on failure). The corpus of 200 random
temporal graphs and all engine/oracle runs over it are computed once per
session and shared.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from spancores import (
    Interval,
    MaximalTrace,
    contact_lines,
    detect_anomalies,
    maximal_span_cores,
    naive_maximal_span_cores,
    naive_span_cores,
    reshuffle_timestamps,
    span_cores,
)
from spancores.cli import main as cli_main
from .conftest import (
    as_triples,
    canonical_dump,
    community_temporal_graph,
    contains,
    dominates,
    innermost_of,
    interval_edges,
    oracle_maximal,
    oracle_span_cores,
    planted_clique_graph,
    random_temporal_graph,
    ratio_fixture_graph,
)

CORPUS_SIZE = 200


@pytest.fixture
def criterion(request):
    """Context manager factory printing one PASS/FAIL line per criterion.

    Lines bypass output capture so they show up in a plain `pytest -v` run.
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    @contextmanager
    def report(number: int, description: str):
        try:
            yield
        except BaseException:
            _announce(capman, f"criterion {number} [{description}]: FAIL")
            raise
        _announce(capman, f"criterion {number} [{description}]: PASS")

    return report


def _announce(capman, line: str) -> None:
    if capman is None:
        print(line)
        return
    with capman.global_and_fixture_disabled():
        print("\n" + line)


@dataclass
class CorpusRun:
    graphs: list
    naive: list
    pruned: list
    filtered: list
    direct: list
    oracle_full: list
    oracle_max: list
    elapsed_engines: float
    elapsed_oracles: float


@pytest.fixture(scope="session")
def corpus() -> CorpusRun:
    graphs = [random_temporal_graph(random.Random(1000 + i)) for i in range(CORPUS_SIZE)]
    started = time.perf_counter()
    naive = [naive_span_cores(g) for g in graphs]
    pruned = [span_cores(g) for g in graphs]
    filtered = [naive_maximal_span_cores(g) for g in graphs]
    direct = [maximal_span_cores(g) for g in graphs]
    elapsed_engines = time.perf_counter() - started
    started = time.perf_counter()
    oracle_full = [oracle_span_cores(g) for g in graphs]
    oracle_max = [oracle_maximal(full) for full in oracle_full]
    elapsed_oracles = time.perf_counter() - started
    return CorpusRun(graphs, naive, pruned, filtered, direct,
                     oracle_full, oracle_max, elapsed_engines, elapsed_oracles)


def test_criterion_1_full_decomposition_matches_oracle(corpus, criterion):
    with criterion(1, "both full engines equal the brute-force oracle on "
                      f"{CORPUS_SIZE} random graphs"):
        for g, nv, pr, expected in zip(corpus.graphs, corpus.naive,
                                       corpus.pruned, corpus.oracle_full):
            assert as_triples(nv) == expected, f"naive engine diverged on {g!r}"
            assert as_triples(pr) == expected, f"pruned engine diverged on {g!r}"
        assert corpus.elapsed_engines + corpus.elapsed_oracles < 60.0


def test_criterion_2_maximal_engines_match_oracle(corpus, criterion):
    with criterion(2, "maximal engines equal the dominance-filtered oracle"):
        for g, fl, dr, expected in zip(corpus.graphs, corpus.filtered,
                                       corpus.direct, corpus.oracle_max):
            assert as_triples(fl) == expected, f"filter engine diverged on {g!r}"
            assert as_triples(dr) == expected, f"direct engine diverged on {g!r}"
        assert corpus.elapsed_engines + corpus.elapsed_oracles < 60.0


def test_criterion_3_worked_example_is_reproduced_exactly(g_ex, criterion):
    with criterion(3, "worked example: 9 cores, 2 maximal, instrumented trace"):
        full = span_cores(g_ex)
        assert len(full.cores) == 9
        labeled = {(c.order, (c.span.start, c.span.end), tuple(full.member_labels(c)))
                   for c in full.cores}
        assert labeled == {
            (1, (0, 0), ("a", "b", "c", "d")),
            (2, (0, 0), ("a", "b", "c")),
            (1, (1, 1), ("a", "b", "c")),
            (2, (1, 1), ("a", "b", "c")),
            (1, (2, 2), ("a", "b")),
            (1, (0, 1), ("a", "b", "c")),
            (2, (0, 1), ("a", "b", "c")),
            (1, (1, 2), ("a", "b")),
            (1, (0, 2), ("a", "b")),
        }
        trace = MaximalTrace()
        maximal = maximal_span_cores(g_ex, trace=trace)
        assert len(maximal.cores) == 2
        assert {(c.order, (c.span.start, c.span.end)) for c in maximal.cores} \
            == {(2, (0, 1)), (1, (0, 2))}
        assert [s.lower_bound for s in trace.steps if s.t_s == 0] == [0, 1, 2]
        assert trace.final_k_prime == {0: 2, 1: 2, 2: 1}


def test_criterion_4_containment_holds_everywhere(corpus, criterion):
    with criterion(4, "lower order and narrower span always contain"):
        for result in corpus.pruned:
            cores = result.cores
            by_key = {(c.order, c.span): c.members for c in cores}
            for c in cores:
                for (k, span), members in by_key.items():
                    if k <= c.order and contains(c.span, span):
                        assert c.members <= members


def test_criterion_5_maximal_antichain_and_innermost(corpus, criterion):
    with criterion(5, "maximal sets are dominance antichains of innermost cores"):
        for g, result in zip(corpus.graphs, corpus.direct):
            cores = result.cores
            for i, a in enumerate(cores):
                for b in cores[i + 1:]:
                    assert not dominates(a, b) and not dominates(b, a)
            for core in cores:
                order, members = innermost_of(
                    range(g.vertex_count), interval_edges(g, core.span.start, core.span.end))
                assert (order, members) == (core.order, core.members)


def test_criterion_6_cost_dominance_and_scaled_reduction(corpus, criterion):
    with criterion(6, "pruning never costs more, and wins 2x at scale"):
        for nv, pr, fl, dr in zip(corpus.naive, corpus.pruned,
                                  corpus.filtered, corpus.direct):
            assert pr.metrics.processed_vertices <= nv.metrics.processed_vertices
            assert dr.metrics.processed_vertices <= fl.metrics.processed_vertices
        started = time.perf_counter()
        big = community_temporal_graph()
        assert big.vertex_count == 2000
        assert big.t_max == 49
        baseline = naive_span_cores(big)
        pruned = span_cores(big)
        elapsed = time.perf_counter() - started
        assert as_triples(baseline) == as_triples(pruned)
        reduction = (baseline.metrics.processed_vertices
                     / pruned.metrics.processed_vertices)
        assert reduction >= 2.0, f"reduction only {reduction:.2f}x"
        assert elapsed < 300.0


def test_criterion_7_null_model_invariants(corpus, criterion):
    with criterion(7, "reshuffling preserves degrees and is seed-deterministic"):
        for i in range(100):
            g = corpus.graphs[i % len(corpus.graphs)]
            shuffled = reshuffle_timestamps(g, seed=i)
            for t in range(g.t_max + 1):
                original, rewired = g.edges_at(t), shuffled.edges_at(t)
                assert len(rewired) == len(original)
                assert _degree_multiset(rewired) == _degree_multiset(original)
            assert canonical_dump(reshuffle_timestamps(g, seed=i)) \
                == canonical_dump(shuffled)


def _degree_multiset(edges) -> Counter:
    degree = Counter()
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return Counter(degree.values())


def test_criterion_8_anomaly_detection_on_planted_fixtures(criterion):
    with criterion(8, "planted clique is stripped; ratio stage drops exactly "
                      "the fully anomalous timestamps"):
        g = planted_clique_graph()
        report = detect_anomalies(g, maximal_span_cores(g), tr=5)
        clique = {0, 1, 2, 3}
        clique_total = clique_removed = background_total = background_removed = 0
        for t in range(g.t_max + 1):
            surviving = report.surviving.edges_at(t)
            for edge in g.edges_at(t):
                touches = bool(set(edge) & clique)
                if touches:
                    clique_total += 1
                    clique_removed += edge not in surviving
                else:
                    background_total += 1
                    background_removed += edge not in surviving
        assert clique_removed / clique_total >= 0.95
        assert background_removed / background_total <= 0.05

        ratio_graph = ratio_fixture_graph()
        ratio_report = detect_anomalies(
            ratio_graph, maximal_span_cores(ratio_graph), tr=5, ratio=1.5)
        assert ratio_report.dropped_timestamps == frozenset({2, 5, 7})


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path, criterion):
    with criterion(9, "every subcommand rerun yields byte-identical artifacts"):
        contacts = tmp_path / "contacts.txt"
        contacts.write_text(
            "".join(line + "\n" for line in contact_lines(planted_clique_graph())))
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("label,kind\n" + "".join(
            f"v{i},{'core' if i < 4 else 'edge'}\n" for i in range(30)))
        cores_dir = tmp_path / "seed-cores"
        assert cli_main(["decompose", "--input", str(contacts), "--origin", "0",
                         "--out", str(cores_dir)]) == 0
        core_file = cores_dir / "cores.csv"

        runs = [
            ["decompose", "--input", str(contacts), "--origin", "0", "--engine", "naive"],
            ["decompose", "--input", str(contacts), "--origin", "0", "--engine", "pruned",
             "--format", "jsonl"],
            ["maximal", "--input", str(contacts), "--origin", "0", "--engine", "filter"],
            ["maximal", "--input", str(contacts), "--origin", "0", "--engine", "direct"],
            ["stats", "--cores", str(core_file)],
            ["grid", "--cores", str(core_file), "--min-span", "2"],
            ["purity", "--cores", str(core_file), "--attributes", str(attrs),
             "--attribute", "kind"],
            ["shuffle", "--input", str(contacts), "--origin", "0", "--seed", "11"],
            ["anomaly", "--input", str(contacts), "--origin", "0", "--tr", "5",
             "--ratio", "1.5"],
        ]
        for index, argv in enumerate(runs):
            first = tmp_path / f"run{index}-a"
            second = tmp_path / f"run{index}-b"
            assert cli_main(argv + ["--out", str(first)]) == 0
            assert cli_main(argv + ["--out", str(second)]) == 0
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in second.iterdir())
            for name in names:
                left, right = first / name, second / name
                if name == "metrics.json":
                    a = json.loads(left.read_text())
                    b = json.loads(right.read_text())
                    a.pop("elapsed_ms")
                    b.pop("elapsed_ms")
                    assert a == b, f"{argv[0]}: metrics differ beyond wall time"
                elif name == "bench.json":
                    continue
                elif name == "run-manifest.json":
                    a = json.loads(left.read_text())
                    b = json.loads(right.read_text())
                    a["config"].pop("out")
                    b["config"].pop("out")
                    assert a == b
                else:
                    assert left.read_bytes() == right.read_bytes(), \
                        f"{argv[0]}: {name} not byte-identical"
