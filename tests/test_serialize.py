from __future__ import annotations

import io
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancores import (
    AttributeTable,
    activity_grid,
    ingest_contacts,
    maximal_span_cores,
    naive_span_cores,
    purity_curve,
    span_cores,
    stats_by_order,
    stats_by_span,
)
from spancores.serialize import (
    cores_to_csv,
    cores_to_jsonl,
    metrics_to_json,
    read_cores,
    read_cores_csv,
    read_cores_jsonl,
    table_to_csv,
)
from .conftest import as_triples, gappy_temporal_graphs, random_temporal_graph, writable_label


class TestCsv:
    def test_fixture_bytes(self, g_ex):
        text = cores_to_csv(span_cores(g_ex))
        assert text.splitlines() == [
            "k,t_s,t_e,size,members",
            "1,0,0,4,a;b;c;d",
            "2,0,0,3,a;b;c",
            "1,0,1,3,a;b;c",
            "2,0,1,3,a;b;c",
            "1,0,2,2,a;b",
            "1,1,1,3,a;b;c",
            "2,1,1,3,a;b;c",
            "1,1,2,2,a;b",
            "1,2,2,2,a;b",
        ]

    def test_round_trip(self, g_ex):
        result = span_cores(g_ex)
        loaded = read_cores_csv(io.StringIO(cores_to_csv(result)))
        assert as_triples(loaded) == as_triples(result)
        assert cores_to_csv(loaded) == cores_to_csv(result)

    def test_empty_result_keeps_header(self, g_ex):
        from spancores import DecompositionResult, RunMetrics
        empty = DecompositionResult((), (), RunMetrics())
        assert cores_to_csv(empty) == "k,t_s,t_e,size,members\n"

    def test_reader_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="header"):
            read_cores_csv(io.StringIO("a,b,c\n"))

    def test_reader_rejects_inconsistent_size(self):
        text = "k,t_s,t_e,size,members\n1,0,0,3,a;b\n"
        with pytest.raises(ValueError, match="disagrees"):
            read_cores_csv(io.StringIO(text))


class TestJsonl:
    def test_fixture_records(self, g_ex):
        lines = cores_to_jsonl(maximal_span_cores(g_ex), maximal=True).splitlines()
        records = [json.loads(line) for line in lines]
        assert records == [
            {"k": 2, "t_s": 0, "t_e": 1, "members": ["a", "b", "c"], "maximal": True},
            {"k": 1, "t_s": 0, "t_e": 2, "members": ["a", "b"], "maximal": True},
        ]

    def test_full_results_omit_the_maximal_flag(self, g_ex):
        lines = cores_to_jsonl(span_cores(g_ex)).splitlines()
        assert all("maximal" not in json.loads(line) for line in lines)

    def test_round_trip(self, g_ex):
        result = naive_span_cores(g_ex)
        loaded = read_cores_jsonl(io.StringIO(cores_to_jsonl(result)))
        assert as_triples(loaded) == as_triples(result)


def _labelled(result) -> set:
    return {(c.order, c.span, frozenset(result.member_labels(c))) for c in result.cores}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=4), min_size=2, max_size=5, unique=True))
def test_every_accepted_label_reads_back(labels):
    contacts = [(a, b, t) for a, b in combinations(labels, 2) for t in (0, 1)]
    try:
        g = ingest_contacts(contacts)
    except ValueError:
        assert not all(map(writable_label, labels))
        return
    result = span_cores(g)
    for fmt, text in (("csv", cores_to_csv(result)), ("jsonl", cores_to_jsonl(result))):
        assert _labelled(read_cores(io.StringIO(text), fmt)) == _labelled(result)


class TestReadBack:
    CSV = "k,t_s,t_e,size,members\n1,0,0,3,b;c;d\n2,0,0,2,a;b\n"

    def test_summaries_leave_labels_unnumbered(self):
        loaded = read_cores_csv(io.StringIO(self.CSV))
        assert stats_by_order(loaded) == [(1, 1, 3.0), (2, 1, 2.0)]
        assert stats_by_span(loaded) == [(1, 2, 2.5)]
        assert activity_grid(loaded) == {(0, 1): 2}
        assert [loaded.member_labels(c) for c in loaded.cores] == [["b", "c", "d"], ["a", "b"]]
        assert loaded._labels is None

    def test_labels_are_numbered_in_order_of_first_appearance(self):
        loaded = read_cores_csv(io.StringIO(self.CSV))
        assert [c.members for c in loaded.cores] == [frozenset({0, 1, 2}), frozenset({3, 0})]
        assert loaded.labels == ("b", "c", "d", "a")
        assert [c.size for c in loaded.cores] == [3, 2]

    def test_repeated_core_out_of_order_names_its_line(self):
        text = "k,t_s,t_e,size,members\n1,0,1,1,a\n1,0,0,1,a\n1,0,1,1,b\n"
        with pytest.raises(ValueError, match="line 4: a second core of order 1 over \\[0,1\\]"):
            read_cores_csv(io.StringIO(text))


def _shuffled_records(text: str, fmt: str, rng) -> str:
    lines = text.splitlines(keepends=True)
    header = lines.pop(0) if fmt == "csv" else ""
    rng.shuffle(lines)
    return header + "".join(lines)


@settings(max_examples=120, deadline=None)
@given(st.one_of(
           st.randoms(use_true_random=False).map(
               lambda rng: random_temporal_graph(rng, max_vertices=12, max_timestamps=12)),
           gappy_temporal_graphs(),
       ),
       st.sampled_from([span_cores, maximal_span_cores]),
       st.sampled_from(["csv", "jsonl"]),
       st.randoms(use_true_random=False))
def test_read_back_result_behaves_like_the_engine_result(g, engine, fmt, rng):
    result = engine(g)
    text = cores_to_csv(result) if fmt == "csv" else cores_to_jsonl(result)
    loaded = read_cores(io.StringIO(text), fmt)

    assert stats_by_order(loaded) == stats_by_order(result)
    assert stats_by_span(loaded) == stats_by_span(result)
    for min_span in (1, 2):
        assert activity_grid(loaded, min_span) == activity_grid(result, min_span)
    attrs = AttributeTable(["color"], {label: {"color": rng.choice("rgb")}
                                       for label in g.labels if rng.random() < 0.8})
    assert purity_curve(loaded, attrs, "color") == purity_curve(result, attrs, "color")
    assert cores_to_csv(loaded) == cores_to_csv(result)
    assert cores_to_jsonl(loaded) == cores_to_jsonl(result)

    shuffled = read_cores(io.StringIO(_shuffled_records(text, fmt, rng)), fmt)
    assert cores_to_csv(shuffled) == cores_to_csv(result)
    assert as_triples(shuffled) == as_triples(loaded)
    assert shuffled.labels == loaded.labels


class TestMetrics:
    def test_shape(self, g_ex):
        payload = json.loads(metrics_to_json(span_cores(g_ex).metrics))
        assert set(payload) == {"processed_vertices", "cores", "elapsed_ms"}
        assert payload["processed_vertices"] == 19
        assert payload["cores"] == 9
        assert payload["elapsed_ms"] >= 0


class TestTables:
    def test_float_rendering_is_stable(self):
        text = table_to_csv(["k", "count", "mean_size"], [(1, 6, 16 / 6)])
        assert text == "k,count,mean_size\n1,6,2.666666667\n"

    def test_header_only_when_empty(self):
        assert table_to_csv(["t", "purity"], []) == "t,purity\n"
