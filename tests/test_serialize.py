from __future__ import annotations

import csv
import gc
import io
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancores import (
    AttributeTable,
    TemporalGraph,
    activity_grid,
    contact_lines,
    detect_anomalies,
    ingest_contacts,
    maximal_span_cores,
    naive_maximal_span_cores,
    naive_span_cores,
    parse_contact_lines,
    purity_curve,
    reshuffle_timestamps,
    span_cores,
    stats_by_order,
    stats_by_span,
)
from spancores import serialize
from spancores.serialize import (
    cores_to_csv,
    cores_to_jsonl,
    metrics_to_json,
    read_cores,
    table_to_csv,
)
from .conftest import (
    as_triples,
    community_temporal_graph,
    gappy_temporal_graphs,
    planted_clique_graph,
    random_temporal_graph,
    sticky_temporal_graphs,
    writable_label,
)


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
        loaded = read_cores(io.StringIO(cores_to_csv(result)), "csv")
        assert as_triples(loaded) == as_triples(result)
        assert cores_to_csv(loaded) == cores_to_csv(result)

    @settings(max_examples=60, deadline=None)
    @given(sticky_temporal_graphs(), st.sampled_from([span_cores, naive_span_cores]))
    def test_each_row_lists_its_own_core_members(self, g, engine):
        # The pruned engine shares one member set among the cores it reuses;
        # the baseline builds an equal but separate set for every core.
        result = engine(g)
        rows = list(csv.reader(io.StringIO(cores_to_csv(result))))[1:]
        assert [(int(k), int(t_s), int(t_e), int(size), members.split(";"))
                for k, t_s, t_e, size, members in rows] == [
            (c.order, c.span.start, c.span.end, len(c.members), result.member_labels(c))
            for c in result.cores]

    def test_empty_result_keeps_header(self, g_ex):
        from spancores import DecompositionResult, RunMetrics
        empty = DecompositionResult((), (), RunMetrics())
        assert cores_to_csv(empty) == "k,t_s,t_e,size,members\n"

    def test_reader_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="header"):
            read_cores(io.StringIO("a,b,c\n"), "csv")

    def test_reader_rejects_inconsistent_size(self):
        text = "k,t_s,t_e,size,members\n1,0,0,3,a;b\n"
        with pytest.raises(ValueError, match="disagrees"):
            read_cores(io.StringIO(text), "csv")


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
        loaded = read_cores(io.StringIO(cores_to_jsonl(result)), "jsonl")
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
        loaded = read_cores(io.StringIO(self.CSV), "csv")
        assert stats_by_order(loaded) == [(1, 1, 3.0), (2, 1, 2.0)]
        assert stats_by_span(loaded) == [(1, 2, 2.5)]
        assert activity_grid(loaded) == {(0, 1): 2}
        assert [loaded.member_labels(c) for c in loaded.cores] == [["b", "c", "d"], ["a", "b"]]

    def test_labels_are_numbered_in_order_of_first_appearance(self):
        loaded = read_cores(io.StringIO(self.CSV), "csv")
        assert [c.members for c in loaded.cores] == [frozenset({0, 1, 2}), frozenset({3, 0})]
        assert loaded.labels == ("b", "c", "d", "a")
        assert [len(c.members) for c in loaded.cores] == [3, 2]

    def test_cores_with_the_same_members_share_one_set(self):
        text = "k,t_s,t_e,size,members\n1,0,0,2,a;b\n1,0,1,2,a;b\n1,1,1,2,b;c\n"
        first, second, third = read_cores(io.StringIO(text), "csv").cores
        assert first.members is second.members
        assert third.members == frozenset({1, 2})

    def test_repeated_core_out_of_order_names_its_line(self):
        text = "k,t_s,t_e,size,members\n1,0,1,1,a\n1,0,0,1,a\n1,0,1,1,b\n"
        with pytest.raises(ValueError, match="line 4: a second core of order 1 over \\[0,1\\]"):
            read_cores(io.StringIO(text), "csv")


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
           sticky_temporal_graphs(),
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


def _json_dumps_reference(result, maximal: bool) -> str:
    """The JSONL text as json.dumps writes each whole record."""
    records = [{"k": c.order, "t_s": c.span.start, "t_e": c.span.end,
                "members": result.member_labels(c)} for c in result.cores]
    if maximal:
        for record in records:
            record["maximal"] = True
    return "".join(json.dumps(record) + "\n" for record in records)


# Characters a vertex label may hold that JSON escapes.
JSON_ESCAPED = ['"', "\\", "é", "\x01", "\U0001F600"]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([naive_span_cores, span_cores, maximal_span_cores]), st.booleans())
def test_jsonl_bytes_are_json_dumps_of_each_record(rng, engine, maximal):
    g = random_temporal_graph(rng, max_vertices=10, max_timestamps=6)
    g = TemporalGraph([label + "".join(rng.sample(JSON_ESCAPED, rng.randint(0, 2)))
                       for label in g.labels],
                      [g.edges_at(t) for t in range(g.t_max + 1)])
    result = engine(g)
    text = cores_to_jsonl(result, maximal=maximal)
    assert text == _json_dumps_reference(result, maximal)
    for fmt, written in (("csv", cores_to_csv(result)), ("jsonl", text)):
        loaded = read_cores(io.StringIO(written), fmt)
        assert cores_to_jsonl(loaded, maximal=maximal) == _json_dumps_reference(loaded, maximal)
        assert cores_to_jsonl(loaded, maximal=maximal) == text


def _csv_writer_reference(result) -> str:
    """The core CSV text as csv.writer writes it, one writerow per core."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["k", "t_s", "t_e", "size", "members"])
    for c in result.cores:
        writer.writerow([c.order, c.span.start, c.span.end, len(c.members),
                         ";".join(result.member_labels(c))])
    return out.getvalue()


CSV_VARIATIONS = ["as written", "shuffled", "crlf", "blank lines", "no final newline"]


def _varied(text: str, variation: str, rng) -> str:
    if variation == "shuffled":
        return _shuffled_records(text, "csv", rng)
    if variation == "crlf":
        return text.replace("\n", "\r\n")
    if variation == "blank lines":
        lines = text.splitlines(keepends=True)
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(1, len(lines)), "\n")
        return "".join(lines)
    if variation == "no final newline":
        return text[:-1]
    return text


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sets(st.integers(0, 11)),
       st.sampled_from([span_cores, maximal_span_cores]), st.sampled_from(CSV_VARIATIONS))
def test_canonical_and_csv_reader_paths_read_alike(rng, quoted, engine, variation):
    # A label holding '"' makes its member fields quoted, which only
    # csv.reader can split.
    g = random_temporal_graph(rng, max_vertices=12, max_timestamps=6)
    g = TemporalGraph([f'{label}"q' if u in quoted else label for u, label in enumerate(g.labels)],
                      [g.edges_at(t) for t in range(g.t_max + 1)])
    result = engine(g)
    text = cores_to_csv(result)
    assert text == _csv_writer_reference(result)
    varied = _varied(text, variation, rng)

    loaded = read_cores(io.StringIO(varied), "csv")
    assert _labelled(loaded) == _labelled(result)
    assert cores_to_csv(loaded) == text

    canonical = serialize._canonical_csv_columns(varied)
    assert (canonical is not None) == ('"' not in text and variation in CSV_VARIATIONS[:2])
    columns, fault = serialize._parsed_csv_columns(varied)
    assert fault is None
    by_csv_reader = serialize._result_from_columns(*columns)
    assert by_csv_reader.cores == loaded.cores
    assert by_csv_reader.labels == loaded.labels
    if canonical is not None:
        assert list(map(list, canonical)) == list(map(list, columns))


def test_csv_reader_path_reads_fields_over_the_field_limit_and_restores_it():
    labels = [f"v{i:02d}" for i in range(40)]
    row = "1,0,0,40," + ";".join(labels)
    limit = csv.field_size_limit(50)
    try:
        loaded = read_cores(io.StringIO(f"k,t_s,t_e,size,members\r\n{row}\r\n"), "csv")
        assert csv.field_size_limit() == 50
        with pytest.raises(ValueError, match="line 3: expected 5 fields, got 2"):
            read_cores(io.StringIO(f"k,t_s,t_e,size,members\r\n{row}\r\n1,0\r\n"), "csv")
        assert csv.field_size_limit() == 50
    finally:
        csv.field_size_limit(limit)
    assert loaded.member_labels(loaded.cores[0]) == labels


@pytest.mark.parametrize("rows, message", [
    (["1,0,1,2,a\rb"], "line 3: new-line character seen in unquoted field"),
    (["1,0,1,3,a;b", "1,0,2,2,a\rb"], "line 3: size field 3 disagrees with 2 members"),
    (["1,0,1,3,a;b", "1,0"], "line 3: size field 3 disagrees with 2 members"),
    (["1,0", "1,0,1,3,a;b"], "line 3: expected 5 fields, got 2"),
    (['1,0,1,2,"a;a"', "1,0,1,x,a;b"], "line 3: member 'a' is listed twice"),
    (['1,0,1,2,"a;b"', "1,0,1,x,a;b"], "line 4: k, t_s, t_e and size must be integers"),
])
def test_csv_reader_faults_are_named_in_file_order(rows, message):
    text = "k,t_s,t_e,size,members\n1,0,0,2,a;b\n" + "".join(row + "\n" for row in rows)
    with pytest.raises(ValueError, match=message) as error:
        read_cores(io.StringIO(text), "csv")
    assert str(error.value).startswith(message)


VALID_RECORD = (1, 0, 0, 2, ["a", "b"])


def _core_file(records, form: str) -> str:
    if form == "jsonl":
        return "".join(json.dumps({"k": k, "t_s": t_s, "t_e": t_e, "members": members}) + "\n"
                       for k, t_s, t_e, _, members in records)
    text = "k,t_s,t_e,size,members\n" + "".join(
        f"{k},{t_s},{t_e},{size},{';'.join(members)}\n" for k, t_s, t_e, size, members in records)
    return text.replace("\n", "\r\n") if form == "csv by csv.reader" else text


@pytest.mark.parametrize("form", ["canonical csv", "csv by csv.reader", "jsonl"])
@pytest.mark.parametrize("records, csv_fault, jsonl_fault", [
    # Two faulty records: the earlier one is named, whatever its checks.
    ([VALID_RECORD, (1, 0, 1, 2, ["c", "c"]), (0, 1, 1, 1, ["d"])],
     (1, "member 'c' is listed twice"), (1, "member 'c' is listed twice")),
    ([VALID_RECORD, (1, 0, 1, 2, ["c", ""]), (0, 1, 1, 1, ["d"])],
     (1, "empty member label"), (1, "empty member label")),
    ([VALID_RECORD, (1, 0, 1, 2, ["c", "c"]), ("x", 1, 1, 1, ["d"])],
     (1, "member 'c' is listed twice"), (1, "member 'c' is listed twice")),
    ([VALID_RECORD, ("x", 0, 1, 1, ["d"]), (0, 1, 1, 1, ["d"])],
     (1, "k, t_s, t_e and size must be integers"), (1, "k, t_s and t_e must be integers")),
    ([VALID_RECORD, (1, 0, 1, 3, ["c", "d"]), (1, 1, 1, 2, ["c", "c"])],
     (1, "size field 3 disagrees with 2 members"), (2, "member 'c' is listed twice")),
    # One record with several faults: the first in the order of the checks.
    ([VALID_RECORD, (0, 3, 1, 9, ["a", "a", ""])],
     (1, "size field 9 disagrees with 3 members"), (1, "order 0 must be at least 1")),
    ([VALID_RECORD, (0, 3, 1, 3, ["a", "a", ""])],
     (1, "order 0 must be at least 1"), (1, "order 0 must be at least 1")),
    ([VALID_RECORD, (1, 3, 1, 3, ["a", "a", ""])],
     (1, "interval [3,1] needs 0 <= t_s <= t_e"), (1, "interval [3,1] needs 0 <= t_s <= t_e")),
    ([VALID_RECORD, (1, 0, 0, 0, [])],
     (1, "a core needs at least one member"), (1, "a core needs at least one member")),
    ([VALID_RECORD, (1, 0, 0, 3, ["a", "a", ""])],
     (1, "member 'a' is listed twice"), (1, "member 'a' is listed twice")),
    ([VALID_RECORD, (1, 0, 0, 2, ["c", ""])], (1, "empty member label"), (1, "empty member label")),
    ([VALID_RECORD, (1, 0, 0, 2, ["a", "c"])],
     (1, "a second core of order 1 over [0,0]"), (1, "a second core of order 1 over [0,0]")),
    # Out of order: the faulty record is still named by its own line.
    ([(1, 1, 1, 1, ["a"]), (1, 0, 0, 1, ["a"]), (1, 0, 1, 2, ["b", "b"])],
     (2, "member 'b' is listed twice"), (2, "member 'b' is listed twice")),
    ([(1, 2, 2, 1, ["a"]), (1, 0, 0, 1, ["b"]), (1, 1, 1, 1, ["a"]), (1, 0, 0, 1, ["c"])],
     (3, "a second core of order 1 over [0,0]"), (3, "a second core of order 1 over [0,0]")),
    ([(1, 1, 1, 1, ["a"]), (1, 0, 0, 1, ["a"]), (1, 0, 2, 3, ["a", "b"])],
     (2, "size field 3 disagrees with 2 members"), None),
])
def test_the_first_fault_in_file_order_is_named(records, csv_fault, jsonl_fault, form):
    text = _core_file(records, form)
    fmt = "jsonl" if form == "jsonl" else "csv"
    assert (serialize._canonical_csv_columns(text) is not None) == (form == "canonical csv")
    fault = jsonl_fault if fmt == "jsonl" else csv_fault
    if fault is None:
        assert len(read_cores(io.StringIO(text), fmt).cores) == len(records)
        return
    index, problem = fault
    line = index + 1 if fmt == "jsonl" else index + 2
    with pytest.raises(ValueError) as error:
        read_cores(io.StringIO(text), fmt)
    assert str(error.value) == f"line {line}: {problem}"


@pytest.fixture(scope="module")
def data_path_inputs() -> dict:
    """What each step of the data path is handed: a 200-vertex community graph
    and its cores, and a sparse graph with empty windows read at --window 10."""
    g = community_temporal_graph(200, 30, communities=4)
    text = "".join(line + "\n" for line in contact_lines(g))
    full = span_cores(g)
    raw = [(u, v, 50 * int(t) + 3)
           for u, v, t in map(str.split, contact_lines(planted_clique_graph()))]
    sparse = ingest_contacts(raw, window=10)
    return {"g": g, "text": text, "contacts": parse_contact_lines(io.StringIO(text))[0],
            "full": full, "csv": cores_to_csv(full), "jsonl": cores_to_jsonl(full),
            "raw": raw, "sparse": sparse, "sparse_maximal": maximal_span_cores(sparse)}


DATA_PATH_STEPS = {
    "parse canonical text": lambda d: parse_contact_lines(io.StringIO(d["text"])),
    "parse other text": lambda d: parse_contact_lines(io.StringIO(d["text"].replace(" ", ", "))),
    "ingest": lambda d: ingest_contacts(d["contacts"]),
    "ingest windowed": lambda d: ingest_contacts(d["raw"], window=10),
    "naive engine": lambda d: naive_span_cores(d["g"]),
    "pruned engine": lambda d: span_cores(d["g"]),
    "filter engine": lambda d: naive_maximal_span_cores(d["g"]),
    "direct engine": lambda d: maximal_span_cores(d["g"]),
    "write csv": lambda d: cores_to_csv(d["full"]),
    "write jsonl": lambda d: cores_to_jsonl(d["full"]),
    "read csv": lambda d: read_cores(io.StringIO(d["csv"]), "csv"),
    "read jsonl": lambda d: read_cores(io.StringIO(d["jsonl"]), "jsonl"),
    "stats and grid": lambda d: (stats_by_order(d["full"]), stats_by_span(d["full"]),
                                 activity_grid(d["full"], min_span=2)),
    "detect anomalies": lambda d: detect_anomalies(d["sparse"], d["sparse_maximal"], tr=3,
                                                   ratio=1.5),
    "reshuffle": lambda d: reshuffle_timestamps(d["sparse"], seed=7),
    "contact lines": lambda d: list(contact_lines(d["sparse"])),
}


@pytest.mark.parametrize("step", DATA_PATH_STEPS)
def test_the_data_path_leaves_no_cyclic_garbage(data_path_inputs, step):
    """The CLI pauses the cyclic collector for a whole command; that is safe
    only while no step of the data path builds a reference cycle. While the
    collector is paused, all that the step allocates stays in the youngest
    generation, so collecting that generation alone finds its cycles."""
    gc.collect(0)
    gc.disable()
    try:
        result = DATA_PATH_STEPS[step](data_path_inputs)
        del result
        assert gc.collect(0) == 0
    finally:
        gc.enable()


class TestMetrics:
    def test_shape(self, g_ex):
        payload = json.loads(metrics_to_json(span_cores(g_ex).metrics, 0.0123456))
        assert set(payload) == {"processed_vertices", "cores", "elapsed_ms"}
        assert payload["processed_vertices"] == 19
        assert payload["cores"] == 9
        assert payload["elapsed_ms"] == 12.346


class TestTables:
    def test_float_rendering_is_stable(self):
        text = table_to_csv(["k", "count", "mean_size"], [(1, 6, 16 / 6)])
        assert text == "k,count,mean_size\n1,6,2.666666667\n"

    def test_header_only_when_empty(self):
        assert table_to_csv(["t", "purity"], []) == "t,purity\n"
