from __future__ import annotations

import io
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spancores
from spancores import (
    Interval,
    TemporalGraph,
    contact_lines,
    ingest_contacts,
    parse_contact_lines,
)
from spancores import temporal_graph
from spancores.temporal_graph import edge_diff_sets, edges_in_interval
from .conftest import (
    canonical_dump,
    contains,
    gappy_temporal_graphs,
    interval_edges,
    random_temporal_graph,
    reference_ingest_contacts,
    reference_parse_contact_lines,
    sticky_temporal_graphs,
    writable_label,
)

# Dense random graphs, and graphs on sparse time, where interval edge walks
# stop at runs of empty timestamps, start on empty timestamps and reach t_max.
WALK_GRAPHS = (st.integers(0, 2 ** 32).map(lambda seed: random_temporal_graph(
    random.Random(seed), max_vertices=12, max_timestamps=8))
    | gappy_temporal_graphs() | sticky_temporal_graphs())


class TestInterval:
    def test_width_and_containment(self):
        assert Interval(0, 0).width == 1
        assert Interval(2, 5).width == 4
        assert contains(Interval(0, 5), Interval(2, 4))
        assert contains(Interval(2, 4), Interval(2, 4))
        assert not contains(Interval(2, 4), Interval(1, 4))
        assert not contains(Interval(2, 4), Interval(2, 5))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Interval(-1, 0)
        with pytest.raises(ValueError):
            Interval(3, 2)

    @given(st.tuples(st.integers(0, 10), st.integers(0, 10)),
           st.tuples(st.integers(0, 10), st.integers(0, 10)),
           st.tuples(st.integers(0, 10), st.integers(0, 10)))
    def test_containment_is_a_partial_order(self, a, b, c):
        ivs = [Interval(min(x), max(x)) for x in (a, b, c)]
        x, y, z = ivs
        assert contains(x, x)
        if contains(x, y) and contains(y, x):
            assert x == y
        if contains(x, y) and contains(y, z):
            assert contains(x, z)


class TestConstruction:
    def test_canonicalizes_and_dedups(self):
        g = TemporalGraph(["a", "b"], [[(1, 0), (0, 1)]])
        assert g.edges_at(0) == frozenset({(0, 1)})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            TemporalGraph(["a"], [[(0, 0)]])

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            TemporalGraph(["a", "b"], [[(0, 2)]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            TemporalGraph(["a", "a"], [[]])

    @pytest.mark.parametrize("label", ["a;b", "a,b", "a b", "", "#x"])
    def test_rejects_the_labels_ingest_rejects(self, label):
        # Each would write a core file or contact lines that do not read back.
        triangle = {(0, 1), (1, 2), (0, 2)}
        with pytest.raises(ValueError) as built:
            TemporalGraph([label, "c", "d"], [triangle])
        with pytest.raises(ValueError) as ingested:
            ingest_contacts([(label, "c", 0), ("c", "d", 0), (label, "d", 0)])
        assert str(built.value) == str(ingested.value)
        assert str(built.value).startswith(f"vertex label {label!r} ")

    def test_rejects_empty_time_domain(self):
        with pytest.raises(ValueError):
            TemporalGraph(["a"], [])

    def test_lists_only_the_nonempty_timestamps(self):
        g = TemporalGraph(["a", "b"], [set(), {(1, 0)}, set(), {(0, 1)}, set()])
        assert g.t_max == 4
        assert g.nonempty_times == (1, 3)
        assert g.edges_at(2) == frozenset()
        assert g.contact_count() == 2
        with pytest.raises(ValueError, match="outside"):
            g.edges_at(5)

    def test_from_canonical_equals_the_constructor(self):
        # Keys need not arrive in time order; the non-empty times come out sorted.
        built = TemporalGraph._from_canonical(
            ["a", "b", "c"], 6, {5: frozenset({(1, 2)}), 1: frozenset({(0, 1)})})
        dense = TemporalGraph(["a", "b", "c"], [(), [(1, 0)], (), (), (), [(2, 1)], ()])
        assert built.nonempty_times == dense.nonempty_times == (1, 5)
        assert canonical_dump(built) == canonical_dump(dense)


class TestIngest:
    def test_windowing_example(self):
        contacts = [("a", "b", 0), ("a", "b", 10), ("b", "a", 25), ("a", "c", 70)]
        g = ingest_contacts(contacts, window=60)
        assert g.t_max == 1
        assert g.edges_at(0) == frozenset({(0, 1)})
        assert g.edges_at(1) == frozenset({(0, 2)})

    def test_first_seen_label_order(self):
        g = ingest_contacts([("x", "q", 3), ("q", "a", 4)])
        assert g.labels == ("x", "q", "a")

    def test_self_loop_dropped_but_counted(self):
        g = ingest_contacts([("a", "a", 5)])
        assert g.vertex_count == 1
        assert g.t_max == 0
        assert g.edges_at(0) == frozenset()

    def test_empty_windows_kept(self):
        g = ingest_contacts([("a", "b", 0), ("a", "b", 9)], window=3)
        assert g.t_max == 3
        assert g.edges_at(1) == frozenset()
        assert g.edges_at(2) == frozenset()

    def test_origin_defaults_to_earliest(self):
        g = ingest_contacts([("a", "b", 100), ("b", "c", 101)])
        assert g.t_max == 1

    def test_explicit_origin_keeps_timestamps_verbatim(self):
        g = ingest_contacts([("a", "b", 4)], window=1, origin=0)
        assert g.t_max == 4
        assert g.edges_at(4) == frozenset({(0, 1)})

    def test_time_before_origin_rejected(self):
        with pytest.raises(ValueError, match="precedes origin"):
            ingest_contacts([("a", "b", 2)], origin=5)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="no contacts"):
            ingest_contacts([])

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ingest_contacts([("a", "b", 0)], window=0)

    def test_ingest_is_idempotent_on_discrete_output(self):
        rng = random.Random(7)
        g = random_temporal_graph(rng)
        lines = list(contact_lines(g))
        contacts, skipped = parse_contact_lines(lines)
        assert skipped == 0
        again = ingest_contacts(contacts, window=1, origin=0)
        assert canonical_dump(again) == canonical_dump(g)


    @pytest.mark.parametrize("label", ["a;x", "a\nx", "x\r", "a,x", "a b", "#a", ""])
    def test_label_that_cannot_be_serialized_rejected(self, label):
        with pytest.raises(ValueError, match="vertex label"):
            ingest_contacts([("b", "c", 0), (label, "b", 1)])


class TestParse:
    def test_whitespace_and_comma_forms(self):
        contacts, skipped = parse_contact_lines(["a b 1", "c,d,2", "  e\tf  3 "])
        assert list(contacts) == [("a", "b", 1), ("c", "d", 2), ("e", "f", 3)]
        assert skipped == 0

    def test_comments_and_blanks_skipped(self):
        contacts, skipped = parse_contact_lines(["# header", "", "a b 1"])
        assert list(contacts) == [("a", "b", 1)]
        assert skipped == 0

    def test_strict_reports_line_number(self):
        with pytest.raises(ValueError, match=r"^line 2: expected three fields: 'a b'$"):
            parse_contact_lines(["a b 1", "a b"], strict=True)

    def test_lenient_counts_skips(self):
        lines = ["a b 1", "broken", "a b x", "a b -3", "a b 2"]
        contacts, skipped = parse_contact_lines(lines, strict=False)
        assert len(contacts) == 2
        assert skipped == 3


_LABELS = st.sampled_from(["a", "b", "é", "x;y", "", "#c", "c d"])
_TIMES = st.integers(-2, 3).map(str)
_FIELDS = st.one_of(_LABELS, _TIMES, st.sampled_from(["1.5", "t", "+2", " 7 ", "1_0", "٣"]))
_SEPARATORS = st.sampled_from([" ", "\t", "  ", ",", " , ", ",\t"])


@st.composite
def _contact_lines(draw) -> str:
    """One line of a contact file: well-formed, commented, blank or broken."""
    fields = draw(st.one_of(st.tuples(_LABELS, _LABELS, _TIMES), st.lists(_FIELDS, max_size=4)))
    line = draw(st.sampled_from(["", " ", "\t", "#", " # "]))
    for i, field in enumerate(fields):
        line += (draw(_SEPARATORS) if i else "") + field
    return line + draw(st.sampled_from(["", "\n", " \n", "\t", "\r\n"]))


# Canonical contact text, by a definition independent of the parser's check:
# lines "label label digits" with single spaces, each ending in a newline,
# whose labels are printable ASCII other than '#' and ','.
_CANONICAL_TEXT = re.compile(r"(?:[!-\"$-+\--~]+ [!-\"$-+\--~]+ [0-9]+\n)+")
_CANONICAL_LABELS = st.text(alphabet=[chr(c) for c in range(0x21, 0x7F) if chr(c) not in "#,"],
                            min_size=1, max_size=3)

# Canonical text of 9,000 lines with self-loops and zero-padded times.
_LONG_LINES = [f"v{i % 53} v{i * 7 % 59} {i // 90:03d}\n" for i in range(9000)]
_LONG_TEXT = "".join(_LONG_LINES)
assert len(_LONG_TEXT) > temporal_graph._CHUNK_CHARS

# Canonical text and texts one step from it, read through a stream.
_STREAM_TEXTS = {
    "canonical": "a b 3\nb c 3\nc a 5\nd e 4\n",
    "double-space": "a b 3\nb  c 3\nc a 5\n",
    "trailing-space": "a b 3\nb c 3 \nc a 5\n",
    "no-final-newline": "a b 3\nb c 3\nc a 5",
    "lone-cr": "a b 3\rb c 3\nc a 5\n",
    "crlf": "a b 3\r\nb c 3\r\nc a 5\r\n",
    "non-ascii-label": "a b 3\n\u00e9 c 3\nc a 5\n",
    "tab": "a b 3\nb\tc 3\nc a 5\n",
    "file-separator": "a b 3\nb\x1cc 3\nc a 5\n",
    # Two spaces and a newline per line, but not three fields per line.
    "double-space-two-fields": "1  2\n3 4 5\n",
    "leading-space": " 1 2\n3 4 5\n",
    "trailing-space-two-fields": "1 2 \n3 4 5\n",
    "text-after-last-newline": "1 2 3\n4",
    "empty-field-and-text-after-last-newline": "1  2\n3 4 5\n6",
    "tab-field": "1 \t 2\n3\t4 5 6\n",
    "file-separator-field": "1 \x1c 2\n3\x1c4 5 6\n",
    "vertical-tab-field": "1 \x0b 2\n3\x0b4 5 6\n",
    "comment-line": "# contacts\na b 3\nb c 3\n",
    "comma-line": "a b 3\nb,c,3\nc a 5\n",
    "blank-line": "a b 3\n\nb c 3\n",
    "empty": "",
    "two-fields": "a b 3\nb c\n",
    "plus-time": "a b +5\nb c 3\n",
    "underscore-time": "a b 1_0\nb c 3\n",
    "negative-time": "a b -3\nb c 3\n",
    "leading-zeros": "a b 007\nb c 7\nc a 3\n",
    "too-many-digits": "a b 3\nb c " + "9" * 5000 + "\n",
    "self-loop": "a a 2\nb c 3\n",
    "duplicate": "a b 3\na b 3\nb a 3\n",
    "unsorted": "c a 9\na b 3\nb c 6\nd a 0\n",
    "semicolon-label": "a b 3\nx;y c 4\n",
    # Longer than one chunk of the column path, with a fault in the last chunk.
    "long": _LONG_TEXT,
    "long-empty-field-at-end": _LONG_TEXT + "1  2\n",
    "long-plus-time-at-end": _LONG_TEXT + "a b +5\n",
    "long-too-many-digits-at-end": _LONG_TEXT + "a b " + "9" * 5000 + "\n",
    # Canonical chunks after and around line-parsed ones: line numbers count them all.
    "comment-then-long": "# header\n" + _LONG_TEXT,
    "long-with-tab-line-and-fault-at-end": "".join(
        [*_LONG_LINES[:4500], "v1\tv2 050\n", *_LONG_LINES[4500:], "a b\n"]),
}


def _splits():
    """Patch the per-chunk splitter with a spy; the list records whether it took each chunk."""
    split = temporal_graph._split_canonical
    taken = []

    def spy(*args):
        line_count = split(*args)
        taken.append(line_count > 0)
        return line_count

    return mock.patch.object(temporal_graph, "_split_canonical", spy), taken


def _parse_outcome(parse, lines, strict):
    try:
        contacts, skipped = parse(lines, strict=strict)
    except ValueError as error:
        return str(error)
    return list(contacts), skipped


def _contact_line_numbers(lines):
    """The 1-based number of each line that holds a contact, by parsing every line alone."""
    return [number for number, line in enumerate(lines, start=1)
            if reference_parse_contact_lines([line], strict=False)[0]]


def _lines_of(contacts):
    return [contacts.line_of(i) for i in range(len(contacts))]


def _ingest_outcome(ingest, contacts, window, origin):
    try:
        g = ingest(contacts, window=window, origin=origin)
    except ValueError as error:
        return str(error)
    return g.labels, canonical_dump(g)


def _assert_ingests_like_reference(contacts, expected, window, origin):
    """ingest_contacts(contacts) matches the reference ingest of the contact list
    `expected`, except that where the reference would build a graph, a label
    no file can carry is rejected, the first such label in file order."""
    outcome = _ingest_outcome(ingest_contacts, contacts, window, origin)
    reference = _ingest_outcome(reference_ingest_contacts, expected, window, origin)
    labels = dict.fromkeys(label for u, v, _ in expected for label in (u, v))
    unwritable = [label for label in labels if not writable_label(label)]
    if unwritable and not isinstance(reference, str):
        assert outcome.startswith(f"vertex label {unwritable[0]!r} ")
    else:
        assert outcome == reference


class TestReferenceEquivalence:
    """The optimized parser and ingest agree with the reference versions in conftest."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_contact_lines(), max_size=10), st.booleans())
    def test_parse_matches_reference(self, lines, strict):
        assert (_parse_outcome(parse_contact_lines, lines, strict)
                == _parse_outcome(reference_parse_contact_lines, lines, strict))
        contacts, _ = parse_contact_lines(lines, strict=False)
        assert _lines_of(contacts) == _contact_line_numbers(lines)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(["a", "b", "c", "é"]),
                           st.sampled_from(["a", "b", "c", "é"]),
                           st.integers(0, 30)), max_size=12),
        st.integers(0, 5),
        st.one_of(st.none(), st.integers(0, 12)),
        st.integers(0, 30),
    )
    def test_ingest_matches_reference(self, drawn, window, origin, loop_time):
        """The same contacts ingest like the reference whichever form they arrive in.

        A self-loop of a new label sits in the middle: its label and time count.
        The text forms are read in one-line chunks, then whole, so canonical
        chunks and line-parsed ones number labels and times in one run.
        """
        half = len(drawn) // 2
        contacts = [*drawn[:half], ("s", "s", loop_time), *drawn[half:]]
        reference = _ingest_outcome(reference_ingest_contacts, contacts, window, origin)
        lines = [f"{u} {v} {t}\n" for u, v, t in contacts]
        # A header, a skipped line whose labels must not count, and the
        # self-loop as a comma line after them, in a later chunk.
        mixed = "".join(["# header\n", *lines[:half], "z y\n", f"s, s, {loop_time}\n",
                         *lines[half + 1:]])
        assert _ingest_outcome(ingest_contacts, contacts, window, origin) == reference
        for chunk_chars in (1, temporal_graph._CHUNK_CHARS):
            with mock.patch.object(temporal_graph, "_CHUNK_CHARS", chunk_chars):
                for form, skips in ((lines, 0), (io.StringIO("".join(lines)), 0),
                                    (io.StringIO(mixed), 1)):
                    parsed, skipped = parse_contact_lines(form, strict=False)
                    assert skipped == skips
                    assert (_ingest_outcome(ingest_contacts, parsed, window, origin)
                            == reference)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_contact_lines(), max_size=10), st.integers(1, 4),
           st.one_of(st.none(), st.integers(0, 12)))
    def test_parsed_lines_ingest_like_reference(self, lines, window, origin):
        contacts, _ = parse_contact_lines(lines, strict=False)
        contacts = [c for c in contacts if writable_label(c[0]) and writable_label(c[1])]
        assert (_ingest_outcome(ingest_contacts, contacts, window, origin)
                == _ingest_outcome(reference_ingest_contacts, contacts, window, origin))

    @pytest.mark.parametrize("source", ["string", "file"])
    @pytest.mark.parametrize("text", _STREAM_TEXTS.values(), ids=_STREAM_TEXTS.keys())
    def test_stream_parses_and_ingests_like_reference(self, tmp_path, source, text):
        """A text stream reads like the reference on the lines the same stream yields."""
        path = tmp_path / "contacts.txt"
        path.write_text(text, encoding="utf-8", newline="")

        def stream():
            if source == "string":
                return io.StringIO(text)
            return path.open(encoding="utf-8")

        with stream() as handle:
            lines = list(handle)
        expected, skipped = reference_parse_contact_lines(lines, strict=False)
        with stream() as handle:
            canonical = _CANONICAL_TEXT.fullmatch(handle.read()) is not None and not skipped
        after_earliest = min((t for _, _, t in expected), default=0) + 1
        for chunk_chars in (1, 7, temporal_graph._CHUNK_CHARS):
            with mock.patch.object(temporal_graph, "_CHUNK_CHARS", chunk_chars):
                for strict in (True, False):
                    with stream() as handle:
                        assert (_parse_outcome(parse_contact_lines, handle, strict)
                                == _parse_outcome(reference_parse_contact_lines, lines, strict))
                spy, taken = _splits()
                with spy, stream() as handle:
                    contacts, _ = parse_contact_lines(handle, strict=False)
            assert (bool(taken) and all(taken)) == canonical
            assert _lines_of(contacts) == _contact_line_numbers(lines)
        # `contacts` is from the default chunk size, the last one above.
        for window in (1, 2, 3, 4):
            for origin in (None, 0, after_earliest):
                _assert_ingests_like_reference(contacts, expected, window, origin)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_CANONICAL_LABELS, _CANONICAL_LABELS,
                              st.from_regex(r"[0-9]{1,3}", fullmatch=True)),
                    min_size=1, max_size=12),
           st.integers(1, 4), st.one_of(st.none(), st.integers(0, 12)), st.integers(1, 30))
    def test_canonical_text_reads_as_columns(self, rows, window, origin, chunk_chars):
        """Generated canonical text is split chunk by chunk and reads like the reference."""
        lines = [f"{u} {v} {t}\n" for u, v, t in rows]
        spy, taken = _splits()
        with spy, mock.patch.object(temporal_graph, "_CHUNK_CHARS", chunk_chars):
            contacts, skipped = parse_contact_lines(io.StringIO("".join(lines)))
        expected, _ = reference_parse_contact_lines(lines)
        assert taken and all(taken) and skipped == 0
        assert len(contacts) == len(expected)
        assert list(contacts) == expected
        assert _lines_of(contacts) == _contact_line_numbers(lines)
        _assert_ingests_like_reference(contacts, expected, window, origin)


# One character, maybe with a plain neighbour, that a contact line or a core
# file treats specially.
_ODD_LABEL = st.builds("{}{}{}".format, st.sampled_from(["", "x"]),
                       st.sampled_from(list("#,; \t\n\r\x0b\x1c\x85\u2028")),
                       st.sampled_from(["", "x"]))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=3) | _ODD_LABEL,
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 40)),
                min_size=1, max_size=8),
       st.integers(1, 4), st.one_of(st.none(), st.integers(0, 3)))
def test_contact_lines_read_back_to_the_same_graph(odd, picks, window, origin):
    """Every graph ingest accepts, contact_lines writes in a form that reads back.

    One arbitrary label mixes with plain ones, so a rejection can only be its fault.
    """
    pool = ["a", "b", "é", odd]
    contacts = [(pool[i], pool[j], t) for i, j, t in picks if pool[i] != pool[j]]
    assume(contacts)
    labels = {label for u, v, _ in contacts for label in (u, v)}
    origin = None if origin is None else min(origin, min(t for _, _, t in contacts))
    try:
        g = ingest_contacts(contacts, window=window, origin=origin)
    except ValueError:
        assert not all(map(writable_label, labels))
        return
    assert all(map(writable_label, labels))
    parsed, skipped = parse_contact_lines(line + "\n" for line in contact_lines(g))
    assert skipped == 0
    assert canonical_dump(ingest_contacts(parsed, window=1, origin=0)) == canonical_dump(g)


class TestEdgeWalk:
    @settings(max_examples=100, deadline=None)
    @given(WALK_GRAPHS)
    def test_yields_each_non_empty_interval_of_a_start_in_order(self, g):
        for t_s in range(g.t_max + 1):
            expected = []
            for t_e in range(t_s, g.t_max + 1):
                edges = interval_edges(g, t_s, t_e)
                if not edges:
                    break
                expected.append((t_e, edges))
            assert list(temporal_graph._edge_walk(g, t_s)) == expected


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        namespace = {}
        exec("from spancores import *", namespace)
        for name in spancores.__all__:
            assert namespace[name] is getattr(spancores, name)

    def test_interval_edge_sets_are_engine_internals(self):
        for name in ("EdgeDiffSets", "edge_diff_sets", "edges_in_interval"):
            assert name not in spancores.__all__
            assert not hasattr(spancores, name)
        assert not hasattr(temporal_graph, "EdgeDiffSets")


class TestIntervalEdges:
    def test_fixture_values(self, g_ex):
        assert edges_in_interval(g_ex, Interval(0, 1)) == frozenset({(0, 1), (1, 2), (0, 2)})
        assert edges_in_interval(g_ex, Interval(0, 2)) == frozenset({(0, 1)})
        assert edges_in_interval(g_ex, Interval(1, 2)) == frozenset({(0, 1)})

    def test_out_of_range_rejected(self, g_ex):
        with pytest.raises(ValueError):
            edges_in_interval(g_ex, Interval(0, 3))

    @settings(max_examples=100, deadline=None)
    @given(WALK_GRAPHS)
    def test_anti_monotone_under_widening(self, g):
        for t_s in range(g.t_max + 1):
            previous = None
            for t_e in range(t_s, g.t_max + 1):
                edges = edges_in_interval(g, Interval(t_s, t_e))
                assert edges == interval_edges(g, t_s, t_e)
                if previous is not None:
                    assert edges <= previous
                previous = edges


class TestEdgeDiffSets:
    def test_fixture_values(self, g_ex):
        t_star, removed, surviving = edge_diff_sets(g_ex, 0)
        assert t_star == 2
        assert removed == [frozenset({(2, 3)}), frozenset({(1, 2), (0, 2)})]
        assert surviving == frozenset({(0, 1)})

    def test_empty_start_signals_none(self):
        g = TemporalGraph(["a", "b"], [set(), {(0, 1)}])
        assert edge_diff_sets(g, 0) is None

    @settings(max_examples=100, deadline=None)
    @given(WALK_GRAPHS)
    def test_reconstruction_matches_direct_intersections(self, g):
        for t_s in range(g.t_max + 1):
            diff = edge_diff_sets(g, t_s)
            if diff is None:
                assert not interval_edges(g, t_s, t_s)
                continue
            t_star, removed, surviving = diff
            assert len(removed) == t_star - t_s
            # storage bound: the diff sets and the surviving set partition E_start
            assert sum(len(r) for r in removed) + len(surviving) == len(g.edges_at(t_s))
            assert surviving == interval_edges(g, t_s, t_star)
            edges = set(g.edges_at(t_s))
            for chunk in removed:
                edges -= chunk
            assert edges == interval_edges(g, t_s, t_star)
            for t_e in range(t_star + 1, g.t_max + 1):
                assert not interval_edges(g, t_s, t_e)
            for t_e in range(t_star - 1, t_s - 1, -1):
                edges |= removed[t_e - t_s]
                assert edges == interval_edges(g, t_s, t_e)


class TestDumps:
    def test_canonical_dump_shape(self, g_ex):
        dump = canonical_dump(g_ex)
        assert dump.splitlines() == [
            "0: (a,b) (a,c) (b,c) (c,d)",
            "1: (a,b) (a,c) (b,c)",
            "2: (a,b)",
        ]

    def test_empty_timestamp_renders_bare(self):
        g = TemporalGraph(["a", "b"], [set(), {(0, 1)}])
        assert canonical_dump(g).splitlines()[0] == "0:"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_dump_equality_is_graph_equality(self, seed):
        rng = random.Random(seed)
        g = random_temporal_graph(rng, max_vertices=8, max_timestamps=4)
        h = TemporalGraph(g.labels, [g.edges_at(t) for t in range(g.t_max + 1)])
        assert canonical_dump(g) == canonical_dump(h)
