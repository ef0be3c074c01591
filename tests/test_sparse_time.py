"""Engines and analyses on graphs with runs of empty timestamps.

The engines and analyses visit only the non-empty timestamps; these tests
hold them to the definition-level oracles and to the reference versions in
conftest that walk every timestamp.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spancores import (
    TemporalGraph,
    contact_lines,
    detect_anomalies,
    ingest_contacts,
    maximal_span_cores,
    naive_maximal_span_cores,
    naive_span_cores,
    parse_contact_lines,
    precision_recall,
    reshuffle_timestamps,
    span_cores,
)
from .conftest import (
    as_triples,
    canonical_dump,
    gappy_temporal_graphs,
    oracle_maximal,
    oracle_span_cores,
    reference_contact_lines,
    reference_detect_anomalies,
    reference_precision_recall,
    reference_reshuffle_timestamps,
)


@settings(max_examples=150, deadline=None)
@given(gappy_temporal_graphs())
def test_engines_match_the_oracles(g):
    full = oracle_span_cores(g)
    assert as_triples(naive_span_cores(g)) == full
    assert as_triples(span_cores(g)) == full
    maximal = oracle_maximal(full)
    assert as_triples(naive_maximal_span_cores(g)) == maximal
    assert as_triples(maximal_span_cores(g)) == maximal


@settings(max_examples=100, deadline=None)
@given(gappy_temporal_graphs(), st.integers(0, 2 ** 16))
def test_null_model_matches_reference(g, seed):
    assert (canonical_dump(reshuffle_timestamps(g, seed=seed))
            == canonical_dump(reference_reshuffle_timestamps(g, seed=seed)))


def _assert_the_constructor_builds_it(derived):
    """A graph built without the constructor's checks must be one it builds.

    The null model and the anomaly pass hand their parts straight to
    TemporalGraph._from_canonical, so nothing else stops an empty timestamp
    being listed as non-empty or an edge set that is not a frozenset.
    """
    rebuilt = TemporalGraph(derived.labels,
                            [derived.edges_at(t) for t in range(derived.t_max + 1)])
    assert canonical_dump(derived) == canonical_dump(rebuilt)
    assert derived.nonempty_times == rebuilt.nonempty_times
    assert derived.contact_count() == rebuilt.contact_count()
    assert all(type(derived.edges_at(t)) is frozenset for t in derived.nonempty_times)


@settings(max_examples=100, deadline=None)
@given(gappy_temporal_graphs(), st.integers(0, 2 ** 16))
def test_null_model_builds_a_graph_the_constructor_accepts(g, seed):
    _assert_the_constructor_builds_it(reshuffle_timestamps(g, seed=seed))


@settings(max_examples=100, deadline=None)
@given(gappy_temporal_graphs(), st.integers(1, 4),
       st.one_of(st.none(), st.sampled_from([1.0, 1.5, 3.0])))
def test_anomaly_pass_builds_a_graph_the_constructor_accepts(g, tr, ratio):
    report = detect_anomalies(g, maximal_span_cores(g), tr=tr, ratio=ratio)
    _assert_the_constructor_builds_it(report.surviving)


def _report_fields(report):
    return (report.anomalous_intervals, report.anomalous_vertices_by_time,
            report.dropped_timestamps, canonical_dump(report.surviving))


@settings(max_examples=100, deadline=None)
@given(gappy_temporal_graphs(), st.integers(1, 4),
       st.one_of(st.none(), st.sampled_from([1.0, 1.5, 3.0])), st.data())
def test_anomaly_pass_and_scores_match_reference(g, tr, ratio, data):
    maximal = maximal_span_cores(g)
    report = detect_anomalies(g, maximal, tr=tr, ratio=ratio)
    expected = reference_detect_anomalies(g, maximal, tr=tr, ratio=ratio)
    assert _report_fields(report) == _report_fields(expected)
    # The report counts removals only at non-empty timestamps, where the
    # reference's dense counts must agree; nothing is removed elsewhere.
    assert report.removed_contacts == {t: expected.removed_contacts[t] for t in g.nonempty_times}
    assert not any(count for t, count in expected.removed_contacts.items()
                   if t not in report.removed_contacts)
    positives = data.draw(st.sets(st.integers(0, g.t_max)))
    assert (precision_recall(g, report, positives)
            == reference_precision_recall(g, expected, positives))


def test_anomaly_pass_and_null_model_match_reference_at_benchmark_scale(tmp_path,
                                                                       monkeypatch):
    """The first anomaly-sparse benchmark instance: thousands of timestamps, most empty."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    workloads.generate("anomaly-sparse", 777, tmp_path)
    with open(tmp_path / "i0.txt", encoding="utf-8") as handle:
        contacts, _ = parse_contact_lines(handle)
    g = ingest_contacts(contacts, window=workloads.WINDOW, origin=0)
    assert g.t_max > 5000 and len(g.nonempty_times) < 0.2 * (g.t_max + 1)
    maximal = maximal_span_cores(g)
    report = detect_anomalies(g, maximal, tr=5, ratio=1.5)
    expected = reference_detect_anomalies(g, maximal, tr=5, ratio=1.5)
    assert report.anomalous_intervals
    assert _report_fields(report) == _report_fields(expected)
    assert report.removed_contacts == {t: expected.removed_contacts[t] for t in g.nonempty_times}
    assert (canonical_dump(reshuffle_timestamps(g, seed=7))
            == canonical_dump(reference_reshuffle_timestamps(g, seed=7)))


@settings(max_examples=100, deadline=None)
@given(gappy_temporal_graphs())
def test_contact_lines_match_reference(g):
    assert list(contact_lines(g)) == list(reference_contact_lines(g))


def test_contact_lines_order_labels_that_run_against_vertex_ids():
    """Vertex 0 carries the last label, so each pair's labels come swapped."""
    g = TemporalGraph(["c", "b", "a"], [{(0, 1), (1, 2)}, set(), {(0, 2)}])
    assert list(contact_lines(g)) == list(reference_contact_lines(g)) == [
        "a b 0", "b c 0", "a c 2"]
