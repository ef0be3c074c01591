"""Engines and analyses on graphs with runs of empty timestamps.

The engines and analyses visit only the non-empty timestamps; these tests
hold them to the definition-level oracles and to the reference versions in
conftest that walk every timestamp.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from spancores import (
    contact_lines,
    detect_anomalies,
    maximal_span_cores,
    naive_maximal_span_cores,
    naive_span_cores,
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


@settings(max_examples=100, deadline=None)
@given(gappy_temporal_graphs())
def test_contact_lines_match_reference(g):
    assert list(contact_lines(g)) == list(reference_contact_lines(g))
