"""Span-core decomposition and maximal span-core mining for temporal graphs."""

from .analysis import (
    AnomalyReport,
    AttributeTable,
    PurityCurve,
    activity_grid,
    detect_anomalies,
    precision_recall,
    purity_curve,
    reshuffle_timestamps,
    stats_by_order,
    stats_by_span,
)
from .core_kernel import CoreLabeling, core_decomposition, innermost_core
from .maximal import (
    MaximalTrace,
    TraceStep,
    maximal_span_cores,
    naive_maximal_span_cores,
)
from .span_cores import (
    DecompositionResult,
    RunMetrics,
    SpanCore,
    naive_span_cores,
    span_cores,
)
from .temporal_graph import (
    EdgeDiffSets,
    Interval,
    TemporalGraph,
    contact_lines,
    edge_diff_sets,
    edges_in_interval,
    ingest_contacts,
    parse_contact_lines,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyReport",
    "AttributeTable",
    "CoreLabeling",
    "DecompositionResult",
    "EdgeDiffSets",
    "Interval",
    "MaximalTrace",
    "PurityCurve",
    "RunMetrics",
    "SpanCore",
    "TemporalGraph",
    "TraceStep",
    "activity_grid",
    "contact_lines",
    "core_decomposition",
    "detect_anomalies",
    "edge_diff_sets",
    "edges_in_interval",
    "ingest_contacts",
    "innermost_core",
    "maximal_span_cores",
    "naive_maximal_span_cores",
    "naive_span_cores",
    "parse_contact_lines",
    "precision_recall",
    "purity_curve",
    "reshuffle_timestamps",
    "span_cores",
    "stats_by_order",
    "stats_by_span",
]
