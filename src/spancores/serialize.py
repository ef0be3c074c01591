"""Reading and writing core tables, metrics, and small analysis tables.

Core records are always ordered by (t_s, t_e, k) and member labels are
sorted, so equal results serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence, TextIO

from .span_cores import DecompositionResult, RunMetrics, SpanCore
from .temporal_graph import MEMBER_SEPARATOR, Interval

CORE_CSV_HEADER = ["k", "t_s", "t_e", "size", "members"]


def _ordered_cores(result: DecompositionResult) -> list[SpanCore]:
    return sorted(result.cores, key=SpanCore.sort_key)


def cores_to_csv(result: DecompositionResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CORE_CSV_HEADER)
    for core in _ordered_cores(result):
        labels = result.member_labels(core)
        writer.writerow([
            core.order, core.span.start, core.span.end,
            len(core.members), MEMBER_SEPARATOR.join(labels),
        ])
    return out.getvalue()


def cores_to_jsonl(result: DecompositionResult, maximal: bool = False) -> str:
    lines = []
    for core in _ordered_cores(result):
        record = {
            "k": core.order,
            "t_s": core.span.start,
            "t_e": core.span.end,
            "members": result.member_labels(core),
        }
        if maximal:
            record["maximal"] = True
        lines.append(json.dumps(record))
    return "".join(line + "\n" for line in lines)


def elapsed_ms(metrics: RunMetrics) -> float:
    """The engine's run time as metrics.json and bench.json report it."""
    return round(metrics.elapsed * 1000.0, 3)


def metrics_to_json(metrics: RunMetrics) -> str:
    payload = {
        "processed_vertices": metrics.processed_vertices,
        "cores": metrics.cores_emitted,
        "elapsed_ms": elapsed_ms(metrics),
    }
    return json.dumps(payload, indent=2) + "\n"


def _result_from_rows(rows: Iterable[tuple[int, int, int, list[str]]]) -> DecompositionResult:
    ids: dict[str, int] = {}
    labels: list[str] = []
    cores = []
    for order, t_s, t_e, members in rows:
        member_ids = []
        for label in members:
            if label not in ids:
                ids[label] = len(labels)
                labels.append(label)
            member_ids.append(ids[label])
        cores.append(SpanCore(order, Interval(t_s, t_e), frozenset(member_ids)))
    cores.sort(key=SpanCore.sort_key)
    return DecompositionResult(tuple(cores), tuple(labels), RunMetrics())


def read_cores_csv(stream: TextIO) -> DecompositionResult:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != CORE_CSV_HEADER:
        raise ValueError(f"unexpected core CSV header: {header!r}")
    rows = []
    for row in reader:
        if not row:
            continue
        # A valid row pays for no check beyond these; the handler names the fault.
        try:
            k, t_s, t_e, size, members = row
            labels = members.split(MEMBER_SEPARATOR) if members else []
            start, end = int(t_s), int(t_e)
            if int(size) != len(labels):
                problem = f"size field {size} disagrees with {len(labels)} members"
            elif not 0 <= start <= end:
                problem = _span_problem(start, end)
            else:
                rows.append((int(k), start, end, labels))
                continue
        except ValueError:
            if len(row) != len(CORE_CSV_HEADER):
                problem = f"expected {len(CORE_CSV_HEADER)} fields, got {len(row)}"
            else:
                problem = "k, t_s, t_e and size must be integers"
        raise ValueError(f"core file line {reader.line_num}: {problem}")
    return _result_from_rows(rows)


def read_cores_jsonl(stream: TextIO) -> DecompositionResult:
    rows = []
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(_jsonl_row(json.loads(line)))
        except ValueError as error:
            raise ValueError(f"core file line {line_number}: {error}") from None
    return _result_from_rows(rows)


def _jsonl_row(record) -> tuple[int, int, int, list[str]]:
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    missing = [key for key in ("k", "t_s", "t_e", "members") if key not in record]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    numbers = [record[key] for key in ("k", "t_s", "t_e")]
    if not all(type(n) is int for n in numbers):
        raise ValueError("k, t_s and t_e must be integers")
    if not 0 <= numbers[1] <= numbers[2]:
        raise ValueError(_span_problem(numbers[1], numbers[2]))
    members = record["members"]
    if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
        raise ValueError("members must be a list of labels")
    return (*numbers, members)


def _span_problem(t_s: int, t_e: int) -> str:
    return f"interval [{t_s},{t_e}] needs 0 <= t_s <= t_e"


def read_cores(stream: TextIO, fmt: str) -> DecompositionResult:
    if fmt == "csv":
        return read_cores_csv(stream)
    if fmt == "jsonl":
        return read_cores_jsonl(stream)
    raise ValueError(f"unknown core file format {fmt!r}")


def table_to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Small helper for the stats/grid/purity tables."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_render(cell) for cell in row])
    return out.getvalue()


def _render(cell) -> str:
    if isinstance(cell, float):
        return format(cell, ".10g")
    return str(cell)
