"""Reading and writing core tables, metrics, and small analysis tables.

Core records are always ordered by (t_s, t_e, k) and member labels are
sorted, so equal results serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from typing import Iterable, Iterator, Sequence, TextIO

from .span_cores import DecompositionResult, RunMetrics, SpanCore
from .temporal_graph import MEMBER_SEPARATOR, Interval

CORE_CSV_HEADER = ["k", "t_s", "t_e", "size", "members"]


def cores_to_csv(result: DecompositionResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CORE_CSV_HEADER)
    for core in result.cores:
        writer.writerow([
            core.order, core.span.start, core.span.end,
            core.size, MEMBER_SEPARATOR.join(result.member_labels(core)),
        ])
    return out.getvalue()


def cores_to_jsonl(result: DecompositionResult, maximal: bool = False) -> str:
    lines = []
    for core in result.cores:
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


# A parsed core record: line number, k, t_s, t_e, member labels, and the
# same labels joined by MEMBER_SEPARATOR.
Row = tuple[int, int, int, int, list[str], str]


def _result_from_rows(rows: Iterable[Row]) -> DecompositionResult:
    """Check each parsed record and build the read-back result.

    Cores keep their joined labels; the result numbers them only when asked
    (see `DecompositionResult.labels`). Every writer emits records sorted,
    so they are sorted here only when one is found out of order.
    """
    result = DecompositionResult((), None, RunMetrics())
    cores = []
    read_back = SpanCore._read_back
    last = (-1, -1, 0)  # (t_s, t_e, k) of the previous record
    seen = None  # every (t_s, t_e, k) so far, kept once records come out of order
    span = None
    for line, k, t_s, t_e, labels, joined in rows:
        key = (t_s, t_e, k)
        if key < last and seen is None:
            seen = {(c.span.start, c.span.end, c.order) for c in cores}
        size = len(labels)
        if k < 1:
            problem = f"order {k} must be at least 1"
        elif not 0 <= t_s <= t_e:
            problem = _span_problem(t_s, t_e)
        elif not size:
            problem = "a core needs at least one member"
        elif len(distinct := set(labels)) != size:
            problem = f"member {Counter(labels).most_common(1)[0][0]!r} is listed twice"
        elif "" in distinct:
            problem = "empty member label"
        elif key == last or (seen is not None and key in seen):
            problem = f"a second core of order {k} over [{t_s},{t_e}]"
        else:
            if seen is not None:
                seen.add(key)
            if t_s != last[0] or t_e != last[1]:
                span = Interval(t_s, t_e)
            last = key
            cores.append(read_back(k, span, size, joined, result))
            continue
        raise ValueError(f"core file line {line}: {problem}")
    if seen is not None:
        cores.sort(key=SpanCore.sort_key)
    result.cores = tuple(cores)
    return result


def read_cores_csv(stream: TextIO) -> DecompositionResult:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != CORE_CSV_HEADER:
        raise ValueError(f"unexpected core CSV header: {header!r}")
    return _result_from_rows(_csv_rows(reader))


def _csv_rows(reader) -> Iterator[Row]:
    for row in reader:
        if not row:
            continue
        # A valid row pays for no check beyond these; the handler names the fault.
        try:
            k, t_s, t_e, size, members = row
            labels = members.split(MEMBER_SEPARATOR) if members else []
            if int(size) == len(labels):
                yield reader.line_num, int(k), int(t_s), int(t_e), labels, members
                continue
            problem = f"size field {size} disagrees with {len(labels)} members"
        except ValueError:
            if len(row) != len(CORE_CSV_HEADER):
                problem = f"expected {len(CORE_CSV_HEADER)} fields, got {len(row)}"
            else:
                problem = "k, t_s, t_e and size must be integers"
        raise ValueError(f"core file line {reader.line_num}: {problem}")


def read_cores_jsonl(stream: TextIO) -> DecompositionResult:
    return _result_from_rows(_jsonl_rows(stream))


def _jsonl_rows(stream: TextIO) -> Iterator[Row]:
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            k, t_s, t_e, labels = _jsonl_row(json.loads(line))
        except ValueError as error:
            raise ValueError(f"core file line {line_number}: {error}") from None
        yield line_number, k, t_s, t_e, labels, MEMBER_SEPARATOR.join(labels)


def _jsonl_row(record) -> tuple[int, int, int, list[str]]:
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    missing = [key for key in ("k", "t_s", "t_e", "members") if key not in record]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    numbers = [record[key] for key in ("k", "t_s", "t_e")]
    if not all(type(n) is int for n in numbers):
        raise ValueError("k, t_s and t_e must be integers")
    members = record["members"]
    if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
        raise ValueError("members must be a list of labels")
    for label in members:
        if MEMBER_SEPARATOR in label:
            raise ValueError(f"member {label!r} holds the member separator {MEMBER_SEPARATOR!r}")
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
