"""Reading and writing core tables, metrics, and small analysis tables.

Core records are always ordered by (t_s, t_e, k) and member labels are
sorted, so equal results serialize to identical bytes.

A core CSV file is read whole. Canonical text, the header line and then
lines of five fields, each ending in '\n', with no '"', '\r', NUL or
blank line (cores_to_csv writes it unless a label needs quoting), is split
in one pass and its five columns are taken as slices; record i is on line
i + 2. Any other text is parsed by csv.reader, with no field size limit,
into the same columns, each record keeping its line. Either way, and for
JSONL too, the columns are checked and built a whole column at a time; only
a file with a fault is walked record by record, so the fault reported is
the first in file order, with its line.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from itertools import chain, count, repeat
from operator import le, lt
from typing import Iterable, NoReturn, Sequence, TextIO

from .span_cores import DecompositionResult, RunMetrics, SpanCore
from .temporal_graph import MEMBER_SEPARATOR, Interval

CORE_CSV_HEADER = ["k", "t_s", "t_e", "size", "members"]
_CORE_CSV_HEADER_LINE = ",".join(CORE_CSV_HEADER) + "\n"
# The characters that make csv.writer quote a field, with the "\n" line
# terminator of core files.
_CSV_QUOTED_CHARS = frozenset(',"\r\n')
# The bytes a canonical core CSV line holds only as four commas and a
# closing newline, and the ones it never holds; every other byte is deleted
# to check the line shape. No multi-byte UTF-8 character holds any of them.
_CSV_SHAPE_BYTES = b',\n"\r\x00'
_CSV_FIELD_BYTES = bytes(sorted(set(range(256)) - set(_CSV_SHAPE_BYTES)))


def cores_to_csv(result: DecompositionResult) -> str:
    """Each distinct member set is sorted, joined and quoted once; most cores repeat one."""
    fields: dict[frozenset[int], str] = {}
    rows = [_CORE_CSV_HEADER_LINE]
    for core in result.cores:
        field = fields.get(core.members)
        if field is None:
            field = fields[core.members] = _csv_field(
                MEMBER_SEPARATOR.join(result.member_labels(core)))
        span = core.span
        rows.append(f"{core.order},{span.start},{span.end},{core.size},{field}\n")
    return "".join(rows)


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it in a row of several fields."""
    if _CSV_QUOTED_CHARS.isdisjoint(text):
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(("", text))
    return out.getvalue()[1:-1]


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


def elapsed_ms(seconds: float) -> float:
    """An engine call's wall time as metrics.json and bench.json report it."""
    return round(seconds * 1000.0, 3)


def metrics_to_json(metrics: RunMetrics, seconds: float) -> str:
    payload = {
        "processed_vertices": metrics.processed_vertices,
        "cores": metrics.cores_emitted,
        "elapsed_ms": elapsed_ms(seconds),
    }
    return json.dumps(payload, indent=2) + "\n"


def _result_from_columns(lines: Sequence[int], k: Sequence, t_s: Sequence, t_e: Sequence,
                          size: Sequence | None, members: Sequence[str]) -> DecompositionResult:
    """Check the records of a core file and build the read-back result.

    Record i is (k[i], t_s[i], t_e[i], size[i], members[i]) from line
    lines[i]. The number fields may still be text, and `size` is None for
    JSONL, which has none. Every check runs over a whole column, and each
    distinct member text is split, checked and numbered once; only when a
    check finds a fault does _raise_first_fault walk the records to name it.
    Every writer emits records sorted, so they are sorted here only when
    one is found out of order. Labels are numbered in order of first
    appearance across the sorted cores, and every core with the same member
    text shares one frozenset.
    """
    columns = lines, k, t_s, t_e, size, members
    try:  # each distinct number field once
        number = {field: int(field) for field in dict.fromkeys(chain(k, t_s, t_e, size or ()))}
    except ValueError:
        _raise_first_fault(*columns)
    k, t_s, t_e = (list(map(number.__getitem__, column)) for column in (k, t_s, t_e))
    if size is not None:
        size = list(map(number.__getitem__, size))
    if k and (min(k) < 1 or min(t_s) < 0 or not all(map(le, t_s, t_e))):
        _raise_first_fault(*columns)
    keys = list(zip(t_s, t_e, k))
    if not all(map(lt, keys, keys[1:])):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        keys = [keys[i] for i in order]
        if not all(map(lt, keys, keys[1:])):
            _raise_first_fault(*columns)  # a repeated (t_s, t_e, k)
        t_s, t_e, k = zip(*keys)
        members = [members[i] for i in order]
        if size is not None:
            size = [size[i] for i in order]
    texts = list(dict.fromkeys(members))  # in order of first appearance
    labels_of = [text.split(MEMBER_SEPARATOR) for text in texts]
    ids = dict(zip(dict.fromkeys(chain.from_iterable(labels_of)), count()))
    members_of = dict(zip(texts, [frozenset(map(ids.__getitem__, labels)) for labels in labels_of]))
    sets = list(map(members_of.__getitem__, members))
    # An empty member text splits into one empty label, and a text that
    # lists a label twice gets a set smaller than its label list.
    if ("" in ids or sum(map(len, labels_of)) != sum(map(len, members_of.values()))
            or (size is not None and size != list(map(len, sets)))):
        _raise_first_fault(*columns)
    spans = {span: Interval(*span) for span in dict.fromkeys(zip(t_s, t_e))}
    cores = map(SpanCore, k, map(spans.__getitem__, zip(t_s, t_e)), sets)
    return DecompositionResult(tuple(cores), tuple(ids), RunMetrics())


def _raise_first_fault(lines, orders, starts, ends, sizes, members) -> NoReturn:
    """Raise the fault of the first faulty record in file order.

    Each record's checks run in this order: integer fields, size, order,
    interval, empty member list, repeated member, empty label, and a
    (k, t_s, t_e) seen on an earlier record.
    """
    keys = set()
    for line, k, t_s, t_e, size, text in zip(
            lines, orders, starts, ends, repeat(None) if sizes is None else sizes, members):
        try:
            k, t_s, t_e = int(k), int(t_s), int(t_e)
            size = None if size is None else int(size)
        except ValueError:
            raise ValueError(f"core file line {line}: "
                             "k, t_s, t_e and size must be integers") from None
        labels = text.split(MEMBER_SEPARATOR) if text else []
        n = len(labels)
        key = (t_s, t_e, k)
        if size is not None and size != n:
            problem = f"size field {size} disagrees with {n} members"
        elif k < 1:
            problem = f"order {k} must be at least 1"
        elif not 0 <= t_s <= t_e:
            problem = _span_problem(t_s, t_e)
        elif not n:
            problem = "a core needs at least one member"
        elif len(distinct := set(labels)) != n:
            problem = f"member {Counter(labels).most_common(1)[0][0]!r} is listed twice"
        elif "" in distinct:
            problem = "empty member label"
        elif key in keys:
            problem = f"a second core of order {k} over [{t_s},{t_e}]"
        else:
            keys.add(key)
            continue
        raise ValueError(f"core file line {line}: {problem}")
    raise AssertionError("a column check failed on records that each pass")


def read_cores_csv(stream: TextIO) -> DecompositionResult:
    text = stream.read()
    columns = _canonical_csv_columns(text)
    fault = None
    if columns is None:
        columns, fault = _parsed_csv_columns(text)
    result = _result_from_columns(*columns)
    if fault is not None:  # only now, so that a fault in an earlier record wins
        raise ValueError(fault)
    return result


def _canonical_csv_columns(text: str) -> tuple[Sequence, ...] | None:
    """The columns of canonical core CSV text, or None for any other text."""
    if not text.startswith(_CORE_CSV_HEADER_LINE):
        return None
    shape = text.encode("utf-8", "surrogatepass").translate(None, _CSV_FIELD_BYTES)
    line_count = len(shape) // 5
    if shape != b",,,,\n" * line_count:
        return None
    fields = text.replace("\n", ",").split(",")  # header, records, and "" after the last
    return (range(2, line_count + 1), fields[5:-1:5], fields[6::5], fields[7::5],
            fields[8::5], fields[9::5])


def _parsed_csv_columns(text: str) -> tuple[tuple[Sequence, ...], str | None]:
    """The columns of any core CSV text as csv.reader splits it, and its parse fault.

    The records stop before the first row that is not five fields or that
    csv.reader cannot parse; that row's fault comes back with its line.
    """
    limit = csv.field_size_limit()
    csv.field_size_limit(max(limit, len(text)))  # no field is longer than the text
    reader = csv.reader(io.StringIO(text))
    records = []
    problem = None
    try:
        header = next(reader, None)
        if header != CORE_CSV_HEADER:
            raise ValueError(f"unexpected core CSV header: {header!r}")
        for row in reader:
            if len(row) == len(CORE_CSV_HEADER):
                records.append((reader.line_num, *row))
            elif row:  # an empty row is a blank line
                problem = f"expected {len(CORE_CSV_HEADER)} fields, got {len(row)}"
                break
    except csv.Error as error:
        problem = str(error)
    finally:
        csv.field_size_limit(limit)
    fault = None if problem is None else f"core file line {reader.line_num}: {problem}"
    return tuple(zip(*records)) or ((),) * 6, fault


def read_cores_jsonl(stream: TextIO) -> DecompositionResult:
    records = []
    fault = None
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            k, t_s, t_e, labels = _jsonl_row(json.loads(line))
        except ValueError as error:
            fault = f"core file line {line_number}: {error}"
            break
        except RecursionError:
            fault = f"core file line {line_number}: JSON nested too deeply"
            break
        records.append((line_number, k, t_s, t_e, MEMBER_SEPARATOR.join(labels)))
    lines, k, t_s, t_e, members = tuple(zip(*records)) or ((),) * 5
    result = _result_from_columns(lines, k, t_s, t_e, None, members)
    if fault is not None:  # only now, so that a fault in an earlier record wins
        raise ValueError(fault)
    return result


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
    if members == [""]:  # joins to "", the text of [], so the reader cannot see it
        raise ValueError("empty member label")
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
