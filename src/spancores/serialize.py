"""Reading and writing core tables, metrics, and small analysis tables.

Core records are always ordered by (t_s, t_e, k) and member labels are
sorted, so equal results serialize to identical bytes.

read_cores is the one core-file reader. Both formats give six columns:
line, k, t_s, t_e, size and member text; a JSONL record's size is its label
count. Canonical CSV text, the header and then lines of five fields ending
in '\n', with no '"', '\r', NUL or blank line, is split in one pass (record
i is on line i + 2); other CSV text goes through csv.reader, with no field
size limit. Columns are checked and built whole; only a faulty file is
walked record by record, so the first fault in file order is named.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from itertools import chain, count
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
        rows.append(f"{core.order},{span.start},{span.end},{len(core.members)},{field}\n")
    return "".join(rows)


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it in a row of several fields."""
    if _CSV_QUOTED_CHARS.isdisjoint(text):
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(("", text))
    return out.getvalue()[1:-1]


def cores_to_jsonl(result: DecompositionResult, maximal: bool = False) -> str:
    """The bytes of json.dumps(record) + "\n" per core; only the member list needs escaping."""
    flag = ', "maximal": true' if maximal else ""
    rows = []
    for core in result.cores:
        span = core.span
        rows.append(f'{{"k": {core.order}, "t_s": {span.start}, "t_e": {span.end}, '
                    f'"members": {json.dumps(result.member_labels(core))}{flag}}}\n')
    return "".join(rows)


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
                          size: Sequence, members: Sequence[str]) -> DecompositionResult:
    """Check the records of a core file and build the read-back result.

    Record i is (k[i], t_s[i], t_e[i], size[i], members[i]) from line
    lines[i]; the number fields may still be text. Every check runs over a
    whole column, and each distinct member text is split, checked and
    numbered once; only when a check finds a fault does _raise_first_fault
    walk the records to name it. Every writer emits records sorted, so they
    are sorted here only when one is found out of order. Labels are numbered
    in order of first appearance across the sorted cores, and every core
    with the same member text shares one frozenset.
    """
    columns = lines, k, t_s, t_e, size, members
    try:  # each distinct number field once
        number = {field: int(field) for field in dict.fromkeys(chain(k, t_s, t_e, size))}
    except ValueError:
        _raise_first_fault(*columns)
    k, t_s, t_e, size = (list(map(number.__getitem__, column)) for column in (k, t_s, t_e, size))
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
        size = [size[i] for i in order]
    texts = list(dict.fromkeys(members))  # in order of first appearance
    labels_of = [text.split(MEMBER_SEPARATOR) for text in texts]
    ids = dict(zip(dict.fromkeys(chain.from_iterable(labels_of)), count()))
    members_of = dict(zip(texts, [frozenset(map(ids.__getitem__, labels)) for labels in labels_of]))
    sets = list(map(members_of.__getitem__, members))
    # An empty member text splits into one empty label, and a text that
    # lists a label twice gets a set smaller than its label list.
    if ("" in ids or sum(map(len, labels_of)) != sum(map(len, members_of.values()))
            or size != list(map(len, sets))):
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
    for line, k, t_s, t_e, size, text in zip(lines, orders, starts, ends, sizes, members):
        try:
            k, t_s, t_e, size = int(k), int(t_s), int(t_e), int(size)
        except ValueError:
            raise ValueError(f"line {line}: k, t_s, t_e and size must be integers") from None
        labels = text.split(MEMBER_SEPARATOR) if text else []
        n = len(labels)
        key = (t_s, t_e, k)
        if size != n:
            problem = f"size field {size} disagrees with {n} members"
        elif k < 1:
            problem = f"order {k} must be at least 1"
        elif not 0 <= t_s <= t_e:
            problem = f"interval [{t_s},{t_e}] needs 0 <= t_s <= t_e"
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
        raise ValueError(f"line {line}: {problem}")
    raise AssertionError("a column check failed on records that each pass")


def read_cores(stream: TextIO, fmt: str) -> DecompositionResult:
    if fmt == "csv":
        columns, fault = _csv_columns(stream)
    elif fmt == "jsonl":
        columns, fault = _jsonl_columns(stream)
    else:
        raise ValueError(f"unknown core file format {fmt!r}")
    result = _result_from_columns(*columns)
    if fault is not None:  # only now, so that a fault in an earlier record wins
        raise ValueError(fault)
    return result


def _csv_columns(stream: TextIO) -> tuple[tuple[Sequence, ...], str | None]:
    text = stream.read()
    columns = _canonical_csv_columns(text)
    return _parsed_csv_columns(text) if columns is None else (columns, None)


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
            raise ValueError(f"line 1: unexpected core CSV header: {header!r}")
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
    fault = None if problem is None else f"line {reader.line_num}: {problem}"
    return tuple(zip(*records)) or ((),) * 6, fault


def _jsonl_columns(stream: TextIO) -> tuple[tuple[Sequence, ...], str | None]:
    """The columns of a JSONL core file, and the fault of the first line that is no record."""
    records = []
    fault = None
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            k, t_s, t_e, labels = _jsonl_row(json.loads(line))
        except ValueError as error:
            fault = f"line {line_number}: {error}"
            break
        except RecursionError:
            fault = f"line {line_number}: JSON nested too deeply"
            break
        records.append((line_number, k, t_s, t_e, len(labels), MEMBER_SEPARATOR.join(labels)))
    return tuple(zip(*records)) or ((),) * 6, fault


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


def table_to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The stats/grid/purity tables: numbers under fixed names, so no cell needs quoting."""
    return "".join(",".join(map(_render, row)) + "\n" for row in chain([header], rows))


def _render(cell) -> str:
    if isinstance(cell, float):
        return format(cell, ".10g")
    return str(cell)
