"""Temporal graph model and contact-stream ingestion.

A temporal graph here is a fixed vertex set observed over a contiguous range
of discrete timestamps 0..t_max, with one undirected edge set per timestamp.
Vertices are dense integer ids internally; external string labels are kept
alongside so inputs and outputs can speak the caller's vocabulary.
"""

from __future__ import annotations

import io
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Sequence
from itertools import count
from typing import Iterable, Iterator, TextIO

Edge = tuple[int, int]
Contact = tuple[str, str, int]

# Joins the member labels of a core in CSV core files.
MEMBER_SEPARATOR = ";"
# No vertex label may hold these: the member separator of core CSV files,
# and the comma that separates the fields of a contact line.
_LABEL_SEPARATORS = (MEMBER_SEPARATOR, ",")
# The edge set of every empty timestamp.
_NO_EDGES: frozenset[Edge] = frozenset()
# The ASCII bytes that separate the fields of a contact line or mark a
# comment: the whitespace str.split splits at, the comma and '#'. Canonical
# contact text holds them only as two single spaces and a closing newline
# per line.
_SEPARATOR_BYTES = b" \n\t\x0b\x0c\r\x1c\x1d\x1e\x1f,#"
_FIELD_BYTES = bytes(sorted(set(range(256)) - set(_SEPARATOR_BYTES)))
# Contact text read whole is split this many characters at a time, rounded
# up to a line end, so that the strings of one chunk, not of the whole file,
# are alive at once.
_CHUNK_CHARS = 1 << 16


class Interval:
    """Inclusive timestamp range [start, end].

    Equal intervals hash alike and sort by (start, end). Intervals key
    dicts and sets, so never assign to a field after construction.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        if start < 0:
            raise ValueError(f"interval start must be >= 0, got {start}")
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        self.start = start
        self.end = end

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __lt__(self, other: "Interval") -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return (self.start, self.end) < (other.start, other.end)

    def __repr__(self) -> str:
        return f"Interval(start={self.start}, end={self.end})"

    @property
    def width(self) -> int:
        """Number of timestamps covered."""
        return self.end - self.start + 1

    def timestamps(self) -> range:
        return range(self.start, self.end + 1)

    def __str__(self) -> str:
        return f"[{self.start},{self.end}]"


class TemporalGraph:
    """Immutable temporal graph over timestamps 0..t_max.

    Only non-empty edge sets are stored, so memory follows the contacts, not
    the time span. Edge sets are canonicalized on construction: endpoints
    ordered low-high, duplicates collapsed. Self-loops are rejected outright;
    droppers belong in the ingestion layer, not here. Labels follow
    ingest_contacts' rule, so every file written from the graph reads back.
    """

    __slots__ = ("_labels", "_edges", "_t_max", "_nonempty")

    def __init__(self, labels: Sequence[str], edges_by_time: Sequence[Iterable[Edge]]):
        if not edges_by_time:
            raise ValueError("a temporal graph needs at least one timestamp")
        self._labels = tuple(labels)
        for label in self._labels:
            _check_label(label)
        if len(set(self._labels)) != len(self._labels):
            raise ValueError("duplicate vertex labels")
        n = len(self._labels)
        canon: dict[int, frozenset[Edge]] = {}
        for t, edges in enumerate(edges_by_time):
            seen: set[Edge] = set()
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop on vertex {u} at t={t}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) at t={t} references unknown vertex")
                seen.add((u, v) if u < v else (v, u))
            if seen:
                canon[t] = frozenset(seen)
        self._t_max = len(edges_by_time) - 1
        self._edges = canon
        self._nonempty = tuple(canon)

    @classmethod
    def _from_canonical(cls, labels: Iterable[str], t_max: int,
                        edges: dict[int, frozenset[Edge]]) -> "TemporalGraph":
        """Build without the checks of the constructor, for callers that already did them.

        `labels` holds distinct labels in vertex-id order, every key of
        `edges` lies in 0..t_max, and every value is a non-empty frozenset
        of ordered (low, high) pairs of known, distinct ids. Three callers
        pass such parts: ingest_contacts, which checked them itself, and
        reshuffle_timestamps and detect_anomalies, which derive them from a
        graph that is already valid.
        """
        g = cls.__new__(cls)
        g._labels = tuple(labels)
        g._t_max = t_max
        g._edges = edges
        g._nonempty = tuple(sorted(edges))
        return g

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def t_max(self) -> int:
        return self._t_max

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def nonempty_times(self) -> tuple[int, ...]:
        """The timestamps with at least one edge, ascending.

        No span-core covers an empty timestamp, so the engines and analyses
        visit only these.
        """
        return self._nonempty

    def edges_at(self, t: int) -> frozenset[Edge]:
        if not 0 <= t <= self._t_max:
            raise ValueError(f"timestamp {t} outside 0..{self._t_max}")
        return self._edges.get(t, _NO_EDGES)

    def label_of(self, vertex: int) -> str:
        return self._labels[vertex]

    def contact_count(self) -> int:
        """Total number of (edge, timestamp) contacts."""
        return sum(map(len, self._edges.values()))

    def __repr__(self) -> str:
        return (f"TemporalGraph(|V|={self.vertex_count}, t_max={self.t_max}, "
                f"contacts={self.contact_count()})")


class ContactColumns:
    """Read-only contacts held as numbered labels and raw times.

    `labels` and `times` hold the distinct labels and raw times in order of
    first appearance. `ends` interleaves the label indices of the endpoints
    (u0, v0, u1, v1, ...) and `time_ids` holds each contact's raw-time index,
    so contact i is (labels[ends[2i]], labels[ends[2i+1]], times[time_ids[i]]).
    `gaps` holds the number of contacts before each line that holds none.
    parse_contact_lines returns this form; ingest_contacts reads it directly.
    """

    __slots__ = ("labels", "times", "ends", "time_ids", "gaps")

    def __init__(self, labels: list[str], times: list[int], ends: list[int],
                 time_ids: list[int], gaps: list[int]):
        self.labels = labels
        self.times = times
        self.ends = ends
        self.time_ids = time_ids
        self.gaps = gaps

    def __len__(self) -> int:
        return len(self.time_ids)

    def line_of(self, i: int) -> int:
        """The 1-based line that holds contact i."""
        return i + 1 + bisect_right(self.gaps, i)

    def __iter__(self) -> Iterator[Contact]:
        ends = map(self.labels.__getitem__, self.ends)
        return zip(ends, ends, map(self.times.__getitem__, self.time_ids))


def parse_contact_lines(lines: Iterable[str] | TextIO,
                        strict: bool = True) -> tuple[ContactColumns, int]:
    """Parse text lines into (label, label, raw_time) contacts.

    A contact line is "u v t" with whitespace- or comma-separated fields and a
    non-negative integer time. Lines starting with '#' and blank lines are
    skipped. A malformed line raises ValueError("line N: reason: 'line'") in
    strict mode and is counted (second return value) otherwise.

    A text stream is read whole and walked in chunks of whole lines. A
    canonical chunk, ASCII lines of exactly "label label digits" with single
    spaces, each ending in '\n', is split whole. Any other chunk is parsed
    line by line, as the lines ending at '\n' that a stream opened with the
    default newline handling yields, with line numbers counting every chunk.
    Each distinct label and raw time is numbered once, when a contact that
    holds it is first accepted. Each blank, comment or skipped line is
    recorded in `gaps`, so `line_of` gives every contact's line; a canonical
    chunk records none, as each of its lines holds a contact.
    """
    columns = (defaultdict(count().__next__), defaultdict(count().__next__), [], [])
    label_ids, time_ids, ends, stamps = columns
    stream = isinstance(lines, io.TextIOBase)
    numbered = _unsplit_lines(lines.read(), columns) if stream else enumerate(lines, start=1)
    add_ends = ends.extend
    add_time = stamps.append
    gaps = []
    skipped = 0
    for line_number, raw in numbered:
        if "," in raw:
            parts = [p.strip() for p in raw.split(",")]
        else:
            parts = raw.split()  # also strips, and is empty for a blank line
        if not parts or parts[0].startswith("#"):
            gaps.append(len(stamps))
            continue
        if len(parts) == 3:
            u, v, t = parts
            if u and v:
                try:
                    raw_time = int(t)
                except ValueError:
                    reason = "time is not an integer"
                else:
                    if raw_time >= 0:
                        add_ends((label_ids[u], label_ids[v]))
                        add_time(time_ids[raw_time])
                        continue
                    reason = "negative time"
            else:
                reason = "empty vertex label"
        else:
            reason = "expected three fields"
        if strict:
            raise ValueError(f"line {line_number}: {reason}: {raw.strip()!r}")
        skipped += 1
        gaps.append(len(stamps))
    return ContactColumns(list(label_ids), list(time_ids), ends, stamps, gaps), skipped


def _unsplit_lines(text: str, columns: tuple) -> Iterator[tuple[int, str]]:
    """Yield the numbered lines of each chunk of `text` that is not canonical.

    The walk splits a canonical chunk onto the columns when it reaches it, in file order.
    """
    line_number = 1
    for chunk in _chunks(text):
        line_count = _split_canonical(chunk, *columns)
        if not line_count:
            chunk_lines = chunk.removesuffix("\n").split("\n")
            yield from enumerate(chunk_lines, start=line_number)
            line_count = len(chunk_lines)
        line_number += line_count


def _split_canonical(chunk: str, label_ids: dict[str, int], time_ids: dict[int, int],
                     ends: list[int], stamps: list[int]) -> int:
    """Append a canonical chunk's contacts to the columns and return its line count, else 0.

    Every line of a canonical chunk is a contact the line parser accepts, so
    the chunk is split whole. Its fields are numbered only once every check
    has passed, and each distinct time string is converted once.
    """
    if not (chunk.isascii() and chunk.endswith("\n")):
        return 0
    separators = chunk.encode("ascii").translate(None, _FIELD_BYTES)
    line_count = len(separators) // 3
    if separators != b"  \n" * line_count:
        return 0
    fields = chunk.split()
    # Each line has two spaces, so fewer than three fields on a line means
    # an empty field: a leading, doubled or trailing space.
    if len(fields) != 3 * line_count:
        return 0
    time_fields = fields[2::3]
    distinct = dict.fromkeys(time_fields)
    if not "".join(distinct).isdigit():
        return 0
    try:
        raw_times = [int(field) for field in distinct]
    except ValueError:  # more digits than int() converts
        return 0
    time_index = dict(zip(distinct, map(time_ids.__getitem__, raw_times)))
    stamps.extend(map(time_index.__getitem__, time_fields))
    del fields[2::3]
    ends.extend(map(label_ids.__getitem__, fields))
    return line_count


def _chunks(text: str) -> Iterator[str]:
    """`text` in pieces of whole lines, each about _CHUNK_CHARS long."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


def ingest_contacts(contacts: Iterable[Contact], window: int = 1,
                    origin: int | None = None) -> TemporalGraph:
    """Build a temporal graph from (label_u, label_v, raw_time) contacts.

    Raw times are discretized as (raw_time - origin) // window; origin
    defaults to the earliest raw time seen, so with window=1 and origin=0
    pre-discretized timestamps pass through verbatim. Duplicate contacts in a
    window collapse, self-loops are dropped (their labels and timestamps
    still count), and empty windows are kept so the time domain stays
    contiguous. A label may hold neither MEMBER_SEPARATOR, a comma nor
    whitespace, and may not start with '#', so every core file and contact
    line written from the graph reads back.

    Contacts are read as numbered columns: each label index is a vertex id,
    each distinct label is checked once, and each distinct raw time is mapped
    to its window's edge set once. A label or origin ValueError carries in
    `contact` the 0-based index of the first contact at fault.
    """
    if not isinstance(contacts, ContactColumns):
        label_ids, time_ids = defaultdict(count().__next__), defaultdict(count().__next__)
        rows = [(label_ids[u], label_ids[v], time_ids[t]) for u, v, t in contacts]
        contacts = ContactColumns(list(label_ids), list(time_ids),
                                  [end for u, v, _ in rows for end in (u, v)],
                                  [t for _, _, t in rows], [])
    if not contacts:
        raise ValueError("no contacts")
    check_window(window)
    origin = _origin(contacts, origin)
    for vertex, label in enumerate(contacts.labels):
        try:
            _check_label(label)
        except ValueError as error:
            error.contact = contacts.ends.index(vertex) // 2
            raise
    windows: dict[int, set[Edge]] = {}
    sets = [windows.setdefault((t - origin) // window, set()) for t in contacts.times]
    ends = iter(contacts.ends)
    for u, v, edges in zip(ends, ends, map(sets.__getitem__, contacts.time_ids)):
        if u < v:  # a self-loop adds no edge; its labels and time still count
            edges.add((u, v))
        elif v < u:
            edges.add((v, u))
    edges_by_time = {t: frozenset(edges) for t, edges in windows.items() if edges}
    return TemporalGraph._from_canonical(contacts.labels, (max(contacts.times) - origin) // window,
                                         edges_by_time)


def check_window(window: int) -> None:
    """Raise ValueError unless window >= 1."""
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")


def check_min_span(min_span: int) -> None:
    """Raise ValueError unless min_span >= 1."""
    if min_span < 1:
        raise ValueError(f"min_span must be at least 1, got {min_span}")


def _origin(contacts: ContactColumns, origin: int | None) -> int:
    """`origin`, or the earliest raw time if it is None.

    The distinct raw times are in file order, so the error names the first
    contact time before the origin, and its `contact` is the first use of it.
    """
    earliest = min(contacts.times)
    if origin is None:
        return earliest
    if earliest < origin:
        first = next(i for i, t in enumerate(contacts.times) if t < origin)
        error = ValueError(f"contact time {contacts.times[first]} precedes origin {origin}")
        error.contact = contacts.time_ids.index(first)
        raise error
    return origin


def _check_label(label: str) -> None:
    """Reject a label that a core file or a contact line could not carry back."""
    for char in _LABEL_SEPARATORS:
        if char in label:
            raise ValueError(f"vertex label {label!r} contains {char!r}, "
                             "which core files and contact lines use as a separator")
    if label.split() != [label]:
        raise ValueError(f"vertex label {label!r} is empty or holds whitespace, "
                         "which separates the fields of a contact line")
    if label.startswith("#"):
        raise ValueError(f"vertex label {label!r} starts with '#', "
                         "which marks a comment line in a contact file")


def _edge_walk(g: TemporalGraph, start: int) -> Iterator[tuple[int, frozenset[Edge]]]:
    """Yield (t_e, edges of [start, t_e]) for t_e = start, start+1, ... until none is left.

    The one loop that intersects the graph's per-timestamp edge sets.
    """
    edges = g.edges_at(start)
    for t_e in range(start, g.t_max + 1):
        if t_e > start:
            edges = edges & g.edges_at(t_e)
        if not edges:
            return  # an interval's edge set only shrinks as its end moves later
        yield t_e, edges


def edges_in_interval(g: TemporalGraph, interval: Interval) -> frozenset[Edge]:
    """Edges present at every timestamp of the interval; an internal of the pruned engine."""
    if interval.end > g.t_max:
        raise ValueError(f"interval {interval} exceeds t_max={g.t_max}")
    for t_e, edges in _edge_walk(g, interval.start):
        if t_e == interval.end:
            return edges
    return _NO_EDGES


def edge_diff_sets(g: TemporalGraph,
                   start: int) -> tuple[int, list[frozenset[Edge]], frozenset[Edge]] | None:
    """The edge sets of the intervals from `start` as (t_star, removed, surviving), or None.

    None means E_start is empty. `t_star` is the last end for which
    [start, t_star] has edges, and `surviving` is that edge set. `removed[i]`
    holds the edges of [start, start+i] absent at start+i+1, so unioning
    `removed[j]` for j >= t_e-start onto `surviving` gives the edges of
    [start, t_e]. The diff sets and `surviving` partition E_start. An
    internal of the direct maximal engine.
    """
    removed: list[frozenset[Edge]] = []
    running = None
    for t_star, kept in _edge_walk(g, start):
        if running is not None:
            removed.append(running - kept)
        running = kept
    return None if running is None else (t_star, removed, running)


def contact_lines(g: TemporalGraph) -> Iterator[str]:
    """Render the graph as re-ingestable contact lines "u v t".

    Timestamps are emitted verbatim, so feeding the lines back through
    ingest_contacts(window=1, origin=0) reproduces the graph, up to empty
    timestamps after the last contact.
    """
    labels = g.labels
    for t in g.nonempty_times:
        pairs = []
        for u, v in g.edges_at(t):
            a, b = labels[u], labels[v]
            pairs.append((a, b) if a < b else (b, a))
        pairs.sort()
        for a, b in pairs:
            yield f"{a} {b} {t}"
