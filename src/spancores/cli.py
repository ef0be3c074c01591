"""Command-line front end.

`main` builds the arguments of the subcommand that argv starts with, or of all
seven when argv starts with no command name (--help, --version). Every
subcommand checks its parameters and side inputs before its main input, then
returns its artifacts (file name -> text, in write order) and its stderr
notes. `main` alone writes: it removes an earlier run's manifest, writes the
artifacts atomically into --out, then a run-manifest.json with the configuration
that repeats the run exactly, then the notes. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .analysis import (
    AttributeTable,
    activity_grid,
    check_anomaly_thresholds,
    check_positive_timestamps,
    detect_anomalies,
    precision_recall,
    purity_curve,
    reshuffle_timestamps,
    stats_by_order,
    stats_by_span,
)
from .maximal import maximal_span_cores, naive_maximal_span_cores
from .serialize import (
    cores_to_csv,
    cores_to_jsonl,
    elapsed_ms,
    metrics_to_json,
    read_cores,
    table_to_csv,
)
from .span_cores import naive_span_cores, span_cores
from .temporal_graph import (check_min_span, check_window, contact_lines, ingest_contacts,
                             parse_contact_lines)

DEFAULT_SEED = 0
_COMMANDS = ("decompose", "maximal", "stats", "grid", "purity", "shuffle", "anomaly")
# Every input file is read with this codec, which drops a leading UTF-8
# byte-order mark instead of making it part of the first label or field.
# Artifacts are written as plain UTF-8.
_READ_ENCODING = "utf-8-sig"


def _write_atomic(path: Path, content: str) -> None:
    # A random name, so that a killed run's leftover blocks no later write. O_EXCL
    # refuses an existing path or symlink and leaves it alone; the umask applies.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _manifest(args: argparse.Namespace) -> str:
    config = {
        key: value for key, value in sorted(vars(args).items())
        if key not in ("func", "command")
    }
    manifest = {
        "tool": "spancores",
        "version": __version__,
        "command": args.command,
        "config": config,
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _check_out(path_text: str) -> None:
    """Raise ValueError unless `--out` is a directory or can be made one; a dangling link cannot."""
    path = Path(path_text)
    with _named(path):
        existing = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ValueError(f"--out {path}: {existing} is not a directory")


@contextmanager
def _named(path: str | Path):
    """Lead with `path` each ValueError's text and each OSError's strerror raised in the block."""
    name = str(path) or "''"  # an empty path is named too
    try:
        yield
    except ValueError as error:
        raise ValueError(f"{name} {error}") from None
    except OSError as error:
        raise OSError(f"{name} {error.strerror or error}") from None


@contextmanager
def _open_input(path_text: str):
    """Open an input file; every error raised in opening it or while it is open is `_named`."""
    with _named(path_text), open(path_text, encoding=_READ_ENCODING) as handle:
        yield handle


def _load_graph(args: argparse.Namespace, positives: list[int] | None = None):
    """Parse and ingest --input and check `positives` against it; return the graph and notes.

    An ingest error is led by the line of its contact, which the parse recorded.
    """
    check_window(args.window)  # before the input is read
    with _open_input(args.input) as handle:
        contacts, skipped = parse_contact_lines(handle, strict=args.strict)
        try:
            graph = ingest_contacts(contacts, window=args.window, origin=args.origin)
        except ValueError as error:
            if not contacts:  # "no contacts" names no line
                raise
            raise ValueError(f"line {contacts.line_of(error.contact)}: {error}") from None
    if positives is not None:
        with _named(args.positives):
            check_positive_timestamps(positives, graph.t_max)  # before the engine runs
    notes = [f"skipped {skipped} malformed contact line(s)"] if skipped else []
    notes.append(f"ingested {len(contacts)} contacts -> {graph!r}")
    return graph, notes


def _run_engine(engine, graph, bench: bool):
    """Return the engine's result, the seconds the whole call took, and bench.json or None."""
    started = time.perf_counter()
    result = engine(graph)
    seconds = time.perf_counter() - started
    if not bench:
        return result, seconds, None
    # tracemalloc slows the engine several-fold, so the time comes from the
    # run above and the peak memory from a second run. A caller's tracing is
    # left on, and the memory traced before the run is not the engine's.
    import tracemalloc  # here, so that only --bench loads it
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine(graph)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()
    bench_payload = {
        "elapsed_ms": elapsed_ms(seconds),
        "peak_memory_bytes": peak,
        "processed_vertices": result.metrics.processed_vertices,
    }
    return result, seconds, bench_payload


def cmd_cores(args):
    """Run `decompose` or `maximal`: the chosen engine, then its core file and metrics."""
    graph, notes = _load_graph(args)
    # Looked up on every call, so that a wrapped engine is the one that runs.
    engine = {"pruned": span_cores, "naive": naive_span_cores,
              "direct": maximal_span_cores, "filter": naive_maximal_span_cores}[args.engine]
    result, seconds, bench_payload = _run_engine(engine, graph, args.bench)
    maximal = args.command == "maximal"
    name = f"{'maximal' if maximal else 'cores'}.{args.format}"
    artifacts = {name: cores_to_csv(result) if args.format == "csv"
                 else cores_to_jsonl(result, maximal=maximal),
                 "metrics.json": metrics_to_json(result.metrics, seconds)}
    if bench_payload is not None:
        artifacts["bench.json"] = json.dumps(bench_payload, indent=2) + "\n"
    return artifacts, [*notes, f"wrote {name} ({len(result.cores)} records)"]


def _read_core_file(path_text: str):
    """Read a core file: `.jsonl` and `.csv` by name, any other by its first non-blank character."""
    fmt = {".jsonl": "jsonl", ".csv": "csv"}.get(Path(path_text).suffix)
    with _open_input(path_text) as handle:
        if fmt is None:  # a pipe, a FIFO or another name
            text = handle.read()
            fmt = "jsonl" if text.lstrip()[:1] == "{" else "csv"
            handle = io.StringIO(text)
        return read_cores(handle, fmt)


def cmd_stats(args):
    result = _read_core_file(args.cores)
    return {
        "stats_by_order.csv": table_to_csv(["k", "count", "mean_size"], stats_by_order(result)),
        "stats_by_span.csv": table_to_csv(["span", "count", "mean_size"], stats_by_span(result)),
    }, [f"wrote stats for {len(result.cores)} cores"]


def cmd_grid(args):
    check_min_span(args.min_span)  # before the core file is read
    grid = activity_grid(_read_core_file(args.cores), min_span=args.min_span)
    rows = [(t_s, width, grid[(t_s, width)]) for t_s, width in sorted(grid)]
    return {"grid.csv": table_to_csv(["t_s", "span", "k"], rows)}, []


def cmd_purity(args):
    with _open_input(args.attributes) as handle:
        table = AttributeTable.from_csv(handle)
        table.check_attribute(args.attribute)  # before the core file is read
    result = _read_core_file(args.cores)
    curve = purity_curve(result, table, args.attribute)
    rows = sorted(curve.by_timestamp.items())
    notes = ([f"skipped {curve.skipped_vertices} member(s) without a value"]
             if curve.skipped_vertices else [])
    return {"purity.csv": table_to_csv(["t", "purity"], rows)}, notes


def cmd_shuffle(args):
    graph, notes = _load_graph(args)
    shuffled = reshuffle_timestamps(graph, seed=args.seed)
    return {"shuffled.txt": "".join(line + "\n" for line in contact_lines(shuffled))}, [
        *notes, f"reshuffled {shuffled.contact_count()} contacts with seed {args.seed}"]


def _read_positives(path_text: str) -> list[int]:
    positives = []
    with _open_input(path_text) as handle:
        for line_number, text in enumerate(map(str.strip, handle), start=1):
            if not text:
                continue
            try:
                positives.append(int(text))
            except ValueError:
                raise ValueError(f"line {line_number}: expected an integer timestamp, "
                                 f"got {text!r}") from None
    return positives


def cmd_anomaly(args):
    check_anomaly_thresholds(args.tr, args.ratio)  # before the input is read
    positives = None if args.positives is None else _read_positives(args.positives)
    graph, notes = _load_graph(args, positives)
    # Only cores wider than tr are read, and their maximality depends on wider intervals alone.
    maximal = maximal_span_cores(graph, min_span=args.tr + 1)
    report = detect_anomalies(graph, maximal, tr=args.tr, ratio=args.ratio)
    payload = {
        "tr": args.tr,
        "ratio": args.ratio,
        "anomalous_intervals": [[iv.start, iv.end] for iv in sorted(report.anomalous_intervals)],
        "anomalous_vertices_by_time": {
            str(t): sorted(graph.label_of(v) for v in vs)
            for t, vs in report.anomalous_vertices_by_time.items()
        },
        "removed_contacts": {str(t): count for t, count in sorted(report.removed_contacts.items())},
        "dropped_timestamps": sorted(report.dropped_timestamps),
        "surviving_contacts": report.surviving.contact_count(),
    }
    if positives is not None:
        precision, recall = precision_recall(graph, report, positives)
        payload["precision"] = precision
        payload["recall"] = recall
    return {
        "anomaly-report.json": json.dumps(payload, indent=2) + "\n",
        "cleaned-contacts.txt": "".join(line + "\n" for line in contact_lines(report.surviving)),
    }, [*notes, f"flagged {len(report.anomalous_intervals)} interval(s), "
                f"dropped {len(report.dropped_timestamps)} timestamp(s)"]


def _add_ingest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="contact file, lines of 'u v t'")
    parser.add_argument("--window", type=int, default=1,
                        help="raw-time units per discrete timestamp (default 1)")
    parser.add_argument("--origin", type=int, default=None,
                        help="raw time mapped to timestamp 0 (default: earliest seen)")
    parser.add_argument("--strict", action="store_true",
                        help="abort on malformed contact lines instead of skipping")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")


def _add_engine_flags(parser: argparse.ArgumentParser, engines: list[str], default: str) -> None:
    parser.add_argument("--engine", choices=engines, default=default)
    parser.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    parser.add_argument("--bench", action="store_true",
                        help="also write bench.json with time/memory/processed-vertices")
    parser.set_defaults(func=cmd_cores)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or that of `command` alone; its usage still names all of `_COMMANDS`,
    so on an argv that starts with `command` it prints what the full parser prints."""
    parser = argparse.ArgumentParser(
        prog="spancores",
        description="Span-core decomposition and analysis of temporal graphs.",
    )
    parser.add_argument("--version", action="version", version=f"spancores {__version__}")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "decompose"):
        p = sub.add_parser("decompose", help="compute the full span-core decomposition")
        _add_ingest_flags(p)
        _add_output_flags(p)
        _add_engine_flags(p, ["naive", "pruned"], "pruned")
    if command in (None, "maximal"):
        p = sub.add_parser("maximal", help="compute only the maximal span-cores")
        _add_ingest_flags(p)
        _add_output_flags(p)
        _add_engine_flags(p, ["filter", "direct"], "direct")
    if command in (None, "stats"):
        p = sub.add_parser("stats", help="summary tables for a core file")
        p.add_argument("--cores", required=True, help="core file from decompose/maximal")
        _add_output_flags(p)
        p.set_defaults(func=cmd_stats)
    if command in (None, "grid"):
        p = sub.add_parser("grid", help="highest order per (start, span) cell")
        p.add_argument("--cores", required=True, help="core file from decompose/maximal")
        p.add_argument("--min-span", type=int, default=1, help="drop cells narrower than this")
        _add_output_flags(p)
        p.set_defaults(func=cmd_grid)
    if command in (None, "purity"):
        p = sub.add_parser("purity", help="attribute purity of cores over time")
        p.add_argument("--cores", required=True, help="core file, typically maximal cores")
        p.add_argument("--attributes", required=True, help="CSV 'label,attr1,...'")
        p.add_argument("--attribute", required=True, help="attribute column to score")
        _add_output_flags(p)
        p.set_defaults(func=cmd_purity)
    if command in (None, "shuffle"):
        p = sub.add_parser("shuffle", help="degree-preserving reshuffle of each timestamp")
        _add_ingest_flags(p)
        _add_output_flags(p)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"RNG seed (default {DEFAULT_SEED})")
        p.set_defaults(func=cmd_shuffle)
    if command in (None, "anomaly"):
        p = sub.add_parser("anomaly", help="detect and strip long-lived core activity")
        _add_ingest_flags(p)
        _add_output_flags(p)
        p.add_argument("--tr", type=int, required=True,
                       help="flag maximal cores spanning more than this many timestamps")
        p.add_argument("--ratio", type=float, default=None,
                       help="also drop timestamps with original/filtered contacts above this "
                            "positive, finite ratio")
        p.add_argument("--positives", default=None,
                       help="file of known-anomalous timestamps, one per line")
        p.set_defaults(func=cmd_anomaly)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    # The cyclic collector is paused for the command, then left as the caller had
    # it. The data path makes no reference cycles; a command's own cyclic garbage
    # is a fixed few hundred argparse and json objects, so memory cannot grow with input.
    collecting = gc.isenabled()
    gc.disable()
    try:
        _check_out(args.out)  # before any input is read
        artifacts, notes = args.func(args)
        artifacts["run-manifest.json"] = _manifest(args)  # last, so it marks a whole run
        out = Path(args.out)
        with _named(out):
            out.mkdir(parents=True, exist_ok=True)
        with _named(out / "run-manifest.json"):  # no earlier run's manifest beside new artifacts
            (out / "run-manifest.json").unlink(missing_ok=True)
        for name, text in artifacts.items():
            with _named(out / name):  # the artifact, not its temp file
                _write_atomic(out / name, text)
        for note in notes:
            print(note, file=sys.stderr)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
