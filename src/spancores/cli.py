"""Command-line front end.

Every subcommand reads its inputs, writes its artifacts atomically into the
output directory, and drops a run-manifest.json echoing the configuration so
a run can be repeated exactly. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

from . import __version__
from .analysis import (
    AttributeTable,
    activity_grid,
    check_anomaly_thresholds,
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
from .temporal_graph import contact_lines, ingest_contacts, parse_contact_lines

DEFAULT_SEED = 0
# Every input file is read with this codec, which drops a leading UTF-8
# byte-order mark instead of making it part of the first label or field.
# Artifacts are written as plain UTF-8.
_READ_ENCODING = "utf-8-sig"


class CliError(Exception):
    pass


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_atomic(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        # mkstemp creates the file 0600; give it the mode a plain open would.
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace) -> None:
    config = {
        key: value for key, value in sorted(vars(args).items())
        if key not in ("func", "command")
    }
    manifest = {
        "tool": "spancores",
        "version": __version__,
        "command": command,
        "config": config,
    }
    _write_atomic(out_dir / "run-manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_graph(args: argparse.Namespace):
    path = Path(args.input)
    if not path.exists():
        raise CliError(f"input file not found: {path}")
    with path.open(encoding=_READ_ENCODING) as handle:
        contacts, skipped = parse_contact_lines(handle, strict=args.strict)
    if skipped:
        _log(f"skipped {skipped} malformed contact line(s)")
    if not contacts:
        raise CliError(f"no contacts in {path}")
    graph = ingest_contacts(contacts, window=args.window, origin=args.origin)
    _log(f"ingested {len(contacts)} contacts -> {graph!r}")
    return graph


def _run_engine(engine, graph, bench: bool):
    result = engine(graph)
    if not bench:
        return result, None
    # tracemalloc slows the engine several-fold, so the time comes from the
    # run above and the peak memory from a second run.
    tracemalloc.start()
    try:
        engine(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bench_payload = {
        "elapsed_ms": elapsed_ms(result.metrics),
        "peak_memory_bytes": peak,
        "processed_vertices": result.metrics.processed_vertices,
    }
    return result, bench_payload


def cmd_cores(args) -> int:
    """Run `decompose` or `maximal`: the chosen engine, then its core file and metrics."""
    graph = _load_graph(args)
    # Looked up on every call, so that a wrapped engine is the one that runs.
    engine = {"pruned": span_cores, "naive": naive_span_cores,
              "direct": maximal_span_cores, "filter": naive_maximal_span_cores}[args.engine]
    result, bench_payload = _run_engine(engine, graph, args.bench)
    maximal = args.command == "maximal"
    stem = "maximal" if maximal else "cores"
    out_dir = Path(args.out)
    if args.format == "csv":
        _write_atomic(out_dir / f"{stem}.csv", cores_to_csv(result))
    else:
        _write_atomic(out_dir / f"{stem}.jsonl", cores_to_jsonl(result, maximal=maximal))
    _write_atomic(out_dir / "metrics.json", metrics_to_json(result.metrics))
    if bench_payload is not None:
        _write_atomic(out_dir / "bench.json", json.dumps(bench_payload, indent=2) + "\n")
    _log(f"wrote {stem}.{args.format} ({len(result.cores)} records)")
    _write_manifest(out_dir, args.command, args)
    return 0


def _read_core_file(path_text: str):
    path = Path(path_text)
    if not path.exists():
        raise CliError(f"core file not found: {path}")
    fmt = "jsonl" if path.suffix == ".jsonl" else "csv"
    with path.open(encoding=_READ_ENCODING) as handle:
        return read_cores(handle, fmt)


def cmd_stats(args) -> int:
    result = _read_core_file(args.cores)
    out_dir = Path(args.out)
    _write_atomic(out_dir / "stats_by_order.csv",
                  table_to_csv(["k", "count", "mean_size"], stats_by_order(result)))
    _write_atomic(out_dir / "stats_by_span.csv",
                  table_to_csv(["span", "count", "mean_size"], stats_by_span(result)))
    _write_manifest(out_dir, "stats", args)
    _log(f"wrote stats for {len(result.cores)} cores")
    return 0


def cmd_grid(args) -> int:
    result = _read_core_file(args.cores)
    grid = activity_grid(result, min_span=args.min_span)
    rows = [(t_s, width, grid[(t_s, width)]) for t_s, width in sorted(grid)]
    out_dir = Path(args.out)
    _write_atomic(out_dir / "grid.csv", table_to_csv(["t_s", "span", "k"], rows))
    _write_manifest(out_dir, "grid", args)
    return 0


def cmd_purity(args) -> int:
    attrs_path = Path(args.attributes)
    if not attrs_path.exists():
        raise CliError(f"attribute file not found: {attrs_path}")
    with attrs_path.open(encoding=_READ_ENCODING) as handle:
        try:
            table = AttributeTable.from_csv(handle)
        except ValueError as error:
            raise CliError(f"{attrs_path} {error}") from None
    table.check_attribute(args.attribute)  # before the core file is read
    result = _read_core_file(args.cores)
    curve = purity_curve(result, table, args.attribute)
    if curve.skipped_vertices:
        _log(f"skipped {curve.skipped_vertices} member(s) without a value")
    out_dir = Path(args.out)
    rows = sorted(curve.by_timestamp.items())
    _write_atomic(out_dir / "purity.csv", table_to_csv(["t", "purity"], rows))
    _write_manifest(out_dir, "purity", args)
    return 0


def cmd_shuffle(args) -> int:
    graph = _load_graph(args)
    shuffled = reshuffle_timestamps(graph, seed=args.seed)
    out_dir = Path(args.out)
    _write_atomic(out_dir / "shuffled.txt", "".join(line + "\n" for line in contact_lines(shuffled)))
    _write_manifest(out_dir, "shuffle", args)
    _log(f"reshuffled {shuffled.contact_count()} contacts with seed {args.seed}")
    return 0


def _read_positives(path_text: str) -> list[int]:
    path = Path(path_text)
    if not path.exists():
        raise CliError(f"positive-timestamp file not found: {path}")
    positives = []
    with path.open(encoding=_READ_ENCODING) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                positives.append(int(text))
            except ValueError:
                raise CliError(f"{path} line {line_number}: expected an integer timestamp, "
                               f"got {text!r}") from None
    return positives


def cmd_anomaly(args) -> int:
    check_anomaly_thresholds(args.tr, args.ratio)  # before the input is read
    positives = None if args.positives is None else _read_positives(args.positives)
    graph = _load_graph(args)
    maximal = maximal_span_cores(graph)
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
    out_dir = Path(args.out)
    _write_atomic(out_dir / "anomaly-report.json", json.dumps(payload, indent=2) + "\n")
    _write_atomic(out_dir / "cleaned-contacts.txt",
                  "".join(line + "\n" for line in contact_lines(report.surviving)))
    _write_manifest(out_dir, "anomaly", args)
    _log(f"flagged {len(report.anomalous_intervals)} interval(s), "
         f"dropped {len(report.dropped_timestamps)} timestamp(s)")
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spancores",
        description="Span-core decomposition and analysis of temporal graphs.",
    )
    parser.add_argument("--version", action="version", version=f"spancores {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="compute the full span-core decomposition")
    _add_ingest_flags(p)
    _add_output_flags(p)
    _add_engine_flags(p, ["naive", "pruned"], "pruned")

    p = sub.add_parser("maximal", help="compute only the maximal span-cores")
    _add_ingest_flags(p)
    _add_output_flags(p)
    _add_engine_flags(p, ["filter", "direct"], "direct")

    p = sub.add_parser("stats", help="summary tables for a core file")
    p.add_argument("--cores", required=True, help="core file from decompose/maximal")
    _add_output_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("grid", help="highest order per (start, span) cell")
    p.add_argument("--cores", required=True, help="core file from decompose/maximal")
    p.add_argument("--min-span", type=int, default=1, help="drop cells narrower than this")
    _add_output_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("purity", help="attribute purity of cores over time")
    p.add_argument("--cores", required=True, help="core file, typically maximal cores")
    p.add_argument("--attributes", required=True, help="CSV 'label,attr1,...'")
    p.add_argument("--attribute", required=True, help="attribute column to score")
    _add_output_flags(p)
    p.set_defaults(func=cmd_purity)

    p = sub.add_parser("shuffle", help="degree-preserving reshuffle of each timestamp")
    _add_ingest_flags(p)
    _add_output_flags(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")
    p.set_defaults(func=cmd_shuffle)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as error:
        _log(f"error: {error}")
        return 2
    except (ValueError, OSError) as error:
        _log(f"error: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
