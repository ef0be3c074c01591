"""Seeded inputs, CLI pipelines and output checks for the benchmark workloads.

Every instance is generated from the workload seed alone and written to disk
before any timing starts. A job is a pipeline of `spancores` subcommands
given as argv lists; paths in them are relative to the job's working
directory, so the run manifests the CLI writes do not depend on where the
checkout lives.

Instance sizes come from a fixed ladder per workload and the seed only
decides the random content, so two seeds load the program equally.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("full-community", "maximal-community", "anomaly-sparse")

# (vertices, timestamps) per instance, an even ladder from the first size to
# the last. Job times of neighbouring sizes overlap within the run-to-run
# noise, so the median and the tail pool jobs of several instances instead of
# resting on the few repetitions of one.
def _ladder(first: tuple[int, int], last: tuple[int, int], steps: int) -> list[tuple[int, int]]:
    return [tuple(round(a + (b - a) * i / (steps - 1)) for a, b in zip(first, last))
            for i in range(steps)]


COMMUNITY_LADDER = {
    "full-community": _ladder((200, 39), (230, 45), 9),
    "maximal-community": _ladder((850, 28), (950, 32), 9),
}
COMMUNITY_SIZE = 50
COMMUNITY_ACTIVE_P = 0.4
COMMUNITY_P_IN = 0.3
COMMUNITY_CLIQUE = 8
COMMUNITY_NOISE = 20

# Day/night contact log at raw-second resolution, bucketed with --window 20.
# Two days of 4,320 windows keep a job near 0.35 s, so a run holds over forty
# jobs and the tail lies at an upper percentile. The instances
# share one size: with three instances a ladder would make the median the
# time of a single instance.
DAY_SECONDS = 86_400
WINDOW = 20
DAY_START = 9 * 3600
ACTIVE_WINDOWS = 8 * 3600 // WINDOW
SPARSE_SIZE = (150, 2)  # (vertices, days)
SPARSE_INSTANCES = 3
SPARSE_GROUP = 25
SPARSE_ACTIVE_P = 0.06
SPARSE_PAIRS = 2
PLANT_CLIQUE = 6
PLANT_WINDOWS = 30
PLANT_DAYS = 1
ANOMALY_TR = 5
ANOMALY_RATIO = 1.5
SHUFFLE_SEED = 7


# Nominal seconds of one cycle over a workload's instances: its jobs plus the
# calibration runs and digests around them, at the typical speed of the
# 2-vCPU Xeon the benchmark was tuned on. A run does round(budget / CYCLE_S)
# whole cycles, so the job count depends on --seconds alone.
CYCLE_S = {
    "full-community": 4.5,
    "maximal-community": 4.4,
    "anomaly-sparse": 1.2,
}


@dataclass(frozen=True)
class Instance:
    """One generated input and the pipeline a job runs on it."""

    name: str
    input_path: str  # relative to the job directory
    contacts: int
    steps: tuple[tuple[str, ...], ...]
    positives_path: str | None = None

    def out_dir(self) -> str:
        return f"out/{self.name}"


def _community_lines(rng: random.Random, vertices: int, horizon: int) -> list[str]:
    """Bursty communities flicking on and off, plus one persistent clique.

    A fixed share of the communities is active at each timestamp, so the
    contact count depends on the size alone and not on the draw.
    The clique keeps every interval's edge intersection non-empty, so no
    timestamp is empty and the full decomposition has work at every width.
    """
    groups = [range(c, min(c + COMMUNITY_SIZE, vertices))
              for c in range(0, vertices, COMMUNITY_SIZE)]
    lines = []
    for t in range(horizon):
        edges = {(i, j) for i in range(COMMUNITY_CLIQUE) for j in range(i + 1, COMMUNITY_CLIQUE)}
        for group in rng.sample(groups, round(COMMUNITY_ACTIVE_P * len(groups))):
            for a in group:
                for b in range(a + 1, group.stop):
                    if rng.random() < COMMUNITY_P_IN:
                        edges.add((a, b))
        for _ in range(COMMUNITY_NOISE):
            u, v = rng.randrange(vertices), rng.randrange(vertices)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        lines.extend(f"v{u} v{v} {t}" for u, v in sorted(edges))
    return lines


def _sparse_lines(rng: random.Random, vertices: int, days: int) -> tuple[list[str], list[int]]:
    """Office-hours contact log with a clique planted on some days.

    Contacts fall between 09:00 and 17:00 of each day, so nights leave long
    runs of empty windows. On the planted days one clique meets in every
    window of a short stretch; the discrete timestamps of that stretch are
    the positives.
    """
    groups = [list(range(c, min(c + SPARSE_GROUP, vertices)))
              for c in range(0, vertices, SPARSE_GROUP)]
    clique = sorted(rng.sample(range(vertices), PLANT_CLIQUE))
    planted_days = set(rng.sample(range(days), PLANT_DAYS))
    contacts: list[tuple[int, int, int]] = []
    positives: list[int] = []
    for day in range(days):
        plant_from = rng.randrange(ACTIVE_WINDOWS - PLANT_WINDOWS)
        for w in range(ACTIVE_WINDOWS):
            base = day * DAY_SECONDS + DAY_START + w * WINDOW
            for group in groups:
                if rng.random() < SPARSE_ACTIVE_P:
                    for _ in range(SPARSE_PAIRS):
                        u, v = rng.sample(group, 2)
                        contacts.append((base + rng.randrange(WINDOW), u, v))
            if day in planted_days and plant_from <= w < plant_from + PLANT_WINDOWS:
                positives.append(base // WINDOW)
                for i, u in enumerate(clique):
                    for v in clique[i + 1:]:
                        contacts.append((base + rng.randrange(WINDOW), u, v))
    contacts.sort()
    return [f"p{u} p{v} {t}" for t, u, v in contacts], positives


def _community_steps(workload: str, name: str, input_path: str) -> tuple[tuple[str, ...], ...]:
    out = f"out/{name}"
    if workload == "full-community":
        return (
            ("decompose", "--input", input_path, "--origin", "0", "--engine", "pruned",
             "--format", "csv", "--out", out),
            ("stats", "--cores", f"{out}/cores.csv", "--out", out),
            ("grid", "--cores", f"{out}/cores.csv", "--min-span", "2", "--out", out),
        )
    return (
        ("maximal", "--input", input_path, "--origin", "0", "--engine", "direct",
         "--format", "jsonl", "--out", out),
    )


def _sparse_steps(name: str, input_path: str, positives_path: str) -> tuple[tuple[str, ...], ...]:
    out = f"out/{name}"
    ingest = ("--input", input_path, "--window", str(WINDOW), "--origin", "0")
    return (
        ("decompose", *ingest, "--format", "csv", "--out", out),
        ("anomaly", *ingest, "--tr", str(ANOMALY_TR), "--ratio", str(ANOMALY_RATIO),
         "--positives", positives_path, "--out", out),
        ("shuffle", *ingest, "--seed", str(SHUFFLE_SEED), "--out", out),
    )


def generate(workload: str, seed: int, inputs_dir: Path) -> list[Instance]:
    """Write every instance of `workload` for `seed` under `inputs_dir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    inputs_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    instances = []
    ladder = ([SPARSE_SIZE] * SPARSE_INSTANCES if workload == "anomaly-sparse"
              else COMMUNITY_LADDER[workload])
    for index, size in enumerate(ladder):
        name = f"i{index}"
        input_path = f"../inputs/{name}.txt"
        positives_path = None
        if workload == "anomaly-sparse":
            lines, positives = _sparse_lines(rng, *size)
            positives_path = f"../inputs/{name}.positives"
            (inputs_dir / f"{name}.positives").write_text(
                "".join(f"{t}\n" for t in positives), encoding="utf-8")
            steps = _sparse_steps(name, input_path, positives_path)
        else:
            lines = _community_lines(rng, *size)
            steps = _community_steps(workload, name, input_path)
        (inputs_dir / f"{name}.txt").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8")
        instances.append(Instance(name, input_path, len(lines), steps, positives_path))
    return instances


def _label_edges(graph) -> dict[int, set[tuple[str, str]]]:
    """Non-empty edge sets per timestamp, by label pair."""
    by_time = {}
    for t in range(graph.t_max + 1):
        edges = graph.edges_at(t)
        if edges:
            by_time[t] = {tuple(sorted((graph.label_of(u), graph.label_of(v))))
                          for u, v in edges}
    return by_time


def verify(workload: str, instance: Instance, job_dir: Path) -> tuple[list[str], dict]:
    """Check one instance's outputs against the library; return problems and facts.

    Facts are input properties (timestamps, empty timestamps) and the
    deterministic counts the CLI reported.
    """
    # Imported here: run.py puts the checkout's src/ on sys.path only after
    # it has checked that the package is there.
    from spancores import ingest_contacts, parse_contact_lines

    with (job_dir / instance.input_path).open(encoding="utf-8") as handle:
        contacts, _ = parse_contact_lines(handle, strict=True)
    sparse = workload == "anomaly-sparse"
    graph = ingest_contacts(contacts, window=WINDOW if sparse else 1, origin=0)
    facts = {"timestamps": graph.t_max + 1,
             "empty_timestamps": sum(1 for t in range(graph.t_max + 1) if not graph.edges_at(t))}
    problems: list[str] = []
    try:
        _check_outputs(workload, instance, graph, job_dir, problems, facts)
    except (ValueError, KeyError, TypeError) as error:  # unreadable output
        problems.append(f"{instance.name}: {type(error).__name__}: {error}")
    return problems, facts


def _check_outputs(workload: str, instance: Instance, graph, job_dir: Path,
                   problems: list[str], facts: dict) -> None:
    import io

    from spancores import (activity_grid, contact_lines, detect_anomalies, ingest_contacts,
                           maximal_span_cores, naive_maximal_span_cores, naive_span_cores,
                           parse_contact_lines, precision_recall, reshuffle_timestamps,
                           stats_by_order, stats_by_span)
    from spancores.serialize import cores_to_csv, cores_to_jsonl, read_cores, table_to_csv

    out = job_dir / instance.out_dir()

    def produced(name: str) -> str:
        path = out / name
        if not path.is_file():
            problems.append(f"{instance.name}: {name} missing")
            return ""
        return path.read_text(encoding="utf-8")

    def expect(name: str, expected: str) -> str:
        text = produced(name)
        if text and text != expected:
            problems.append(f"{instance.name}: {name} differs from the library recomputation")
        return text

    def reads_back(name: str, text: str):
        return read_cores(io.StringIO(text), name.rsplit(".", 1)[1])

    metrics = json.loads(produced("metrics.json") or "{}")
    facts["processed_vertices"] = metrics.get("processed_vertices")
    facts["cores"] = metrics.get("cores")
    json.loads(produced("run-manifest.json") or "{}")

    if workload == "maximal-community":
        text = expect("maximal.jsonl",
                      cores_to_jsonl(naive_maximal_span_cores(graph), maximal=True))
        reads_back("maximal.jsonl", text)
        return

    cores = reads_back("cores.csv", expect("cores.csv", cores_to_csv(naive_span_cores(graph))))
    if facts["cores"] != len(cores.cores):
        problems.append(f"{instance.name}: metrics.json counts {facts['cores']} cores, "
                        f"cores.csv holds {len(cores.cores)}")
    if workload == "full-community":
        expect("stats_by_order.csv",
               table_to_csv(["k", "count", "mean_size"], stats_by_order(cores)))
        expect("stats_by_span.csv",
               table_to_csv(["span", "count", "mean_size"], stats_by_span(cores)))
        grid = activity_grid(cores, min_span=2)
        expect("grid.csv", table_to_csv(
            ["t_s", "span", "k"], [(s, w, grid[(s, w)]) for s, w in sorted(grid)]))
        return

    report = detect_anomalies(graph, maximal_span_cores(graph), tr=ANOMALY_TR,
                              ratio=ANOMALY_RATIO)
    positives = [int(line) for line in
                 (job_dir / instance.positives_path).read_text(encoding="utf-8").split()]
    precision, recall = precision_recall(graph, report, positives)
    written = json.loads(produced("anomaly-report.json") or "{}")
    expected = {
        "anomalous_intervals": [[iv.start, iv.end] for iv in sorted(report.anomalous_intervals)],
        "dropped_timestamps": sorted(report.dropped_timestamps),
        "surviving_contacts": report.surviving.contact_count(),
        "precision": precision,
        "recall": recall,
    }
    for key, value in expected.items():
        if written.get(key) != value:
            problems.append(f"{instance.name}: anomaly-report.json {key} is "
                            f"{written.get(key)!r}, expected {value!r}")
    cleaned, _ = parse_contact_lines(produced("cleaned-contacts.txt").splitlines(), strict=True)
    if _label_edges(ingest_contacts(cleaned, window=1, origin=0)) != _label_edges(report.surviving):
        problems.append(f"{instance.name}: cleaned-contacts.txt does not re-ingest "
                        "to the surviving graph")
    expect("shuffled.txt", "".join(
        line + "\n" for line in contact_lines(reshuffle_timestamps(graph, seed=SHUFFLE_SEED))))
    facts["precision"], facts["recall"] = precision, recall
