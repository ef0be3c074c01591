"""spancores benchmark: seeded CLI pipeline workloads, timed and traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload full-community --seed 1 --seconds 25 --trace 0

Workloads: full-community, maximal-community, anomaly-sparse (see
workloads.py). One run writes the workload's instances from --seed, times
cold starts of the CLI, and runs jobs one at a time in a fresh child process.
The child runs a fixed number of whole cycles over the instances, set by
--seconds and the workload's nominal cycle time (workloads.CYCLE_S), so the
job count, and with it the tail percentile, is the same for every commit. A
job is a pipeline of subcommands called in-process through
`spancores.cli.main(argv)`. With --trace 1 the child runs every job twice
in a row, once plain and once with timing wrappers installed, on half the
cycles; the run then reports the per-layer metrics instead of the end-to-end
ones.

Outputs are checked against the library outside the timed region, every
repetition of an instance must write identical artifacts, traced and
untraced jobs must agree, and digests and counts must match earlier runs of
the same seed on the same code (kept under perfbench/_state, keyed by a
digest of src/ and of the benchmark's own files). The last line of stdout is
the result object; the line before it holds the details: job count, tail
percentile, failed_ops, raw (uncalibrated) times, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import REFERENCE_S, calibrate, scaled
from metrics import OVERHEAD, job_time_stats, layer_values

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
STATE = HERE / "_state"
RUNS = HERE / "_runs"

CHILD_TIMEOUT_S = 170
CHILD_CAP_S = 100  # a timed child starts no further cycle after this long
MIN_JOBS = 11  # the tail needs ten jobs beyond it
SETUP_REPEATS = 9


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env(work: Path) -> dict[str, str]:
    """Fixed environment for every child: hash seed, UTF-8 locale, one thread."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
        "LANG": "C.UTF-8",
        "PYTHONPYCACHEPREFIX": str(work / "pycache"),
        "OMP_NUM_THREADS": "1",
    }


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _write_json(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def measure_setup(work: Path, env: dict[str, str]) -> list[tuple[float, float]]:
    """(wall s, calibration s) of cold `python -m spancores --version` runs.

    The first run only fills the bytecode cache and is not kept.
    """
    samples = []
    closing = calibrate()
    for repeat in range(SETUP_REPEATS + 1):
        started = perf_counter()
        done = subprocess.run([sys.executable, "-m", "spancores", "--version"], cwd=work,
                              env=env, capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - started
        if done.returncode != 0 or not done.stdout.startswith("spancores "):
            raise RuntimeError(f"spancores --version failed: {done.stderr.strip()}")
        opening, closing = closing, calibrate()
        if repeat:
            samples.append((elapsed, (opening + closing) / 2))
    return samples


def run_child(mode: str, work: Path, instances, **plan) -> dict:
    """Run child.py in `work/<mode>` and return its result record."""
    job_dir = work / mode
    job_dir.mkdir()
    plan.update(mode=mode, src=str(SRC),
                instances=[{"steps": inst.steps, "out": inst.out_dir()} for inst in instances])
    plan_path, result_path = work / f"{mode}-plan.json", work / f"{mode}-result.json"
    log_path = work / f"{mode}.log"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with log_path.open("w", encoding="utf-8") as log:
        done = subprocess.run([sys.executable, str(HERE / "child.py"), str(plan_path),
                               str(result_path)], cwd=job_dir, env=_child_env(work),
                              stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        tail = log_path.read_text(encoding="utf-8").strip().splitlines()[-3:]
        raise RuntimeError(f"{mode} child exited {done.returncode}: {' | '.join(tail)}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def code_digest() -> str:
    """sha256 over the program's sources and the benchmark's own modules.

    Keys the determinism state, so only runs of the same code are compared:
    a change that alters the work counts or the artifacts starts a new record.
    """
    digest = hashlib.sha256()
    files = [path for path in SRC.rglob("*") if path.is_file() and "__pycache__" not in path.parts]
    for path in sorted(files) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(HERE.parent)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_state(path: Path, observed: dict) -> list[str]:
    """Compare deterministic digests and counts with earlier runs of this seed and code."""
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    problems = [f"{key} differs from an earlier run with this seed and code"
                for key, value in observed.items() if recorded.get(key, value) != value]
    if not problems:
        path.parent.mkdir(exist_ok=True)
        _write_json(path, {**recorded, **observed})
    return problems


def verify_jobs(args, instances, work: Path, child: dict) -> tuple[list[str], int, dict, dict]:
    """Check outputs against the library and repetitions against each other.

    Returns problems, failed job count, per-instance facts and reference
    digests. A job fails when it errs, when its artifacts differ from the
    checked ones of its instance, or when that instance's check fails.
    """
    problems: list[str] = []
    facts, reference, broken = {}, {}, set()
    for index, inst in enumerate(instances):
        found, facts[inst.name] = workloads.verify(args.workload, inst, work / child["mode"])
        problems += found
        if found:
            broken.add(index)
        repetitions = [job for job in child["jobs"] if job["instance"] == index]
        # The files on disk are the last repetition's; every other must match them.
        reference[index] = repetitions[-1]["digests"] if repetitions else {}
    failed = 0
    for job in child["jobs"]:
        index = job["instance"]
        if job["error"]:
            problems.append(f"{instances[index].name}: {job['error']}")
        elif job["digests"] != reference[index]:
            problems.append(f"{instances[index].name}: artifacts differ between repetitions")
        elif index not in broken:
            continue
        failed += 1
    return problems, failed, facts, reference


def end_to_end(instances, setup_samples, timed: dict) -> tuple[dict, dict]:
    """End-to-end metric values and their details."""
    jobs = timed["jobs"]
    scaled_s = [job["scaled_s"] for job in jobs]
    raw_s = [job["seconds"] for job in jobs]
    times, raw = job_time_stats(scaled_s), job_time_stats(raw_s)
    contacts = sum(instances[job["instance"]].contacts for job in jobs)
    values = {
        "job_s.p50": times["p50"],
        "job_s.tail": times["tail"],
        "contacts_per_s": contacts / sum(scaled_s),
        "peak_rss_mb": timed["max_rss_kb"] / 1024.0,
        "setup_s": statistics.median(scaled(*sample) for sample in setup_samples),
    }
    detail = {
        "jobs": times["jobs"], "tail_percentile": times["tail_percentile"],
        "contacts": contacts, "setup_samples": len(setup_samples),
        "raw_job_s_p50": raw["p50"], "raw_job_s_tail": raw["tail"],
        "raw_contacts_per_s": contacts / sum(raw_s),
        "raw_setup_s": statistics.median(wall for wall, _ in setup_samples),
        "calibration_s": statistics.median(REFERENCE_S * r / s for r, s in zip(raw_s, scaled_s)),
    }
    return values, detail


def per_layer(instances, facts: dict, paired: dict) -> tuple[dict, dict, dict]:
    """Per-layer metric values, their details, and the deterministic counts."""
    summary = paired["trace"]
    jobs = [job for job in paired["jobs"] if job["traced"]]
    ingested = {key: sum(facts[instances[job["instance"]].name][key] for job in jobs)
                for key in ("timestamps", "empty_timestamps")}
    values = layer_values(summary, len(jobs), ingested)
    untraced_p50 = statistics.median(job["scaled_s"] for job in paired["jobs"]
                                     if not job["traced"])
    traced_p50 = statistics.median(job["scaled_s"] for job in jobs)
    # The two runs of a job are adjacent, so their raw wall times see nearly
    # the same machine speed; the median ratio over jobs leaves out the
    # calibration's own jitter and the spread of instance sizes.
    pairs: dict[int, dict[bool, float]] = {}
    for job in paired["jobs"]:
        pairs.setdefault(job["job"], {})[job["traced"]] = job["seconds"]
    values[OVERHEAD] = statistics.median(pair[True] / pair[False]
                                         for pair in pairs.values()) - 1.0
    counts = {name: total / len(jobs) for name, total in sorted(summary["counts"].items())}
    detail = {
        "jobs": len(jobs), "untraced_job_s_p50": untraced_p50, "traced_job_s_p50": traced_p50,
        "job_span_s": summary["job_span_s"], "layer_sum_s": sum(summary["self_s"].values()),
        "counts": counts, "absent": summary["absent"],
    }
    return values, detail, counts


def report(args, instances, work: Path, setup_samples, child: dict,
           phases: dict[str, float]) -> int:
    """Verify every job, compute the metrics, print the detail and result lines."""
    started = perf_counter()
    problems, failed, facts, reference = verify_jobs(args, instances, work, child)
    phases["verify"] = perf_counter() - started

    observed = {"digests": {inst.name: reference[i] for i, inst in enumerate(instances)},
                "facts": facts}
    if args.trace:
        values, detail, observed["trace_counts"] = per_layer(instances, facts, child)
    else:
        values, detail = end_to_end(instances, setup_samples, child)
    code = code_digest()
    problems += check_state(STATE / f"{args.workload}-seed{args.seed}-{code[:16]}.json",
                            observed)

    attempted = len(child["jobs"])
    env = _child_env(work)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **detail,
        "capped": child["capped"],
        "attempted": attempted, "failed": failed, "failed_ops": failed / attempted,
        "problems": problems[:20],
        "phase_s": {name: round(seconds, 3) for name, seconds in phases.items()},
        "environment": {"PYTHONHASHSEED": env["PYTHONHASHSEED"], "LC_ALL": env["LC_ALL"],
                        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"], "jobs_at_a_time": 1,
                        "child_threads": child["threads"], "child_encoding": child["encoding"]},
        "nproc": os.cpu_count(), "python": platform.python_version(), "commit": _git_commit(),
        "code_digest": code,
    }
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    unlisted = sorted(set(values) - set(units))
    if unlisted:
        raise RuntimeError(f"metrics missing from {SPEC.name}: {', '.join(unlisted)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    _write_json(RUNS / f"{args.workload}-trace{args.trace}.json",
                {"detail": detail, "result": result})
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    if not (SRC / "spancores" / "__init__.py").is_file():
        return _fail(f"no spancores package under {SRC}; run from a source checkout")
    if not SPEC.is_file():
        return _fail(f"no {SPEC.name} beside {HERE.name}/; run from a source checkout")

    sys.dont_write_bytecode = True  # leave the checkout's src/ untouched
    sys.path.insert(0, str(SRC))
    import spancores
    from spancores import parse_contact_lines
    if SRC not in Path(spancores.__file__).resolve().parents:
        return _fail(f"spancores imported from {spancores.__file__}, not {SRC}")

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RUNS.mkdir(exist_ok=True)
    phases: dict[str, float] = {}
    mark = perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        phases[name], mark = perf_counter() - mark, perf_counter()

    try:
        instances = workloads.generate(args.workload, args.seed, work / "inputs")
        for inst in instances:
            with (work / "inputs" / Path(inst.input_path).name).open(encoding="utf-8") as handle:
                parsed, _ = parse_contact_lines(handle, strict=True)
            if len(parsed) != inst.contacts:
                return _fail(f"{inst.name}: wrote {inst.contacts} lines, parsed {len(parsed)}")
        phase("generate")
        setup_samples = []
        if not args.trace:
            setup_samples = measure_setup(work, _child_env(work))
            phase("setup")
        # A paired cycle runs every job twice, so it gets half the cycles.
        budget = args.seconds / 2 if args.trace else args.seconds
        cycles = max(round(budget / workloads.CYCLE_S[args.workload]),
                     -(-MIN_JOBS // len(instances)))
        mode = "paired" if args.trace else "timed"
        child = run_child(mode, work, instances, cycles=cycles, cap_s=CHILD_CAP_S,
                          spans=str(RUNS / f"{args.workload}-spans.json"))
        phase(mode)
        return report(args, instances, work, setup_samples, child, phases)
    except (ValueError, RuntimeError, subprocess.TimeoutExpired) as error:
        return _fail(str(error))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
