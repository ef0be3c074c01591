"""Job runner executed in a fresh child process by run.py.

Usage: python child.py PLAN.json RESULT.json

The plan names the instances, the pipelines, the mode and a cycle count: the
child runs that many whole cycles over the instances, or fewer whole cycles
if the cap has passed. Every job calls `spancores.cli.main(argv)` in-process
for each pipeline step. In timed mode each job runs once, untraced. In
paired mode each job runs twice in a row, once untraced and once with the
tracer's wrappers active, alternating which goes first; both runs see
nearly the same machine speed, so the ratio of their wall times measures the
tracer. One untimed warm-up job per kind runs first. Calibration runs
(calibrate.py) bracket each pipeline step.
After each job, outside the timed region, the job's output files are
digested so the parent can check that every repetition wrote the same
artifacts.

Timed mode imports only the program, the standard library and the
calibration loop; it never starts tracemalloc, and no step passes `--bench`.
"""

from __future__ import annotations

import hashlib
import json
import locale
import resource
import shutil
import sys
import threading
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter


def digest_outputs(out_dir: Path) -> dict[str, str]:
    """sha256 per output file; metrics.json without its elapsed_ms field."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "metrics.json":
            payload = json.loads(data)
            payload.pop("elapsed_ms", None)
            data = json.dumps(payload, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def _run_step(main, argv) -> str | None:
    """Run one CLI call; return None on success or a one-line failure."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    except Exception:  # a crash is a failed job, not a failed benchmark
        return f"{argv[0]}: " + traceback.format_exc().strip().splitlines()[-1]
    return None if code == 0 else f"{argv[0]}: exit code {code}"


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import spancores
    from spancores import cli

    if src not in Path(spancores.__file__).resolve().parents:
        raise SystemExit(f"spancores imported from {spancores.__file__}, not from {src}")

    from calibrate import calibrate, scaled

    instances = plan["instances"]
    tracer = None
    if plan["mode"] == "paired":
        from tracer import Tracer
        tracer = Tracer()
        tracer.prepare()

    # Measurements are bracketed by calibration runs; each closing run opens
    # the next bracket.
    last_calibration = [calibrate()]

    def bracket() -> float:
        opening, last_calibration[0] = last_calibration[0], calibrate()
        return (opening + last_calibration[0]) / 2

    def run_job(job_id: int, index: int, traced: bool = False) -> dict:
        steps = instances[index]["steps"]
        out_dir = Path(instances[index]["out"])
        shutil.rmtree(out_dir, ignore_errors=True)
        error = None
        # Each step is calibrated on its own, which tracks speed drift within
        # long pipelines more closely; a traced step is one root span.
        seconds = scaled_s = 0.0
        with tracer.active() if traced else nullcontext():
            for argv in steps:
                started = perf_counter()
                if traced:
                    error = tracer.run_job(job_id, _run_step, cli.main, argv)
                else:
                    error = _run_step(cli.main, argv)
                elapsed = perf_counter() - started
                seconds += elapsed
                scaled_s += scaled(elapsed, bracket())
                if error:
                    break
        record = {"job": job_id, "instance": index, "traced": traced, "seconds": seconds,
                  "scaled_s": scaled_s, "error": error}
        record["digests"] = digest_outputs(out_dir) if out_dir.is_dir() else {}
        return record

    run_job(-1, 0)  # warm-up: imports, parser, allocator and caches settle
    if tracer is not None:
        run_job(-1, 0, traced=True)
        tracer.reset()

    jobs = []
    capped = False
    started = perf_counter()
    for cycle in range(plan["cycles"]):
        if cycle and perf_counter() - started >= plan["cap_s"]:
            capped = True
            break
        for index in range(len(instances)):
            if tracer is None:
                jobs.append(run_job(len(jobs), index))
                continue
            job_id = len(jobs) // 2
            for traced in (False, True) if job_id % 2 == 0 else (True, False):
                jobs.append(run_job(job_id, index, traced))

    result = {
        "mode": plan["mode"],
        "jobs": jobs,
        "capped": capped,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": threading.active_count(),
        "encoding": locale.getpreferredencoding(False),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(Path(plan["spans"]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
