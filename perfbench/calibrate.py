"""Machine-speed calibration for the end-to-end time metrics.

On a shared machine the CPU speed a process sees drifts by tens of percent
over seconds to minutes, far more than the changes the benchmark must
resolve. A short fixed pure-Python workload, timed right before and after
each measured job, tracks that drift: over a minute of alternating runs its
time correlated with the job time at about 0.8. Dividing by it removes most
of the drift.

Reported times are therefore wall times scaled to a reference speed:
`raw * REFERENCE_S / calibration`, where calibration is the mean of the two
calibration runs around the measurement. The unit stays seconds; the raw
wall times are kept in the run details.
"""

from __future__ import annotations

from time import perf_counter

# Calibration time defined as the reference speed (its typical value on the
# 2-vCPU Xeon machine the benchmark was tuned on).
REFERENCE_S = 0.030


def calibrate() -> float:
    """Seconds taken by a fixed mix of dict, set, sort, str and int work."""
    started = perf_counter()
    table: dict[int, int] = {}
    pairs: set[tuple[int, int]] = set()
    for i in range(40_000):
        table[i] = i * 7 % 1013
        pairs.add((i % 997, i % 991))
    sorted(table.items(), key=lambda item: item[1])
    ",".join(str(value) for value in range(20_000))
    return perf_counter() - started


def scaled(raw_s: float, calibration_s: float) -> float:
    """Wall time `raw_s` at the reference speed."""
    return raw_s * REFERENCE_S / calibration_s
