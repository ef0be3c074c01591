"""The benchmark's traced run must find every function it wraps.

perfbench/tracer.py wraps module attributes of the program by name; a name
that a change removes or renames is reported as absent, and the benchmark's
result line then carries the string "absent" where a number belongs.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    hooks = tracer.Tracer()
    hooks.prepare()
    assert hooks.absent == []
