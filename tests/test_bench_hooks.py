"""The benchmark's traced run must find every function it wraps.

perfbench/tracer.py wraps module attributes of the program by name; a name
that a change removes or renames is reported as absent, and the benchmark's
result line then carries the string "absent" where a number belongs.
"""

from __future__ import annotations

import io
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    hooks = tracer.Tracer()
    hooks.prepare()
    assert hooks.absent == []


def test_read_hook_counts_every_record(monkeypatch, g_ex):
    """serialize.records_read is the number of data rows of the core file read."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    from spancores import cli, span_cores
    from spancores.serialize import cores_to_csv, cores_to_jsonl

    result = span_cores(g_ex)
    csv_text, jsonl_text = cores_to_csv(result), cores_to_jsonl(result)
    for fmt, text, rows in (("csv", csv_text, len(csv_text.splitlines()) - 1),
                            ("jsonl", jsonl_text, len(jsonl_text.splitlines()))):
        hooks = tracer.Tracer()
        hooks.prepare()
        with hooks.active():
            assert hasattr(cli.read_cores, "__wrapped__")  # the traced wrapper runs
            cli.read_cores(io.StringIO(text), fmt)
        assert rows == 9
        assert hooks.counts["serialize.records_read"] == rows
