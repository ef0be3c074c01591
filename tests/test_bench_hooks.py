"""The benchmark's traced run must find every function it wraps.

perfbench/tracer.py wraps module attributes of the program by name; a name
that a change removes or renames is reported as absent, and the benchmark's
result line then carries the string "absent" where a number belongs.
"""

from __future__ import annotations

import io
from collections import Counter
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


# A triangle over [0,1], sparse timestamps 5 and 9 and a dense one at 7, with
# empty runs between: the seeds take both vertex sets of the kernel, and the
# anomaly pass decomposes the flagged interval [0,1].
GAPPY_CONTACTS = """\
a b 0
b c 0
a c 0
a b 1
b c 1
a c 1
d e 5
f g 5
d e 7
e f 7
f g 7
g h 7
h i 7
a b 9
"""


def test_traced_pipeline_counts_every_kernel_call(monkeypatch, tmp_path):
    """decompose, anomaly and shuffle run under the tracer, which takes len() of kernel inputs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    from spancores import cli

    contacts = tmp_path / "contacts.txt"
    contacts.write_text(GAPPY_CONTACTS)
    hooks = tracer.Tracer()
    hooks.prepare()
    with hooks.active():
        for step in (["decompose"], ["anomaly", "--tr", "1"], ["shuffle"]):
            argv = [*step, "--input", str(contacts), "--out", str(tmp_path / step[0])]
            assert cli.main(argv) == 0
    counts = hooks.counts
    # The five seeds only: [0,1] keeps the triangle of the seed at 0, so it
    # takes that seed's cores without a kernel call.
    assert counts["span_cores.core_decomposition"] == 5
    assert counts["analysis.core_decomposition"] == 1
    for key in ("kernel.vertices_in", "kernel.edges_in", "kernel.labelled"):
        assert type(counts[key]) is int and counts[key] > 0
    # Beside the direct engine's candidates: endpoints only for the seeds at
    # 0, 1, 5, 9 and for the anomaly pass's [0,1], and all nine vertices for
    # the dense seed at 7. The pruned engine's [0,1] reuses its left parent's
    # cores, so its candidates never reach the kernel.
    assert (counts["kernel.vertices_in"] - counts["maximal.processed_vertices"]
            == 3 + 3 + 4 + 2 + 3 + 9)


def test_maximal_run_parses_and_ingests_once(monkeypatch, tmp_path):
    """A maximal run on a canonical file records one parse span and one ingest span.

    perfbench/run.py also checks len() of the parse result against the line
    count of each generated file.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    from spancores import cli, parse_contact_lines

    contacts = tmp_path / "contacts.txt"
    contacts.write_text(GAPPY_CONTACTS)
    hooks = tracer.Tracer()
    hooks.prepare()
    with hooks.active():
        argv = ["maximal", "--input", str(contacts), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
    spans = Counter(hooks.names[code] for code in hooks.name_code)
    assert spans["cli.parse_contact_lines"] == 1
    assert spans["cli.ingest_contacts"] == 1
    with contacts.open(encoding="utf-8") as handle:
        parsed, _ = parse_contact_lines(handle, strict=True)
    assert len(parsed) == len(GAPPY_CONTACTS.splitlines()) == 14
