from __future__ import annotations

import argparse
import csv
import errno
import gc
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import spancores
from spancores import (AttributeTable, MaximalTrace, TemporalGraph, activity_grid, cli,
                       contact_lines, ingest_contacts, parse_contact_lines, purity_curve,
                       span_cores, stats_by_order, stats_by_span)
from spancores.cli import main
from spancores.serialize import table_to_csv
from .conftest import (canonical_dump, community_temporal_graph, planted_clique_graph,
                       ratio_fixture_graph)

G_EX_CONTACTS = """\
# worked example, pre-discretized
a b 0
b c 0
a c 0
c d 0
a b 1
b c 1
a c 1
a b 2
"""


@pytest.fixture
def contact_file(tmp_path):
    path = tmp_path / "contacts.txt"
    path.write_text(G_EX_CONTACTS)
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def command_argv(command, contact_file, tmp_path) -> list:
    """Arguments, all but --out, that run `command` on `contact_file`; side inputs and
    core files are made here, and the run that makes a core file leaves notes on stderr."""
    if command in ("decompose", "maximal", "shuffle"):
        return [command, "--input", contact_file]
    if command == "anomaly":
        positives = tmp_path / "positives.txt"
        positives.write_text("1\n")
        return [command, "--input", contact_file, "--tr", 1, "--positives", positives]
    cores = tmp_path / "cores"
    assert run("maximal" if command == "purity" else "decompose",
               "--input", contact_file, "--out", cores) == 0
    if command != "purity":
        return [command, "--cores", cores / "cores.csv"]
    attrs = tmp_path / "attrs.csv"
    attrs.write_text("label,dept\na,P\nb,Q\n")  # c and d have no value
    return [command, "--cores", cores / "maximal.csv", "--attributes", attrs, "--attribute", "dept"]


class TestDecompose:
    def test_writes_expected_artifacts(self, contact_file, tmp_path):
        out = tmp_path / "out"
        assert run("decompose", "--input", contact_file, "--origin", 0, "--out", out) == 0
        cores = (out / "cores.csv").read_text()
        assert cores.startswith("k,t_s,t_e,size,members\n")
        assert len(cores.splitlines()) == 10
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["processed_vertices"] == 19
        assert metrics["cores"] == 9
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["tool"] == "spancores"
        assert manifest["command"] == "decompose"
        assert manifest["config"]["engine"] == "pruned"

    def test_engines_write_identical_core_files(self, contact_file, tmp_path):
        for engine in ("naive", "pruned"):
            assert run("decompose", "--input", contact_file, "--origin", 0,
                       "--engine", engine, "--out", tmp_path / engine) == 0
        assert ((tmp_path / "naive" / "cores.csv").read_text()
                == (tmp_path / "pruned" / "cores.csv").read_text())

    def test_jsonl_format(self, contact_file, tmp_path):
        out = tmp_path / "out"
        assert run("decompose", "--input", contact_file, "--origin", 0,
                   "--format", "jsonl", "--out", out) == 0
        lines = (out / "cores.jsonl").read_text().splitlines()
        assert len(lines) == 9
        assert json.loads(lines[0])["k"] == 1

    def test_bench_flag_emits_triple(self, contact_file, tmp_path):
        out = tmp_path / "out"
        assert run("decompose", "--input", contact_file, "--origin", 0,
                   "--bench", "--out", out) == 0
        bench = json.loads((out / "bench.json").read_text())
        assert set(bench) == {"elapsed_ms", "peak_memory_bytes", "processed_vertices"}
        assert bench["processed_vertices"] == 19

    @pytest.mark.parametrize("command", ["decompose", "maximal"])
    def test_bench_time_is_the_engine_run_time(self, contact_file, tmp_path, command):
        out = tmp_path / "out"
        assert run(command, "--input", contact_file, "--bench", "--out", out) == 0
        bench = json.loads((out / "bench.json").read_text())
        metrics = json.loads((out / "metrics.json").read_text())
        assert bench["elapsed_ms"] == metrics["elapsed_ms"]
        assert bench["peak_memory_bytes"] > 0

    @pytest.mark.parametrize("command", ["decompose", "maximal"])
    def test_elapsed_ms_covers_the_whole_engine_call(self, contact_file, tmp_path,
                                                     monkeypatch, command):
        """Work an engine does after its last core, such as its sort, is timed too."""
        def slow(engine):
            def wrapper(graph):
                result = engine(graph)
                time.sleep(0.05)
                return result
            return wrapper
        monkeypatch.setattr(cli, "span_cores", slow(cli.span_cores))
        monkeypatch.setattr(cli, "maximal_span_cores", slow(cli.maximal_span_cores))
        out = tmp_path / "out"
        assert run(command, "--input", contact_file, "--bench", "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        bench = json.loads((out / "bench.json").read_text())
        assert metrics["elapsed_ms"] >= 50
        assert bench["elapsed_ms"] == metrics["elapsed_ms"]

    def test_bench_leaves_a_callers_tracing_on(self, contact_file, tmp_path):
        """The peak is the engine run's own, not the caller's memory or earlier peak."""
        tracemalloc.start()
        try:
            held = bytearray(20_000_000)  # traced before the run, so not the engine's
            bytearray(50_000_000)  # freed at once, but the caller's peak is now 70 MB
            assert run("decompose", "--input", contact_file, "--bench", "--out", tmp_path) == 0
            assert tracemalloc.is_tracing()
            del held
        finally:
            tracemalloc.stop()
        bench = json.loads((tmp_path / "bench.json").read_text())
        assert 0 < bench["peak_memory_bytes"] < 1_000_000

    def test_the_collector_is_paused_for_the_command_and_left_as_found(
            self, contact_file, tmp_path, monkeypatch):
        seen = []

        def engine(graph):
            seen.append(gc.isenabled())
            return span_cores(graph)

        monkeypatch.setattr(cli, "span_cores", engine)
        try:
            gc.enable()
            assert run("decompose", "--input", contact_file, "--out", tmp_path / "a") == 0
            assert seen == [False]
            assert gc.isenabled()
            assert run("decompose", "--input", contact_file, "--window", 0,
                       "--out", tmp_path / "b") == 2
            assert gc.isenabled()
            with pytest.raises(SystemExit):  # argparse exits before the pause
                run("decompose", "--no-such-flag")
            assert gc.isenabled()
            gc.disable()  # a caller that paused the collector itself
            assert run("decompose", "--input", contact_file, "--out", tmp_path / "c") == 0
            assert run("decompose", "--input", tmp_path / "absent.txt", "--out", tmp_path) == 2
            assert not gc.isenabled()
            assert seen == [False, False]
        finally:
            gc.enable()

    def test_a_command_leaves_as_much_cyclic_garbage_for_any_input_size(self, tmp_path):
        """While the collector is paused, only the command's fixed argparse and json
        cycles pile up; a cycle that grows with the input would show here."""
        small = tmp_path / "small.txt"
        small.write_text("a b 0\nb c 0\na c 1\n")
        large = tmp_path / "large.txt"
        large.write_text("".join(line + "\n" for line in
                                 contact_lines(community_temporal_graph(200, 30, communities=4))))
        gc.collect(0)
        gc.disable()
        try:
            garbage = []
            for path in (small, large):
                assert run("decompose", "--input", path, "--out", tmp_path / path.stem) == 0
                garbage.append(gc.collect(0))
        finally:
            gc.enable()
        assert garbage[0] == garbage[1]

    def test_windowing_flags_are_applied(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("a b 0\na b 10\nb a 25\na c 70\n")
        out = tmp_path / "out"
        assert run("decompose", "--input", path, "--window", 60, "--out", out) == 0
        rows = (out / "cores.csv").read_text().splitlines()
        assert rows[1:] == ["1,0,0,2,a;b", "1,1,1,2,a;c"]


class TestMaximal:
    def test_both_engines_agree(self, contact_file, tmp_path):
        for engine in ("filter", "direct"):
            assert run("maximal", "--input", contact_file, "--origin", 0,
                       "--engine", engine, "--out", tmp_path / engine) == 0
        assert ((tmp_path / "filter" / "maximal.csv").read_text()
                == (tmp_path / "direct" / "maximal.csv").read_text())

    def test_jsonl_marks_records_maximal(self, contact_file, tmp_path):
        out = tmp_path / "out"
        assert run("maximal", "--input", contact_file, "--origin", 0,
                   "--format", "jsonl", "--out", out) == 0
        records = [json.loads(l) for l in (out / "maximal.jsonl").read_text().splitlines()]
        assert len(records) == 2
        assert all(r["maximal"] is True for r in records)


class TestStatsGridPurity:
    @pytest.fixture
    def core_file(self, contact_file, tmp_path):
        out = tmp_path / "cores-out"
        assert run("decompose", "--input", contact_file, "--origin", 0, "--out", out) == 0
        return out / "cores.csv"

    def test_stats_tables(self, core_file, tmp_path):
        out = tmp_path / "stats-out"
        assert run("stats", "--cores", core_file, "--out", out) == 0
        assert (out / "stats_by_order.csv").read_text() == (
            "k,count,mean_size\n1,6,2.666666667\n2,3,3\n"
        )
        assert (out / "stats_by_span.csv").read_text() == (
            "span,count,mean_size\n1,5,3\n2,3,2.666666667\n3,1,2\n"
        )

    def test_stats_on_empty_core_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("k,t_s,t_e,size,members\n")
        out = tmp_path / "out"
        assert run("stats", "--cores", empty, "--out", out) == 0
        assert (out / "stats_by_order.csv").read_text() == "k,count,mean_size\n"
        assert (out / "stats_by_span.csv").read_text() == "span,count,mean_size\n"

    def test_grid(self, core_file, tmp_path):
        out = tmp_path / "grid-out"
        assert run("grid", "--cores", core_file, "--out", out) == 0
        assert (out / "grid.csv").read_text() == (
            "t_s,span,k\n0,1,2\n0,2,2\n0,3,1\n1,1,2\n1,2,1\n2,1,1\n"
        )

    def test_grid_min_span(self, core_file, tmp_path):
        out = tmp_path / "grid-out"
        assert run("grid", "--cores", core_file, "--min-span", 2, "--out", out) == 0
        assert (out / "grid.csv").read_text() == "t_s,span,k\n0,2,2\n0,3,1\n1,2,1\n"

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("command", ["stats", "grid"])
    def test_a_core_file_reads_alike_through_a_fifo_and_under_any_name(
            self, contact_file, tmp_path, command, fmt):
        """A name other than .jsonl or .csv is read by its first non-blank character."""
        assert run("maximal", "--input", contact_file, "--format", fmt, "--out", tmp_path) == 0
        content = (tmp_path / f"maximal.{fmt}").read_bytes()
        renamed = tmp_path / "maximal.txt"
        renamed.write_bytes(b"\n  " + content if fmt == "jsonl" else content)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(content,), daemon=True)
        writer.start()
        outputs = []
        for source in (tmp_path / f"maximal.{fmt}", renamed, fifo):
            out = tmp_path / f"out-{source.name}"
            assert run(command, "--cores", source, "--out", out) == 0
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()
                            if path.name != "run-manifest.json"})
        writer.join(timeout=5)
        assert not writer.is_alive()
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]

    def test_purity(self, contact_file, tmp_path):
        maximal_out = tmp_path / "maximal-out"
        assert run("maximal", "--input", contact_file, "--origin", 0,
                   "--out", maximal_out) == 0
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("label,dept\na,P\nb,P\nc,Q\nd,Q\n")
        out = tmp_path / "purity-out"
        assert run("purity", "--cores", maximal_out / "maximal.csv",
                   "--attributes", attrs, "--attribute", "dept", "--out", out) == 0
        # maximal cores: {a,b,c} over [0,1] (purity 2/3), {a,b} over [0,2] (purity 1)
        assert (out / "purity.csv").read_text() == (
            "t,purity\n0,0.8333333333\n1,0.8333333333\n2,1\n"
        )

    def test_tables_of_a_quoted_core_file_match_the_library_at_scale(self, tmp_path):
        """Labels holding '"' make cores.csv non-canonical, so it is read by csv.reader."""
        g = community_temporal_graph(200, 30, communities=4)
        g = TemporalGraph([f'v"{u}' for u in range(g.vertex_count)],
                          [g.edges_at(t) for t in range(g.t_max + 1)])
        contacts = tmp_path / "contacts.txt"
        contacts.write_text("".join(line + "\n" for line in contact_lines(g)))
        with open(tmp_path / "attrs.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["label", "team"])
            writer.writerows([label, f"t{u % 3}"] for u, label in enumerate(g.labels)
                             if u % 7)  # every seventh vertex has no team
        out = tmp_path / "out"
        assert run("decompose", "--input", contacts, "--origin", 0, "--out", out) == 0
        cores = out / "cores.csv"
        assert '"' in cores.read_text()
        assert run("stats", "--cores", cores, "--out", out) == 0
        assert run("grid", "--cores", cores, "--min-span", 2, "--out", out) == 0
        assert run("purity", "--cores", cores, "--attributes", tmp_path / "attrs.csv",
                   "--attribute", "team", "--out", out) == 0

        result = span_cores(g)
        assert len(result.cores) == 3336
        with open(tmp_path / "attrs.csv", newline="") as handle:
            curve = purity_curve(result, AttributeTable.from_csv(handle), "team")
        grid = activity_grid(result, min_span=2)
        expected = {
            "stats_by_order.csv": table_to_csv(["k", "count", "mean_size"],
                                               stats_by_order(result)),
            "stats_by_span.csv": table_to_csv(["span", "count", "mean_size"],
                                              stats_by_span(result)),
            "grid.csv": table_to_csv(["t_s", "span", "k"],
                                     [(*cell, grid[cell]) for cell in sorted(grid)]),
            "purity.csv": table_to_csv(["t", "purity"], sorted(curve.by_timestamp.items())),
        }
        assert {name: (out / name).read_text() for name in expected} == expected


class TestShuffle:
    def test_deterministic_and_reingestable(self, tmp_path):
        graph = planted_clique_graph()
        path = tmp_path / "contacts.txt"
        from spancores import contact_lines
        path.write_text("".join(line + "\n" for line in contact_lines(graph)))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("shuffle", "--input", path, "--origin", 0,
                       "--seed", 7, "--out", out) == 0
        text = (out_a / "shuffled.txt").read_text()
        assert text == (out_b / "shuffled.txt").read_text()
        contacts, skipped = parse_contact_lines(text.splitlines())
        assert skipped == 0
        shuffled = ingest_contacts(contacts, window=1, origin=0)
        assert shuffled.t_max == graph.t_max
        assert shuffled.contact_count() == graph.contact_count()

    def test_seed_changes_output(self, tmp_path):
        graph = planted_clique_graph()
        path = tmp_path / "contacts.txt"
        from spancores import contact_lines
        path.write_text("".join(line + "\n" for line in contact_lines(graph)))
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            assert run("shuffle", "--input", path, "--origin", 0,
                       "--seed", seed, "--out", out) == 0
            outs.append((out / "shuffled.txt").read_text())
        assert outs[0] != outs[1]


class TestAnomaly:
    @pytest.fixture
    def planted_file(self, tmp_path):
        from spancores import contact_lines
        graph = planted_clique_graph()
        path = tmp_path / "planted.txt"
        path.write_text("".join(line + "\n" for line in contact_lines(graph)))
        return path

    def test_report_and_cleaned_contacts(self, planted_file, tmp_path):
        out = tmp_path / "out"
        assert run("anomaly", "--input", planted_file, "--origin", 0,
                   "--tr", 5, "--out", out) == 0
        report = json.loads((out / "anomaly-report.json").read_text())
        assert report["anomalous_intervals"] == [[0, 9]]
        assert report["dropped_timestamps"] == []
        assert "precision" not in report
        cleaned = (out / "cleaned-contacts.txt").read_text()
        assert "v0 " not in cleaned and " v0 " not in cleaned
        contacts, _ = parse_contact_lines(cleaned.splitlines())
        survivor = ingest_contacts(contacts, window=1, origin=0)
        assert survivor.contact_count() == report["surviving_contacts"]

    def test_positives_add_scores(self, planted_file, tmp_path):
        positives = tmp_path / "positives.txt"
        positives.write_text("".join(f"{t}\n" for t in range(10)))
        out = tmp_path / "out"
        assert run("anomaly", "--input", planted_file, "--origin", 0,
                   "--tr", 5, "--positives", positives, "--out", out) == 0
        report = json.loads((out / "anomaly-report.json").read_text())
        assert report["precision"] == pytest.approx(1.0)
        assert 0 < report["recall"] < 1

    def test_ratio_flag_is_forwarded(self, tmp_path):
        from spancores import contact_lines
        path = tmp_path / "ratio.txt"
        path.write_text("".join(line + "\n" for line in contact_lines(ratio_fixture_graph())))
        out = tmp_path / "out"
        assert run("anomaly", "--input", path, "--origin", 0,
                   "--tr", 5, "--ratio", 1.5, "--out", out) == 0
        report = json.loads((out / "anomaly-report.json").read_text())
        assert report["dropped_timestamps"] == [2, 5, 7]

    @pytest.fixture
    def sliding_clique_file(self, tmp_path):
        """At timestamp t an 8-clique on vertices t..t+7: every width 1..7 holds maximal cores."""
        size, timestamps = 8, 20
        graph = TemporalGraph([f"v{u}" for u in range(timestamps + size - 1)],
                              [{(u, v) for u in range(t, t + size) for v in range(u + 1, t + size)}
                               for t in range(timestamps)])
        path = tmp_path / "sliding.txt"
        path.write_text("".join(line + "\n" for line in contact_lines(graph)))
        return path

    def test_the_engine_visits_no_interval_of_width_tr_or_less(self, sliding_clique_file,
                                                                tmp_path, monkeypatch):
        engine, widths = cli.maximal_span_cores, []

        def spy(graph, **kwargs):
            trace = MaximalTrace()
            result = engine(graph, trace=trace, **kwargs)
            widths.extend(step.t_e - step.t_s + 1 for step in trace.steps)
            return result

        monkeypatch.setattr(cli, "maximal_span_cores", spy)
        assert run("anomaly", "--input", sliding_clique_file, "--tr", 2,
                   "--out", tmp_path / "out") == 0
        assert widths and min(widths) == 3

    @pytest.mark.parametrize("tr", [1, 2, 5])
    def test_artifacts_match_the_full_engine(self, sliding_clique_file, tmp_path, monkeypatch,
                                             tr):
        """The report and cleaned contacts are those detect_anomalies gives from a full run."""
        engine = cli.maximal_span_cores

        def full_run(graph, **kwargs):
            return engine(graph)

        outputs = []
        for name, spy in (("full", full_run), ("restricted", engine)):
            monkeypatch.setattr(cli, "maximal_span_cores", spy)
            out = tmp_path / name
            assert run("anomaly", "--input", sliding_clique_file, "--tr", tr, "--out", out) == 0
            outputs.append([(out / artifact).read_bytes()
                            for artifact in ("anomaly-report.json", "cleaned-contacts.txt")])
        assert json.loads(outputs[0][0])["anomalous_intervals"]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("ratio", ["nan", "inf", "0"])
    def test_ratio_that_is_not_positive_and_finite_exits_2(self, planted_file, tmp_path,
                                                          capsys, ratio):
        out = tmp_path / "out"
        assert run("anomaly", "--input", planted_file, "--tr", 5, "--ratio", ratio,
                   "--out", out) == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error[-1] == f"error: ratio must be positive and finite, got {float(ratio)}"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--tr", 5, "--ratio", "nan"), "ratio must be positive and finite, got nan"),
        (("--tr", 0), "tr must be >= 1, got 0"),
    ], ids=["ratio", "tr"])
    def test_bad_threshold_exits_2_before_the_engine_runs(self, planted_file, tmp_path,
                                                          capsys, monkeypatch, flags, message):
        def engine(graph):
            raise AssertionError("the engine ran before the thresholds were checked")
        monkeypatch.setattr(spancores.cli, "maximal_span_cores", engine)
        assert run("anomaly", "--input", planted_file, *flags, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]

    def test_out_of_range_positives_exit_2_before_the_engine_runs(self, planted_file, tmp_path,
                                                                  capsys, monkeypatch):
        def engine(graph):
            raise AssertionError("the engine ran before the positives were checked")
        monkeypatch.setattr(spancores.cli, "maximal_span_cores", engine)
        t_max = ingest_contacts(parse_contact_lines(planted_file.read_text().splitlines())[0],
                                origin=0).t_max
        positives = tmp_path / "positives.txt"
        positives.write_text(f"99999\n-1\n{t_max}\n99999\n")
        out = tmp_path / "out"
        assert run("anomaly", "--input", planted_file, "--origin", 0, "--tr", 5,
                   "--positives", positives, "--out", out) == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert [line for line in error if line.startswith("error")] == [
            f"error: {positives} positive timestamps [-1, 99999] outside 0..{t_max}"]
        assert not out.exists()


class TestErrorsAndDeterminism:
    def test_missing_input_fails_cleanly(self, tmp_path):
        assert run("decompose", "--input", tmp_path / "absent.txt", "--out", tmp_path) == 2

    @pytest.mark.parametrize("command", ["decompose", "stats"])
    def test_out_that_is_a_file_exits_2_before_the_input_is_read(self, tmp_path, capsys,
                                                                 command):
        taken = tmp_path / "taken.txt"
        taken.write_text("a b 0\n")
        source = ("--input",) if command == "decompose" else ("--cores",)
        for out in (taken, taken / "sub"):
            assert run(command, *source, tmp_path / "absent.txt", "--out", out) == 2
            error = capsys.readouterr().err.strip().splitlines()
            assert error == [f"error: --out {out}: {taken} is not a directory"]
        assert taken.read_text() == "a b 0\n"

    def test_dangling_symlink_out_exits_2_before_the_input_is_read(self, tmp_path, capsys):
        dangling = tmp_path / "dangling"
        dangling.symlink_to(tmp_path / "nowhere")
        for out in (dangling, dangling / "sub"):
            assert run("decompose", "--input", tmp_path / "absent.txt", "--out", out) == 2
            error = capsys.readouterr().err.strip().splitlines()
            assert error == [f"error: --out {out}: {dangling} is not a directory"]
        assert dangling.is_symlink() and not (tmp_path / "nowhere").exists()

    def test_a_failed_out_creation_is_named_like_a_write_error(self, contact_file, tmp_path,
                                                               capsys, monkeypatch):
        # A path too long to probe is named, and nothing is made.
        out = tmp_path / ("a" * 300) / "x"
        before = sorted(os.listdir(tmp_path))
        assert run("decompose", "--input", contact_file, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out} {os.strerror(errno.ENAMETOOLONG)}"]
        assert sorted(os.listdir(tmp_path)) == before

        # Root ignores permission bits, so the refused mkdir is simulated.
        def refuse(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        out = tmp_path / "newdir" / "sub"
        with monkeypatch.context() as patch:
            patch.setattr(Path, "mkdir", refuse)
            assert run("decompose", "--input", contact_file, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out} {os.strerror(errno.EACCES)}"]
        assert not (tmp_path / "newdir").exists()

        # A file that appears at --out after the up-front check, while the engine runs.
        out = tmp_path / "o2"
        engine = cli.span_cores

        def engine_then_file(graph):
            out.write_text("x")
            return engine(graph)

        monkeypatch.setattr(cli, "span_cores", engine_then_file)
        assert run("decompose", "--input", contact_file, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out} {os.strerror(errno.EEXIST)}"]
        assert out.read_text() == "x"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["contacts.txt", "o2"]

    def test_strict_mode_aborts_on_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b 0\nbroken line here extra\n")
        assert run("decompose", "--input", path, "--strict", "--out", tmp_path / "o") == 2

    def test_lenient_mode_skips_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b 0\nbroken\n")
        assert run("decompose", "--input", path, "--out", tmp_path / "o") == 0

    def test_lenient_mode_logs_skips_then_ingest_on_success(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("a b 0\nbroken\nb c 1\n")
        assert run("decompose", "--input", path, "--out", tmp_path / "o") == 0
        assert capsys.readouterr().err.splitlines()[:2] == [
            "skipped 1 malformed contact line(s)",
            "ingested 2 contacts -> TemporalGraph(|V|=3, t_max=1, contacts=2)"]

    @pytest.mark.parametrize("contacts, positives, faulty, message", [
        ("a b 0\nbroken\nb; c 1\n", None, "contacts",
         "line 3: vertex label 'b;' contains ';', "
         "which core files and contact lines use as a separator"),
        ("a b 0\nb c 1\n", "9\n", "positives", "positive timestamps [9] outside 0..1"),
    ], ids=["lenient-skip-then-ingest-fault", "positives-out-of-range-after-ingest"])
    def test_an_input_error_is_the_only_line_on_stderr(self, tmp_path, capsys,
                                                       contacts, positives, faulty, message):
        paths = {"contacts": tmp_path / "c.txt", "positives": tmp_path / "p.txt"}
        paths["contacts"].write_text(contacts)
        argv = ["decompose"]
        if positives is not None:
            paths["positives"].write_text(positives)
            argv = ["anomaly", "--tr", 1, "--positives", paths["positives"]]
        assert run(*argv, "--input", paths["contacts"], "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {paths[faulty]} {message}"]

    @pytest.mark.parametrize("command, name, rerun", [
        ("decompose", "cores.csv", False),
        ("purity", "purity.csv", False),  # a run with a skipped-members note
        ("anomaly", "cleaned-contacts.txt", False),  # its report is written first
        # A naive re-run over a whole pruned run: cores.csv is rewritten, so the
        # pruned run's manifest must not stay beside it.
        ("decompose", "metrics.json", True),
    ], ids=["decompose-cores.csv", "purity-purity.csv", "anomaly-cleaned-contacts.txt",
            "rerun-over-a-whole-run"])
    def test_an_artifact_write_error_is_the_only_line_on_stderr(self, contact_file, tmp_path,
                                                               capsys, command, name, rerun):
        argv = command_argv(command, contact_file, tmp_path)
        out = tmp_path / "o"
        if rerun:
            assert run(*argv, "--out", out) == 0
            (out / name).unlink()
            argv += ["--engine", "naive"]
        capsys.readouterr()
        (out / name).mkdir(parents=True)
        assert run(*argv, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out}/{name} {os.strerror(errno.EISDIR)}"]
        assert not list(out.glob("*.tmp"))
        assert not (out / "run-manifest.json").exists()

    @pytest.mark.parametrize("command, notes", [
        ("decompose", ["wrote cores.csv (9 records)"]),
        ("maximal", ["wrote maximal.csv (2 records)"]),
        ("stats", ["wrote stats for 9 cores"]),
        ("grid", []),
        ("purity", ["skipped 1 member(s) without a value"]),
        ("shuffle", ["reshuffled 8 contacts with seed 0"]),
        ("anomaly", ["flagged 2 interval(s), dropped 0 timestamp(s)"]),
    ])
    def test_every_command_prints_its_notes_in_order_on_success(self, contact_file, tmp_path,
                                                                capsys, command, notes):
        argv = command_argv(command, contact_file, tmp_path)
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "o") == 0
        if "--input" in argv:
            notes = ["ingested 8 contacts -> TemporalGraph(|V|=4, t_max=2, contacts=8)", *notes]
        assert capsys.readouterr().err.splitlines() == notes

    def test_a_bad_core_csv_header_is_named_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("k,t_s\n1,0\n")
        assert run("stats", "--cores", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path} line 1: unexpected core CSV header: ['k', 't_s']"]

    def test_label_holding_the_member_separator_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "semicolon.txt"
        path.write_text("a;x b 0\nb c 0\nc a;x 0\n")
        assert run("decompose", "--input", path, "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error[-1] == (f"error: {path} line 1: vertex label 'a;x' contains ';', "
                             "which core files and contact lines use as a separator")
        assert not (tmp_path / "o" / "cores.csv").exists()

    @pytest.mark.parametrize("line, message", [
        ('{"k": 1, "t_s": 0, "members": ["a", "b"]}', "line 2: missing key(s) t_e"),
        ('[1, 0, 0, ["a", "b"]]', "line 2: expected a JSON object"),
        ('{"k": "1", "t_s": 0, "t_e": 0, "members": ["a", "b"]}', "line 2: k, t_s and t_e"),
        ('{"k": 1, "t_s": 0, "t_e": 0, "members": "ab"}', "line 2: members must be"),
        ('{"k": 1,', "line 2: "),
        ('{"k": 1, "t_s": 3, "t_e": 1, "members": ["a", "b"]}', "line 2: interval [3,1]"),
        ('{"k": 1, "t_s": -1, "t_e": 0, "members": ["a", "b"]}', "line 2: interval [-1,0]"),
        ('{"k": 1, "t_s": 0, "t_e": 1, "members": ["a", "a"]}', "line 2: member 'a' is listed twice"),
        ('{"k": 0, "t_s": 0, "t_e": 1, "members": ["a"]}', "line 2: order 0 must be at least 1"),
        ('{"k": 1, "t_s": 0, "t_e": 1, "members": []}', "line 2: a core needs at least one member"),
        ('{"k": 1, "t_s": 0, "t_e": 0, "members": ["a", "c"]}',
         "line 2: a second core of order 1 over [0,0]"),
        ('{"k": 1, "t_s": 0, "t_e": 1, "members": ["a;b"]}',
         "line 2: member 'a;b' holds the member separator ';'"),
        ('{"k": 1, "t_s": 0, "t_e": 0, "members": [""]}', "line 2: empty member label"),
    ])
    def test_malformed_jsonl_core_file_exits_2(self, tmp_path, capsys, line, message):
        path = tmp_path / "cores.jsonl"
        path.write_text('{"k": 1, "t_s": 0, "t_e": 0, "members": ["a", "b"]}\n' + line + "\n")
        assert run("stats", "--cores", path, "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert len(error) == 1 and message in error[0]

    @pytest.mark.parametrize("contacts, label", [
        ("b #a 0\nb c 0\n", "'#a'"),  # would be written back as the comment "#a b 0"
        ("a b, c, 0\nc d 0\n", "'a b'"),  # would be written back as four fields
    ])
    def test_label_that_a_contact_line_cannot_carry_is_rejected(self, tmp_path, capsys,
                                                               contacts, label):
        path = tmp_path / "contacts.txt"
        path.write_text(contacts)
        assert run("shuffle", "--input", path, "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert len(error) == 1
        assert error[0].startswith(f"error: {path} line 1: vertex label {label} ")
        assert not (tmp_path / "o" / "shuffled.txt").exists()

    @pytest.mark.parametrize("row, message", [
        ("1,0", "line 3: expected 5 fields, got 2"),
        ("1,0,0,2,a;b,x", "line 3: expected 5 fields, got 6"),
        ("1,zero,0,2,a;b", "line 3: k, t_s, t_e and size must be integers"),
        ("1,0,0,3,a;b", "line 3: size field 3 disagrees with 2 members"),
        ("1,0,1,3,a;b", "line 3: size field 3 disagrees with 2 members"),
        ("0,0,1,3,a;b", "line 3: size field 3 disagrees with 2 members"),
        ("1,3,1,2,a;b", "line 3: interval [3,1] needs 0 <= t_s <= t_e"),
        ("1,-1,0,2,a;b", "line 3: interval [-1,0] needs 0 <= t_s <= t_e"),
        ("1,0,1,2,a;a", "line 3: member 'a' is listed twice"),
        ("0,0,1,1,a", "line 3: order 0 must be at least 1"),
        ("1,0,1,0,", "line 3: a core needs at least one member"),
        ("1,0,0,2,a;c", "line 3: a second core of order 1 over [0,0]"),
        ("1,0,0,2,a;", "line 3: empty member label"),
    ])
    def test_malformed_csv_core_file_exits_2(self, tmp_path, capsys, row, message):
        path = tmp_path / "cores.csv"
        path.write_text("k,t_s,t_e,size,members\n1,0,0,2,a;b\n" + row + "\n")
        assert run("stats", "--cores", path, "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert len(error) == 1 and message in error[0]

    def test_deeply_nested_jsonl_core_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cores.jsonl"
        path.write_text('{"k": 1, "t_s": 0, "t_e": 0, "members": ["a", "b"]}\n'
                        + "[" * 200_000 + "\n")
        assert run("stats", "--cores", path, "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error == [f"error: {path} line 2: JSON nested too deeply"]

    @pytest.mark.parametrize("command", ["stats", "grid", "purity"])
    def test_a_faulty_core_file_is_named_with_its_line(self, tmp_path, capsys, command):
        cores = tmp_path / "c.csv"
        cores.write_text("k,t_s,t_e,size,members\n1,0,0,3,a;b\n")
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("label,dept\na,P\nb,Q\n")
        extra = {"grid": (), "stats": (),
                 "purity": ("--attributes", attrs, "--attribute", "dept")}[command]
        assert run(command, "--cores", cores, *extra, "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error == [f"error: {cores} line 2: size field 3 disagrees with 2 members"]

    @pytest.mark.parametrize("content, message", [
        (b"a b 0\nbad line\n", "line 2: expected three fields: 'bad line'"),
        (b"a b 0\n\xff b 1\n", "'utf-8' codec can't decode byte 0xff in position 6"),
        (b"a b 0\nb;c d 1\n", "line 2: vertex label 'b;c' contains ';', which core files"),
        (b"# a comment\n\n", "no contacts"),
    ])
    def test_a_faulty_contact_file_is_named(self, tmp_path, capsys, content, message):
        path = tmp_path / "x.txt"
        path.write_bytes(content)
        assert run("decompose", "--input", path, "--strict", "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert len(error) == 1 and error[0].startswith(f"error: {path} {message}")

    @pytest.mark.parametrize("command", ["decompose", "stats", "purity", "anomaly"])
    def test_an_input_that_cannot_be_opened_is_named_like_a_failed_write(
            self, contact_file, tmp_path, capsys, command):
        adir = tmp_path / "adir"
        adir.mkdir()
        argv = {"decompose": ["--input", adir],
                "stats": ["--cores", adir],
                "purity": ["--cores", contact_file, "--attributes", adir, "--attribute", "d"],
                "anomaly": ["--input", contact_file, "--tr", 1, "--positives", adir]}[command]
        assert run(command, *argv, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {adir} {os.strerror(errno.EISDIR)}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", ["--input", "--cores", "--attributes", "--positives",
                                        "--out", "stats --out"])
    def test_an_empty_path_is_named_as_quotes(self, contact_file, tmp_path, capsys, monkeypatch,
                                              option):
        argv = {"--input": ["decompose", "--input", ""],
                "--cores": ["stats", "--cores", ""],
                "--attributes": ["purity", "--cores", contact_file, "--attributes", "",
                                 "--attribute", "d"],
                "--positives": ["anomaly", "--input", contact_file, "--tr", 1,
                                "--positives", ""],
                "--out": ["decompose", "--input", contact_file],
                "stats --out": ["stats", "--cores", contact_file]}[option]
        out = "" if option.endswith("--out") else tmp_path / "o"
        monkeypatch.chdir(tmp_path)  # Path('') is the current directory: nothing may land here
        before = sorted(tmp_path.iterdir())
        assert run(*argv, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: '' {os.strerror(errno.ENOENT)}"]
        assert sorted(tmp_path.iterdir()) == before

    def test_a_file_without_contacts_is_not_reread_line_by_line(self, tmp_path, capsys,
                                                                monkeypatch):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\n" * 50)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ingest_contacts(*args, **kwargs)

        monkeypatch.setattr(cli, "ingest_contacts", counted)
        assert run("decompose", "--input", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {path} no contacts"]
        assert len(calls) == 1

    def test_a_contact_time_before_the_origin_is_named(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("a b 7\nb c 0\n")
        assert run("decompose", "--input", path, "--origin", 5, "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error == [f"error: {path} line 2: contact time 0 precedes origin 5"]

    @pytest.mark.parametrize("content, origin, message", [
        (b"a b 0\nb; c 1\n", None, "line 2: vertex label 'b;' contains ';'"),
        (b"a b 5\nc d 3\n", 4, "line 2: contact time 3 precedes origin 4"),
        # comments, blank and skipped lines, CRLF and commas still count as lines
        (b"# h\r\n\r\na b 0\r\nbroken\r\nc, d;e, 1\r\nd;e a 2\r\n", None,
         "line 5: vertex label 'd;e' contains ';'"),
        (b"a b 9\nc d 7\n\nb c 3\nc e 1\n", 5, "line 4: contact time 3 precedes origin 5"),
        (b"\xef\xbb\xbfa #b 0\n", None, "line 1: vertex label '#b' starts with '#'"),
    ], ids=["label", "origin", "non-canonical-label", "first-time-before-origin", "bom"])
    def test_an_ingest_error_names_the_first_line_at_fault(self, tmp_path, capsys,
                                                           content, origin, message):
        """A file and a FIFO, which cannot seek, holding the same bytes get the same message."""
        path = tmp_path / "c.txt"
        path.write_bytes(content)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(content,), daemon=True)
        writer.start()
        argv = [] if origin is None else ["--origin", origin]
        for source in (path, fifo):
            assert run("decompose", "--input", source, *argv, "--out", tmp_path / "o") == 2
            error = capsys.readouterr().err.splitlines()
            assert len(error) == 1 and error[0].startswith(f"error: {source} {message}")
        writer.join(timeout=5)
        assert not writer.is_alive()

    @pytest.mark.parametrize("head", ["", "# header\n\n"], ids=["canonical", "comment-and-blank"])
    @pytest.mark.parametrize("fault, origin, message", [
        ("a; b 5\n", None, "vertex label 'a;' contains ';'"),
        ("a b 1\n", 2, "contact time 1 precedes origin 2"),
    ], ids=["label", "origin"])
    def test_a_late_ingest_fault_is_named_from_the_one_parse(
            self, tmp_path, capsys, monkeypatch, head, fault, origin, message):
        """The parse records the fault's line: no line is parsed a second time."""
        lines = [head, *(f"v{i} w{i} {2 + i % 3}\n" for i in range(300)), fault]
        path = tmp_path / "c.txt"
        path.write_text("".join(lines))
        lines = "".join(lines).splitlines(keepends=True)
        alone = []

        def spy(lines, strict=True):
            if isinstance(lines, list):
                alone.extend(lines)
            return parse_contact_lines(lines, strict)

        monkeypatch.setattr(cli, "parse_contact_lines", spy)
        argv = [] if origin is None else ["--origin", origin]
        assert run("decompose", "--input", path, *argv, "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.splitlines()
        assert len(error) == 1 and error[0].startswith(f"error: {path} line {len(lines)}: {message}")
        assert alone == []

    @pytest.mark.parametrize("content, message", [
        (b"0\n\xff\n", "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
        (b"0\n9\n", "positive timestamps [9] outside 0..0"),
    ], ids=["undecodable", "out-of-range"])
    def test_a_faulty_positives_file_is_named(self, tmp_path, capsys, content, message):
        contacts = tmp_path / "c.txt"
        contacts.write_text("a b 0\n")
        positives = tmp_path / "p.txt"
        positives.write_bytes(content)
        assert run("anomaly", "--input", contacts, "--tr", 1, "--positives", positives,
                   "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error[-1] == f"error: {positives} {message}"
        assert not (tmp_path / "o").exists()

    def test_core_with_a_members_field_over_the_csv_field_limit_reads_back(self, tmp_path):
        # 12,000 disjoint pairs at one timestamp make one order-1 core of
        # 24,000 members, a 312 KB field.
        path = tmp_path / "pairs.txt"
        path.write_text("".join(f"vertex{2 * i:06d} vertex{2 * i + 1:06d} 0\n"
                                for i in range(12_000)))
        out = tmp_path / "o"
        assert run("decompose", "--input", path, "--out", out) == 0
        assert (out / "cores.csv").stat().st_size > csv.field_size_limit()
        assert run("stats", "--cores", out / "cores.csv", "--out", out) == 0
        assert (out / "stats_by_order.csv").read_text() == "k,count,mean_size\n1,1,24000\n"

    def test_missing_positives_file_exits_2_before_the_input_is_read(self, contact_file,
                                                                     tmp_path, capsys):
        positives = tmp_path / "absent.txt"
        assert run("anomaly", "--input", contact_file, "--tr", 1, "--positives", positives,
                   "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error == [f"error: {positives} {os.strerror(errno.ENOENT)}"]

    def test_unknown_attribute_exits_2_before_the_core_file_is_read(self, tmp_path, capsys):
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("label,dept\na,P\n")
        assert run("purity", "--cores", tmp_path / "absent.csv", "--attributes", attrs,
                   "--attribute", "role", "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error == [f"error: {attrs} unknown attribute 'role'; table has ('dept',)"]

    @pytest.mark.parametrize("min_span", [0, -3])
    def test_grid_min_span_below_one_exits_2(self, contact_file, tmp_path, capsys, min_span):
        assert run("decompose", "--input", contact_file, "--out", tmp_path) == 0
        capsys.readouterr()
        for cores in (tmp_path / "cores.csv", tmp_path / "absent.csv"):  # checked before reading
            assert run("grid", "--cores", cores, "--min-span", min_span,
                       "--out", tmp_path / "o") == 2
            error = capsys.readouterr().err.strip().splitlines()
            assert error == [f"error: min_span must be at least 1, got {min_span}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["decompose"], ["maximal"], ["shuffle"],
                                         ["anomaly", "--tr", "1"]],
                             ids=["decompose", "maximal", "shuffle", "anomaly"])
    def test_window_below_one_exits_2_before_the_input_is_opened(self, tmp_path, capsys,
                                                                 command):
        assert run(*command, "--input", tmp_path / "absent.txt", "--window", 0,
                   "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error == ["error: window must be a positive integer, got 0"]
        assert not (tmp_path / "o").exists()

    def test_bad_positive_timestamp_names_file_and_line(self, tmp_path, capsys):
        contacts = tmp_path / "contacts.txt"
        contacts.write_text(G_EX_CONTACTS)
        positives = tmp_path / "positives.txt"
        positives.write_text("0\n\nx\n")
        assert run("anomaly", "--input", contacts, "--tr", 1, "--positives", positives,
                   "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error[-1] == f"error: {positives} line 3: expected an integer timestamp, got 'x'"

    @pytest.mark.parametrize("table, message", [
        ("name,dept\na,P\n", "line 1: attribute CSV must start with 'label,<attr>,...'"),
        ("label,dept\na,P\nb\n", "line 3: attribute row ['b'] does not match header width"),
        ("label,dept\na,P\nb,Q,R\n", "line 3: attribute row ['b', 'Q', 'R'] does not match"),
        ("label,dept\na,P\nb,Q\na,R\n", "line 4: label 'a' is listed twice"),
        ("label,role\na,P\n", "unknown attribute 'dept'; table has ('role',)"),
    ])
    def test_bad_attribute_row_names_file_and_line(self, contact_file, tmp_path, capsys,
                                                   table, message):
        assert run("maximal", "--input", contact_file, "--out", tmp_path) == 0
        capsys.readouterr()
        attrs = tmp_path / "attrs.csv"
        attrs.write_text(table)
        assert run("purity", "--cores", tmp_path / "maximal.csv", "--attributes", attrs,
                   "--attribute", "dept", "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert len(error) == 1 and error[0].startswith(f"error: {attrs} {message}")

    def test_attribute_listed_twice_exits_2(self, contact_file, tmp_path, capsys):
        assert run("maximal", "--input", contact_file, "--out", tmp_path) == 0
        capsys.readouterr()
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("label,team,team\na,x,y\nb,x,y\nc,z,y\n")
        assert run("purity", "--cores", tmp_path / "maximal.csv", "--attributes", attrs,
                   "--attribute", "team", "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error == [f"error: {attrs} line 1: attribute 'team' is listed twice"]
        assert not (tmp_path / "o" / "purity.csv").exists()

    def test_attribute_field_over_the_csv_limit_exits_2(self, contact_file, tmp_path, capsys):
        assert run("maximal", "--input", contact_file, "--out", tmp_path) == 0
        capsys.readouterr()
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("label,dept\na,P\nb," + "Q" * 200_000 + "\n")
        assert run("purity", "--cores", tmp_path / "maximal.csv", "--attributes", attrs,
                   "--attribute", "dept", "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error == [f"error: {attrs} line 3: field larger than field limit "
                         f"({csv.field_size_limit()})"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_artifacts_get_the_mode_the_umask_allows(self, contact_file, tmp_path,
                                                     umask, mode):
        previous = os.umask(umask)
        try:
            assert run("decompose", "--input", contact_file, "--out", tmp_path / "o") == 0
        finally:
            os.umask(previous)
        for name in ("cores.csv", "metrics.json", "run-manifest.json"):
            assert (tmp_path / "o" / name).stat().st_mode & 0o777 == mode

    @pytest.mark.parametrize("leftover", ["file", "symlink"])
    def test_a_leftover_temp_file_blocks_no_write_and_is_left_alone(self, contact_file,
                                                                    tmp_path, leftover):
        """A killed run leaves its temp files behind, and a later run may get its PID."""
        assert run("decompose", "--input", contact_file, "--out", tmp_path / "ref") == 0
        out, target = tmp_path / "o", tmp_path / "target.txt"
        out.mkdir()
        target.write_text("not an artifact\n")
        names = ("cores.csv", "metrics.json", "run-manifest.json")
        for name in names:
            stale = out / f"{name}.{os.getpid()}.tmp"
            if leftover == "file":
                stale.write_text("left by a killed run\n")
            else:
                stale.symlink_to(target)
        assert run("decompose", "--input", contact_file, "--out", out) == 0
        for name in names:
            stale = out / f"{name}.{os.getpid()}.tmp"
            if leftover == "file":
                assert stale.read_text() == "left by a killed run\n"
            else:
                assert stale.is_symlink() and stale.resolve() == target.resolve()
            if name != "metrics.json":  # its elapsed_ms varies between runs
                assert (out / name).read_text() == (tmp_path / "ref" / name).read_text().replace(
                    str(tmp_path / "ref"), str(out))
        assert target.read_text() == "not an artifact\n"
        assert json.loads((out / "metrics.json").read_text())["cores"] == 9

    def test_artifacts_are_written_without_touching_the_umask(self, contact_file, tmp_path,
                                                              monkeypatch):
        """Setting the umask, even for a moment, would change the mode of a file
        that another thread of the caller creates meanwhile."""
        def umask(mask):
            raise AssertionError("the umask was set")

        previous = os.umask(0o022)
        try:
            monkeypatch.setattr(os, "umask", umask)
            assert run("decompose", "--input", contact_file, "--out", tmp_path / "o") == 0
        finally:
            monkeypatch.undo()
            os.umask(previous)
        for name in ("cores.csv", "metrics.json", "run-manifest.json"):
            assert (tmp_path / "o" / name).stat().st_mode & 0o777 == 0o644

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "accented.txt"
        path.write_bytes("é b 0\nb c 0\nc é 0\n".encode("utf-8"))
        src = str(Path(spancores.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONIOENCODING", None)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "spancores", "decompose", "--input", str(path),
             "--out", str(out)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "cores.csv").read_bytes().splitlines()[1:] == [
            "1,0,0,3,b;c;é".encode("utf-8"), "2,0,0,3,b;c;é".encode("utf-8"),
        ]

    def test_byte_order_mark_changes_no_artifact(self, tmp_path):
        """A leading UTF-8 byte-order mark is not part of the first line of any input."""
        contacts = G_EX_CONTACTS.split("\n", 1)[1]  # starts with a contact line
        artifacts = {}
        for mark in ("", "\ufeff"):
            root = tmp_path / ("marked" if mark else "plain")
            root.mkdir()
            (root / "contacts.txt").write_text(mark + contacts, encoding="utf-8")
            (root / "positives.txt").write_text(mark + "0\n1\n", encoding="utf-8")
            (root / "attrs.csv").write_text(mark + "label,dept\na,P\nb,P\nc,Q\nd,Q\n",
                                            encoding="utf-8")
            ingest = ["--input", root / "contacts.txt", "--origin", 0]
            assert run("decompose", *ingest, "--out", root / "decompose") == 0
            assert run("maximal", *ingest, "--format", "jsonl", "--out", root / "maximal") == 0
            assert run("shuffle", *ingest, "--out", root / "shuffle") == 0
            assert run("anomaly", *ingest, "--tr", 1, "--positives", root / "positives.txt",
                       "--out", root / "anomaly") == 0
            # Core files as the plain run wrote them, marked or not.
            for step, name in (("decompose", "cores.csv"), ("maximal", "maximal.jsonl")):
                written = (tmp_path / "plain" / step / name).read_text(encoding="utf-8")
                (root / name).write_text(mark + written, encoding="utf-8")
                assert run("stats", "--cores", root / name, "--out", root / f"stats-{name}") == 0
            assert run("grid", "--cores", root / "cores.csv", "--out", root / "grid") == 0
            assert run("purity", "--cores", root / "maximal.jsonl", "--attributes",
                       root / "attrs.csv", "--attribute", "dept", "--out", root / "purity") == 0
            outputs = {}
            for path in sorted(root.glob("*/*")):
                if path.name == "run-manifest.json":  # it names the input paths
                    continue
                data = path.read_bytes()
                if path.name == "metrics.json":
                    metrics = json.loads(data)
                    metrics.pop("elapsed_ms")
                    data = metrics
                outputs[path.relative_to(root).as_posix()] = data
            artifacts[mark] = outputs
        assert len(artifacts[""]) == 13
        assert artifacts["\ufeff"] == artifacts[""]

    def test_rerun_is_byte_identical(self, contact_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run("decompose", "--input", contact_file, "--origin", 0, "--out", out) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run("decompose", "--input", contact_file, "--origin", 0, "--out", out) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first.keys() == second.keys()
        assert first["cores.csv"] == second["cores.csv"]
        assert first["run-manifest.json"] == second["run-manifest.json"]
        metrics_a = json.loads(first["metrics.json"])
        metrics_b = json.loads(second["metrics.json"])
        # wall time is the one legitimately run-dependent field
        metrics_a.pop("elapsed_ms")
        metrics_b.pop("elapsed_ms")
        assert metrics_a == metrics_b

    def test_rerun_reconstructed_from_manifest(self, contact_file, tmp_path):
        out_a = tmp_path / "a"
        assert run("decompose", "--input", contact_file, "--origin", 0,
                   "--format", "jsonl", "--out", out_a) == 0
        manifest = json.loads((out_a / "run-manifest.json").read_text())
        config = manifest["config"]
        out_b = tmp_path / "b"
        argv = ["decompose", "--input", config["input"],
                "--window", config["window"], "--engine", config["engine"],
                "--format", config["format"], "--out", out_b]
        if config["origin"] is not None:
            argv += ["--origin", config["origin"]]
        if config["strict"]:
            argv.append("--strict")
        assert run(*argv) == 0
        assert ((out_a / "cores.jsonl").read_bytes()
                == (out_b / "cores.jsonl").read_bytes())

    def test_module_entry_point(self):
        # The child imports the package this test imported, installed or not.
        src = str(Path(spancores.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "spancores", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert "spancores" in proc.stdout


class TestParser:
    """`main` builds one subcommand's parser when argv starts with its name, and
    prints and exits exactly as the full parser does."""

    @staticmethod
    def _outcome(parse, argv, capsys):
        with pytest.raises(SystemExit) as stopped:
            parse(argv)
        printed = capsys.readouterr()
        return stopped.value.code, printed.out, printed.err

    def test_the_command_names_are_the_full_parsers(self):
        sub, = (action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
        assert tuple(sub.choices) == cli._COMMANDS

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["--version"],
        *([command, "--help"] for command in cli._COMMANDS),
        [], ["bogus"], ["--bogus", "decompose"], ["stats"],
        ["decompose", "--input", "c.txt", "--bogus"],
        ["grid", "--cores", "c.csv", "extra"],
        ["maximal", "--input", "c.txt", "--engine", "pruned"],
        ["shuffle", "--input", "c.txt", "--window", "two"],
    ], ids=lambda argv: " ".join(argv) or "no-argv")
    def test_every_message_is_the_full_parsers(self, argv, capsys, monkeypatch):
        built, build = [], cli.build_parser

        def spy(command=None):
            built.append(command)
            return build(command)

        expected = self._outcome(build().parse_args, argv, capsys)
        monkeypatch.setattr(cli, "build_parser", spy)
        assert self._outcome(main, argv, capsys) == expected
        assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None]

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_one_commands_arguments_are_the_full_parsers(self, command, contact_file,
                                                         tmp_path):
        argv = [str(a) for a in command_argv(command, contact_file, tmp_path)]
        assert vars(cli.build_parser(command).parse_args(argv)) == \
            vars(cli.build_parser().parse_args(argv))


def test_canonical_dump_of_surviving_graph_matches_cleaned_file(tmp_path):
    # the cleaned contact file and the in-memory surviving graph agree
    from spancores import contact_lines, detect_anomalies, maximal_span_cores
    graph = planted_clique_graph()
    path = tmp_path / "planted.txt"
    path.write_text("".join(line + "\n" for line in contact_lines(graph)))
    out = tmp_path / "out"
    assert run("anomaly", "--input", path, "--origin", 0, "--tr", 5, "--out", out) == 0
    report = detect_anomalies(graph, maximal_span_cores(graph), tr=5)
    expected = "".join(line + "\n" for line in contact_lines(report.surviving))
    assert (out / "cleaned-contacts.txt").read_text() == expected


class TestSparseTimeAxis:
    """A contact far in the future costs no memory for the empty span before it."""

    @pytest.fixture
    def far_file(self, tmp_path):
        path = tmp_path / "far.txt"
        path.write_text("a b 0\nc d 1000000\n")
        return path

    @staticmethod
    def _peak_bytes(*argv) -> int:
        tracemalloc.start()
        try:
            assert run(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("command", ["decompose", "maximal", "shuffle", "anomaly"])
    def test_far_future_contact(self, far_file, tmp_path, command):
        out = tmp_path / "out"
        extra = ("--tr", 1) if command == "anomaly" else ()
        assert self._peak_bytes(command, "--input", far_file, "--out", out,
                                *extra) < 4 * 2 ** 20

    def test_core_file_tools_on_far_future_cores(self, far_file, tmp_path):
        out = tmp_path / "out"
        assert run("decompose", "--input", far_file, "--out", out) == 0
        assert (out / "cores.csv").read_text().splitlines()[1:] == [
            "1,0,0,2,a;b", "1,1000000,1000000,2,c;d",
        ]
        assert run("stats", "--cores", out / "cores.csv", "--out", out) == 0
        assert (out / "stats_by_span.csv").read_text() == "span,count,mean_size\n1,2,2\n"
        assert run("grid", "--cores", out / "cores.csv", "--out", out) == 0
        assert (out / "grid.csv").read_text() == "t_s,span,k\n0,1,1\n1000000,1,1\n"


def test_the_cli_imports_only_the_standard_library():
    """No runtime dependencies: importing spancores.cli loads only spancores and the
    standard library. The snapshot comes first, since `site` may import more."""
    src = str(Path(spancores.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; before = set(sys.modules); import spancores.cli; "
            "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "spancores" in loaded
    assert [name for name in loaded
            if name != "spancores" and name not in sys.stdlib_module_names] == []
    # Records are named tuples: dataclasses and its inspect import cost every start.
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)
    # Only --bench traces memory, and it imports tracemalloc itself.
    assert "tracemalloc" not in loaded
