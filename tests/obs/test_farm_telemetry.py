"""End-to-end farm telemetry through the CLI (satellite of the worker-
spool PR): ``--trace``/``--metrics`` combined with ``--workers N``."""

import json
import re

import pytest

from repro.cli import main
from repro.obs.report import per_test_measurement_counts, read_trace


def _run_lot(tmp_path, capsys, name, extra):
    trace = tmp_path / f"{name}.jsonl"
    code = main(
        ["--trace", str(trace), "--metrics", *extra,
         "lot", "--dies", "3", "--tests", "2"]
    )
    assert code == 0
    return read_trace(trace), capsys.readouterr().out


def _metrics_block(out):
    """The deterministic (non-wall-clock) lines of the --metrics summary."""
    lines = out[out.index("== telemetry summary =="):].splitlines()
    keep = []
    for line in lines:
        if re.search(r"(unit_seconds|span\.|seconds)", line):
            continue
        if line.startswith("telemetry trace written"):
            break
        keep.append(line)
    return keep


class TestCLIFarmTelemetry:
    def test_parallel_trace_has_worker_measurements(self, tmp_path, capsys):
        records, _ = _run_lot(tmp_path, capsys, "par", ["--workers", "2"])
        measurements = [r for r in records if r["type"] == "measurement"]
        assert measurements, "worker-side measurement events must be merged"
        workers = {r["worker"] for r in measurements}
        assert workers and all(w.startswith("ForkProcess") or w != "serial"
                               for w in workers)
        assert all(
            r["trace_id"].startswith("lot:seed=") for r in measurements
        )
        merged = [r for r in records if r["type"] == "farm_unit_merged"]
        assert [r["key"] for r in merged] == [
            "die/0000", "die/0001", "die/0002"
        ]

    def test_parallel_equals_serial(self, tmp_path, capsys):
        serial_records, serial_out = _run_lot(tmp_path, capsys, "ser", [])
        par_records, par_out = _run_lot(
            tmp_path, capsys, "par", ["--workers", "2"]
        )
        # identical per-test measurement counts, in identical order
        assert per_test_measurement_counts(
            par_records
        ) == per_test_measurement_counts(serial_records)
        # identical metric totals (wall-clock histograms excluded)
        assert _metrics_block(par_out) == _metrics_block(serial_out)


class TestObsSubcommands:
    @pytest.fixture()
    def trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["--trace", str(path), "lot", "--dies", "2", "--tests", "2"]
        ) == 0
        capsys.readouterr()
        return path

    def test_summary(self, trace, capsys):
        assert main(["obs", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "farm: 2 unit(s) completed" in out
        assert "measurement" in out

    def test_slowest(self, trace, capsys):
        assert main(["obs", "slowest", str(trace), "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "slowest 1 unit(s):" in out
        assert "die/" in out

    def test_timeline(self, trace, tmp_path, capsys):
        out_path = tmp_path / "timeline.json"
        assert main(
            ["obs", "timeline", str(trace), "-o", str(out_path)]
        ) == 0
        assert "timeline written" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        running = [
            e for e in doc["traceEvents"] if e.get("cat") == "running"
        ]
        assert {e["name"] for e in running} == {"die/0000", "die/0001"}

    def test_timeline_default_output(self, trace, capsys):
        assert main(["obs", "timeline", str(trace)]) == 0
        capsys.readouterr()
        assert trace.with_name(trace.name + ".timeline.json").exists()

    def test_summary_tolerates_unknown_event_types(self, trace, capsys):
        with trace.open("a") as handle:
            handle.write(json.dumps({"type": "from_the_future", "ts": 1}))
            handle.write("\nnot json at all\n")
        assert main(["obs", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "unknown type kept: from_the_future x1" in out
        assert "1 malformed line(s) skipped" in out

    def test_summary_json_carries_drop_warnings(self, trace, capsys):
        with trace.open("a") as handle:
            handle.write(json.dumps({"type": "farm_unit_merged",
                                     "key": "die/0000",
                                     "dropped_events": 3}) + "\n")
            handle.write(json.dumps({"type": "farm_checkpoint_dropped",
                                     "path": "ckpt.jsonl",
                                     "lines": 2}) + "\n")
        assert main(["obs", "summary", str(trace)]) == 0
        text = capsys.readouterr().out
        assert main(["obs", "summary", str(trace), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "warning: 3 worker event(s) dropped" in text
        assert data["farm"]["dropped_events"] == 3
        assert "warning: 2 corrupt checkpoint line(s) dropped" in text
        assert data["checkpoint_dropped_lines"] == 2

    def test_missing_trace_is_clean_error(self, tmp_path, capsys):
        assert main(["obs", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestObsCompareCLI:
    def _record_run(self, tmp_path, name, dies):
        assert main(
            ["--run-log", str(tmp_path / "runs.jsonl"), "--run-name", name,
             "lot", "--dies", str(dies), "--tests", "2"]
        ) == 0

    def test_ok_and_regression_exit_codes(self, tmp_path, capsys):
        self._record_run(tmp_path, "base", 2)
        self._record_run(tmp_path, "same", 2)
        self._record_run(tmp_path, "bigger", 4)
        runs = str(tmp_path / "runs.jsonl")
        capsys.readouterr()

        assert main(
            ["obs", "compare", runs, "--baseline", "base", "--run", "same"]
        ) == 0
        assert "verdict: ok" in capsys.readouterr().out

        assert main(
            ["obs", "compare", runs, "--baseline", "base", "--run", "bigger"]
        ) == 1
        assert "MEASUREMENT COST REGRESSION" in capsys.readouterr().out

        # a generous threshold lets the same regression pass
        assert main(
            ["obs", "compare", runs, "--baseline", "base",
             "--run", "bigger", "--threshold", "500"]
        ) == 0

    def test_missing_baseline_exits_3_and_lists_runs(self, tmp_path, capsys):
        # Exit 3 is the "history is fine, baseline just isn't recorded
        # yet" signal (first CI run of a new branch) — distinct from 2,
        # which means the inputs themselves were unusable.
        self._record_run(tmp_path, "only", 2)
        capsys.readouterr()
        assert main(
            ["obs", "compare", str(tmp_path / "runs.jsonl"),
             "--baseline", "ghost"]
        ) == 3
        err = capsys.readouterr().err
        assert "ghost" in err
        assert "available runs: 'only'" in err

    def test_missing_run_name_exits_3(self, tmp_path, capsys):
        self._record_run(tmp_path, "base", 2)
        capsys.readouterr()
        assert main(
            ["obs", "compare", str(tmp_path / "runs.jsonl"),
             "--baseline", "base", "--run", "ghost"]
        ) == 3
        assert "available runs:" in capsys.readouterr().err

    def test_empty_history_lists_no_runs(self, tmp_path, capsys):
        (tmp_path / "runs.jsonl").write_text("")
        assert main(
            ["obs", "compare", str(tmp_path / "runs.jsonl"),
             "--baseline", "base"]
        ) == 3
        assert "available runs: (none)" in capsys.readouterr().err

    def test_both_jsonl_and_db_is_an_input_error(self, tmp_path, capsys):
        assert main(
            ["obs", "compare", str(tmp_path / "runs.jsonl"),
             "--db", str(tmp_path / "store.db"), "--baseline", "base"]
        ) == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_jsonl_nor_db_is_an_input_error(self, capsys):
        assert main(["obs", "compare", "--baseline", "base"]) == 2
        assert "--db is required" in capsys.readouterr().err

    def test_progress_flag_reports_units(self, tmp_path, capsys):
        assert main(
            ["--progress", "lot", "--dies", "2", "--tests", "2"]
        ) == 0
        err = capsys.readouterr().err
        assert "[farm]" in err
        assert "[farm 2/2]" in err
