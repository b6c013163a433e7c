"""Run-history store, tolerant loading, and cost-regression comparison."""

import json

import pytest

from repro.obs.history import (
    RUN_KIND,
    RunHistory,
    build_run_record,
    compare_runs,
)
from repro.obs.metrics import MetricsRegistry


def _registry(measurements):
    registry = MetricsRegistry()
    for name, count in measurements.items():
        registry.counter("ate.measurements").inc(count, label=name)
    registry.counter("farm.units").inc(3)
    return registry


def _record(name, measurements, wall_s=1.0):
    return build_run_record(
        name, _registry(measurements), campaign="c", command="lot",
        wall_s=wall_s,
    )


class TestRunRecord:
    def test_record_fields(self):
        record = _record("base", {"t1": 10, "t2": 5}, wall_s=2.5)
        assert record["kind"] == RUN_KIND
        assert record["run"] == "base"
        assert record["measurements"] == 15
        assert record["per_test"] == {"t1": 10, "t2": 5}
        assert record["farm_units"] == 3
        assert record["wall_s"] == 2.5

    def test_empty_registry(self):
        record = build_run_record("r", MetricsRegistry())
        assert record["measurements"] == 0
        assert record["per_test"] == {}


class TestRunHistory:
    def test_append_find_latest(self, tmp_path):
        history = RunHistory(tmp_path / "runs.jsonl")
        history.append(_record("a", {"t": 1}))
        history.append(_record("b", {"t": 2}))
        history.append(_record("a", {"t": 3}))  # re-recorded: latest wins
        assert history.find("a")["measurements"] == 3
        assert history.latest()["run"] == "a"
        assert history.find("nope") is None
        assert history.next_default_name() == "run-3"

    def test_missing_file(self, tmp_path):
        history = RunHistory(tmp_path / "absent.jsonl")
        assert history.load().records == []
        assert history.latest() is None

    def test_tolerant_load(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        future = dict(_record("future", {"t": 9}), schema=99)
        path.write_text(
            "\n".join(
                [
                    json.dumps(_record("ok", {"t": 1})),
                    "{not json",
                    json.dumps({"kind": "other.thing"}),
                    json.dumps(future),
                ]
            )
            + "\n"
        )
        loaded = RunHistory(path).load()
        assert [r["run"] for r in loaded.records] == ["ok", "future"]
        assert loaded.dropped_lines == 2
        # unknown-schema records are counted but stay usable as baselines
        assert loaded.unknown_schema == 1
        assert RunHistory(path).find("future")["measurements"] == 9


class TestCompareRuns:
    def _history(self, tmp_path, *records):
        history = RunHistory(tmp_path / "runs.jsonl")
        for record in records:
            history.append(record)
        return history

    def test_ok_within_threshold(self, tmp_path):
        history = self._history(
            tmp_path, _record("base", {"t": 100}), _record("run", {"t": 104})
        )
        comparison = compare_runs(history, "base", "run", threshold_pct=5.0)
        assert not comparison.regressed
        assert comparison.measurement_delta_pct == pytest.approx(4.0)
        assert "verdict: ok" in comparison.render()

    def test_regression_beyond_threshold(self, tmp_path):
        history = self._history(
            tmp_path,
            _record("base", {"t": 100}),
            _record("run", {"t": 120, "extra": 30}),
        )
        comparison = compare_runs(history, "base", "run", threshold_pct=5.0)
        assert comparison.regressed
        rendered = comparison.render()
        assert "MEASUREMENT COST REGRESSION" in rendered
        assert "extra" in rendered  # the per-test breakdown names culprits

    def test_improvement_never_regresses(self, tmp_path):
        history = self._history(
            tmp_path, _record("base", {"t": 100}), _record("run", {"t": 50})
        )
        assert not compare_runs(history, "base", "run").regressed

    def test_default_run_is_latest(self, tmp_path):
        history = self._history(
            tmp_path, _record("base", {"t": 10}), _record("newest", {"t": 30})
        )
        comparison = compare_runs(history, "base")
        assert comparison.run["run"] == "newest"
        assert comparison.regressed

    def test_missing_runs_raise(self, tmp_path):
        history = self._history(tmp_path, _record("base", {"t": 1}))
        with pytest.raises(KeyError, match="ghost"):
            compare_runs(history, "base", "ghost")
        with pytest.raises(KeyError, match="nope"):
            compare_runs(history, "nope")

    def test_zero_baseline_is_not_a_regression(self, tmp_path):
        history = self._history(
            tmp_path, _record("base", {}), _record("run", {"t": 10})
        )
        comparison = compare_runs(history, "base", "run")
        assert comparison.measurement_delta_pct is None
        assert not comparison.regressed

    def test_wall_clock_is_advisory_by_default(self, tmp_path):
        history = self._history(
            tmp_path,
            _record("base", {"t": 100}, wall_s=1.0),
            _record("run", {"t": 100}, wall_s=9.0),
        )
        comparison = compare_runs(history, "base", "run")
        assert comparison.wall_delta_pct == pytest.approx(800.0)
        assert not comparison.regressed
        assert "advisory" in comparison.render()

    def test_wall_clock_gate_opt_in(self, tmp_path):
        history = self._history(
            tmp_path,
            _record("base", {"t": 100}, wall_s=1.0),
            _record("run", {"t": 100}, wall_s=2.0),
        )
        comparison = compare_runs(
            history, "base", "run", wall_threshold_pct=50.0
        )
        assert comparison.wall_regressed
        assert comparison.regressed
        assert "WALL CLOCK REGRESSION" in comparison.render()
        # measurement regressions still take verdict precedence
        loose = compare_runs(
            history, "base", "run", wall_threshold_pct=200.0
        )
        assert not loose.regressed
