"""SQLite result store: schema, runs, worst-case dedup, jobs."""

import json
import sqlite3

import pytest

from repro.core.database import WorstCaseDatabase, WorstCaseRecord
from repro.obs.history import RUN_KIND, RUN_SCHEMA, RunHistory, compare_runs
from repro.patterns.random_gen import RandomTestGenerator
from repro.store import (
    ACTIVE_JOB_STATES,
    JOB_STATES,
    ResultStore,
    SCHEMA_VERSION,
    schema_version,
)
from repro.store.schema import MIGRATIONS


def _run_record(name, measurements, wall_s=1.0):
    return {
        "schema": RUN_SCHEMA,
        "kind": RUN_KIND,
        "run": name,
        "campaign": "c",
        "command": "lot",
        "ts": 1000.0,
        "wall_s": wall_s,
        "cpu_s": wall_s,
        "workers": None,
        "seed": 0,
        "measurements": measurements,
        "per_test": {},
        "farm_units": 0,
        "farm_retries": 0,
        "checkpoint_dropped_lines": 0,
    }


def _wc_summary(test_name="t1", wcr=0.5, vdd=1.8, failure=False, **extra):
    summary = {
        "test_name": test_name,
        "technique": "vdd_binary_search",
        "cycles": 100,
        "condition": {"vdd": vdd, "temperature": 25.0},
        "measured_value": 20.0,
        "wcr": None if failure else wcr,
        "wcr_class": None if failure else "marginal",
        "functional_failure": failure,
        "note": "",
    }
    summary.update(extra)
    return summary


def _tables(path):
    with sqlite3.connect(str(path)) as conn:
        rows = conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
    return {row[0] for row in rows}


class TestSchema:
    def test_fresh_store_is_at_current_version(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        assert store.schema_version == SCHEMA_VERSION
        with sqlite3.connect(str(store.path)) as conn:
            assert schema_version(conn) == SCHEMA_VERSION

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "store.db"
        ResultStore(path).append_run(_run_record("a", 1))
        again = ResultStore(path)
        assert [r["run"] for r in again.runs()] == ["a"]

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "store.db"
        ResultStore(path)
        with sqlite3.connect(str(path)) as conn:
            conn.execute(
                "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        with pytest.raises(RuntimeError, match="newer"):
            ResultStore(path)

    def test_fresh_store_has_no_bench_records_table(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        assert SCHEMA_VERSION == 3
        assert "bench_records" not in _tables(store.path)

    def test_v2_store_upgrades_to_v3_and_keeps_its_runs(self, tmp_path):
        path = tmp_path / "store.db"
        with sqlite3.connect(str(path)) as conn:
            for statements in MIGRATIONS[:2]:
                for statement in statements:
                    conn.execute(statement)
            conn.execute(
                "INSERT INTO store_meta (key, value) "
                "VALUES ('schema_version', '2')"
            )
            for name, measurements in (("a", 1), ("b", 2)):
                record = _run_record(name, measurements)
                conn.execute(
                    "INSERT INTO runs (run, measurements, record) "
                    "VALUES (?, ?, ?)",
                    (name, measurements, json.dumps(record, sort_keys=True)),
                )
            conn.execute(
                "INSERT INTO bench_records (bench, payload) VALUES (?, ?)",
                ("grid", json.dumps({"bench": "grid"})),
            )
        assert "bench_records" in _tables(path)

        store = ResultStore(path)

        assert store.schema_version == 3
        assert "bench_records" not in _tables(path)
        assert [r["run"] for r in store.runs()] == ["a", "b"]
        assert store.find_run("b") == _run_record("b", 2)

    def test_parent_directory_is_created(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nested" / "store.db")
        assert store.path.exists()


class TestRuns:
    def test_append_find_latest(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.append_run(_run_record("a", 10))
        store.append_run(_run_record("b", 20))
        store.append_run(_run_record("a", 30))  # re-recorded: latest wins
        assert store.find_run("a")["measurements"] == 30
        assert store.latest_run()["run"] == "a"
        assert store.find_run("nope") is None
        assert store.run_names() == ["a", "b"]

    def test_history_adapter_drives_compare_runs(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.append_run(_run_record("base", 100))
        store.append_run(_run_record("fat", 200))
        history = store.run_history()
        comparison = compare_runs(
            history, baseline_name="base", run_name="fat"
        )
        assert comparison.regressed
        same = compare_runs(history, baseline_name="base", run_name="base")
        assert not same.regressed
        assert history.next_default_name() == "run-2"

    def test_jsonl_import_reproduces_compare_verdict(self, tmp_path):
        # The migration contract: a compare that regressed against the
        # JSONL history regresses identically against the imported store.
        jsonl = RunHistory(tmp_path / "runs.jsonl")
        jsonl.append(_run_record("base", 100, wall_s=1.0))
        jsonl.append(_run_record("next", 180, wall_s=1.1))
        store = ResultStore(tmp_path / "store.db")
        result = store.import_runs_jsonl(jsonl.path)
        assert result.imported == 2
        assert result.dropped_lines == 0
        before = compare_runs(jsonl, baseline_name="base", run_name="next")
        after = compare_runs(
            store.run_history(), baseline_name="base", run_name="next"
        )
        assert before.regressed and after.regressed
        assert before.measurement_delta_pct == after.measurement_delta_pct
        assert before.render() == after.render()

    def test_jsonl_import_counts_torn_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with path.open("w") as handle:
            handle.write(json.dumps(_run_record("ok", 1)) + "\n")
            handle.write('{"torn": \n')
        store = ResultStore(tmp_path / "store.db")
        result = store.import_runs_jsonl(path)
        assert result.imported == 1
        assert result.dropped_lines == 1
        assert "1 malformed line(s) skipped" in result.describe()


class TestWorstCaseRecords:
    def test_import_export_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        payload = {
            "records": [
                _wc_summary("t1", wcr=0.4),
                _wc_summary("t2", wcr=0.9),
            ],
            "functional_failures": [_wc_summary("t3", failure=True)],
        }
        assert store.import_wcdb_payload(payload) == 3
        out = store.export_wcdb_payload()
        # ranked worst-first, like WorstCaseDatabase.ranked()
        assert [r["test_name"] for r in out["records"]] == ["t2", "t1"]
        assert [r["test_name"] for r in out["functional_failures"]] == ["t3"]
        assert out["records"][0]["condition"] == {
            "vdd": 1.8, "temperature": 25.0,
        }

    def test_dedup_keeps_the_worse_record(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.5)]})
        # better (lower) WCR at the same (test, condition): ignored
        assert (
            store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.3)]})
            == 0
        )
        # worse WCR: replaces
        assert (
            store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.7)]})
            == 1
        )
        out = store.export_wcdb_payload()
        assert len(out["records"]) == 1
        assert out["records"][0]["wcr"] == 0.7

    def test_functional_failure_beats_parametric(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.9)]})
        assert (
            store.import_wcdb_payload(
                {"functional_failures": [_wc_summary("t", failure=True)]}
            )
            == 1
        )
        out = store.export_wcdb_payload()
        assert out["records"] == []
        assert len(out["functional_failures"]) == 1
        # ...and a parametric record never downgrades a failure
        assert (
            store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.9)]})
            == 0
        )

    def test_different_conditions_are_distinct_rows(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.import_wcdb_payload(
            {"records": [_wc_summary("t", vdd=1.8), _wc_summary("t", vdd=2.5)]}
        )
        assert store.wc_record_count() == 2

    def test_scopes_isolate_jobs(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.import_wcdb_payload(
            {"records": [_wc_summary("t", wcr=0.5)]}, scope="job-1"
        )
        store.import_wcdb_payload(
            {"records": [_wc_summary("t", wcr=0.8)]}, scope="job-2"
        )
        assert store.wc_record_count() == 2
        only = store.export_wcdb_payload(scope="job-1")
        assert [r["wcr"] for r in only["records"]] == [0.5]

    def test_live_database_import(self, tmp_path):
        database = WorstCaseDatabase()
        test = RandomTestGenerator(seed=1).batch(1)[0].renamed("live")
        database.add(
            WorstCaseRecord(
                test=test, measured_value=19.0, wcr=0.6, wcr_class=None,
                technique="vdd_binary_search",
            )
        )
        store = ResultStore(tmp_path / "store.db")
        assert store.import_wcdb(database, scope="s") == 1
        out = store.export_wcdb_payload(scope="s")
        assert out["records"][0]["test_name"] == "live"


class TestJobs:
    SPEC = {"command": "lot", "params": {"dies": 2}, "seed": 0}

    def test_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        job = store.create_job("job-0001", self.SPEC, job_dir="/tmp/j")
        assert job["state"] == "queued"
        assert job["spec"] == self.SPEC
        store.update_job("job-0001", state="running", started_ts=1.0)
        store.update_job(
            "job-0001", state="completed", finished_ts=2.0, exit_code=0
        )
        done = store.get_job("job-0001")
        assert done["state"] == "completed"
        assert done["exit_code"] == 0

    def test_unknown_state_and_field_are_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.create_job("j", self.SPEC)
        with pytest.raises(ValueError, match="state"):
            store.update_job("j", state="paused")
        with pytest.raises(ValueError, match="fields"):
            store.update_job("j", steak="rare")
        with pytest.raises(ValueError, match="state"):
            store.create_job("k", self.SPEC, state="paused")

    def test_list_filters_by_state(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.create_job("a", self.SPEC)
        store.create_job("b", self.SPEC)
        store.update_job("b", state="completed")
        active = store.list_jobs(states=list(ACTIVE_JOB_STATES))
        assert [j["job_id"] for j in active] == ["a"]
        assert {j["state"] for j in store.list_jobs()} <= set(JOB_STATES)

    def test_fail_interrupted_jobs(self, tmp_path):
        # What a restarted server does to the previous process's leftovers.
        store = ResultStore(tmp_path / "store.db")
        store.create_job("queued-one", self.SPEC)
        store.create_job("running-one", self.SPEC)
        store.update_job("running-one", state="running")
        store.create_job("done-one", self.SPEC)
        store.update_job("done-one", state="completed")
        failed = store.fail_interrupted_jobs()
        assert sorted(failed) == ["queued-one", "running-one"]
        assert store.get_job("queued-one")["state"] == "failed"
        assert "restart" in store.get_job("running-one")["error"]
        assert store.get_job("done-one")["state"] == "completed"
