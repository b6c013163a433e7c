"""CLI surfaces of the result store: store import/runs, --db variants."""

import json

import pytest

from repro.cli import main
from repro.store import ResultStore


def _record_run(tmp_path, name, dies):
    assert main(
        ["--run-log", str(tmp_path / "runs.jsonl"), "--run-name", name,
         "lot", "--dies", str(dies), "--tests", "2"]
    ) == 0


class TestStoreImport:
    def test_jsonl_migration_reproduces_compare_verdict(
        self, tmp_path, capsys
    ):
        # The acceptance path: record runs to JSONL, compare there, then
        # migrate into SQLite and get the identical verdict from --db.
        _record_run(tmp_path, "base", 2)
        _record_run(tmp_path, "bigger", 4)
        runs = str(tmp_path / "runs.jsonl")
        db = str(tmp_path / "store.db")
        capsys.readouterr()

        jsonl_code = main(
            ["obs", "compare", runs, "--baseline", "base", "--run", "bigger"]
        )
        jsonl_out = capsys.readouterr().out

        assert main(["store", "import", "--db", db, runs]) == 0
        assert "2 record(s) imported" in capsys.readouterr().out

        db_code = main(
            ["obs", "compare", "--db", db,
             "--baseline", "base", "--run", "bigger"]
        )
        db_out = capsys.readouterr().out
        assert (jsonl_code, jsonl_out) == (db_code, db_out)
        assert jsonl_code == 1  # 2 -> 4 dies is a genuine cost regression

    def test_wcdb_import(self, tmp_path, capsys):
        wcdb = tmp_path / "wcdb.json"
        assert main(
            ["--seed", "3", "lot", "--dies", "2", "--tests", "2",
             "--database", str(wcdb)]
        ) == 0
        db = str(tmp_path / "store.db")
        capsys.readouterr()
        assert main(
            ["store", "import", "--db", db, "--wcdb", str(wcdb),
             "--scope", "lot-3"]
        ) == 0
        out = capsys.readouterr().out
        assert "worst-case record(s) imported" in out
        assert "scope 'lot-3'" in out
        assert ResultStore(db).wc_record_count(scope="lot-3") > 0

    def test_nothing_to_import_is_an_error(self, tmp_path, capsys):
        assert main(
            ["store", "import", "--db", str(tmp_path / "store.db")]
        ) == 2
        assert "nothing to import" in capsys.readouterr().err

    def test_unreadable_inputs_are_clean_errors(self, tmp_path, capsys):
        db = str(tmp_path / "store.db")
        assert main(
            ["store", "import", "--db", db, str(tmp_path / "ghost.jsonl")]
        ) == 2
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["store", "import", "--db", db, "--wcdb", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestStoreRuns:
    def test_listing(self, tmp_path, capsys):
        _record_run(tmp_path, "alpha", 2)
        db = str(tmp_path / "store.db")
        assert main(
            ["store", "import", "--db", db, str(tmp_path / "runs.jsonl")]
        ) == 0
        capsys.readouterr()
        assert main(["store", "runs", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out
        assert "measurements" in out

    def test_json_listing(self, tmp_path, capsys):
        _record_run(tmp_path, "alpha", 2)
        db = str(tmp_path / "store.db")
        main(["store", "import", "--db", db, str(tmp_path / "runs.jsonl")])
        capsys.readouterr()
        assert main(["store", "runs", "--db", db, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["run"] for r in records] == ["alpha"]

    def test_empty_store(self, tmp_path, capsys):
        db = tmp_path / "store.db"
        ResultStore(db)
        assert main(["store", "runs", "--db", str(db)]) == 0
        assert "no runs stored" in capsys.readouterr().out


class TestObsDbVariants:
    def test_compare_rejects_both_backends(self, tmp_path, capsys):
        assert main(
            ["obs", "compare", str(tmp_path / "runs.jsonl"),
             "--db", str(tmp_path / "store.db"), "--baseline", "b"]
        ) == 2
        assert "not both" in capsys.readouterr().err

    def test_report_runs_table_from_db(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--trace", str(trace), "--run-log",
             str(tmp_path / "runs.jsonl"), "--run-name", "r1",
             "lot", "--dies", "2", "--tests", "2"]
        ) == 0
        db = str(tmp_path / "store.db")
        main(["store", "import", "--db", db, str(tmp_path / "runs.jsonl")])
        capsys.readouterr()
        out_html = tmp_path / "report.html"
        assert main(
            ["obs", "report", str(trace), str(out_html), "--db", db]
        ) == 0
        assert "report written" in capsys.readouterr().out
        assert "r1" in out_html.read_text()

    def test_report_rejects_both_backends(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["--trace", str(trace), "march"])
        capsys.readouterr()
        assert main(
            ["obs", "report", str(trace), "--runs", "x.jsonl",
             "--db", "y.db"]
        ) == 2
        assert "not both" in capsys.readouterr().err


class TestMissingStoreIsRefused:
    """Read-only ``--db`` commands never create a store at a typo."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["obs", "alerts"], 3),
            (["obs", "compare", "--baseline", "b"], 2),
            (["obs", "report", "TRACE"], 2),
            (["store", "runs"], 2),
        ],
        ids=["obs-alerts", "obs-compare", "obs-report", "store-runs"],
    )
    def test_read_command_refuses_missing_store(
        self, tmp_path, capsys, argv, code
    ):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("")
        argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
        db = tmp_path / "typo.db"
        assert main([*argv, "--db", str(db)]) == code
        captured = capsys.readouterr()
        assert f"no result store at {db}" in captured.err
        assert captured.out == ""
        assert not db.exists()


class TestLotDatabaseExport:
    def test_export_matches_report_database(self, tmp_path, capsys):
        target = tmp_path / "wcdb.json"
        assert main(
            ["--seed", "5", "lot", "--dies", "2", "--tests", "3",
             "--database", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert "worst-case database exported" in out
        payload = json.loads(target.read_text())
        assert payload["records"]  # every die contributes worst cases
        for record in payload["records"]:
            assert set(record) >= {"test_name", "condition", "wcr"}

    def test_same_seed_same_bytes(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            assert main(
                ["--seed", "5", "lot", "--dies", "2", "--tests", "2",
                 "--database", str(target)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()
