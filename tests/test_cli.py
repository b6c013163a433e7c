"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestArgumentParsing:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_march_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["march", "--algorithm", "march_zz"])

    def test_jobs_submit_rejects_bad_choice_before_sending(
        self, capsys, monkeypatch
    ):
        from repro.service import ServiceClient
        from repro.service.spec import JobSpec, SpecError

        sent = []
        monkeypatch.setattr(ServiceClient, "submit", sent.append)
        assert main(
            ["jobs", "submit", "--url", "http://127.0.0.1:9", "march",
             "-p", "algorithm=nope"]
        ) == 2
        assert sent == []
        with pytest.raises(SpecError) as err:
            JobSpec.from_payload(
                {"command": "march", "params": {"algorithm": "nope"}}
            )
        assert capsys.readouterr().err == f"error: {err.value}\n"


class TestCommands:
    def test_march(self, capsys):
        assert main(["--seed", "1", "march"]) == 0
        out = capsys.readouterr().out
        assert "march_c-" in out
        assert "trip point" in out
        assert "WCR" in out

    def test_march_alternate_algorithm(self, capsys):
        assert main(["march", "--algorithm", "mats+"]) == 0
        assert "mats+" in capsys.readouterr().out

    def test_random(self, capsys):
        assert main(["--seed", "2", "random", "--tests", "25"]) == 0
        out = capsys.readouterr().out
        assert "worst case" in out
        assert "measurements spent" in out

    def test_shmoo(self, capsys):
        assert main(["--seed", "3", "shmoo", "--tests", "6"]) == 0
        out = capsys.readouterr().out
        assert "VDD" in out
        assert "spread at Vdd 1.8" in out

    def test_sweep(self, capsys):
        assert main(["--seed", "4", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "Vdd" in out
        assert "worst cell" in out

    def test_lot(self, capsys):
        assert main(["--seed", "5", "lot", "--dies", "3", "--tests", "4"]) == 0
        out = capsys.readouterr().out
        assert "lot of 3 dies" in out

    def test_wafer(self, capsys):
        assert main(["--seed", "7", "wafer", "--grid", "5", "--tests", "3"]) == 0
        out = capsys.readouterr().out
        assert "wafer map" in out
        assert "worst die" in out

    def test_table1_fast(self, capsys):
        assert main(
            ["--seed", "6", "table1", "--random-tests", "60", "--fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "March Test" in out
        assert "NNGA Test" in out

    def test_campaign_saves_directory(self, capsys, tmp_path):
        out = tmp_path / "campaign"
        assert main(
            ["--seed", "9", "campaign", "--random-tests", "60",
             "--out", str(out)]
        ) == 0
        captured = capsys.readouterr().out
        assert "# Characterization campaign report" in captured
        assert (out / "report.md").exists()
        assert list((out / "patterns").glob("*.pat"))

    def test_hunt_writes_artifacts(self, capsys, tmp_path, monkeypatch):
        # Shrink the default configs through the characterizer by patching
        # the scheme defaults — the CLI's hunt uses library defaults which
        # are sized for minutes; here we only check wiring.
        from repro.core import characterizer as characterizer_module
        from repro.core.learning import LearningConfig
        from repro.core.optimization import OptimizationConfig
        from repro.ga.engine import GAConfig

        original = characterizer_module.DeviceCharacterizer.characterize_intelligent

        def small(self, learning_config=None, optimization_config=None):
            return original(
                self,
                LearningConfig(
                    tests_per_round=60, max_rounds=1, max_epochs=30,
                    n_networks=2, seed=0,
                ),
                OptimizationConfig(
                    ga=GAConfig(
                        population_size=8, n_populations=1, max_generations=4
                    ),
                    n_seeds=6, seed_pool_size=40, seed=0,
                ),
            )

        monkeypatch.setattr(
            characterizer_module.DeviceCharacterizer,
            "characterize_intelligent",
            small,
        )
        weights = tmp_path / "w.json"
        database = tmp_path / "db.json"
        assert main(
            ["hunt", "--weights", str(weights), "--database", str(database)]
        ) == 0
        out = capsys.readouterr().out
        assert "worst case test" in out
        assert weights.exists()
        assert database.exists()
