"""Tests of the benchmark harness itself, on small versions of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# A seed with no recorded digest, so the small workloads below are checked
# against each other and not against the benchmark-size digests.
SEED = 990001


def small(name: str) -> workloads.Workload:
    return {
        "table1": lambda: workloads.Table1(SEED, tables=1, random_tests=40, scale=0.4),
        "lot": lambda: workloads.Lot(SEED, dies=3, tests=6),
        "lot_farm": lambda: workloads.LotFarm(SEED, dies=3, tests=6),
        "screen": lambda: workloads.Screen(SEED, tests=8, strobe_step=0.25),
    }[name]()


@pytest.fixture(scope="module")
def passes():
    """One untraced then one traced pass of every small workload."""
    tracer = tracing.Tracer()
    try:
        out = {}
        for name in workloads.WORKLOADS:
            workload = small(name)
            out[name] = (run.run_pass(workload), run.run_pass(workload, tracer))
        return out
    finally:
        tracer.close()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_reproduces_untraced_digest(passes, name):
    untraced, traced = passes[name]
    assert traced.digest == untraced.digest


def test_process_farm_reproduces_serial_lot(passes):
    assert passes["lot_farm"][0].digest == passes["lot"][0].digest


def test_tracer_uninstall_restores_every_binding():
    from repro.device import memory_chip
    from repro.patterns import features

    original = features.extract_features
    tracer = tracing.Tracer()
    tracer.install()
    assert memory_chip.extract_features is not original
    assert features.extract_features is not original
    tracer.close()
    assert memory_chip.extract_features is original
    assert features.extract_features is original


def test_metric_names_are_well_formed(passes):
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    produced = list(run.END_TO_END_UNITS) + [
        key for name in passes for key in passes[name][1].layers
    ]
    for name in declared + produced:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_fit_in_traced_wall_time(passes, name):
    traced = passes[name][1]
    parent_self, worker_self, worker_unit_s = traced.self_s_split
    assert 0 < parent_self <= traced.wall_s
    assert worker_self <= worker_unit_s
    if name == "lot_farm":
        assert worker_self > 0, "pool workers reported no spans"


def test_traced_run_reports_every_declared_layer_metric_with_its_base():
    result = run.measure(small("lot_farm"), seconds=0, trace=True)
    assert result["correct"], result
    metrics = result["metrics"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) == set(declared)
    for key, metric in metrics.items():
        assert metric["unit"] == declared[key] == run.per_layer_unit(key)
    for ratio, base in tracing.RATIO_BASES.items():
        assert ratio in metrics and base in metrics, ratio
    for key, unit in declared.items():
        if unit == "ratio":
            assert key in tracing.RATIO_BASES, f"{key} has no declared base"
    assert metrics["device.features_of.calls"]["value"] > 0
    assert metrics["farm.units"]["value"] == 3


def test_untraced_run_reports_the_end_to_end_metrics():
    result = run.measure(small("screen"), seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_mismatched_digest_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "recorded_digest", lambda workload: "0" * 64)
    result = run.measure(small("lot"), seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_PASSES
    assert result["metrics"] == {}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "lot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
