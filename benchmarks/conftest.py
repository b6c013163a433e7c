"""Shared benchmark fixtures.

Every bench regenerates one paper artifact (table or figure).  Numbers are
printed to stdout *and* appended to ``benchmarks/results/<bench>.txt`` so a
``pytest benchmarks/ --benchmark-only`` run leaves a reviewable record; the
EXPERIMENTS.md paper-vs-measured index is built from those records.
Machine-readable performance numbers come from ``perfbench/``; benches
whose counts are deterministic pin them exactly instead.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.core.characterizer import DeviceCharacterizer
from repro.core.learning import LearningConfig, LearningScheme
from repro.core.trip_point import MultipleTripPointRunner
from repro.device.memory_chip import MemoryTestChip
from repro.patterns.conditions import ConditionSpace, NOMINAL_CONDITION

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SEARCH_RANGE = (15.0, 45.0)
RESOLUTION = 0.05


def fresh_ate(seed: int = 0, noise_sigma: float = 0.0) -> ATE:
    """A fresh chip + tester (quiet by default for exact boundaries)."""
    chip = MemoryTestChip()
    return ATE(chip, measurement=MeasurementModel(noise_sigma, seed=seed))


def fresh_characterizer(seed: int = 0) -> DeviceCharacterizer:
    """A fresh default characterizer."""
    return DeviceCharacterizer(fresh_ate(seed), seed=seed)


def host_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@pytest.fixture
def report_sink(request):
    """Callable that prints a line and appends it to the bench's record."""
    RESULTS_DIR.mkdir(exist_ok=True)
    record = RESULTS_DIR / f"{request.node.name}.txt"
    record.write_text("")

    def sink(line: str = "") -> None:
        print(line)
        with record.open("a") as handle:
            handle.write(line + "\n")

    return sink


@pytest.fixture(scope="session")
def session_learning():
    """One trained fig. 4 learning result shared by the NN-dependent
    benches (table 1 runs its own pinned variant)."""
    ate = fresh_ate(seed=21)
    runner = MultipleTripPointRunner(
        ate, SEARCH_RANGE, strategy="sutp", resolution=RESOLUTION
    )
    space = ConditionSpace()
    config = LearningConfig(
        tests_per_round=150,
        max_rounds=2,
        max_epochs=80,
        pin_condition=NOMINAL_CONDITION,
        seed=21,
    )
    result = LearningScheme(runner, space, config).run()
    return ate, space, result
