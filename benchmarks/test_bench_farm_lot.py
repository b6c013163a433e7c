"""FARM — tester-farm scaling of a lot characterization.

The paper's measurement-time argument applied at lot level: a 16-die lot
sharded one die per work unit runs on a farm of worker processes.  The
benchmark records the serial-vs-4-worker wall clock and proves the farm
contract — the parallel run's worst-case database is byte-identical to
the serial run's.

The wall-clock ratio is only meaningful relative to the recorded CPU
count: on a single-core host the workers timeshare one core and the farm
*loses* by the unit (de)serialization overhead, which is exactly the
honest number to record.
"""

import time

import pytest

from benchmarks.conftest import SEARCH_RANGE, host_cpus
from repro.core.lot import LotCharacterizer
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator

N_DIES = 16
N_TESTS = 100


def make_tests():
    return [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=37).batch(N_TESTS)
    ]


def run_lot(tests, workers):
    lot = LotCharacterizer(search_range=SEARCH_RANGE, seed=37)
    return lot.run(tests, n_dies=N_DIES, workers=workers)


@pytest.mark.benchmark(group="farm")
def test_farm_lot_serial_vs_4_workers(benchmark, report_sink, tmp_path):
    tests = make_tests()

    start = time.perf_counter()
    serial = run_lot(tests, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = benchmark.pedantic(
        run_lot, args=(tests, 4), rounds=1, iterations=1
    )
    parallel_s = time.perf_counter() - start

    assert serial.dies == parallel.dies

    serial_path = tmp_path / "serial.json"
    parallel_path = tmp_path / "parallel.json"
    serial.to_database(tests).export_json(serial_path)
    parallel.to_database(tests).export_json(parallel_path)
    assert serial_path.read_bytes() == parallel_path.read_bytes()

    cpus = host_cpus()
    measurements = sum(d.measurements for d in serial.dies)
    report_sink(
        f"farm — {N_DIES}-die lot x {N_TESTS} tests "
        f"({measurements} tester measurements, host CPUs: {cpus}):"
    )
    report_sink(f"  serial (1 worker)   {serial_s:6.2f} s wall clock")
    report_sink(
        f"  farm   (4 workers)  {parallel_s:6.2f} s wall clock "
        f"({serial_s / parallel_s:4.2f}x speedup)"
    )
    report_sink(
        "  worst-case database export: byte-identical serial vs parallel"
    )
    if cpus < 2:
        report_sink(
            "  note: single-CPU host — workers timeshare one core, so the"
        )
        report_sink(
            "  farm pays (de)serialization overhead with no parallelism to"
        )
        report_sink(
            "  recover it; the determinism guarantee is the result here."
        )
