#!/usr/bin/env python3
"""Characterization benchmark of the ``repro`` package.

Runs one workload (see ``workloads.py`` and ``NOTES.md``) for a fixed
time from the root of a source checkout::

    python3 perfbench/run.py --workload lot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it repeats untraced passes and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics (``tracer.py``) plus the tracing overhead.
Every pass's artifact is hashed and compared with the digest recorded
for the seed in ``digests.json`` (or, for an unrecorded seed, with the
other passes and, for ``lot_farm``, with a serial ``lot`` pass); a
mismatch or an exception fails the pass.  Seconds are reported at a
reference host speed (see ``calibrate``); the measured ones are printed
on ``#`` lines.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import gzip
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from tracer import RATIO_BASES, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

#: Fewest measured passes per run (per kind in a traced run).
MIN_PASSES = 3
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Where a traced run writes its spans, under the working directory.
SPANS_DIR = ".perfbench"

#: Median seconds of the calibration kernel on the reference host (a
#: 2-vCPU Xeon VM) when it is quiet; see ``calibrate``.
REFERENCE_CALIBRATION_S = 0.0085
#: Kernel repetitions per calibration; their median is the reading.
CALIBRATION_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ate_probes": "count",
    "worst_wcr": "ratio",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in RATIO_BASES or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def calibrate() -> float:
    """Seconds this host takes for a fixed computation that uses no ``repro`` code.

    Other tenants of a shared host slow every computation down together,
    by up to a half for minutes at a time.  Each timed interval is
    bracketed by this reading and scaled by ``REFERENCE_CALIBRATION_S``
    over it, which reports the interval at the reference host speed.
    The kernel mixes what the workloads do: Python dict and integer work
    and small NumPy array operations.  The median of a few repetitions
    ignores momentary interruptions.
    """
    times = []
    words = np.arange(4096, dtype=np.int64)
    for _repeat in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(40000):
            key = i & 1023
            table[key] = table.get(key, 0) + (i ^ (i >> 3))
            total += i % 7
        for _ in range(120):
            mixed = (words ^ (words >> 1)) & 0xFF
            total += int(np.convolve(mixed[:256], np.ones(8), mode="valid").max())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_scale(before: float, after: float) -> float:
    """Factor taking seconds measured between two calibrations to the
    reference host speed."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


def cpu_seconds() -> float:
    """User+system seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every child process is reaped, so its rusage is counted.

    The process pool's own management thread joins its workers too.  Two
    blocking joins of one process race for its exit status, so this only
    polls: ``active_children`` reaps exited children without blocking and
    sees the ones the pool reaped.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        children = multiprocessing.active_children()
        if not children:
            return
        if time.monotonic() > deadline:
            for child in children:
                child.terminate()
            raise RuntimeError(f"workers did not exit: {[c.name for c in children]}")
        time.sleep(0.002)


class PassSample:
    """Timing and output of one pass.

    ``wall_s``/``cpu_s`` are as measured; ``scale`` takes them (and the
    layer self times) to the reference host speed.
    """

    def __init__(self, wall_s: float, cpu_s: float, scale: float, output) -> None:
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.scale = scale
        self.output = output
        self.digest = hashlib.sha256(output.artifact).hexdigest()
        #: Traced passes only: per-layer metrics, parent-side spans, and the
        #: summed self seconds of the parent and of the workers with the
        #: seconds the workers spent in units.
        self.layers: Optional[Dict[str, float]] = None
        self.spans: Optional[List[dict]] = None
        self.self_s_split = (0.0, 0.0, 0.0)


def run_pass(workload, tracer=None) -> PassSample:
    """One pass from fresh state; traced when ``tracer`` is given."""
    call = workload.fresh()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    before = calibrate()
    wall0 = time.perf_counter()
    cpu0 = cpu_seconds()
    try:
        raw = call()
    finally:
        if tracer is not None:
            tracer.uninstall()
            remote = sum(
                result.attempts
                for _, results, _, _ in tracer.farm_runs
                for result in results
                if result.worker != "serial"
            )
            received = tracer.collect_worker_aggregates(remote)
        reap_children()
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    sample = PassSample(wall, cpu, host_scale(before, calibrate()), workload.finish(raw))
    if tracer is not None:
        if received != remote:
            raise RuntimeError(f"{remote - received} worker unit trace(s) missing")
        parent = tracer.aggregate()
        workers = tracer.worker_aggregates
        sample.layers = layer_metrics(parent, workers, tracer.farm_runs)
        sample.spans = tracer.spans_as_records()
        sample.self_s_split = (
            sum(tracer.self_times()),
            sum(v for w in workers for k, v in w.items() if k.endswith(".self_s")),
            sum(w["unit_s"] for w in workers),
        )
    return sample


def recorded_digest(workload) -> Optional[str]:
    """The digest recorded for the workload's artifact at its seed."""
    table = json.loads(DIGESTS.read_text())
    return table.get(workload.digest_of or workload.name, {}).get(str(workload.seed))


def reference_digest(workload, samples: List[PassSample]) -> str:
    """What every pass's digest must equal.

    The digest recorded for the seed; for an unrecorded seed, the serial
    twin's artifact for a farm workload and the most common digest of the
    passes for the others.
    """
    recorded = recorded_digest(workload)
    if recorded is not None:
        return recorded
    if workload.workers:
        return run_pass(workload.serial_twin()).digest
    return collections.Counter(s.digest for s in samples).most_common(1)[0][0]


def measure_setup(name: str, seed: int) -> List[float]:
    """Wall seconds of fresh interpreters that only set the workload up,
    at the reference host speed.

    The interpreters inherit this process's CPU, pinned to one, so the
    calibration around each one runs where it ran.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--setup-only",
                 "--workload", name, "--seed", str(seed)],
                check=True, timeout=120,
            )
            elapsed = time.perf_counter() - start
            times.append(elapsed * host_scale(before, calibrate()))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run ``workload`` for ``seconds``; the result object printed last."""
    name, seed = workload.name, workload.seed
    tracer = Tracer() if trace else None
    untraced: List[PassSample] = []
    traced: List[PassSample] = []
    attempted = errors = 0
    start = time.perf_counter()
    # A traced run alternates untraced and traced passes, untraced first
    # so lazy imports are done before any wrapper is installed.
    while (time.perf_counter() - start < seconds or len(untraced) < MIN_PASSES
           or (trace and len(traced) < MIN_PASSES)):
        use_tracer = tracer if trace and len(traced) < len(untraced) else None
        attempted += 1
        try:
            sample = run_pass(workload, use_tracer)
        except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
            traceback.print_exc()
            errors += 1
            if errors > attempted // 2:
                break
            continue
        (traced if use_tracer else untraced).append(sample)
    if tracer is not None:
        tracer.close()
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    samples = untraced + traced
    reference = reference_digest(workload, samples) if samples else ""
    good_untraced = [s for s in untraced if s.digest == reference]
    good_traced = [s for s in traced if s.digest == reference]
    failed = attempted - len(good_untraced) - len(good_traced)
    for sample in samples:
        if sample.digest != reference:
            print(f"artifact digest {sample.digest} != expected {reference}",
                  file=sys.stderr)
    correct = failed == 0 and bool(good_untraced) and (not trace or bool(good_traced))

    metrics: Dict[str, float] = {}
    info: Dict[str, str] = {"failed_frac": f"{failed / max(attempted, 1):.4f}"}
    if correct and not trace:
        first = good_untraced[0].output
        walls = [s.wall_s for s in good_untraced]
        metrics = {
            "wall_s": statistics.median(s.wall_s * s.scale for s in good_untraced),
            "cpu_s": statistics.median(s.cpu_s * s.scale for s in good_untraced),
            "setup_s": statistics.median(measure_setup(name, seed)),
            "peak_rss_mb": peak_kb / 1024.0,
            "ate_probes": float(first.ate_probes),
            "worst_wcr": first.worst_wcr,
        }
        info["passes"] = str(len(walls))
        info["measured pass wall_s"] = " ".join(f"{w:.4f}" for w in walls)
        info["measured pass cpu_s"] = " ".join(f"{s.cpu_s:.4f}" for s in good_untraced)
        info["host scale"] = " ".join(f"{s.scale:.3f}" for s in good_untraced)
    elif correct:
        layer_names = good_traced[0].layers.keys()
        metrics = {
            key: statistics.median(
                s.layers[key] * (s.scale if per_layer_unit(key) == "s" else 1.0)
                for s in good_traced
            )
            for key in layer_names
        }
        untraced_cpu = statistics.median(s.cpu_s * s.scale for s in good_untraced)
        traced_cpu = statistics.median(s.cpu_s * s.scale for s in good_traced)
        metrics["bench.untraced_cpu_s"] = untraced_cpu
        metrics["bench.traced_cpu_s"] = traced_cpu
        metrics["bench.traced_wall_s"] = statistics.median(
            s.wall_s * s.scale for s in good_traced
        )
        metrics["bench.trace_overhead"] = traced_cpu / untraced_cpu - 1.0
        info["passes"] = f"{len(good_untraced)} untraced + {len(good_traced)} traced"
        info["spans"] = write_spans(name, seed, good_traced[-1].spans)
    units = END_TO_END_UNITS if not trace else {k: per_layer_unit(k) for k in metrics}
    for key, value in info.items():
        print(f"# {name} seed {seed}: {key} = {value}")
    for key in metrics:
        print(f"{name} {key} = {metrics[key]:.6g} {units[key]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_spans(name: str, seed: int, spans: List[dict]) -> str:
    """Write one traced pass's parent-side spans; returns the path."""
    directory = Path(SPANS_DIR)
    directory.mkdir(exist_ok=True)
    path = directory / f"spans-{name}-seed{seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(spans, handle, separators=(",", ":"))
    return str(path)


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{name}: FAILED", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed).fresh()
        return 0
    result = measure(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
