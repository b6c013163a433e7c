"""Outside-in per-layer tracing of the ``repro`` package.

The benchmark never edits the program to trace it.  Instead
:class:`Tracer.install` replaces the public functions of each layer with
timing wrappers *at the name the caller resolves*: a module-level
function is rebound in every ``repro`` module that imported it (so
``repro.device.memory_chip.extract_features`` is traced as well as
``repro.patterns.features.extract_features``), and a method is rebound
on the class that defines it.  :meth:`Tracer.uninstall` restores every
original, so traced and untraced passes can alternate in one process.

Each wrapped call records one span ``(layer, start, end, parent)`` in
memory.  A layer's self time is its span's duration minus the time its
child spans cover; all spans of a process are properly nested on one
thread, so the children of a span never overlap and their summed
durations are exactly the covered part.

Pool workers of the process farm backend are forked from the traced
parent, so they inherit the wrappers.  A worker traces each unit with a
fresh span list and sends the unit's per-layer aggregate back over a
queue; the parent folds those aggregates into the pass.  The farm layer
itself is accounted from the ``WorkResult`` list ``executor.run``
returns and from the pickled sizes of units and results.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import os
import pickle
import queue
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer of each traced target, as ``(layer, "module:qualname")``.  A
#: layer with several targets sums over them.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("patterns.random_gen", "repro.patterns.random_gen:RandomTestGenerator.generate"),
    ("patterns.features", "repro.patterns.features:extract_features"),
    ("patterns.encoding", "repro.patterns.encoding:TestEncoder.encode"),
    ("patterns.encoding", "repro.patterns.encoding:TestEncoder.encode_batch"),
    ("patterns.vectors", "repro.patterns.vectors:VectorSequence.__init__"),
    ("ga.operators", "repro.ga.operators:tournament_select"),
    ("ga.operators", "repro.ga.operators:crossover_sequences"),
    ("ga.operators", "repro.ga.operators:point_mutate_sequence"),
    ("ga.operators", "repro.ga.operators:motif_mutate_sequence"),
    ("ga.operators", "repro.ga.operators:resize_mutate_sequence"),
    ("ga.operators", "repro.ga.operators:crossover_conditions"),
    ("ga.operators", "repro.ga.operators:mutate_conditions"),
    ("ga.engine", "repro.ga.engine:MultiPopulationGA.run"),
    ("ga.fitness", "repro.ga.fitness:CachingFitness.evaluate"),
    ("core.optimization.fitness", "repro.core.optimization:OptimizationScheme.fitness"),
    ("nn.ensemble.fit", "repro.nn.ensemble:VotingEnsemble.fit"),
    ("nn.ensemble.predict", "repro.nn.ensemble:VotingEnsemble.predict_proba"),
    ("nn.ensemble.predict", "repro.nn.ensemble:VotingEnsemble.classify"),
    ("core.learning", "repro.core.learning:LearningScheme.run"),
    ("core.learning.propose", "repro.core.learning:FuzzyNeuralTestGenerator.propose"),
    ("device.features_of", "repro.device.memory_chip:MemoryTestChip.features_of"),
    ("device.functional", "repro.device.memory_chip:MemoryTestChip.run_functional"),
    ("device.parametric", "repro.device.memory_chip:MemoryTestChip.true_parameter_value"),
    ("device.parametric", "repro.device.memory_chip:MemoryTestChip.true_parameter_values"),
    ("ate.apply", "repro.ate.tester:ATE.apply"),
    ("ate.apply_batch", "repro.ate.tester:ATE.apply_batch"),
    ("core.trip_point", "repro.core.trip_point:MultipleTripPointRunner.measure_one"),
    ("core.sutp", "repro.core.sutp:SearchUntilTripPoint.measure"),
    ("search", "repro.search.base:TripPointSearcher.search"),
    ("farm.run", "repro.farm.executor:_ExecutorBase.run"),
)

#: Unit runners of the farm workloads.  They get no span of their own;
#: their wrapper ships a forked worker's per-unit aggregate to the parent.
UNIT_RUNNERS: Tuple[str, ...] = ("repro.core.lot:run_lot_unit",)

#: Layers that get spans; each reports its self time.
TIMED_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in TARGETS))

#: Layers reported without a call count: called once per pass, or (the
#: encoder and the ensemble's votes) calling themselves, so calls double.
UNCOUNTED_LAYERS = frozenset({
    "ga.engine", "nn.ensemble.fit", "nn.ensemble.predict", "core.learning",
    "core.learning.propose", "patterns.encoding",
})

#: Every ratio metric and the metric that is its base (denominator).
RATIO_BASES: Dict[str, str] = {
    "ga.fitness.cache_hit_ratio": "ga.fitness.lookups",
    "device.feature_cache.hit_ratio": "device.features_of.calls",
    "core.trip_point.found_ratio": "core.trip_point.calls",
    "core.sutp.probes_per_trip_point": "core.sutp.calls",
    "core.sutp.full_search_ratio": "core.sutp.calls",
    "farm.parallel_efficiency": "farm.capacity_s",
    "farm.imbalance": "farm.workers",
    "bench.trace_overhead": "bench.untraced_cpu_s",
}

Span = Tuple[int, float, float, int]


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"module:Class.attr"`` -> (owner, attribute name, original)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if path else getattr(owner, attr)


def _bindings(owner: Any, attr: str, original: Any) -> List[Tuple[Any, str]]:
    """Every place a caller resolves ``original`` from.

    A method is resolved through its class.  A module-level function is
    resolved through each ``repro`` module that holds it under any name.
    """
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self) -> None:
        self.layers: List[str] = list(TIMED_LAYERS)
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._owner_pid = os.getpid()
        self._queue: Optional[Any] = None
        self.reset()

    # -- state ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded since the last reset."""
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.calls = [0] * len(self.layers)
        self.counts: Dict[str, float] = {}
        self.farm_runs: List[Tuple[list, list, float, int]] = []
        self.worker_aggregates: List[Dict[str, float]] = []

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- install ----------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target at each name its callers resolve."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if multiprocessing.get_start_method() == "fork" and self._queue is None:
            self._queue = multiprocessing.get_context("fork").Queue()
        for layer, target in TARGETS:
            owner, attr, original = _resolve(target)
            self._patch(owner, attr, original, self._wrap(layer, original))
        for target in UNIT_RUNNERS:
            owner, attr, original = _resolve(target)
            self._patch(owner, attr, original, self._wrap_unit_runner(original))

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        for where, name in _bindings(owner, attr, original):
            self._patches.append((where, name, original))
            setattr(where, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        while self._patches:
            where, name, original = self._patches.pop()
            setattr(where, name, original)

    # -- wrappers -------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        layer_id = self._layer_id[layer]
        hook = _HOOKS.get(layer)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1] if stack else -1
            tracer.spans.append((layer_id, 0.0, 0.0, parent))
            tracer.calls[layer_id] += 1
            token = hook.before(tracer, args, kwargs) if hook else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[index] = (layer_id, start, end, parent)
            if hook:
                hook.after(tracer, token, args, kwargs, result, end - start)
            return result

        return wrapper

    def _wrap_unit_runner(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def runner(unit):
            if os.getpid() == tracer._owner_pid or tracer._queue is None:
                return fn(unit)
            # A forked pool worker: trace this unit alone, ship the totals.
            tracer.reset()
            start = time.perf_counter()
            try:
                return fn(unit)
            finally:
                aggregate = tracer.aggregate()
                aggregate["unit_s"] = time.perf_counter() - start
                tracer._queue.put(aggregate)

        return runner

    # -- farm worker aggregates ---------------------------------------------------------
    def collect_worker_aggregates(self, expected: int, timeout_s: float = 60.0) -> int:
        """Receive ``expected`` per-unit aggregates from pool workers.

        Returns how many arrived; fewer than expected means a worker died
        before reporting.
        """
        received = 0
        if self._queue is None:
            return received
        deadline = time.monotonic() + timeout_s
        while received < expected:
            try:
                item = self._queue.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                break
            self.worker_aggregates.append(item)
            received += 1
        return received

    def close(self) -> None:
        """Uninstall and release the worker queue."""
        self.uninstall()
        if self._queue is not None:
            self._queue.close()
            self._queue.join_thread()
            self._queue = None

    # -- aggregation ------------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self seconds per layer over this process's spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = [0.0] * len(self.layers)
        for index, (layer_id, start, end, _) in enumerate(self.spans):
            totals[layer_id] += (end - start) - covered[index]
        return totals

    def aggregate(self) -> Dict[str, float]:
        """Per-layer calls and self time plus hook counts, as plain data."""
        out: Dict[str, float] = dict(self.counts)
        for layer, calls, self_s in zip(self.layers, self.calls, self.self_times()):
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        return out

    def spans_as_records(self) -> List[Dict[str, Any]]:
        """This process's spans, parent-linked, for writing out."""
        return [
            {"i": i, "layer": self.layers[layer_id], "start": start,
             "end": end, "parent": parent}
            for i, (layer_id, start, end, parent) in enumerate(self.spans)
        ]


# -- per-layer hooks: counts measured where the work happens --------------------------------
class _Hook:
    def before(self, tracer: Tracer, args, kwargs):
        return None

    def after(self, tracer: Tracer, token, args, kwargs, result, elapsed: float) -> None:
        pass


class _FitnessCacheHook(_Hook):
    """``CachingFitness.evaluate``: a lookup hits when no raw evaluation ran."""

    def before(self, tracer, args, kwargs):
        fitness, individual = args[0], args[1]
        return (not individual.evaluated, fitness.raw_evaluations)

    def after(self, tracer, token, args, kwargs, result, elapsed):
        lookup, raw_before = token
        if lookup:
            tracer._count("ga.fitness.lookups")
            if args[0].raw_evaluations == raw_before:
                tracer._count("ga.fitness.hits")


class _GenerationsHook(_Hook):
    def after(self, tracer, token, args, kwargs, result, elapsed):
        tracer._count("ga.engine.generations", result.generations_run)


class _PredictHook(_Hook):
    """Samples scored by the ensemble, counted once per outermost call."""

    def before(self, tracer, args, kwargs):
        stack = tracer._stack
        layer_id = tracer._layer_id["nn.ensemble.predict"]
        return not (stack and tracer.spans[stack[-1]][0] == layer_id)

    def after(self, tracer, token, args, kwargs, result, elapsed):
        if token:
            tracer._count("nn.ensemble.predict.samples", len(args[1]))


class _FeatureCacheHook(_Hook):
    """``features_of`` hits its cache when it extracted no features."""

    def before(self, tracer, args, kwargs):
        return tracer.calls[tracer._layer_id["patterns.features"]]

    def after(self, tracer, token, args, kwargs, result, elapsed):
        if tracer.calls[tracer._layer_id["patterns.features"]] == token:
            tracer._count("device.feature_cache.hits")


class _StrobesHook(_Hook):
    def after(self, tracer, token, args, kwargs, result, elapsed):
        tracer._count("ate.apply_batch.strobes", len(result))


class _TripPointHook(_Hook):
    def after(self, tracer, token, args, kwargs, result, elapsed):
        if result.found:
            tracer._count("core.trip_point.found")


class _SUTPHook(_Hook):
    def after(self, tracer, token, args, kwargs, result, elapsed):
        tracer._count("core.sutp.probes", result.measurements)
        tracer._count("core.sutp.full_searches", int(result.used_full_search))
        tracer._count("core.sutp.iterations", result.iterations)


class _FarmRunHook(_Hook):
    """Keeps the units and results of each ``executor.run`` for accounting."""

    def after(self, tracer, token, args, kwargs, result, elapsed):
        executor, units = args[0], list(args[1])
        tracer.farm_runs.append(
            (units, list(result), elapsed, getattr(executor, "workers", 1))
        )


_HOOKS: Dict[str, _Hook] = {
    "ga.fitness": _FitnessCacheHook(),
    "ga.engine": _GenerationsHook(),
    "nn.ensemble.predict": _PredictHook(),
    "device.features_of": _FeatureCacheHook(),
    "ate.apply_batch": _StrobesHook(),
    "core.trip_point": _TripPointHook(),
    "core.sutp": _SUTPHook(),
    "farm.run": _FarmRunHook(),
}


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def farm_metrics(farm_runs: List[Tuple[list, list, float, int]]) -> Dict[str, float]:
    """The ``farm.*`` metrics of one pass, from what ``executor.run`` returned."""
    wall = units = busy = retries = unit_bytes = result_bytes = 0.0
    capacity = overhead = 0.0
    workers = 0
    per_worker: Dict[str, float] = {}
    for unit_list, results, elapsed, n_workers in farm_runs:
        wall += elapsed
        units += len(results)
        workers = max(workers, n_workers)
        capacity += elapsed * n_workers
        run_busy: Dict[str, float] = {}
        for result in results:
            busy += result.elapsed_s
            retries += result.attempts - 1
            run_busy[result.worker] = run_busy.get(result.worker, 0.0) + result.elapsed_s
            per_worker[result.worker] = per_worker.get(result.worker, 0.0) + result.elapsed_s
        # Wall time of the run that its busiest worker did not spend in units.
        overhead += elapsed - max(run_busy.values(), default=0.0)
        unit_bytes += sum(len(pickle.dumps(unit)) for unit in unit_list)
        result_bytes += sum(len(pickle.dumps(result)) for result in results)
    loads = list(per_worker.values())
    imbalance = (
        max(loads) / statistics.fmean(loads) - 1.0 if loads and sum(loads) else 0.0
    )
    return {
        "farm.run.wall_s": wall,
        "farm.units": units,
        "farm.workers": float(workers),
        "farm.unit_busy_s": busy,
        "farm.retries": retries,
        "farm.capacity_s": capacity,
        "farm.parallel_efficiency": _ratio(busy, capacity),
        "farm.overhead_s": overhead,
        "farm.imbalance": imbalance,
        "farm.unit_bytes": unit_bytes,
        "farm.result_bytes": result_bytes,
    }


def layer_metrics(
    parent: Dict[str, float],
    workers: List[Dict[str, float]],
    farm_runs: List[Tuple[list, list, float, int]],
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``parent`` is the parent process's :meth:`Tracer.aggregate`, ``workers``
    the per-unit aggregates shipped by pool workers; both are summed.
    """
    total: Dict[str, float] = {}
    for part in [parent, *workers]:
        for key, value in part.items():
            total[key] = total.get(key, 0.0) + value
    get = total.get
    out: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        if layer == "farm.run":
            continue  # accounted from WorkResults below, not from its span
        if layer not in UNCOUNTED_LAYERS:
            out[f"{layer}.calls"] = get(f"{layer}.calls", 0.0)
        out[f"{layer}.self_s"] = get(f"{layer}.self_s", 0.0)
    out["ga.engine.generations"] = get("ga.engine.generations", 0.0)
    out["ga.fitness.lookups"] = get("ga.fitness.lookups", 0.0)
    out["ga.fitness.cache_hit_ratio"] = _ratio(
        get("ga.fitness.hits", 0.0), out["ga.fitness.lookups"]
    )
    out["nn.ensemble.predict.samples"] = get("nn.ensemble.predict.samples", 0.0)
    out["device.feature_cache.hit_ratio"] = _ratio(
        get("device.feature_cache.hits", 0.0), out["device.features_of.calls"]
    )
    out["ate.apply_batch.strobes"] = get("ate.apply_batch.strobes", 0.0)
    out["core.trip_point.found_ratio"] = _ratio(
        get("core.trip_point.found", 0.0), out["core.trip_point.calls"]
    )
    out["core.sutp.probes_per_trip_point"] = _ratio(
        get("core.sutp.probes", 0.0), out["core.sutp.calls"]
    )
    out["core.sutp.full_search_ratio"] = _ratio(
        get("core.sutp.full_searches", 0.0), out["core.sutp.calls"]
    )
    out["core.sutp.iterations"] = get("core.sutp.iterations", 0.0)
    out.update(farm_metrics(farm_runs))
    return out
