"""Serial and multi-process execution of work units behind one interface.

Both executors implement the same contract::

    executor.run(units, runner, checkpoint=None, rtp_broadcast=False)
        -> List[WorkResult]   # one per unit, in submission order

where ``runner`` is a picklable module-level callable
``(WorkUnit) -> UnitOutcome``.  The guarantees:

* **Deterministic merge** — results come back ordered by the units'
  submission order regardless of scheduling, worker count or completion
  order.
* **Checkpoint/resume** — with a :class:`~repro.farm.checkpoint.
  CheckpointStore`, completed units are recorded as they finish and
  skipped (result loaded, nothing re-measured) on a later run.
* **Bounded retry** — a unit that times out or whose worker dies is
  re-dispatched up to ``max_attempts`` times; a broken or stalled pool is
  recycled between passes.  Exhausted units raise
  :class:`FarmExecutionError` naming every casualty.
* **Pilot RTP broadcast** — with ``rtp_broadcast=True`` the first
  *submitted* unit runs alone first; the reference trip point it
  establishes is stamped onto every later unit as ``rtp_hint``
  (section 4).  Pinning the pilot to submission order (not completion
  order) keeps results identical for any worker count.

:class:`SerialExecutor` runs units in the parent process;
:class:`ParallelExecutor` fans them out over a
``ProcessPoolExecutor``.  Telemetry crosses the process boundary: when
the parent's switchboard is enabled, every unit — serial or remote —
runs under a :class:`~repro.obs.collector.UnitCapture` that spools its
events and metric observations, and the parent replays all spools in
submission order after the batch (:class:`~repro.obs.collector.
FarmCollector.merge`), so a 4-worker run's merged trace and metric
histograms are identical to the serial run's.  When the parent is
profiling (``--profile``), the capture config ships the
:class:`~repro.obs.profile.ProfileConfig` too, so every unit runs its
own sampling profiler and resource sampler inside the executing process
and the profile/resource events merge with the rest.  Farm lifecycle
events (dispatch/complete/retry, pool lifecycle) stay live on the
parent's :mod:`repro.obs` bus in real completion order — they drive
progress reporting and the Perfetto timeline.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.farm.checkpoint import CheckpointStore
from repro.farm.scheduler import RTPBroadcast, Scheduler
from repro.farm.workunit import UnitOutcome, WorkResult, WorkUnit
from repro.obs.collector import (
    FarmCollector,
    WorkerCaptureConfig,
    run_unit_captured,
)
from repro.obs.events import (
    EventBus,
    FarmRunStarted,
    FarmUnitCompleted,
    FarmUnitDispatched,
    FarmUnitRetried,
    FarmUnitSkipped,
    FarmWorkerPool,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import OBS

#: A unit runner: executes one unit, returns its outcome.  Must be a
#: module-level callable so the process pool can pickle it by reference.
UnitRunner = Callable[[WorkUnit], UnitOutcome]


@runtime_checkable
class ExecutorBackend(Protocol):
    """What every farm backend — serial, process pool, remote — promises.

    A backend executes a batch of work units and returns one
    :class:`~repro.farm.workunit.WorkResult` per unit **in submission
    order**, honouring the checkpoint-skip, pilot-RTP-broadcast and
    telemetry-merge conventions described in this module's docstring.
    ``name`` identifies the backend in events and traces
    (``"serial"``/``"parallel"``/``"remote"``).

    The protocol is ``runtime_checkable`` so call sites that accept an
    ``executor=`` override can validate it with ``isinstance`` without
    importing a concrete class.
    """

    name: str

    def run(
        self,
        units: Sequence[WorkUnit],
        runner: "UnitRunner",
        checkpoint: Optional[CheckpointStore] = None,
        rtp_broadcast: bool = False,
        campaign: str = "",
    ) -> List[WorkResult]:
        """Execute every unit; results in submission order."""
        ...


class FarmExecutionError(RuntimeError):
    """One or more units failed every allowed attempt."""

    def __init__(self, failures: Sequence[Tuple[WorkUnit, str]]) -> None:
        self.failed_units = [unit for unit, _ in failures]
        detail = "; ".join(
            f"{unit.key}: {reason}" for unit, reason in failures
        )
        super().__init__(
            f"{len(self.failed_units)} work unit(s) failed after retries: "
            f"{detail}"
        )


def _observe_unit(result: WorkResult, kind: str) -> None:
    """Parent-side metrics for one completed unit."""
    metrics = OBS.metrics
    metrics.counter("farm.units").inc(label=kind)
    metrics.histogram(f"farm.unit_seconds.{kind}").observe(result.elapsed_s)
    metrics.histogram(f"farm.unit_measurements.{kind}").observe(
        result.measurements
    )


class _ExecutorBase:
    """Shared orchestration: checkpoint skip, pilot broadcast, merge."""

    name = "farm"

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        max_attempts: int = 2,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.max_attempts = max_attempts

    def run(
        self,
        units: Sequence[WorkUnit],
        runner: UnitRunner,
        checkpoint: Optional[CheckpointStore] = None,
        rtp_broadcast: bool = False,
        campaign: str = "",
    ) -> List[WorkResult]:
        """Execute every unit; results in submission order.

        ``campaign`` names the run for telemetry: it becomes the trace
        id stamped onto every worker-side event and the
        :class:`~repro.obs.events.FarmRunStarted` announcement.
        """
        units = list(units)
        if not units:
            return []
        results: Dict[str, WorkResult] = {}
        wanted = {unit.key for unit in units}

        collector: Optional[FarmCollector] = None
        if OBS.enabled:
            collector = FarmCollector(
                campaign=campaign, unit_keys=[unit.key for unit in units]
            )
            OBS.bus.emit(
                FarmRunStarted(
                    campaign=collector.campaign,
                    units=len(units),
                    executor=self.name,
                    workers=getattr(self, "workers", 1),
                )
            )

        if checkpoint is not None:
            for key, done in checkpoint.load().items():
                if key in wanted:
                    results[key] = done
                    if OBS.enabled:
                        OBS.metrics.counter("farm.units_skipped").inc()
                        OBS.bus.emit(FarmUnitSkipped(key=key))
        pending = [unit for unit in units if unit.key not in results]

        broadcast = RTPBroadcast()
        try:
            if rtp_broadcast and pending:
                # Deterministic pilot: always the first *submitted* pending
                # unit, so the broadcast value cannot depend on scheduling.
                pilot, pending = pending[0], pending[1:]
                self._execute(
                    [pilot], runner, results, checkpoint, broadcast, collector
                )
            if pending:
                ordered = [
                    broadcast.apply(unit)
                    for unit in self.scheduler.order(pending)
                ]
                self._execute(
                    ordered, runner, results, checkpoint, broadcast, collector
                )
        finally:
            # Merge even on FarmExecutionError: the units that did
            # complete flush their telemetry, in submission order.
            if collector is not None:
                collector.merge()
        return [results[unit.key] for unit in units]

    # -- template methods -----------------------------------------------------
    def _execute(
        self,
        units: Sequence[WorkUnit],
        runner: UnitRunner,
        results: Dict[str, WorkResult],
        checkpoint: Optional[CheckpointStore],
        broadcast: RTPBroadcast,
        collector: Optional[FarmCollector],
    ) -> None:
        raise NotImplementedError

    def _complete(
        self,
        unit: WorkUnit,
        outcome: UnitOutcome,
        attempts: int,
        elapsed_s: float,
        worker: str,
        results: Dict[str, WorkResult],
        checkpoint: Optional[CheckpointStore],
        broadcast: RTPBroadcast,
    ) -> None:
        result = WorkResult(
            unit_key=unit.key,
            index=unit.index,
            value=outcome.value,
            measurements=outcome.measurements,
            rtp=outcome.rtp,
            attempts=attempts,
            elapsed_s=elapsed_s,
            worker=worker,
        )
        results[unit.key] = result
        broadcast.offer(outcome.rtp)
        if checkpoint is not None:
            checkpoint.record(result)
        if OBS.enabled:
            _observe_unit(result, unit.kind)
            OBS.bus.emit(
                FarmUnitCompleted(
                    key=unit.key,
                    kind=unit.kind,
                    attempt=attempts,
                    elapsed_s=elapsed_s,
                    measurements=outcome.measurements,
                    worker=worker,
                )
            )

    def _note_dispatch(self, unit: WorkUnit, attempt: int) -> None:
        if OBS.enabled:
            OBS.bus.emit(
                FarmUnitDispatched(
                    key=unit.key,
                    kind=unit.kind,
                    attempt=attempt,
                    executor=self.name,
                )
            )

    def _note_retry(self, unit: WorkUnit, attempt: int, reason: str) -> None:
        if OBS.enabled:
            OBS.metrics.counter("farm.unit_retries").inc(label=unit.kind)
            OBS.bus.emit(
                FarmUnitRetried(key=unit.key, attempt=attempt, error=reason)
            )


class SerialExecutor(_ExecutorBase):
    """Runs every unit in the parent process, in scheduled order.

    The degenerate farm: same sharding, same merge, same checkpointing —
    and full in-process telemetry, since nothing crosses a process
    boundary.  ``ParallelExecutor(workers=1)`` and ``SerialExecutor()``
    produce identical results by construction.
    """

    name = "serial"

    def _execute(self, units, runner, results, checkpoint, broadcast,
                 collector):
        failures: List[Tuple[WorkUnit, str]] = []
        for unit in units:
            reason = ""
            for attempt in range(1, self.max_attempts + 1):
                self._note_dispatch(unit, attempt)
                start = time.perf_counter()
                try:
                    if collector is not None:
                        # Identical capture path to a pool worker, so the
                        # merged trace cannot depend on the worker count.
                        with collector.capture_unit(unit.key, attempt=attempt):
                            outcome = runner(unit)
                    else:
                        outcome = runner(unit)
                except Exception as error:  # noqa: BLE001 — retried below
                    reason = f"{type(error).__name__}: {error}"
                    if attempt < self.max_attempts:
                        self._note_retry(unit, attempt, reason)
                    continue
                self._complete(
                    unit, outcome, attempt,
                    time.perf_counter() - start, "serial",
                    results, checkpoint, broadcast,
                )
                break
            else:
                failures.append((unit, reason))
        if failures:
            raise FarmExecutionError(failures)


def _worker_call(
    runner: UnitRunner,
    unit: WorkUnit,
    config: Optional[WorkerCaptureConfig] = None,
    attempt: int = 1,
):
    """Per-unit entry point inside a pool worker.

    The inherited switchboard is neutralized first: under the ``fork``
    start method the child inherits the parent's enabled switchboard
    *and* its open trace file descriptors, and concurrent writes would
    interleave garbage.  The parent's sinks are detached (never closed —
    the file handles belong to the parent) and, when a capture config
    was shipped with the dispatch, the unit runs under a fresh
    :class:`~repro.obs.collector.UnitCapture` whose spool travels back
    with the outcome.
    """
    import multiprocessing

    OBS.enabled = False
    OBS.bus = EventBus()
    OBS.metrics = MetricsRegistry()
    worker = multiprocessing.current_process().name
    start = time.perf_counter()
    if config is not None and config.capture:
        outcome, telemetry = run_unit_captured(
            runner, unit, config, worker, attempt=attempt
        )
    else:
        outcome = runner(unit)
        telemetry = None
    return outcome, time.perf_counter() - start, worker, telemetry


class ParallelExecutor(_ExecutorBase):
    """Fans units out over a ``concurrent.futures.ProcessPoolExecutor``.

    Parameters
    ----------
    workers:
        Worker process count.
    timeout_s:
        Per-unit result deadline; a unit still running when its deadline
        expires counts as a failed attempt and the pool is recycled so
        the stalled worker cannot starve the retry pass.  ``None`` (the
        default) waits indefinitely.
    scheduler:
        Dispatch-order policy (longest-expected-first by default).
    max_attempts:
        Total dispatches allowed per unit (first try + retries).
    """

    name = "parallel"

    def __init__(
        self,
        workers: int,
        timeout_s: Optional[float] = None,
        scheduler: Optional[Scheduler] = None,
        max_attempts: int = 2,
    ) -> None:
        super().__init__(scheduler=scheduler, max_attempts=max_attempts)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.workers = workers
        self.timeout_s = timeout_s

    def _pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if OBS.enabled:
            OBS.bus.emit(
                FarmWorkerPool(status="started", workers=self.workers)
            )
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers
        )

    def _shutdown(self, pool, status: str = "stopped") -> None:
        pool.shutdown(wait=False, cancel_futures=True)
        if OBS.enabled:
            OBS.bus.emit(FarmWorkerPool(status=status, workers=self.workers))

    def _execute(self, units, runner, results, checkpoint, broadcast,
                 collector):
        pending: List[WorkUnit] = list(units)
        failures: List[Tuple[WorkUnit, str]] = []
        config = collector.worker_config() if collector is not None else None
        pool = self._pool()
        try:
            for attempt in range(1, self.max_attempts + 1):
                failures = []
                recycle = False
                futures = []
                for unit in pending:
                    self._note_dispatch(unit, attempt)
                    try:
                        futures.append(
                            (
                                unit,
                                # `attempt` rides along so retried units
                                # stamp attempt=2... on their trace
                                # context instead of replaying as a
                                # second attempt=1.
                                pool.submit(
                                    _worker_call, runner, unit, config,
                                    attempt,
                                ),
                            )
                        )
                    except concurrent.futures.process.BrokenProcessPool:
                        # An earlier unit already killed the pool; count
                        # this one as failed without a future.
                        failures.append((unit, "worker process died"))
                        recycle = True
                for unit, future in futures:
                    try:
                        outcome, elapsed, worker, telemetry = future.result(
                            timeout=self.timeout_s
                        )
                    except concurrent.futures.TimeoutError:
                        failures.append(
                            (unit, f"timed out after {self.timeout_s}s")
                        )
                        recycle = True
                        continue
                    except concurrent.futures.process.BrokenProcessPool:
                        failures.append((unit, "worker process died"))
                        recycle = True
                        continue
                    except Exception as error:  # noqa: BLE001 — retried
                        failures.append(
                            (unit, f"{type(error).__name__}: {error}")
                        )
                        continue
                    if collector is not None:
                        collector.collect(telemetry)
                    self._complete(
                        unit, outcome, attempt, elapsed, worker,
                        results, checkpoint, broadcast,
                    )
                pending = []
                if failures:
                    if recycle:
                        # Stalled or dead workers poison the pool; start a
                        # fresh one for the retry pass.
                        self._shutdown(pool, status="recycled")
                        pool = self._pool()
                    if attempt < self.max_attempts:
                        for unit, reason in failures:
                            self._note_retry(unit, attempt, reason)
                        pending = [unit for unit, _ in failures]
                if not pending:
                    break
        finally:
            self._shutdown(pool)
        if failures:
            raise FarmExecutionError(failures)


#: Executor backends :func:`make_executor` can build by name.
BACKENDS = ("serial", "process", "remote")


def make_executor(
    workers: Optional[int] = None,
    executor: Optional[ExecutorBackend] = None,
    backend: Optional[str] = None,
    broker: Optional[str] = None,
    **kwargs,
) -> ExecutorBackend:
    """Resolve the executor convenience parameters to a backend.

    Precedence:

    1. An explicit ``executor`` instance wins outright.
    2. ``backend`` names one of ``"serial"``, ``"process"`` or
       ``"remote"`` (the latter requires ``broker="host:port"``).
    3. Otherwise ``workers`` > 1 builds a :class:`ParallelExecutor` and
       anything else a :class:`SerialExecutor` — the historical default.
    """
    if executor is not None:
        return executor
    if backend:
        if backend == "remote":
            # Imported lazily: repro.farm.remote imports this module.
            from repro.farm.remote.executor import RemoteExecutor

            if not broker:
                raise ValueError(
                    "backend 'remote' needs a broker address (HOST:PORT)"
                )
            return RemoteExecutor(broker=broker, **kwargs)
        if backend == "process":
            return ParallelExecutor(workers=workers or 2, **kwargs)
        if backend == "serial":
            return SerialExecutor(**kwargs)
        raise ValueError(
            f"unknown farm backend {backend!r}; "
            f"expected one of {', '.join(BACKENDS)}"
        )
    if workers is not None and workers > 1:
        return ParallelExecutor(workers=workers, **kwargs)
    return SerialExecutor(**kwargs)
