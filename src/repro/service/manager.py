"""Job lifecycle: FIFO queue, bounded worker pool, store persistence.

The manager owns the job state machine::

    queued -> running -> completed | failed
    queued -> cancelled                      (cancel before start)

Jobs are persisted in the :class:`~repro.store.ResultStore` at every
transition, so a restarted server still lists and serves completed work
— and :meth:`JobManager.recover` marks jobs the previous process left
``queued``/``running`` as failed, because their worker threads died
with it.

Execution is a bounded pool of worker threads draining one FIFO queue;
at most ``max_workers`` campaigns run concurrently, the rest wait in
submission order.  Each worker hands the job to a *runner*.  The
default :class:`SubprocessJobRunner` re-invokes the CLI
(``python -m repro.cli ...``) in a subprocess — one process per job, so
concurrent jobs keep separate telemetry (the obs layer is
process-global) and a service campaign is byte-for-byte the campaign a
shell user would run.  Tests inject synchronous runners to pin down the
concurrency semantics without real campaigns.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.obs.history import RUN_KIND, RUN_SCHEMA
from repro.service.progress import job_progress
from repro.service.spec import (
    JobSpec,
    LOG_FILENAME,
    SpecError,
    TRACE_FILENAME,
)
from repro.store.db import JOB_STATES, ResultStore


@dataclass
class JobOutcome:
    """What a runner reports back for one finished job."""

    exit_code: int
    error: str = ""


#: A runner is anything with ``run(job) -> JobOutcome``; ``terminate``
#: (best-effort, for cancelling running jobs) is optional.
JobRunner = Callable[[Dict[str, object]], JobOutcome]


class SubprocessJobRunner:
    """Run a job as a fresh ``python -m repro.cli`` subprocess.

    The child gets ``PYTHONPATH`` pointing at this build's ``src`` tree
    (prepended, so an installed ``repro`` cannot shadow the serving
    code), writes its merged stdout/stderr to ``job.log`` in the job
    directory, and its telemetry trace to ``trace.jsonl`` — which the
    service reads live for progress and events.

    ``broker`` is the farm-broker address handed to jobs that target
    the remote backend (``spec.backend == "remote"``); the manager
    refuses such jobs at submit time when no broker is configured.
    """

    def __init__(self, broker: Optional[str] = None) -> None:
        self.broker = broker
        self._procs: Dict[str, subprocess.Popen] = {}
        self._lock = threading.Lock()

    def run(self, job: Dict[str, object]) -> JobOutcome:
        job_id = str(job["job_id"])
        job_dir = Path(str(job["job_dir"]))
        spec = JobSpec.from_payload(job["spec"])
        argv = spec.full_argv(job_dir, broker=self.broker)
        env = dict(os.environ)
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        # Correlation: the child's trace setup emits a request_context
        # event from these, joining the trace to the access log and the
        # job row (see repro.obs.events.RequestContext).
        env["REPRO_JOB_ID"] = job_id
        request_id = str(job.get("request_id") or "")
        if request_id:
            env["REPRO_REQUEST_ID"] = request_id
        else:
            env.pop("REPRO_REQUEST_ID", None)
        log_path = job_dir / LOG_FILENAME
        with log_path.open("w") as log:
            process = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT,
                cwd=str(job_dir), env=env,
            )
            with self._lock:
                self._procs[job_id] = process
            try:
                exit_code = process.wait()
            finally:
                with self._lock:
                    self._procs.pop(job_id, None)
        if exit_code == 0:
            return JobOutcome(exit_code=0)
        tail = _tail_lines(log_path)
        error = f"campaign exited with code {exit_code}"
        if tail:
            error += ": " + " | ".join(tail)
        return JobOutcome(exit_code=exit_code, error=error)

    def terminate(self, job_id: str) -> bool:
        """Best-effort kill of a running job's subprocess."""
        with self._lock:
            process = self._procs.get(job_id)
        if process is None or process.poll() is not None:
            return False
        process.terminate()
        return True


def _tail_lines(path: Path, count: int = 5) -> List[str]:
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return []
    return [line for line in lines[-count:] if line.strip()]


class JobManager:
    """Submission, queueing, execution and persistence of jobs."""

    def __init__(
        self,
        store: ResultStore,
        data_dir: Union[str, Path],
        max_workers: int = 2,
        runner: Optional[object] = None,
        broker: Optional[str] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.store = store
        # Resolved so persisted job paths (and the --trace/--database
        # argv built from them) stay valid inside job subprocesses,
        # whose working directory is the job dir itself.
        self.data_dir = Path(data_dir).resolve()
        self.max_workers = max_workers
        self.broker = broker
        self.runner = (
            runner if runner is not None
            else SubprocessJobRunner(broker=broker)
        )
        self._queue: Deque[str] = deque()
        self._lock = threading.Lock()
        self._queued = threading.Condition(self._lock)
        self._claims = 0
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._done: Dict[str, threading.Event] = {}
        self._next_index = len(store.list_jobs()) + 1

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "JobManager":
        """Spawn the worker pool (idempotent); returns self."""
        with self._lock:
            missing = self.max_workers - len(self._threads)
            for index in range(missing):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"job-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        return self

    def recover(self) -> List[str]:
        """Fail jobs a previous process left active; returns their ids."""
        interrupted = self.store.fail_interrupted_jobs()
        for job_id in interrupted:
            self._signal_done(job_id)
        return interrupted

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting queue work and join the worker threads.

        Running subprocesses are left to finish on their own (they are
        independent processes); queued jobs stay queued in the store and
        will be failed by the next process's :meth:`recover`.
        """
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)

    # -- submission / cancellation ---------------------------------------------

    def submit(
        self, spec: JobSpec, request_id: str = ""
    ) -> Dict[str, object]:
        """Persist and enqueue one job; returns its store row.

        ``request_id`` (when the submission came over HTTP) is stamped
        onto the job row and exported into the job subprocess, so the
        access log, the store and the job's trace stay joinable.

        Raises
        ------
        SpecError
            The spec targets the remote backend but this service was
            started without a farm broker (``serve --broker``) — a
            deployment-configuration rejection the HTTP layer reports
            as a 400 like any other invalid spec.
        """
        if spec.backend == "remote" and not self.broker:
            raise SpecError(
                "this service has no farm broker configured; start it "
                "with --broker HOST:PORT to accept remote-backend jobs"
            )
        with self._lock:
            job_id = f"job-{self._next_index:04d}"
            self._next_index += 1
            job_dir = self.data_dir / "jobs" / job_id
            job_dir.mkdir(parents=True, exist_ok=True)
            job = self.store.create_job(
                job_id, spec.to_payload(), job_dir=str(job_dir),
                request_id=request_id,
            )
            self._done[job_id] = threading.Event()
            self._queue.append(job_id)
            self._queued.notify()
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Guaranteed for queued jobs (they never start);
        best-effort for running ones (the subprocess is terminated and
        the job lands in ``failed``).  Returns True when the job was
        still queued and is now cancelled."""
        with self._lock:
            job = self.store.get_job(job_id)
            if job is None:
                raise KeyError(f"no such job: {job_id}")
            if job["state"] == "queued":
                self.store.update_job(
                    job_id,
                    state="cancelled",
                    finished_ts=time.time(),
                    error="cancelled while queued",
                )
                self._signal_done(job_id)
                return True
        terminate = getattr(self.runner, "terminate", None)
        if job["state"] == "running" and callable(terminate):
            terminate(job_id)
        return False

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """Block until the job reaches a terminal state; returns the row.

        Uses the per-job done event when this process owns the job, so
        waiting costs no polling; falls back to store polling for jobs
        from a previous process.
        """
        event = self._done.get(job_id)
        if event is not None:
            event.wait(timeout=timeout)
        else:
            deadline = None if timeout is None else time.time() + timeout
            while True:
                job = self.store.get_job(job_id)
                if job is None or job["state"] not in ("queued", "running"):
                    break
                if deadline is not None and time.time() >= deadline:
                    break
                time.sleep(0.05)
        job = self.store.get_job(job_id)
        if job is None:
            raise KeyError(f"no such job: {job_id}")
        return job

    # -- inspection ------------------------------------------------------------

    def job(self, job_id: str) -> Optional[Dict[str, object]]:
        return self.store.get_job(job_id)

    def jobs(self) -> List[Dict[str, object]]:
        return self.store.list_jobs()

    def state_tally(self) -> Dict[str, int]:
        """Job counts by state (states with zero jobs included)."""
        tally = {state: 0 for state in JOB_STATES}
        for job in self.store.list_jobs():
            state = str(job["state"])
            tally[state] = tally.get(state, 0) + 1
        return tally

    def progress(self, job_id: str) -> Dict[str, object]:
        """Live progress from the job's trace (empty dict before start)."""
        job = self.store.get_job(job_id)
        if job is None:
            raise KeyError(f"no such job: {job_id}")
        trace = Path(str(job["job_dir"])) / TRACE_FILENAME
        return job_progress(trace)

    # -- worker pool -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self._claim_next()
            if job is not None:
                self._execute(job)

    def _claim_next(self) -> Optional[Dict[str, object]]:
        """Pop and claim the oldest queued job; None after a 0.1 s wait.

        Popping and claiming in one lock hold keeps claims in submit
        order across workers; cancel() takes the same lock, so a job
        cancelled while queued is never claimed.  The row carries
        ``claim_seq``, this manager's 1-based claim count.
        """
        with self._queued:
            if not self._queue:
                self._queued.wait(timeout=0.1)
            while self._queue:
                job_id = self._queue.popleft()
                job = self.store.get_job(job_id)
                if job is None or job["state"] != "queued":
                    continue
                self.store.update_job(
                    job_id, state="running", started_ts=time.time()
                )
                job = self.store.get_job(job_id) or job
                self._claims += 1
                job["claim_seq"] = self._claims
                return job
        return None

    def _execute(self, job: Dict[str, object]) -> None:
        try:
            outcome = self.runner.run(job)  # type: ignore[attr-defined]
        except Exception as exc:  # noqa: BLE001 — runner bugs fail the job
            outcome = JobOutcome(exit_code=-1, error=f"runner error: {exc}")
        self._finalize(job, outcome)

    def _finalize(
        self, job: Dict[str, object], outcome: JobOutcome
    ) -> None:
        job_id = str(job["job_id"])
        state = "completed" if outcome.exit_code == 0 else "failed"
        self.store.update_job(
            job_id,
            state=state,
            finished_ts=time.time(),
            exit_code=outcome.exit_code,
            error=outcome.error,
        )
        if state == "completed":
            try:
                self._ingest_artifacts(job)
            except Exception as exc:  # noqa: BLE001 — ingest must not fail the job
                self.store.update_job(
                    job_id, error=f"artifact ingest failed: {exc}"
                )
        self._signal_done(job_id)

    def _ingest_artifacts(self, job: Dict[str, object]) -> None:
        """Fold a completed job's results into the store.

        The worst-case export (when the command produces one) lands in
        the ``worst_case_records`` table scoped by job id, and a run
        record named after the job lands in ``runs`` — so run-history
        comparisons and later SPC tooling see service jobs without
        touching the job directory.
        """
        job_id = str(job["job_id"])
        job_dir = Path(str(job["job_dir"]))
        spec = JobSpec.from_payload(job["spec"])
        wcdb_path = spec.wcdb_path(job_dir)
        if wcdb_path is not None and wcdb_path.exists():
            payload = json.loads(wcdb_path.read_text())
            self.store.import_wcdb_payload(payload, scope=job_id)
        progress = job_progress(job_dir / TRACE_FILENAME)
        fresh = self.store.get_job(job_id) or job
        started = float(fresh.get("started_ts") or 0.0)
        finished = float(fresh.get("finished_ts") or 0.0)
        self.store.append_run(
            {
                "schema": RUN_SCHEMA,
                "kind": RUN_KIND,
                "run": job_id,
                "campaign": "service",
                "command": spec.command,
                "ts": finished or time.time(),
                "wall_s": round(max(0.0, finished - started), 6),
                "cpu_s": None,
                "workers": spec.workers,
                "seed": spec.seed,
                "measurements": int(progress.get("measurements", 0) or 0),
                "per_test": {},
                "farm_units": int(progress.get("units_done", 0) or 0),
                "farm_retries": 0,
                "checkpoint_dropped_lines": 0,
            }
        )

    def _signal_done(self, job_id: str) -> None:
        event = self._done.get(job_id)
        if event is not None:
            event.set()
