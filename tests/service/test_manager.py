"""Job manager semantics: bounded pool, FIFO order, cancel, recovery.

These tests inject synchronous runners and synchronize on events — no
sleeps-as-synchronization — so the concurrency claims they make (never
more than ``max_workers`` at once, submission order preserved, a
cancelled-while-queued job never starts) are actually asserted, not
just likely.
"""

import sys
import threading

import pytest

from repro.service.manager import JobManager, JobOutcome
from repro.service.spec import JobSpec
from repro.store import ResultStore

#: Generous upper bound for events that are signalled almost instantly;
#: only ever *waited on*, never slept for.
WAIT = 10.0

SPEC = JobSpec(command="hunt")


class GateRunner:
    """A runner whose jobs block until the test releases them.

    Records, under a lock: each job's claim stamp and the order jobs
    started in, how many are inside ``run`` right now, and the maximum
    that were ever inside simultaneously.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.claims = {}
        self.started = []
        self.active = 0
        self.max_active = 0
        self.started_events = {}
        self.release_events = {}

    def expect(self, job_id):
        self.started_events[job_id] = threading.Event()
        self.release_events[job_id] = threading.Event()

    def run(self, job):
        job_id = str(job["job_id"])
        with self.lock:
            # Two workers claim in order but may enter run() in either
            # order, so the start order is the manager's claim order.
            self.claims[job_id] = job["claim_seq"]
            self.started = sorted(self.claims, key=self.claims.__getitem__)
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        self.started_events[job_id].set()
        assert self.release_events[job_id].wait(timeout=WAIT)
        with self.lock:
            self.active -= 1
        return JobOutcome(exit_code=0)

    def release(self, job_id):
        self.release_events[job_id].set()


class InstantRunner:
    def __init__(self, exit_code=0, error=""):
        self.exit_code = exit_code
        self.error = error
        self.ran = []

    def run(self, job):
        self.ran.append(str(job["job_id"]))
        return JobOutcome(exit_code=self.exit_code, error=self.error)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store.db")


def _manager(store, tmp_path, runner, max_workers=2):
    manager = JobManager(
        store, tmp_path / "data", max_workers=max_workers, runner=runner
    )
    manager.start()
    return manager


class TestConcurrency:
    def test_pool_never_exceeds_max_workers(self, store, tmp_path):
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=2)
        for index in range(1, 6):
            runner.expect(f"job-{index:04d}")
        jobs = [manager.submit(SPEC) for _ in range(5)]
        ids = [str(job["job_id"]) for job in jobs]

        # exactly the first two start; the rest are queued behind them
        assert runner.started_events[ids[0]].wait(timeout=WAIT)
        assert runner.started_events[ids[1]].wait(timeout=WAIT)
        assert not runner.started_events[ids[2]].is_set()
        with runner.lock:
            assert runner.active == 2

        # each release admits exactly the next queued job, in order
        for done, admitted in ((0, 2), (1, 3), (2, 4)):
            runner.release(ids[done])
            assert runner.started_events[ids[admitted]].wait(timeout=WAIT)
        runner.release(ids[3])
        runner.release(ids[4])
        for job_id in ids:
            assert manager.wait(job_id, timeout=WAIT)["state"] == "completed"

        assert runner.max_active == 2
        # FIFO: jobs are claimed, and so started, in submit order
        assert [runner.claims[job_id] for job_id in ids] == [1, 2, 3, 4, 5]
        assert runner.started == ids
        manager.shutdown()

    def test_claims_follow_submit_order_under_contention(
        self, store, tmp_path
    ):
        claims = {}

        class ClaimRecorder:
            def run(self, job):
                claims[str(job["job_id"])] = job["claim_seq"]
                return JobOutcome(exit_code=0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            manager = _manager(store, tmp_path, ClaimRecorder(), max_workers=6)
            ids = [str(manager.submit(SPEC)["job_id"]) for _ in range(40)]
            for job_id in ids:
                assert manager.wait(job_id, timeout=WAIT)["state"] == "completed"
            manager.shutdown()
        finally:
            sys.setswitchinterval(interval)
        # every job claimed exactly once, in submit order
        assert [claims[job_id] for job_id in ids] == list(range(1, 41))

    def test_single_worker_is_strictly_serial(self, store, tmp_path):
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=1)
        for index in range(1, 4):
            runner.expect(f"job-{index:04d}")
        ids = [str(manager.submit(SPEC)["job_id"]) for _ in range(3)]
        for job_id in ids:
            assert runner.started_events[job_id].wait(timeout=WAIT)
            with runner.lock:
                assert runner.active == 1
            runner.release(job_id)
            assert manager.wait(job_id, timeout=WAIT)["state"] == "completed"
        assert runner.max_active == 1
        manager.shutdown()


class TestCancel:
    def test_cancel_while_queued_never_starts(self, store, tmp_path):
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=1)
        runner.expect("job-0001")
        runner.expect("job-0002")
        blocker = str(manager.submit(SPEC)["job_id"])
        queued = str(manager.submit(SPEC)["job_id"])
        assert runner.started_events[blocker].wait(timeout=WAIT)

        assert manager.cancel(queued) is True
        cancelled = manager.wait(queued, timeout=WAIT)
        assert cancelled["state"] == "cancelled"
        assert cancelled["error"] == "cancelled while queued"

        # drain the pool past the cancelled entry: it must never run
        runner.release(blocker)
        assert manager.wait(blocker, timeout=WAIT)["state"] == "completed"
        assert queued not in runner.started
        assert manager.job(queued)["state"] == "cancelled"
        manager.shutdown()

    def test_cancel_unknown_job_raises(self, store, tmp_path):
        manager = _manager(store, tmp_path, InstantRunner())
        with pytest.raises(KeyError):
            manager.cancel("job-9999")
        manager.shutdown()

    def test_cancel_running_returns_false(self, store, tmp_path):
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=1)
        runner.expect("job-0001")
        job_id = str(manager.submit(SPEC)["job_id"])
        assert runner.started_events[job_id].wait(timeout=WAIT)
        assert manager.cancel(job_id) is False
        runner.release(job_id)
        manager.shutdown()


class TestOutcomes:
    def test_completed_job_lands_a_run_record(self, store, tmp_path):
        manager = _manager(store, tmp_path, InstantRunner())
        job_id = str(manager.submit(SPEC)["job_id"])
        job = manager.wait(job_id, timeout=WAIT)
        assert job["state"] == "completed"
        assert job["exit_code"] == 0
        record = store.find_run(job_id)
        assert record is not None
        assert record["campaign"] == "service"
        assert record["command"] == "hunt"
        manager.shutdown()

    def test_failing_runner_fails_the_job(self, store, tmp_path):
        manager = _manager(
            store, tmp_path, InstantRunner(exit_code=3, error="boom")
        )
        job_id = str(manager.submit(SPEC)["job_id"])
        job = manager.wait(job_id, timeout=WAIT)
        assert job["state"] == "failed"
        assert job["exit_code"] == 3
        assert job["error"] == "boom"
        assert store.find_run(job_id) is None  # failures are not runs
        manager.shutdown()

    def test_runner_exception_fails_the_job(self, store, tmp_path):
        class Exploding:
            def run(self, job):
                raise RuntimeError("kaboom")

        manager = _manager(store, tmp_path, Exploding())
        job_id = str(manager.submit(SPEC)["job_id"])
        job = manager.wait(job_id, timeout=WAIT)
        assert job["state"] == "failed"
        assert "kaboom" in job["error"]
        manager.shutdown()

    def test_progress_is_empty_before_any_trace(self, store, tmp_path):
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=1)
        runner.expect("job-0001")
        job_id = str(manager.submit(SPEC)["job_id"])
        progress = manager.progress(job_id)
        assert progress["events"] == 0
        assert progress["phase"] is None
        runner.release(job_id)
        manager.shutdown()


class TestRecovery:
    def test_restart_fails_interrupted_and_keeps_done(self, store, tmp_path):
        first = _manager(store, tmp_path, InstantRunner(), max_workers=1)
        done = str(first.submit(SPEC)["job_id"])
        assert first.wait(done, timeout=WAIT)["state"] == "completed"
        first.shutdown()
        # Simulate the crash's leftovers: the dead process had one job
        # mid-flight and one still queued when it went down.
        store.create_job("job-0002", SPEC.to_payload())
        store.update_job("job-0002", state="running")
        store.create_job("job-0003", SPEC.to_payload())

        second = JobManager(store, tmp_path / "data", runner=InstantRunner())
        recovered = second.recover()
        assert sorted(recovered) == ["job-0002", "job-0003"]
        assert second.job(done)["state"] == "completed"
        assert second.job("job-0002")["state"] == "failed"
        assert "restart" in second.job("job-0002")["error"]
        # new ids never collide with persisted ones
        second.start()
        fresh = str(second.submit(SPEC)["job_id"])
        assert fresh not in (done, "job-0002", "job-0003")
        assert second.wait(fresh, timeout=WAIT)["state"] == "completed"
        second.shutdown()

    def test_rejects_nonpositive_workers(self, store, tmp_path):
        with pytest.raises(ValueError):
            JobManager(store, tmp_path, max_workers=0)
