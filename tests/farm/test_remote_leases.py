"""Lease-table edge cases and the lifecycle as a state machine.

The hand-written cases are the lease-timeout edges: a unit completing
exactly at lease expiry must not double-merge, a heartbeat arriving
during re-issue must not resurrect the dead attempt, and duplicate
deliveries are suppressed and counted.  The table takes ``now``
explicitly, so each race is a deterministic unit test.  The
``RuleBasedStateMachine`` at the end drives the same table through
arbitrary interleavings of every transition and checks the lifecycle
invariants after each step.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.farm.remote.leases import LeaseTable


class TestIssue:
    def test_attempts_count_across_reissues(self):
        table = LeaseTable(10.0, ["u/1"], max_attempts=2)
        first = table.issue("w1", now=0.0)
        assert first.attempt == 1
        assert first.deadline == 10.0
        table.expire(now=10.0)
        second = table.issue("w2", now=12.0)
        assert second.attempt == 2
        assert second.worker == "w2"

    def test_cannot_issue_leased_or_completed(self):
        table = LeaseTable(10.0, ["u/1"])
        table.issue("w1", now=0.0)
        assert table.issue("w2", now=1.0) is None
        table.complete("u/1", 1, now=1.5)
        assert table.issue("w2", now=2.0) is None

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            LeaseTable(timeout_s=0.0)


class TestCompletionAtExpiry:
    """A result landing exactly at the deadline: whichever side runs
    first wins, and the unit is never merged twice."""

    def test_complete_then_expire_no_reissue(self):
        table = LeaseTable(10.0, ["u/1"])
        table.issue("w1", now=0.0)
        # The result frame is processed first (broker lock order)...
        assert table.complete("u/1", 1, now=10.0) == 10.0
        # ...so the sweep at the very same instant finds nothing.
        assert table.expire(now=10.0) == []
        assert table.completed == {"u/1": 1}

    def test_expire_then_late_result_suppressed(self):
        table = LeaseTable(10.0, ["u/1"], max_attempts=2)
        table.issue("w1", now=0.0)
        expired = table.expire(now=10.0)
        assert [lost.lease.key for lost in expired] == ["u/1"]
        assert expired[0].requeued
        # The unit is re-issued to another worker as attempt 2...
        table.issue("w2", now=10.0)
        # ...then the presumed-dead worker's attempt-1 result arrives.
        # First result wins: it is accepted (the outcome is the same
        # deterministic function of the unit seed)...
        assert table.complete("u/1", 1, now=11.0) == 0.0
        # ...and attempt 2's later delivery is the duplicate.
        assert table.complete("u/1", 2, now=12.0) is None
        assert table.duplicates == 1
        assert table.completed["u/1"] == 1

    def test_double_delivery_same_attempt_suppressed(self):
        table = LeaseTable(10.0, ["u/1"])
        table.issue("w1", now=0.0)
        assert table.complete("u/1", 1, now=1.0) is not None
        assert table.complete("u/1", 1, now=2.0) is None
        assert table.duplicates == 1

    def test_late_result_of_requeued_unit_leaves_the_queue(self):
        table = LeaseTable(10.0, ["u/1"], max_attempts=2)
        table.issue("w1", now=0.0)
        table.expire(now=10.0)
        assert table.tally()["pending"] == 1
        assert table.complete("u/1", 1, now=11.0) is not None
        assert table.issue("w2", now=12.0) is None
        assert table.finished


class TestHeartbeatDuringReissue:
    def test_stale_attempt_heartbeat_refused(self):
        table = LeaseTable(10.0, ["u/1"], max_attempts=2)
        table.issue("w1", now=0.0)
        table.expire(now=10.0)
        reissued = table.issue("w2", now=10.0)
        # w1's in-flight heartbeat for attempt 1 lands after re-issue:
        # it must not extend w2's attempt-2 lease.
        assert table.heartbeat("u/1", 1, "w1", now=11.0) is False
        assert table.held()[0].deadline == reissued.deadline

    def test_heartbeat_after_completion_refused(self):
        table = LeaseTable(10.0, ["u/1"])
        table.issue("w1", now=0.0)
        table.complete("u/1", 1, now=0.5)
        assert table.heartbeat("u/1", 1, "w1", now=1.0) is False

    def test_live_heartbeat_extends(self):
        table = LeaseTable(10.0, ["u/1"])
        table.issue("w1", now=0.0)
        assert table.heartbeat("u/1", 1, "w1", now=8.0) is True
        assert table.held()[0].deadline == 18.0
        # The extension carries it past the original deadline...
        assert table.expire(now=10.0) == []
        # ...but not past the extended one.
        assert [lost.lease.key for lost in table.expire(now=18.0)] == ["u/1"]

    def test_wrong_worker_heartbeat_refused(self):
        table = LeaseTable(10.0, ["u/1"])
        table.issue("w1", now=0.0)
        assert table.heartbeat("u/1", 1, "w2", now=1.0) is False


class TestChurn:
    def test_release_worker_pops_only_its_leases(self):
        table = LeaseTable(10.0, ["u/1", "u/2"])
        table.issue("w1", now=0.0)
        table.issue("w2", now=0.0)
        dropped = table.release_worker("w1")
        assert [lost.lease.key for lost in dropped] == ["u/1"]
        assert dropped[0].reason == "worker w1 disconnected"
        assert table.tally()["leased"] == 1

    def test_release_requires_current_attempt(self):
        table = LeaseTable(10.0, ["u/1"])
        table.issue("w1", now=0.0)
        assert table.fail("u/1", attempt=2, reason="boom") is None
        released = table.fail("u/1", attempt=1, reason="boom")
        assert released is not None and released.lease.worker == "w1"
        assert table.tally()["leased"] == 0


class TestRequeueOrFail:
    def test_lost_attempts_requeue_until_spent(self):
        table = LeaseTable(10.0, ["u/1"], max_attempts=2)
        table.issue("w1", now=0.0)
        first = table.fail("u/1", 1, "first crash")
        assert first.requeued and table.reissues == 1
        table.issue("w1", now=1.0)
        second = table.fail("u/1", 2, "second crash")
        assert not second.requeued
        assert table.failed == {"u/1": "second crash"}
        assert table.finished

    def test_failure_is_terminal(self):
        table = LeaseTable(10.0, ["u/1"])
        table.issue("w1", now=0.0)
        table.expire(now=10.0)
        # The hung worker delivers after its unit failed: one terminal
        # outcome per unit, so the result is a suppressed duplicate.
        assert table.complete("u/1", 1, now=11.0) is None
        assert table.completed == {}
        assert table.duplicates == 1


class TestRestore:
    def test_restore_completes_spooled_units_in_spool_order(self):
        table = LeaseTable(10.0, ["u/1", "u/2", "u/3"])
        restored = table.restore({"u/3": 2, "u/9": 1, "u/1": 1})
        assert restored == ["u/3", "u/1"]
        assert table.completed == {"u/3": 2, "u/1": 1}
        assert table.tally() == {
            "pending": 1, "leased": 0, "completed": 2, "failed": 0,
        }
        assert table.issue("w1", now=0.0).key == "u/2"

    def test_restoring_every_unit_finishes_the_campaign(self):
        table = LeaseTable(10.0, ["u/1"])
        assert not table.finished
        table.restore({"u/1": 1})
        assert table.finished

    def test_empty_campaign_is_finished(self):
        assert LeaseTable(10.0, []).finished


KEYS = ("u/1", "u/2", "u/3")
WORKERS = ("w1", "w2")
ATTEMPTS = st.integers(min_value=1, max_value=3)


class LeaseLifecycle(RuleBasedStateMachine):
    """Arbitrary interleavings of issue, heartbeat, expiry, completion,
    failed attempts, worker loss and spool restore."""

    @initialize(max_attempts=st.integers(min_value=1, max_value=3))
    def start(self, max_attempts):
        self.table = LeaseTable(10.0, KEYS, max_attempts)
        self.max_attempts = max_attempts
        self.now = 0.0
        #: The attempt first accepted per unit — the model of "first
        #: result wins".
        self.first = {}
        self.last_attempts = {}

    @rule(worker=st.sampled_from(WORKERS))
    def issue(self, worker):
        before = dict(self.table.attempts)
        lease = self.table.issue(worker, self.now)
        if lease is not None:
            assert lease.attempt == before.get(lease.key, 0) + 1
            assert lease.attempt <= self.max_attempts

    @rule(key=st.sampled_from(KEYS), attempt=ATTEMPTS,
          worker=st.sampled_from(WORKERS))
    def heartbeat(self, key, attempt, worker):
        self.table.heartbeat(key, attempt, worker, self.now)

    @rule(seconds=st.floats(min_value=0.0, max_value=15.0))
    def expire(self, seconds):
        self.now += seconds
        self.table.expire(self.now)

    @rule(key=st.sampled_from(KEYS), attempt=ATTEMPTS)
    def complete(self, key, attempt):
        settled = key in self.first or key in self.table.failed
        age_s = self.table.complete(key, attempt, self.now)
        if settled:
            assert age_s is None
        else:
            assert age_s is not None and age_s >= 0.0
            self.first[key] = attempt

    @rule(key=st.sampled_from(KEYS), attempt=ATTEMPTS)
    def fail_attempt(self, key, attempt):
        self.table.fail(key, attempt, "runner failed")

    @rule(worker=st.sampled_from(WORKERS))
    def lose_worker(self, worker):
        self.table.release_worker(worker)

    @rule(done=st.dictionaries(st.sampled_from(KEYS), ATTEMPTS))
    def restore(self, done):
        for key in self.table.restore(done):
            assert key not in self.first
            self.first[key] = done[key]

    @invariant()
    def first_result_wins(self):
        assert self.table.completed == self.first

    @invariant()
    def attempts_never_decrease(self):
        for key, attempt in self.last_attempts.items():
            assert self.table.attempts[key] >= attempt
        self.last_attempts = dict(self.table.attempts)

    @invariant()
    def every_unit_in_exactly_one_state(self):
        table = self.table
        states = [
            list(table.pending),
            list(table.leases),
            list(table.completed),
            list(table.failed),
        ]
        everywhere = [key for state in states for key in state]
        assert sorted(everywhere) == sorted(KEYS)

    @invariant()
    def failed_units_spent_their_attempts(self):
        for key in self.table.failed:
            assert self.table.attempts[key] >= self.max_attempts

    @invariant()
    def finished_iff_every_unit_settled(self):
        settled = set(self.table.completed) | set(self.table.failed)
        assert self.table.finished == (settled == set(KEYS))


TestLeaseLifecycle = LeaseLifecycle.TestCase
TestLeaseLifecycle.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
