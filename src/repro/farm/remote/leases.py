"""One campaign's unit lifecycle: queue, leases, attempts, outcomes.

The broker hands every dispatched unit out under a **lease**: worker
``w`` owns unit ``k``'s attempt ``n`` until ``deadline``, and heartbeats
extend it.  :class:`LeaseTable` is the whole state machine of a
campaign's units; each unit is in exactly one state::

    pending ──issue──▶ leased ──complete──▶ completed
       ▲                 │
       └──── requeue ────┤  (expired, worker lost, runner failed)
                         └──▶ failed        (attempts spent)

``completed`` and ``failed`` are terminal; the campaign is
:attr:`~LeaseTable.finished` once every unit is in one of them.  The
table settles the races worker churn creates:

* **late result** — the unit was re-issued, then the presumed-dead
  worker delivers after all.  First accepted result wins; every later
  delivery for a settled unit (same or different attempt, or for a
  unit that already failed) is suppressed and counted, so a unit is
  never merged twice and gets exactly one terminal outcome.
* **late heartbeat** — a heartbeat for an attempt that is no longer
  leased (expired, re-issued, or already complete) is refused rather
  than resurrecting a stale lease.
* **completion at expiry** — whichever of ``complete`` and ``expire``
  runs first wins atomically (the caller holds one lock around the
  table); the loser sees the key gone and does nothing.

The table is pure bookkeeping — no threads, no clock of its own.  The
broker passes ``now`` explicitly, which is also what makes the chaos
edge cases (a result landing exactly at the deadline) unit-testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional


@dataclass
class Lease:
    """One outstanding dispatch: unit ``key``, attempt ``attempt``,
    owned by ``worker`` until ``deadline``."""

    key: str
    attempt: int
    worker: str
    issued_ts: float
    deadline: float


@dataclass(frozen=True)
class LostLease:
    """A lease that ended without a result, and what became of its unit:
    back in the queue (``requeued``) or failed with ``reason``."""

    lease: Lease
    reason: str
    requeued: bool


class LeaseTable:
    """One campaign's units from submission to their terminal outcome.

    Parameters
    ----------
    timeout_s:
        Lease lifetime granted at issue and on every heartbeat.
    keys:
        The campaign's unit keys in submission order; they seed the
        pending queue.
    max_attempts:
        Dispatches allowed per unit; losing the last one fails it.
    """

    def __init__(
        self, timeout_s: float, keys: Iterable[str] = (), max_attempts: int = 1
    ) -> None:
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.pending: Deque[str] = deque(dict.fromkeys(keys))
        self.units = frozenset(self.pending)
        self.leases: Dict[str, Lease] = {}
        #: Total dispatches per unit key (1 = first issue).
        self.attempts: Dict[str, int] = {}
        #: Accepted attempt per completed unit key.
        self.completed: Dict[str, int] = {}
        #: Failure reason per unit whose attempts are spent.
        self.failed: Dict[str, str] = {}
        self.reissues = 0
        self.duplicates = 0

    @property
    def finished(self) -> bool:
        """Every unit is completed or failed."""
        return len(self.completed) + len(self.failed) >= len(self.units)

    def tally(self) -> Dict[str, int]:
        """How many units are in each state."""
        return {
            "pending": len(self.pending),
            "leased": len(self.leases),
            "completed": len(self.completed),
            "failed": len(self.failed),
        }

    def held(self) -> List[Lease]:
        """The outstanding leases."""
        return list(self.leases.values())

    # -- dispatch ---------------------------------------------------------------
    def restore(self, done: Dict[str, int]) -> List[str]:
        """Mark spooled units completed (key → accepted attempt).

        Returns the keys restored, in ``done``'s order; keys the
        campaign does not hold, or that are already settled, are
        skipped.
        """
        restored = [
            key for key in done
            if key in self.units
            and key not in self.completed and key not in self.failed
        ]
        for key in restored:
            self.completed[key] = done[key]
            self.leases.pop(key, None)
        if restored:
            self.pending = deque(
                key for key in self.pending if key not in self.completed
            )
        return restored

    def issue(self, worker: str, now: float) -> Optional[Lease]:
        """Lease the next pending unit to ``worker``; ``None`` when the
        queue is empty.  Increments that unit's attempt counter."""
        if not self.pending:
            return None
        key = self.pending.popleft()
        attempt = self.attempts.get(key, 0) + 1
        self.attempts[key] = attempt
        lease = Lease(
            key=key,
            attempt=attempt,
            worker=worker,
            issued_ts=now,
            deadline=now + self.timeout_s,
        )
        self.leases[key] = lease
        return lease

    # -- keep-alive -------------------------------------------------------------
    def heartbeat(
        self, key: str, attempt: int, worker: str, now: float
    ) -> bool:
        """Extend the lease; ``False`` when stale.

        A heartbeat is stale when the unit is no longer leased (settled,
        or back in the queue) or the lease belongs to a different
        attempt or worker — i.e. the unit was re-issued while the
        heartbeat was in flight.  Stale heartbeats never extend anything.
        """
        lease = self.leases.get(key)
        if lease is None or lease.attempt != attempt or lease.worker != worker:
            return False
        lease.deadline = now + self.timeout_s
        return True

    # -- completion -------------------------------------------------------------
    def complete(self, key: str, attempt: int, now: float) -> Optional[float]:
        """Accept a delivered result; ``None`` (and counted) when late.

        Returns the age in seconds of the delivering attempt's lease
        (0.0 when that lease already ended).  First result wins
        regardless of attempt number (unit outcomes are deterministic
        functions of the unit's derived seed, so any attempt's result is
        *the* result).  Every later delivery for a settled unit — the
        re-issued attempt finishing after the original, a worker
        delivering the same frame twice, a result for a unit that
        already failed — is suppressed.
        """
        if key in self.completed or key in self.failed:
            self.duplicates += 1
            return None
        lease = self.leases.get(key)
        age_s = (
            max(0.0, now - lease.issued_ts)
            if lease is not None and lease.attempt == attempt
            else 0.0
        )
        self.completed[key] = attempt
        # A late result can race its own re-issue: the unit may be back
        # in the queue (expired, not yet re-leased).
        if self.leases.pop(key, None) is None and key in self.pending:
            self.pending.remove(key)
        return age_s

    # -- expiry / churn / failure -----------------------------------------------
    def expire(self, now: float) -> List[LostLease]:
        """End every lease whose deadline has passed."""
        return [
            self._lose(
                lease,
                f"lease expired after {self.timeout_s:g}s on {lease.worker}",
            )
            for lease in self.held() if lease.deadline <= now
        ]

    def release_worker(self, worker: str) -> List[LostLease]:
        """End the leases a departing worker still holds."""
        return [
            self._lose(lease, f"worker {worker} disconnected")
            for lease in self.held() if lease.worker == worker
        ]

    def fail(self, key: str, attempt: int, reason: str) -> Optional[LostLease]:
        """End a failed attempt (the worker reported an error).

        ``None`` when the attempt is no longer current (already expired
        and re-issued, or the unit settled).
        """
        lease = self.leases.get(key)
        if lease is None or lease.attempt != attempt:
            return None
        return self._lose(lease, reason)

    def _lose(self, lease: Lease, reason: str) -> LostLease:
        """Requeue the unit of an ended lease, or fail it when that lease
        was its last allowed attempt."""
        del self.leases[lease.key]
        if lease.attempt >= self.max_attempts:
            self.failed[lease.key] = reason
            return LostLease(lease, reason, requeued=False)
        self.pending.append(lease.key)
        self.reissues += 1
        return LostLease(lease, reason, requeued=True)
