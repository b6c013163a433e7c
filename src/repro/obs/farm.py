"""Farm clocks and control-plane telemetry analysis.

Every farm peer stamps its frames (:func:`clock_stamp`); the broker
folds the stamps into one :class:`ClockEstimator` per peer and ships the
offsets, with its buffered control-plane events, to the client inside
``campaign_done``.  This module is also the read side: given a merged
trace, find the ``broker_clock_sync`` record, re-anchor every
broker/worker timestamp onto the client's wall clock, and render the
live ``stats`` frame as the ``repro farm-top`` table.

Every clock offset in the farm is ``offset(peer) = peer_wall −
broker_wall``.  The trace is written on the *client's* clock, so
alignment maps::

    broker event:  ts_client = ts_broker + offset(client)
    worker event:  ts_client = ts_worker − offset(worker) + offset(client)

Pure stdlib, no farm imports — usable on any trace file offline.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

#: A wall-clock step that disagrees with the monotonic clock by more
#: than this many seconds is treated as a clock jump (NTP step, manual
#: adjustment) and resets the offset estimator.
CLOCK_JUMP_TOLERANCE_S = 0.25

#: Event types stamped with the broker's wall clock.
BROKER_EVENT_TYPES = frozenset(
    {
        "broker_campaign_started",
        "worker_joined",
        "worker_left",
        "lease_issued",
        "lease_heartbeat",
        "lease_expired",
        "lease_reissued",
        "lease_completed",
        "duplicate_suppressed",
        "spool_restored",
    }
)

#: Event types stamped with a *worker's* wall clock — the events a
#: worker captures into its telemetry spool while executing a unit.
#: (Client-side events like ``farm_unit_completed`` carry a ``worker``
#: field for attribution but are stamped by the client; they must not
#: be shifted.)
WORKER_CLOCKED_TYPES = frozenset(
    {
        "measurement",
        "resource_sample",
        "profile",
        "search_started",
        "search_converged",
        "sutp_walk_step",
        "sutp_fallback",
        "sutp_window_escalated",
        "sutp_test_measured",
        "ga_generation",
        "nn_epoch",
        "nn_vote",
        "nn_calibration",
        "wcr_classified",
    }
)


def clock_stamp() -> Dict[str, float]:
    """The paired wall+monotonic stamp carried by hello/heartbeat frames."""
    return {"wall": time.time(), "mono": time.monotonic()}


class ClockEstimator:
    """Min-filter estimate of one peer's clock offset from the broker's.

    Every stamped frame yields one sample ``delta = local_wall_at_receive
    − remote_wall_at_send = −offset + network_delay``.  Network delay is
    non-negative and varies; the offset (absent jumps) does not — so the
    *minimum* delta over many samples converges on ``−offset`` plus the
    best-case one-way delay.  :attr:`offset_s` therefore reports the
    offset in the module's convention, biased by at most that delay.

    The paired monotonic stamp guards against wall-clock steps: between
    consecutive samples ``Δwall`` must track ``Δmono``; a disagreement
    beyond :data:`CLOCK_JUMP_TOLERANCE_S` means the remote wall clock
    jumped, so the filter restarts (and counts the jump).
    """

    __slots__ = ("_min_delta", "samples", "jumps", "_last_wall", "_last_mono")

    def __init__(self) -> None:
        self._min_delta: Optional[float] = None
        self.samples = 0
        self.jumps = 0
        self._last_wall: Optional[float] = None
        self._last_mono: Optional[float] = None

    def observe(
        self,
        wall_sent: float,
        mono_sent: float,
        wall_received: Optional[float] = None,
    ) -> None:
        """Fold in one stamped frame (received now unless given)."""
        if wall_received is None:
            wall_received = time.time()
        if self._last_wall is not None and self._last_mono is not None:
            wall_step = wall_sent - self._last_wall
            mono_step = mono_sent - self._last_mono
            if abs(wall_step - mono_step) > CLOCK_JUMP_TOLERANCE_S:
                self._min_delta = None
                self.jumps += 1
        self._last_wall = wall_sent
        self._last_mono = mono_sent
        delta = wall_received - wall_sent
        if self._min_delta is None or delta < self._min_delta:
            self._min_delta = delta
        self.samples += 1

    @property
    def offset_s(self) -> float:
        """Estimated wall-clock offset in seconds."""
        if self._min_delta is None:
            return 0.0
        return -self._min_delta


def extract_clock_sync(
    records: Iterable[Dict[str, object]],
) -> Tuple[Dict[str, float], float]:
    """The last ``broker_clock_sync`` record's offsets, or ``({}, 0.0)``.

    Returns ``(worker offsets, client offset)``, both in the module's
    offset convention.  The *last* sync wins: a multi-batch
    campaign (pilot + rest) syncs once per batch and later estimates
    have seen more samples.
    """
    offsets: Dict[str, float] = {}
    client_offset = 0.0
    for record in records:
        if record.get("type") != "broker_clock_sync":
            continue
        raw = record.get("offsets")
        if isinstance(raw, dict):
            offsets = {
                str(name): float(value) for name, value in raw.items()
            }
        try:
            client_offset = float(record.get("client_offset_s") or 0.0)
        except (TypeError, ValueError):
            client_offset = 0.0
    return offsets, client_offset


def align_records(
    records: List[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Records with every timestamp re-anchored to the client clock.

    Without a ``broker_clock_sync`` record (serial runs, process-pool
    runs, pre-telemetry traces) this is the identity — records pass
    through unchanged, so single-host timelines are byte-stable.
    Shifted records are shallow copies; the input is never mutated.
    """
    offsets, client_offset = extract_clock_sync(records)
    if not offsets and client_offset == 0.0:
        return list(records)
    aligned: List[Dict[str, object]] = []
    for record in records:
        ts = record.get("ts")
        if not isinstance(ts, (int, float)):
            aligned.append(record)
            continue
        kind = record.get("type")
        shift: Optional[float] = None
        if kind in BROKER_EVENT_TYPES:
            shift = client_offset
        elif kind in WORKER_CLOCKED_TYPES:
            worker = str(record.get("worker") or "")
            if worker in offsets:
                shift = client_offset - offsets[worker]
        if shift:
            record = dict(record)
            record["ts"] = float(ts) + shift
        aligned.append(record)
    return aligned


def _fmt_age(seconds: float) -> str:
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def render_farm_top(stats: Dict[str, object]) -> str:
    """The ``repro farm-top`` screen for one ``stats`` frame.

    Pure function of the payload — testable against a fake frame, and
    the CLI loop only adds the clear-screen escape and the refresh.
    """
    lines: List[str] = []
    totals = stats.get("totals") or {}
    lines.append(
        "farm broker up {up} · {workers} worker(s) · queue {queue} · "
        "{leases} lease(s) active".format(
            up=_fmt_age(float(stats.get("uptime_s") or 0.0)),
            workers=stats.get("workers_connected", 0),
            queue=stats.get("queue_depth", 0),
            leases=stats.get("leases_active", 0),
        )
    )
    campaign = stats.get("campaign")
    if isinstance(campaign, dict):
        lines.append(
            "campaign {id!r}: {completed}/{units} done, {pending} pending, "
            "{leased} leased, {failed} failed, {reissues} reissue(s), "
            "{dups} duplicate(s)".format(
                id=campaign.get("id"),
                completed=campaign.get("completed", 0),
                units=campaign.get("units", 0),
                pending=campaign.get("pending", 0),
                leased=campaign.get("leased", 0),
                failed=campaign.get("failed", 0),
                reissues=campaign.get("reissues", 0),
                dups=campaign.get("duplicates_dropped", 0),
            )
        )
    else:
        lines.append("no active campaign")
    lines.append(
        "lifetime: {campaigns} campaign(s), {done} completed, "
        "{failed} failed, {reissues} reissue(s), {dups} duplicate(s), "
        "{stale} stale heartbeat(s)".format(
            campaigns=totals.get("campaigns", 0),
            done=totals.get("units_completed", 0),
            failed=totals.get("units_failed", 0),
            reissues=totals.get("reissues", 0),
            dups=totals.get("duplicates_dropped", 0),
            stale=totals.get("stale_heartbeats", 0),
        )
    )
    lines.append("")
    header = (
        f"{'WORKER':<20} {'DONE':>5} {'FAIL':>5} {'U/MIN':>7} "
        f"{'UP':>6} {'IDLE':>6} {'SKEW':>9} {'LEASE':<24}"
    )
    lines.append(header)
    workers = stats.get("workers")
    if not isinstance(workers, list) or not workers:
        lines.append("  (no workers connected)")
        return "\n".join(lines) + "\n"
    for entry in workers:
        if not isinstance(entry, dict):
            continue
        lease = entry.get("lease")
        if isinstance(lease, dict):
            lease_cell = (
                f"{lease.get('key')} #{lease.get('attempt')} "
                f"({_fmt_age(float(lease.get('age_s') or 0.0))})"
            )
        else:
            lease_cell = "-"
        lines.append(
            f"{str(entry.get('name', '?')):<20} "
            f"{entry.get('completed', 0):>5} "
            f"{entry.get('failed', 0):>5} "
            f"{float(entry.get('units_per_minute') or 0.0):>7.1f} "
            f"{_fmt_age(float(entry.get('connected_s') or 0.0)):>6} "
            f"{_fmt_age(float(entry.get('idle_s') or 0.0)):>6} "
            f"{float(entry.get('clock_offset_s') or 0.0):>+8.3f}s "
            f"{lease_cell:<24}"
        )
    return "\n".join(lines) + "\n"
