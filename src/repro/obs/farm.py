"""Analysis helpers for farm control-plane telemetry.

The broker ships its buffered control-plane events and per-worker clock
offsets to the client inside the ``campaign_done`` frame; the client
replays them into its own trace (see
:meth:`repro.farm.remote.executor.RemoteExecutor`).  This module is the
read side: given a merged trace, find the ``broker_clock_sync`` record,
re-anchor every broker/worker timestamp onto the client's wall clock,
and render the live ``stats`` frame as the ``repro farm-top`` table.

Clock frames: the broker estimates ``offset(peer) = peer_wall −
broker_wall`` for every stamped peer (min-filter, see
:class:`repro.farm.remote.telemetry.ClockEstimator`).  The trace is
written on the *client's* clock, so alignment maps::

    broker event:  ts_client = ts_broker + offset(client)
    worker event:  ts_client = ts_worker − offset(worker) + offset(client)

Pure stdlib, no farm imports — usable on any trace file offline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

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


def extract_clock_sync(
    records: Iterable[Dict[str, object]],
) -> Tuple[Dict[str, float], float]:
    """The last ``broker_clock_sync`` record's offsets, or ``({}, 0.0)``.

    Returns ``(worker offsets, client offset)``, both in the broker's
    ``peer − broker`` convention.  The *last* sync wins: a multi-batch
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
