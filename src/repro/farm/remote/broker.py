"""The farm broker: a TCP hub matching campaign units to socket workers.

One broker serves one campaign at a time (the submitting client owns it
until it finishes or the client disconnects) and any number of workers,
which may join and leave at any point:

* **Work-stealing dispatch** — workers *pull*: a ``request`` frame takes
  the next pending unit, so a fast worker simply asks more often and no
  static plan can strand a long unit behind a slow host.  The client
  still submits units in scheduler order (longest-expected-first), which
  seeds the queue well; after that, completion order is whatever the
  workers make of it — the client's executor merges deterministically
  by submission order regardless.
* **Leases + heartbeats** — every dispatched unit is leased (see
  :mod:`repro.farm.remote.leases`); workers heartbeat while executing.
  A lease that expires (worker killed, network gone, heartbeats too
  slow) re-queues the unit as a new attempt, up to the campaign's
  ``max_attempts``; exhaustion fails the unit and the client raises the
  same :class:`~repro.farm.executor.FarmExecutionError` a process pool
  would.
* **Duplicate suppression** — results are accepted once per unit,
  keyed on unit id + attempt bookkeeping in the lease table.  A
  presumed-dead worker delivering late, or a worker delivering the same
  frame twice, gets ``ack accepted=false`` and the result is dropped,
  so a unit can never be double-merged.
* **Shared result spool** — with a spool directory, accepted results
  are appended to a per-campaign JSONL file (same torn-line-tolerant
  discipline as the checkpoint layer).  A restarted broker serves those
  results straight from the spool when the same campaign is submitted
  again — any worker can resume any shard, and none of the finished
  ones re-run.

A campaign's unit lifecycle is one
:class:`~repro.farm.remote.leases.LeaseTable`; the broker is the
transport around it.  Each client frame is sent by the transition that
caused it, under the broker lock, so frames arrive in state order
(see :mod:`repro.farm.remote.protocol`).  The client executor always
drains its socket, so these sends cannot back up in practice.
"""

from __future__ import annotations

import hashlib
import json
import logging
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.farm.remote.leases import LeaseTable, LostLease
from repro.farm.remote.protocol import (
    DEFAULT_LEASE_TIMEOUT_S,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.farm.remote.telemetry import BrokerTelemetry, MetricsHTTPServer
from repro.ioutil import durable_append_line, read_jsonl
from repro.obs.events import (
    BrokerCampaignStarted,
    DuplicateSuppressed,
    LeaseCompleted,
    LeaseExpired,
    LeaseHeartbeat,
    LeaseIssued,
    LeaseReissued,
    SpoolRestored,
    WorkerJoined,
    WorkerLeft,
)
from repro.obs.exposition import render_exposition

logger = logging.getLogger("repro.farm.remote")

#: How long an idle worker is told to wait before asking again.
DEFAULT_POLL_S = 0.25

_SPOOL_SCHEMA = 1
_SPOOL_KIND = "repro.farm.remote.spool"


class ResultSpool:
    """Broker-side shared checkpoint: accepted results, one JSON line each.

    Stores the pickled-outcome payload exactly as it arrived (base64 in
    JSON) without ever unpickling it — the broker stays agnostic of the
    domain types inside.  Telemetry is *not* spooled: a spool-restored
    unit behaves like a checkpoint-skipped one (result present, worker
    trace absent), which is the existing resume semantics.
    """

    def __init__(self, path: Union[str, Path], campaign: str) -> None:
        self.path = Path(path)
        self.campaign = campaign
        self._handle = None

    def load(self) -> Tuple[Dict[str, Dict[str, Any]], int]:
        """Spooled results keyed by unit key, plus the dropped-line count.

        Tolerant reader (:func:`repro.ioutil.read_jsonl`): a torn or
        corrupt line (truncated JSON from a crash mid-append, a payload
        that is not a result record) is counted and skipped, never
        fatal — the campaign re-runs those units instead of refusing to
        start.  The count surfaces in the ``spool_restored`` event so a
        recovering operator can see how much the spool lost.
        """
        results: Dict[str, Dict[str, Any]] = {}
        dropped = 0
        if not self.path.exists():
            return results, dropped
        for number, payload in read_jsonl(self.path):
            if payload is None:
                logger.warning(
                    "spool %s: dropping corrupt line %d",
                    self.path, number,
                )
                dropped += 1
                continue
            if payload.get("kind") == _SPOOL_KIND:
                continue
            if "key" in payload and "outcome" in payload:
                results[str(payload["key"])] = payload
            else:
                logger.warning(
                    "spool %s: dropping incomplete record on line %d",
                    self.path, number,
                )
                dropped += 1
        return results, dropped

    def record(self, payload: Dict[str, Any]) -> None:
        """Append one accepted result, fsynced like a checkpoint line."""
        if self._handle is None or self._handle.closed:
            is_new = not self.path.exists() or self.path.stat().st_size == 0
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
            if is_new:
                header = {
                    "schema": _SPOOL_SCHEMA,
                    "kind": _SPOOL_KIND,
                    "campaign": self.campaign,
                }
                durable_append_line(
                    self._handle, json.dumps(header, sort_keys=True)
                )
        durable_append_line(
            self._handle, json.dumps(payload, sort_keys=True)
        )

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()


@dataclass
class _WorkerState:
    """Per-connection worker bookkeeping for stats and throughput."""

    name: str
    worker_id: str
    completed: int = 0
    failed: int = 0
    connected_mono: float = field(default_factory=time.monotonic)
    last_seen_mono: float = field(default_factory=time.monotonic)


@dataclass
class _Campaign:
    """The one active campaign: its lifecycle table plus transport state."""

    id: str
    units: Dict[str, str]           # key -> packed WorkUnit
    runner: str
    config: Optional[str]
    leases: LeaseTable
    client: socket.socket
    #: The hello name of the submitting client — keys its clock offset
    #: estimate in the broker telemetry.
    client_name: str
    spool: Optional[ResultSpool]
    client_alive: bool = True

    def push(self, frame: Dict[str, Any]) -> None:
        """Send one frame to the client (best-effort; broker lock held)."""
        if not self.client_alive:
            return
        try:
            send_frame(self.client, frame)
        except OSError:
            self.client_alive = False


#: ``stats`` frame ``totals`` key → the registry counter that keeps it.
TOTALS_COUNTERS = {
    "campaigns": "farm.campaigns",
    "units_dispatched": "farm.lease_issued",
    "units_completed": "farm.units_completed",
    "units_failed": "farm.units_failed",
    "units_restored": "farm.spool_restored",
    "spool_dropped": "farm.spool_dropped",
    "reissues": "farm.lease_reissued",
    "duplicates_dropped": "farm.duplicate_suppressed",
    "stale_heartbeats": "farm.stale_heartbeats",
    "workers_seen": "farm.workers_joined",
    "workers_left": "farm.workers_left",
    "workers_rejected": "farm.workers_rejected",
}


class FarmBroker:
    """Accepts client and worker connections; owns the campaign state.

    Parameters
    ----------
    host / port:
        Listen address; port 0 picks a free port (read it back from
        :attr:`address` after :meth:`start`).
    lease_timeout_s:
        Default lease lifetime; a client's ``submit`` may override it
        per campaign (``lease_s``).
    poll_s:
        Back-off told to idle workers, and the granularity of the
        lease-expiry sweep.
    spool_dir:
        Directory for per-campaign result spools (shared checkpoint);
        ``None`` disables spooling.
    metrics_port:
        When given, :meth:`start` also binds a tiny HTTP endpoint on
        this port (0 picks a free one; see :attr:`metrics_address`)
        serving ``GET /metrics`` as Prometheus text.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        poll_s: float = DEFAULT_POLL_S,
        spool_dir: Union[None, str, Path] = None,
        metrics_port: Optional[int] = None,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        self.host = host
        self.port = port
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.metrics_port = metrics_port
        self.telemetry = BrokerTelemetry()
        self._metrics_server: Optional[MetricsHTTPServer] = None
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._lock = threading.RLock()
        self._campaign: Optional[_Campaign] = None
        self._threads: List[threading.Thread] = []
        self._conn_seq = 0
        self._started_mono = time.monotonic()
        self._last_dispatch_mono: Optional[float] = None
        self._workers: Dict[str, _WorkerState] = {}

    # -- lifecycle --------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._sock is None:
            raise RuntimeError("broker is not started")
        addr = self._sock.getsockname()
        return addr[0], addr[1]

    @property
    def metrics_address(self) -> Tuple[str, int]:
        """The metrics endpoint's ``(host, port)`` (needs ``metrics_port``)."""
        if self._metrics_server is None:
            raise RuntimeError("broker has no metrics endpoint")
        return self._metrics_server.address

    def start(self) -> Tuple[str, int]:
        """Bind, listen, spawn accept + sweep threads; returns address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(64)
        sock.settimeout(0.2)
        self._sock = sock
        self._started_mono = time.monotonic()
        if self.metrics_port is not None:
            self._metrics_server = MetricsHTTPServer(
                self.host, self.metrics_port, self.metrics_exposition
            )
            self._metrics_server.start()
        accept = threading.Thread(
            target=self._accept_loop, name="broker-accept", daemon=True
        )
        sweep = threading.Thread(
            target=self._sweep_loop, name="broker-sweep", daemon=True
        )
        self._threads = [accept, sweep]
        accept.start()
        sweep.start()
        return self.address

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (for the CLI entry point)."""
        while not self._stop.wait(0.5):
            pass

    def shutdown(self) -> None:
        """Stop accepting, drop the campaign, join the service threads."""
        self._stop.set()
        with self._lock:
            campaign = self._campaign
            self._campaign = None
        if campaign is not None and campaign.spool is not None:
            campaign.spool.close()
        if self._metrics_server is not None:
            self._metrics_server.shutdown()
            self._metrics_server = None
        for thread in self._threads:
            thread.join(timeout=2.0)
        if self._sock is not None:
            self._sock.close()

    def __enter__(self) -> "FarmBroker":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- observability surfaces -------------------------------------------------
    def metrics_exposition(self) -> str:
        """The ``/metrics`` body: counters/histograms + live gauges.

        Counter and histogram families accumulate as the campaign runs
        (``farm.lease_issued``, ``farm.lease_age_seconds``, …); queue
        depth, rates and per-worker throughput are sampled at scrape
        time from the ``stats`` frame body, because gauges describe
        *now*.
        """
        stats = self.stats_payload()
        totals = stats["totals"]
        campaign = stats["campaign"]
        active = campaign is not None and not campaign["finished"]
        dispatched = totals["units_dispatched"]
        seen = totals["workers_seen"]
        last_dispatch = self._last_dispatch_mono
        stalled = (
            stats["queue_depth"] > 0
            and not stats["workers"]
            and last_dispatch is not None
        )
        metrics = self.telemetry.metrics
        gauge = metrics.gauge
        gauge("farm.uptime_seconds").set(stats["uptime_s"])
        gauge("farm.workers_connected").set(float(stats["workers_connected"]))
        gauge("farm.campaign_active").set(1.0 if active else 0.0)
        gauge("farm.queue_depth").set(float(stats["queue_depth"]))
        gauge("farm.leases_active").set(float(stats["leases_active"]))
        gauge("farm.reissue_rate").set(
            totals["reissues"] / dispatched if dispatched else 0.0
        )
        gauge("farm.duplicate_rate").set(
            totals["duplicates_dropped"] / dispatched if dispatched else 0.0
        )
        # Churn only signals while work is outstanding: after a campaign
        # finishes, workers idling out is normal, not an incident.
        gauge("farm.worker_churn").set(
            totals["workers_left"] / seen if seen and active else 0.0
        )
        gauge("farm.queue_stall_seconds").set(
            max(0.0, time.monotonic() - last_dispatch) if stalled else 0.0
        )
        for worker in stats["workers"]:
            gauge(f"farm.worker.upm.{worker['name']}").set(
                worker["units_per_minute"]
            )
        return render_exposition(metrics)

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` protocol frame's body (``farm-top``'s feed)."""
        now = time.monotonic()
        offsets = self.telemetry.clock_offsets()
        with self._lock:
            campaign = self._campaign
            leases = campaign.leases.held() if campaign is not None else []
            by_worker = {
                lease.worker: {
                    "key": lease.key,
                    "attempt": lease.attempt,
                    "age_s": max(0.0, now - lease.issued_ts),
                }
                for lease in leases
            }
            workers = []
            for state in sorted(
                self._workers.values(), key=lambda s: s.name
            ):
                minutes = max(1e-9, (now - state.connected_mono) / 60.0)
                workers.append({
                    "name": state.name,
                    "worker_id": state.worker_id,
                    "completed": state.completed,
                    "failed": state.failed,
                    "units_per_minute": state.completed / minutes,
                    "connected_s": max(0.0, now - state.connected_mono),
                    "idle_s": max(0.0, now - state.last_seen_mono),
                    "clock_offset_s": offsets.get(state.name, 0.0),
                    "lease": by_worker.get(state.worker_id),
                })
            tally = campaign.leases.tally() if campaign is not None else {}
            counters = self.telemetry.metrics.counters
            payload: Dict[str, Any] = {
                "uptime_s": max(0.0, now - self._started_mono),
                "queue_depth": tally.get("pending", 0),
                "leases_active": len(leases),
                "workers_connected": len(self._workers),
                "workers": workers,
                "totals": {
                    key: counters[name].value if name in counters else 0
                    for key, name in TOTALS_COUNTERS.items()
                },
                "campaign": None,
            }
            if campaign is not None:
                table = campaign.leases
                payload["campaign"] = {
                    "id": campaign.id,
                    "units": len(campaign.units),
                    **tally,
                    "reissues": table.reissues,
                    "duplicates_dropped": table.duplicates,
                    "max_attempts": table.max_attempts,
                    "lease_s": table.timeout_s,
                    "finished": table.finished,
                }
        return payload

    def _serve_stats(self, conn: socket.socket, hello: Dict[str, Any]) -> None:
        """Serve ``stats`` frames to an observer (``repro farm-top``)."""
        self.telemetry.observe_clock(
            str(hello.get("worker") or "observer"), hello.get("clock")
        )
        send_frame(conn, {"type": "welcome", "version": PROTOCOL_VERSION})
        while not self._stop.is_set():
            frame = recv_frame(conn)
            if frame is None or frame.get("type") == "goodbye":
                return
            if frame.get("type") == "stats":
                send_frame(
                    conn, {"type": "stats", "stats": self.stats_payload()}
                )
            # unknown frame types are ignored (forward compatibility)

    # -- accept / sweep threads -------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                self._conn_seq += 1
                ident = self._conn_seq
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, peer, ident),
                name=f"broker-conn-{ident}",
                daemon=True,
            )
            thread.start()

    def _sweep_loop(self) -> None:
        while not self._stop.is_set():
            interval = max(0.05, min(self.poll_s, self.lease_timeout_s / 4))
            if self._stop.wait(interval):
                return
            with self._lock:
                campaign = self._campaign
                if campaign is None:
                    continue
                now = time.monotonic()
                for lost in campaign.leases.expire(now):
                    self._expired(campaign, lost, now)

    # -- connection handling ----------------------------------------------------
    def _serve_connection(
        self, conn: socket.socket, peer, ident: int
    ) -> None:
        try:
            try:
                hello = recv_frame(conn)
            except ProtocolError:
                return
            if hello is None or hello.get("type") != "hello":
                return
            if hello.get("version") != PROTOCOL_VERSION:
                send_frame(conn, {
                    "type": "reject",
                    "reason": (
                        f"protocol version {hello.get('version')!r} != "
                        f"{PROTOCOL_VERSION}"
                    ),
                })
                return
            role = hello.get("role")
            if role == "worker":
                self._serve_worker(conn, hello, ident)
            elif role == "client":
                self._serve_client(conn, hello)
            elif role == "stats":
                self._serve_stats(conn, hello)
            else:
                send_frame(
                    conn, {"type": "reject", "reason": f"unknown role {role!r}"}
                )
        except (OSError, ProtocolError) as exc:
            logger.debug("connection %d (%s) dropped: %s", ident, peer, exc)
        finally:
            conn.close()

    # -- client side ------------------------------------------------------------
    def _serve_client(self, conn: socket.socket, hello: Dict[str, Any]) -> None:
        with self._lock:
            active = self._campaign
            if (
                active is not None
                and not active.leases.finished
                and active.client_alive
            ):
                send_frame(conn, {
                    "type": "reject",
                    "reason": (
                        f"campaign {active.id!r} is still active; "
                        f"one campaign at a time"
                    ),
                })
                return
        client_name = str(hello.get("worker") or "client")
        self.telemetry.observe_clock(client_name, hello.get("clock"))
        send_frame(conn, {"type": "welcome", "version": PROTOCOL_VERSION})
        submit = recv_frame(conn)
        if submit is None:
            return
        if submit.get("type") != "submit":
            send_frame(conn, {
                "type": "reject",
                "reason": f"expected submit, got {submit.get('type')!r}",
            })
            return
        self.telemetry.observe_clock(client_name, submit.get("clock"))
        campaign = self._accept_submit(conn, submit, client_name)
        if campaign is None:
            return
        try:
            # The client sends nothing else until the campaign ends; a
            # frame of None (EOF) or a goodbye means it is gone.  Either
            # way the campaign dies with its client.
            while True:
                frame = recv_frame(conn)
                if frame is None or frame.get("type") == "goodbye":
                    return
        except ProtocolError:
            return
        finally:
            with self._lock:
                campaign.client_alive = False
                if self._campaign is campaign:
                    tally = campaign.leases.tally()
                    if not campaign.leases.finished:
                        logger.warning(
                            "client for campaign %r disconnected with "
                            "%d unit(s) unfinished; campaign dropped",
                            campaign.id, tally["pending"] + tally["leased"],
                        )
                    self._campaign = None
            if campaign.spool is not None:
                campaign.spool.close()

    def _spool_for(self, campaign_id: str) -> Optional[ResultSpool]:
        if self.spool_dir is None:
            return None
        digest = hashlib.sha256(campaign_id.encode("utf-8")).hexdigest()[:16]
        return ResultSpool(
            self.spool_dir / f"spool-{digest}.jsonl", campaign_id
        )

    def _accept_submit(
        self,
        conn: socket.socket,
        submit: Dict[str, Any],
        client_name: str = "client",
    ) -> Optional[_Campaign]:
        campaign_id = str(submit.get("campaign") or "farm")
        raw_units = submit.get("units")
        if not isinstance(raw_units, list):
            send_frame(
                conn, {"type": "reject", "reason": "submit carries no units"}
            )
            return None
        units = {str(entry["key"]): str(entry["unit"]) for entry in raw_units}
        max_attempts = max(1, int(submit.get("max_attempts") or 1))
        lease_s = float(submit.get("lease_s") or self.lease_timeout_s)
        spool = self._spool_for(campaign_id)
        spooled, spool_dropped = (
            spool.load() if spool is not None else ({}, 0)
        )
        table = LeaseTable(lease_s, units, max_attempts)
        restored = table.restore({
            key: int(payload.get("attempt", 1))
            for key, payload in spooled.items()
        })
        campaign = _Campaign(
            id=campaign_id,
            units=units,
            runner=str(submit.get("runner") or ""),
            config=submit.get("config"),
            leases=table,
            client=conn,
            client_name=client_name,
            spool=spool,
        )
        # One lock hold from install to the last restored ``done``: no
        # worker can lease a unit before the client has its ``accepted``.
        with self._lock:
            self._campaign = campaign
            self.telemetry.emit(
                BrokerCampaignStarted(
                    campaign=campaign_id,
                    units=len(units),
                    restored=len(restored),
                    max_attempts=max_attempts,
                    lease_s=lease_s,
                ),
                campaign=campaign_id,
            )
            if restored or spool_dropped:
                metrics = self.telemetry.metrics
                metrics.counter("farm.spool_restored").inc(len(restored))
                metrics.counter("farm.spool_dropped").inc(spool_dropped)
                self.telemetry.emit(
                    SpoolRestored(
                        campaign=campaign_id,
                        restored=len(restored),
                        dropped=spool_dropped,
                    ),
                    campaign=campaign_id,
                )
            logger.info(
                "campaign %r accepted: %d unit(s), %d restored from spool "
                "(%d spool line(s) dropped)",
                campaign_id, len(units), len(restored), spool_dropped,
            )
            campaign.push({
                "type": "accepted",
                "campaign": campaign_id,
                "pending": table.tally()["pending"],
                "restored": len(restored),
            })
            for key in restored:
                payload = spooled[key]
                campaign.push({
                    "type": "done",
                    "key": key,
                    "attempt": int(payload.get("attempt", 1)),
                    "worker": str(payload.get("worker", "spool")),
                    "elapsed_s": float(payload.get("elapsed_s", 0.0)),
                    "outcome": payload["outcome"],
                    "telemetry": None,
                    "restored": True,
                })
            self._settled(campaign)
        return campaign

    # -- worker side ------------------------------------------------------------
    def _serve_worker(
        self, conn: socket.socket, hello: Dict[str, Any], ident: int
    ) -> None:
        name = str(hello.get("worker") or f"worker-{ident}")
        pin = hello.get("campaign")
        worker_id = f"{name}#{ident}"
        with self._lock:
            active = self._campaign
            if (
                pin
                and active is not None
                and not active.leases.finished
                and active.id != pin
            ):
                self.telemetry.metrics.counter("farm.workers_rejected").inc()
                send_frame(conn, {
                    "type": "reject",
                    "reason": (
                        f"stale campaign {pin!r}; the active campaign is "
                        f"{active.id!r}"
                    ),
                })
                return
            self._workers[worker_id] = _WorkerState(name, worker_id)
            campaign_id = active.id if active is not None else None
        self.telemetry.observe_clock(name, hello.get("clock"))
        self.telemetry.emit(
            WorkerJoined(worker=name, worker_id=worker_id),
            campaign=campaign_id,
        )
        send_frame(conn, {"type": "welcome", "version": PROTOCOL_VERSION})
        logger.info("worker %s connected", worker_id)
        try:
            while not self._stop.is_set():
                frame = recv_frame(conn)
                if frame is None or frame.get("type") == "goodbye":
                    return
                kind = frame.get("type")
                if kind == "request":
                    send_frame(conn, self._next_unit(worker_id, name, pin))
                elif kind == "result":
                    send_frame(conn, self._take_result(worker_id, name, frame))
                elif kind == "heartbeat":
                    self._take_heartbeat(worker_id, name, frame)
                # unknown frame types are ignored (forward compatibility)
        finally:
            self._release_worker(worker_id)
            logger.info("worker %s disconnected", worker_id)

    def _next_unit(
        self, worker_id: str, name: str, pin: Optional[str]
    ) -> Dict[str, Any]:
        with self._lock:
            campaign = self._campaign
            now = time.monotonic()
            lease = (
                campaign.leases.issue(worker_id, now)
                if campaign is not None and not (pin and campaign.id != pin)
                else None
            )
            if lease is None:
                return {"type": "idle", "poll_s": self.poll_s}
            self._last_dispatch_mono = now
            state = self._workers.get(worker_id)
            if state is not None:
                state.last_seen_mono = now
            self.telemetry.emit(
                LeaseIssued(key=lease.key, attempt=lease.attempt, worker=name),
                campaign=campaign.id,
                span_id=lease.key,
            )
            campaign.push({
                "type": "leased",
                "key": lease.key,
                "attempt": lease.attempt,
                "worker": name,
            })
            return {
                "type": "unit",
                "campaign": campaign.id,
                "key": lease.key,
                "attempt": lease.attempt,
                "unit": campaign.units[lease.key],
                "runner": campaign.runner,
                "config": campaign.config,
                "lease_s": campaign.leases.timeout_s,
            }

    def _take_result(
        self, worker_id: str, name: str, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        key = str(frame.get("key"))
        attempt = int(frame.get("attempt") or 0)
        with self._lock:
            campaign = self._campaign
            now = time.monotonic()
            state = self._workers.get(worker_id)
            if state is not None:
                state.last_seen_mono = now
            if campaign is None or key not in campaign.units:
                return {
                    "type": "ack", "accepted": False,
                    "reason": "no active campaign for this unit",
                }
            if not frame.get("ok"):
                lost = campaign.leases.fail(
                    key, attempt, str(frame.get("error") or "unit runner failed")
                )
                if lost is None:
                    # the lease already expired and was handled
                    return {
                        "type": "ack", "accepted": False,
                        "reason": "attempt is no longer leased",
                    }
                if state is not None:
                    state.failed += 1
                self.telemetry.emit(
                    LeaseCompleted(
                        key=key, attempt=attempt, worker=name,
                        age_s=max(0.0, now - lost.lease.issued_ts), ok=False,
                    ),
                    campaign=campaign.id,
                    span_id=key,
                )
                self._settle(campaign, lost)
                return {"type": "ack", "accepted": True}
            age_s = campaign.leases.complete(key, attempt, now)
            if age_s is None:
                self.telemetry.emit(
                    DuplicateSuppressed(key=key, attempt=attempt, worker=name),
                    campaign=campaign.id,
                    span_id=key,
                )
                return {
                    "type": "ack", "accepted": False,
                    "reason": "duplicate delivery suppressed",
                }
            if state is not None:
                state.completed += 1
            payload = {
                "key": key,
                "attempt": attempt,
                "worker": name,
                "elapsed_s": float(frame.get("elapsed_s") or 0.0),
                "outcome": str(frame.get("outcome")),
            }
            if campaign.spool is not None:
                try:
                    campaign.spool.record(payload)
                except OSError as exc:
                    logger.warning("spool write failed: %s", exc)
            metrics = self.telemetry.metrics
            metrics.counter("farm.worker_units").inc(label=name)
            metrics.histogram("farm.unit_seconds").observe(payload["elapsed_s"])
            self.telemetry.emit(
                LeaseCompleted(
                    key=key, attempt=attempt, worker=name,
                    age_s=age_s, ok=True,
                ),
                campaign=campaign.id,
                span_id=key,
            )
            campaign.push({
                "type": "done",
                **payload,
                "telemetry": frame.get("telemetry"),
            })
            self._settled(campaign)
        return {"type": "ack", "accepted": True}

    def _take_heartbeat(
        self, worker_id: str, name: str, frame: Dict[str, Any]
    ) -> None:
        self.telemetry.observe_clock(name, frame.get("clock"))
        key = str(frame.get("key"))
        attempt = int(frame.get("attempt") or 0)
        with self._lock:
            campaign = self._campaign
            state = self._workers.get(worker_id)
            if state is not None:
                state.last_seen_mono = time.monotonic()
            if campaign is None:
                return
            extended = campaign.leases.heartbeat(
                key, attempt, worker_id, time.monotonic()
            )
            campaign_id = campaign.id
        self.telemetry.emit(
            LeaseHeartbeat(
                key=key, attempt=attempt, worker=name, fresh=extended
            ),
            campaign=campaign_id,
            span_id=key,
        )

    def _release_worker(self, worker_id: str) -> None:
        with self._lock:
            state = self._workers.pop(worker_id, None)
            campaign = self._campaign
            campaign_id = campaign.id if campaign is not None else None
            if campaign is not None:
                now = time.monotonic()
                for lost in campaign.leases.release_worker(worker_id):
                    self._expired(campaign, lost, now)
        # Clock estimates are deliberately kept after disconnect: the
        # campaign_done frame still needs the dead worker's offset so
        # the timeline can align its events.
        if state is not None:
            self.telemetry.emit(
                WorkerLeft(
                    worker=state.name,
                    worker_id=worker_id,
                    completed=state.completed,
                    failed=state.failed,
                ),
                campaign=campaign_id,
            )

    # -- campaign transitions (call with the lock held) ------------------------
    def _expired(self, campaign: _Campaign, lost: LostLease, now: float) -> None:
        """Announce a lease reclaimed by the sweep or a worker's exit."""
        lease = lost.lease
        state = self._workers.get(lease.worker)
        self.telemetry.emit(
            LeaseExpired(
                key=lease.key,
                attempt=lease.attempt,
                worker=state.name if state is not None else lease.worker,
                age_s=max(0.0, now - lease.issued_ts),
            ),
            campaign=campaign.id,
            span_id=lease.key,
        )
        self._settle(campaign, lost)

    def _settle(self, campaign: _Campaign, lost: LostLease) -> None:
        """Tell the client what became of a lost lease's unit: another
        attempt, or failure — and the campaign's end if that was the
        last unit."""
        key, attempt = lost.lease.key, lost.lease.attempt
        if lost.requeued:
            self.telemetry.emit(
                LeaseReissued(key=key, attempt=attempt, reason=lost.reason),
                campaign=campaign.id,
                span_id=key,
            )
            campaign.push({
                "type": "retry", "key": key, "attempt": attempt,
                "reason": lost.reason,
            })
            return
        self.telemetry.metrics.counter("farm.units_failed").inc()
        campaign.push({"type": "unit_failed", "key": key, "reason": lost.reason})
        self._settled(campaign)

    def _settled(self, campaign: _Campaign) -> None:
        """Send ``campaign_done`` if no unit is left to settle.

        Called only by a transition that settled units (spool restore,
        an accepted result, a failed unit): exactly one of those settles
        the last unit, so ``campaign_done`` goes out once, after every
        unit's frame.
        """
        table = campaign.leases
        if not table.finished:
            return
        tally = table.tally()
        offsets = self.telemetry.clock_offsets()
        client_offset = offsets.pop(campaign.client_name, 0.0)
        campaign.push({
            "type": "campaign_done",
            "campaign": campaign.id,
            "completed": tally["completed"],
            "failed": sorted(table.failed),
            "duplicates_dropped": table.duplicates,
            "reissues": table.reissues,
            "telemetry": self.telemetry.drain_events(),
            "clock": {
                "offsets": offsets,
                "client_offset_s": client_offset,
            },
        })
        logger.info(
            "campaign %r finished: %d completed, %d failed, %d reissue(s)",
            campaign.id, tally["completed"], tally["failed"], table.reissues,
        )
