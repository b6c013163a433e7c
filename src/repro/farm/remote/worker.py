"""The socket worker: connect, steal units, heartbeat, deliver results.

A worker is a tiny synchronous loop around one broker connection:

1. ``hello`` (role ``worker``, protocol version, optional campaign pin);
   a ``reject`` — wrong protocol, or pinned to a stale campaign while
   another is active — raises :class:`WorkerRejected`.
2. ``request`` → either a ``unit`` (execute it) or ``idle`` (sleep the
   broker-suggested back-off and ask again).
3. While executing, a heartbeat thread extends the lease every third of
   the lease lifetime.  It is stopped and joined *before* the result
   frame is sent, so the main thread is always the only writer when a
   multi-frame exchange happens — no frame interleaving is possible.
4. ``result`` → ``ack``.  An ``ack accepted=false`` (duplicate, stale
   attempt, campaign gone) is not an error: the broker already has what
   it needs and the worker simply asks for the next unit.

Telemetry: when the dispatch carries a capture config, the unit runs
under :func:`repro.obs.collector.run_unit_captured` — the same spool
capture the process pool uses — and the resulting ``WorkerTelemetry``
rides back inside the result frame.  Remote traces therefore merge
event-comparable with serial and process-pool traces.

The global observability runtime is neutralised on startup exactly like
a process-pool worker: a remote worker never writes the host trace
directly, everything flows through the spool.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.farm.remote.protocol import (
    DEFAULT_LEASE_TIMEOUT_S,
    PROTOCOL_VERSION,
    ProtocolError,
    pack,
    parse_address,
    recv_frame,
    resolve_runner,
    send_frame,
    unpack,
)
from repro.obs.collector import run_unit_captured
from repro.obs.events import EventBus
from repro.obs.farm import clock_stamp
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import OBS

logger = logging.getLogger("repro.farm.remote")


class WorkerRejected(RuntimeError):
    """The broker refused this worker's hello (version/campaign)."""


def _default_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _neutralize_observability() -> None:
    """Detach from any inherited OBS runtime (mirror of the pool worker)."""
    OBS.enabled = False
    OBS.bus = EventBus()
    OBS.metrics = MetricsRegistry()


def _connect(
    address: Tuple[str, int], connect_timeout_s: float
) -> socket.socket:
    """Dial the broker, retrying until the timeout window closes.

    Workers are often launched alongside the broker (CI, scripts); the
    retry window absorbs the broker's startup latency instead of making
    every launcher sequence the two.
    """
    deadline = time.monotonic() + connect_timeout_s
    last_error: Optional[Exception] = None
    while True:
        try:
            return socket.create_connection(address, timeout=5.0)
        except OSError as exc:
            last_error = exc
            if time.monotonic() >= deadline:
                raise WorkerRejected(
                    f"could not reach broker at {address[0]}:{address[1]} "
                    f"within {connect_timeout_s:g}s: {last_error}"
                ) from exc
            time.sleep(0.2)


class _HeartbeatPump:
    """Background thread that keeps one unit's lease alive."""

    def __init__(
        self,
        sock: socket.socket,
        send_lock: threading.Lock,
        key: str,
        attempt: int,
        interval_s: float,
    ) -> None:
        self._sock = sock
        self._lock = send_lock
        self._key = key
        self._attempt = attempt
        self._interval = max(0.05, interval_s)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{key}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            # A fresh frame per beat: the clock stamp must be taken at
            # send time for the broker's skew estimator to see real
            # wall/monotonic pairs, not the construction-time snapshot.
            frame = {
                "type": "heartbeat",
                "key": self._key,
                "attempt": self._attempt,
                "clock": clock_stamp(),
            }
            try:
                with self._lock:
                    send_frame(self._sock, frame)
            except OSError:
                return  # connection gone; the main loop will notice

    def __enter__(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        # Stopped and joined BEFORE the result frame goes out: after
        # this returns, the main thread is the socket's only writer.
        self._stop.set()
        self._thread.join()


def _execute_unit(
    frame: Dict[str, Any],
    runners: Dict[str, Callable],
    name: str,
) -> Dict[str, Any]:
    """Run one leased unit; build the result frame (ok or error)."""
    key = str(frame["key"])
    attempt = int(frame.get("attempt") or 1)
    started = time.perf_counter()
    try:
        ref = str(frame["runner"])
        if ref not in runners:
            runners[ref] = resolve_runner(ref)
        runner = runners[ref]
        unit = unpack(str(frame["unit"]))
        config = unpack(str(frame["config"])) if frame.get("config") else None
        if config is not None and config.capture:
            outcome, telemetry = run_unit_captured(
                runner, unit, config, worker=name, attempt=attempt
            )
        else:
            outcome = runner(unit)
            telemetry = None
    except BaseException as exc:  # noqa: BLE001 — report, don't die
        logger.warning("unit %s attempt %d failed: %s", key, attempt, exc)
        return {
            "type": "result",
            "key": key,
            "attempt": attempt,
            "ok": False,
            "elapsed_s": time.perf_counter() - started,
            "error": f"{type(exc).__name__}: {exc}",
        }
    return {
        "type": "result",
        "key": key,
        "attempt": attempt,
        "ok": True,
        "elapsed_s": time.perf_counter() - started,
        "outcome": pack(outcome),
        "telemetry": pack(telemetry) if telemetry is not None else None,
    }


def run_worker(
    connect: Union[str, Tuple[str, int]],
    name: Optional[str] = None,
    campaign: Optional[str] = None,
    max_units: Optional[int] = None,
    connect_timeout_s: float = 10.0,
    max_idle_s: Optional[float] = None,
) -> int:
    """Serve one broker until shutdown; returns units completed.

    Parameters
    ----------
    connect:
        Broker address, ``"host:port"`` or ``(host, port)``.
    name:
        Worker display name (stamped into telemetry and results);
        defaults to ``hostname-pid``.
    campaign:
        Optional campaign pin: the broker refuses the hello if a
        *different* campaign is active (stale-rejoin protection), and
        the worker only ever receives units of the pinned campaign.
    max_units:
        Exit after completing this many units (useful in tests and for
        scripted churn); ``None`` serves until the broker goes away.
    connect_timeout_s:
        Retry window for the initial dial.
    max_idle_s:
        Exit after this long without any unit to steal; ``None`` polls
        forever.
    """
    _neutralize_observability()
    worker_name = name or _default_name()
    address = parse_address(connect) if isinstance(connect, str) else (
        connect[0], int(connect[1])
    )
    sock = _connect(address, connect_timeout_s)
    send_lock = threading.Lock()
    runners: Dict[str, Callable] = {}
    completed = 0
    idle_since: Optional[float] = None
    try:
        with send_lock:
            send_frame(sock, {
                "type": "hello",
                "role": "worker",
                "version": PROTOCOL_VERSION,
                "worker": worker_name,
                "campaign": campaign,
                "clock": clock_stamp(),
            })
        greeting = recv_frame(sock)
        if greeting is None:
            raise WorkerRejected("broker closed the connection during hello")
        if greeting.get("type") == "reject":
            raise WorkerRejected(str(greeting.get("reason") or "rejected"))
        if greeting.get("type") != "welcome":
            raise WorkerRejected(
                f"unexpected greeting {greeting.get('type')!r}"
            )
        logger.info("worker %s connected to %s:%d", worker_name, *address)
        while max_units is None or completed < max_units:
            with send_lock:
                send_frame(sock, {"type": "request"})
            frame = recv_frame(sock)
            if frame is None or frame.get("type") == "shutdown":
                break
            kind = frame.get("type")
            if kind == "idle":
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if (
                    max_idle_s is not None
                    and now - idle_since >= max_idle_s
                ):
                    logger.info(
                        "worker %s idle for %.1fs; leaving",
                        worker_name, now - idle_since,
                    )
                    break
                time.sleep(float(frame.get("poll_s") or 0.25))
                continue
            if kind != "unit":
                continue
            idle_since = None
            lease_s = float(frame.get("lease_s") or DEFAULT_LEASE_TIMEOUT_S)
            pump = _HeartbeatPump(
                sock, send_lock,
                key=str(frame["key"]),
                attempt=int(frame.get("attempt") or 1),
                interval_s=lease_s / 3.0,
            )
            with pump:
                result = _execute_unit(frame, runners, worker_name)
            with send_lock:
                send_frame(sock, result)
            ack = recv_frame(sock)
            if ack is None:
                break
            if result.get("ok") and ack.get("accepted"):
                completed += 1
        try:
            with send_lock:
                send_frame(sock, {"type": "goodbye"})
        except OSError:
            pass
    except ProtocolError as exc:
        logger.warning("worker %s: protocol error: %s", worker_name, exc)
    finally:
        sock.close()
    return completed
