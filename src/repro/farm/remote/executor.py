"""The client-side remote backend: submit to a broker, merge the stream.

:class:`RemoteExecutor` is the third :class:`~repro.farm.executor.
ExecutorBackend` next to :class:`~repro.farm.executor.SerialExecutor`
and :class:`~repro.farm.executor.ParallelExecutor`.  It keeps every
guarantee of the base contract — deterministic merge in submission
order, checkpoint skip/record, pilot RTP broadcast, telemetry replay —
and delegates only the *scheduling* to the broker's work-stealing queue:

* Units are submitted in the scheduler's order (longest-expected-first),
  which seeds the broker's pending queue; workers then pull in whatever
  order their speed dictates.
* Completion frames arrive in real completion order and are folded into
  the same ``results`` dict keyed by unit, so the returned list — and
  the checkpoint, and the merged trace — are byte-identical to a serial
  run with the same seeds.
* Retries are broker-side (lease expiry, worker death, runner errors);
  the client only narrates them as the usual
  :class:`~repro.obs.events.FarmUnitRetried` events.  A unit that
  exhausts ``max_attempts`` raises the same
  :class:`~repro.farm.executor.FarmExecutionError`.

Losing the broker mid-campaign raises :class:`RemoteFarmError`; every
unit completed before the loss is already checkpointed, so re-running
the same command resumes instead of restarting.
"""

from __future__ import annotations

import os
import socket
from typing import List, Optional, Tuple, Union

from repro.farm.executor import FarmExecutionError, _ExecutorBase
from repro.farm.remote.protocol import (
    DEFAULT_LEASE_TIMEOUT_S,
    PROTOCOL_VERSION,
    ProtocolError,
    pack,
    parse_address,
    recv_frame,
    runner_ref,
    send_frame,
    unpack,
)
from repro.farm.remote.telemetry import clock_stamp
from repro.farm.scheduler import Scheduler
from repro.obs.events import BrokerClockSync
from repro.obs.runtime import OBS


class RemoteFarmError(RuntimeError):
    """The broker connection failed mid-campaign.

    Completed units are already in the checkpoint (when one is
    configured); re-running the same campaign resumes from there.
    """


class RemoteExecutor(_ExecutorBase):
    """Executes a campaign on a farm broker's socket workers.

    Parameters
    ----------
    broker:
        Broker address: ``"host:port"`` or ``(host, port)``.
    scheduler:
        Submission-order policy (longest-expected-first by default);
        seeds the broker's work-stealing queue.
    max_attempts:
        Total dispatches allowed per unit across all workers.
    lease_timeout_s:
        Lease lifetime requested for this campaign: how long a silent
        worker may hold a unit before it is re-issued.
    connect_timeout_s:
        Dial timeout for reaching the broker.
    """

    name = "remote"

    def __init__(
        self,
        broker: Union[str, Tuple[str, int]],
        scheduler: Optional[Scheduler] = None,
        max_attempts: int = 2,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        connect_timeout_s: float = 10.0,
    ) -> None:
        super().__init__(scheduler=scheduler, max_attempts=max_attempts)
        if isinstance(broker, str):
            self.address = parse_address(broker)
        else:
            self.address = (broker[0], int(broker[1]))
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        self.lease_timeout_s = lease_timeout_s
        self.connect_timeout_s = connect_timeout_s
        #: Elastic pool: the worker count is whatever joins the broker.
        self.workers = 0
        self._campaign_id = ""
        self._batch = 0

    def run(self, units, runner, checkpoint=None, rtp_broadcast=False,
            campaign=""):
        # The base template may call _execute twice (pilot batch, then
        # the broadcast-stamped rest).  Each batch is one broker
        # campaign; suffixing keeps their ids — and therefore their
        # spool files — distinct while staying stable across re-runs.
        self._campaign_id = campaign or "farm"
        self._batch = 0
        return super().run(
            units, runner, checkpoint=checkpoint,
            rtp_broadcast=rtp_broadcast, campaign=campaign,
        )

    # -- wire plumbing ----------------------------------------------------------
    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout_s
            )
        except OSError as exc:
            raise RemoteFarmError(
                f"cannot reach farm broker at "
                f"{self.address[0]}:{self.address[1]}: {exc}"
            ) from exc
        # Campaign frames can be minutes apart on long units; only the
        # dial is bounded.  A dead broker still surfaces as EOF/reset.
        sock.settimeout(None)
        return sock

    def _handshake(self, sock: socket.socket, campaign_id: str) -> None:
        send_frame(sock, {
            "type": "hello",
            "role": "client",
            "version": PROTOCOL_VERSION,
            "worker": f"client-{os.getpid()}",
            "campaign": campaign_id,
            "clock": clock_stamp(),
        })
        greeting = recv_frame(sock)
        if greeting is None:
            raise RemoteFarmError("broker closed the connection during hello")
        if greeting.get("type") != "welcome":
            raise RemoteFarmError(
                f"broker refused the campaign: "
                f"{greeting.get('reason') or greeting.get('type')!r}"
            )

    def _submit(self, sock, campaign_id, units, runner, collector) -> None:
        config = collector.worker_config() if collector is not None else None
        send_frame(sock, {
            "type": "submit",
            "campaign": campaign_id,
            "units": [
                {"key": unit.key, "unit": pack(unit)} for unit in units
            ],
            "runner": runner_ref(runner),
            "config": pack(config) if config is not None else None,
            "max_attempts": self.max_attempts,
            "lease_s": self.lease_timeout_s,
            "clock": clock_stamp(),
        })
        reply = recv_frame(sock)
        if reply is None or reply.get("type") != "accepted":
            reason = (reply or {}).get("reason") or "no accept frame"
            raise RemoteFarmError(f"broker refused the submit: {reason}")

    # -- campaign loop ----------------------------------------------------------
    def _execute(self, units, runner, results, checkpoint, broadcast,
                 collector):
        self._batch += 1
        campaign_id = (
            self._campaign_id if self._batch == 1
            else f"{self._campaign_id}#b{self._batch}"
        )
        by_key = {unit.key: unit for unit in units}
        failures: List[Tuple] = []
        sock = self._connect()
        try:
            self._handshake(sock, campaign_id)
            self._submit(sock, campaign_id, units, runner, collector)
            remaining = set(by_key)
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    raise RemoteFarmError(
                        f"broker connection closed with "
                        f"{len(remaining)} unit(s) outstanding"
                    )
                kind = frame.get("type")
                unit = by_key.get(str(frame.get("key")))
                if kind == "leased" and unit is not None:
                    self._note_dispatch(unit, int(frame.get("attempt") or 1))
                elif kind == "retry" and unit is not None:
                    self._note_retry(
                        unit,
                        int(frame.get("attempt") or 1),
                        str(frame.get("reason") or "re-issued"),
                    )
                elif kind == "done" and unit is not None:
                    outcome = unpack(str(frame["outcome"]))
                    telemetry = (
                        unpack(str(frame["telemetry"]))
                        if frame.get("telemetry") else None
                    )
                    if collector is not None and telemetry is not None:
                        collector.collect(telemetry)
                    self._complete(
                        unit, outcome,
                        int(frame.get("attempt") or 1),
                        float(frame.get("elapsed_s") or 0.0),
                        str(frame.get("worker") or "remote"),
                        results, checkpoint, broadcast,
                    )
                    remaining.discard(unit.key)
                elif kind == "unit_failed" and unit is not None:
                    failures.append(
                        (unit, str(frame.get("reason") or "failed"))
                    )
                    remaining.discard(unit.key)
                elif kind == "campaign_done":
                    self._replay_broker_telemetry(campaign_id, frame)
                    break
            try:
                send_frame(sock, {"type": "goodbye"})
            except OSError:
                pass
        except (OSError, ProtocolError) as exc:
            raise RemoteFarmError(
                f"lost the farm broker at "
                f"{self.address[0]}:{self.address[1]} mid-campaign: {exc}; "
                f"completed units are checkpointed and a re-run resumes"
            ) from exc
        finally:
            sock.close()
        if failures:
            raise FarmExecutionError(failures)

    def _replay_broker_telemetry(self, campaign_id: str, frame) -> None:
        """Fold the broker's shipped control-plane story into our trace.

        The ``campaign_done`` frame carries the broker's buffered event
        payloads (pre-stamped with the *broker's* wall clock) and the
        per-worker clock offsets it estimated.  Replaying them here puts
        lease lifetimes, re-issues and duplicates into the client trace;
        the closing ``broker_clock_sync`` event gives ``obs timeline``
        what it needs to align every track onto the client's axis.
        """
        if not OBS.enabled:
            return
        events = frame.get("telemetry")
        if isinstance(events, list):
            for payload in events:
                if isinstance(payload, dict) and payload.get("type"):
                    OBS.bus.emit(payload)
        clock = frame.get("clock")
        if isinstance(clock, dict):
            offsets = {
                str(name): float(offset)
                for name, offset in (clock.get("offsets") or {}).items()
            }
            OBS.bus.emit(BrokerClockSync(
                campaign=campaign_id,
                offsets=offsets,
                client_offset_s=float(clock.get("client_offset_s") or 0.0),
            ))
