"""Distributed tester farm: TCP broker, socket workers, remote backend.

The remote farm stretches :mod:`repro.farm` past one host:

* :class:`FarmBroker` (CLI: ``repro farm-broker``) — the hub.  Leases
  units to workers that pull them (work-stealing), expires silent
  leases, suppresses duplicate results and spools accepted ones for
  broker-restart resume; each campaign's unit lifecycle is one
  :class:`LeaseTable`.
* :func:`run_worker` (CLI: ``repro farm-worker --connect HOST:PORT``) —
  a socket worker.  Joins and leaves at any time; heartbeats while
  executing; ships outcome + :class:`~repro.obs.collector.
  WorkerTelemetry` back over the wire.
* :class:`RemoteExecutor` (CLI: ``--backend remote --broker HOST:PORT``)
  — the client-side :class:`~repro.farm.executor.ExecutorBackend`.
  Same deterministic-merge/checkpoint/RTP/telemetry contract as the
  serial and process-pool executors.
* :mod:`~repro.farm.remote.telemetry` — the broker's observability:
  typed control-plane events, a thread-safe metrics registry served as
  Prometheus text (``farm-broker --metrics-port``), per-worker clock
  offset estimation, and the ``stats`` frame behind ``repro farm-top``.

See :mod:`repro.farm.remote.protocol` for the frame vocabulary and
``docs/parallelism.md`` for the failure matrix.
"""

from repro.farm.remote.broker import (
    DEFAULT_POLL_S,
    FarmBroker,
    ResultSpool,
)
from repro.farm.remote.executor import RemoteExecutor, RemoteFarmError
from repro.farm.remote.leases import Lease, LeaseTable
from repro.farm.remote.protocol import (
    DEFAULT_LEASE_TIMEOUT_S,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    pack,
    parse_address,
    recv_frame,
    resolve_runner,
    runner_ref,
    send_frame,
    unpack,
)
from repro.farm.remote.telemetry import (
    BrokerTelemetry,
    MetricsHTTPServer,
    fetch_broker_stats,
)
from repro.farm.remote.worker import WorkerRejected, run_worker
from repro.obs.farm import ClockEstimator, clock_stamp

__all__ = [
    "BrokerTelemetry",
    "ClockEstimator",
    "MetricsHTTPServer",
    "clock_stamp",
    "fetch_broker_stats",
    "DEFAULT_LEASE_TIMEOUT_S",
    "DEFAULT_POLL_S",
    "FarmBroker",
    "Lease",
    "LeaseTable",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteExecutor",
    "RemoteFarmError",
    "ResultSpool",
    "WorkerRejected",
    "pack",
    "parse_address",
    "recv_frame",
    "resolve_runner",
    "run_worker",
    "runner_ref",
    "send_frame",
    "unpack",
]
