"""Characterization-as-a-service: job API over the campaign stack.

The CLI runs one campaign per invocation; this package runs campaigns
as *jobs* behind a long-running HTTP/JSON service (ROADMAP item 1):

* :mod:`repro.service.spec` — :class:`JobSpec`: the whitelisted
  campaign submission (command + parameters + seed + workers), and its
  translation to the exact ``repro.cli`` argv;
* :mod:`repro.service.manager` — :class:`JobManager`: FIFO queue,
  bounded worker pool (``max_workers`` campaigns at once), cancel
  semantics, store persistence, restart recovery, and the default
  :class:`SubprocessJobRunner` (one CLI subprocess per job, so the
  service's results are byte-for-byte the direct CLI's);
* :mod:`repro.service.progress` — live progress rolled up from the
  job's flushed-per-event telemetry trace;
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer`` API
  (submit, status, events, SSE stream, report, wcdb, cancel) plus the
  operational endpoints (``/metrics`` Prometheus exposition,
  ``/readyz`` back-pressure, ``/dash``), request instrumentation,
  ``X-Request-Id`` propagation and the structured JSON access log;
* :mod:`repro.service.dashboard` — the ``/dash`` HTML operations view
  (zero dependencies, same SVG chart kit as the run report);
* :mod:`repro.service.client` — the urllib client behind the
  ``repro jobs`` CLI family, with backoff polling and SSE streaming.

Jobs and results persist in :class:`repro.store.ResultStore`, so a
restarted server lists and serves completed work and fails whatever the
dead process left in flight.  See ``docs/service.md``.
"""

from repro.service.client import TERMINAL_STATES, ServiceClient, ServiceError
from repro.service.dashboard import build_dashboard
from repro.service.manager import (
    JobManager,
    JobOutcome,
    SubprocessJobRunner,
)
from repro.service.progress import (
    job_progress,
    read_numbered_events,
)
from repro.service.server import (
    DEFAULT_READY_QUEUE_LIMIT,
    CharacterizationServer,
    create_server,
    route_template,
    serve_in_thread,
)
from repro.service.spec import (
    JOB_COMMANDS,
    JobSpec,
    SpecError,
)

__all__ = [
    "CharacterizationServer",
    "DEFAULT_READY_QUEUE_LIMIT",
    "JOB_COMMANDS",
    "JobManager",
    "JobOutcome",
    "JobSpec",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "SubprocessJobRunner",
    "TERMINAL_STATES",
    "build_dashboard",
    "create_server",
    "job_progress",
    "read_numbered_events",
    "route_template",
    "serve_in_thread",
]
