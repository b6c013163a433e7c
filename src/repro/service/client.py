"""Stdlib client for the characterization service.

Wraps the job API in typed calls (``urllib.request`` — the client has
the same zero-dependency footprint as the server) and powers the
``repro jobs submit|status|wait|fetch`` CLI family plus
``examples/service_submit.py``.

Two ways to follow a job:

* :meth:`ServiceClient.wait` polls ``GET /jobs/{id}`` with exponential
  backoff plus jitter (0.2 s doubling-ish to a 2 s cap) — kind to a
  busy server, fast on short jobs, and immune to the thundering-herd
  sync a fixed interval invites;
* :meth:`ServiceClient.wait_streaming` consumes the job's
  ``GET /jobs/{id}/stream`` Server-Sent Events live, reconnecting with
  ``Last-Event-ID`` resume on transient drops — no polling at all.

Every request (streaming included) carries an explicit socket timeout,
so a hung server surfaces as a :class:`ServiceError` instead of wedging
the client forever.
"""

from __future__ import annotations

import json
import random
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.service.spec import JobSpec

#: Job states that end the :meth:`ServiceClient.wait` poll loop.
TERMINAL_STATES = ("completed", "failed", "cancelled")

#: Backoff schedule of :meth:`ServiceClient.wait`: start, growth, cap.
POLL_INITIAL_S = 0.2
POLL_GROWTH = 1.7
POLL_CAP_S = 2.0
#: Jitter band applied to every delay (fraction of the nominal delay).
POLL_JITTER = 0.2

#: Socket timeout while *reading* an SSE stream.  Longer than the
#: server's heartbeat period, so a healthy idle stream never trips it.
STREAM_READ_TIMEOUT_S = 30.0
#: Reconnect attempts after transient stream drops before giving up.
STREAM_RECONNECTS = 5


class ServiceError(RuntimeError):
    """An API call failed; carries the HTTP status when there was one."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """One characterization service endpoint."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        # The read timeout every urlopen gets; never None — an unset
        # timeout means "hang forever on a wedged server".
        self.timeout = 30.0 if timeout is None else float(timeout)

    # -- raw calls -------------------------------------------------------------

    def _request(
        self,
        path: str,
        method: str = "GET",
        payload: Optional[Dict[str, object]] = None,
    ) -> bytes:
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = Request(url, data=data, headers=headers, method=method)
        try:
            with urlopen(request, timeout=self.timeout) as response:
                return response.read()
        except HTTPError as exc:
            detail = ""
            try:
                body = json.loads(exc.read().decode("utf-8"))
                detail = str(body.get("error", ""))
            except Exception:  # noqa: BLE001 — error body is best-effort
                pass
            message = detail or f"{exc.code} {exc.reason}"
            raise ServiceError(message, status=exc.code) from exc
        except URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}"
            ) from exc

    def _request_json(
        self,
        path: str,
        method: str = "GET",
        payload: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        return json.loads(self._request(path, method, payload))

    def _sleep(self, seconds: float) -> None:
        """Seam for tests: the only place the poll loop actually sleeps."""
        time.sleep(seconds)

    # -- API -------------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        return self._request_json("/healthz")

    def ready(self) -> Dict[str, object]:
        """``GET /readyz`` (raises :class:`ServiceError` on 503)."""
        return self._request_json("/readyz")

    def metrics(self) -> str:
        """The raw ``/metrics`` Prometheus text exposition."""
        return self._request("/metrics").decode("utf-8")

    def submit(self, spec: JobSpec) -> Dict[str, object]:
        """Submit a campaign; returns the job row (state ``queued``)."""
        body = self._request_json("/jobs", "POST", spec.to_payload())
        return body["job"]

    def jobs(self) -> List[Dict[str, object]]:
        return list(self._request_json("/jobs")["jobs"])

    def job(self, job_id: str) -> Dict[str, object]:
        """Job row + live progress (keys ``job`` and ``progress``)."""
        return self._request_json(f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request_json(f"/jobs/{job_id}/cancel", "POST", {})

    def events(
        self, job_id: str, offset: int = 0, limit: int = 500
    ) -> Dict[str, object]:
        """One page of the job's trace events (see ``read_numbered_events``)."""
        return self._request_json(
            f"/jobs/{job_id}/events?offset={int(offset)}&limit={int(limit)}"
        )

    def report(self, job_id: str) -> bytes:
        """The job's self-contained HTML report."""
        return self._request(f"/jobs/{job_id}/report")

    def wcdb(self, job_id: str) -> bytes:
        """The worst-case database export, byte-exact."""
        return self._request(f"/jobs/{job_id}/wcdb")

    def log(self, job_id: str) -> bytes:
        """The job's captured CLI output."""
        return self._request(f"/jobs/{job_id}/log")

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_s: float = POLL_INITIAL_S,
        on_progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; returns the row.

        The poll interval starts at ``poll_s`` and grows by
        :data:`POLL_GROWTH` per round up to :data:`POLL_CAP_S`, with
        ±:data:`POLL_JITTER` uniform jitter on every delay — short jobs
        resolve fast, long jobs cost the server one request every ~2 s,
        and many waiting clients never synchronize into request bursts.

        ``on_progress`` (when given) receives each polled
        ``{"job": ..., "progress": ...}`` snapshot — the example script
        uses it to draw a progress line from the event-derived numbers.

        Raises
        ------
        ServiceError
            When ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.time() + timeout
        delay = max(0.01, float(poll_s))
        while True:
            status = self.job(job_id)
            if on_progress is not None:
                on_progress(status)
            if status["job"]["state"] in TERMINAL_STATES:
                return status["job"]
            if deadline is not None and time.time() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for {job_id} "
                    f"(state: {status['job']['state']})"
                )
            jittered = delay * random.uniform(
                1.0 - POLL_JITTER, 1.0 + POLL_JITTER
            )
            if deadline is not None:
                jittered = min(jittered, max(0.0, deadline - time.time()))
            self._sleep(jittered)
            delay = min(POLL_CAP_S, delay * POLL_GROWTH)

    # -- SSE streaming ---------------------------------------------------------

    def stream(
        self,
        job_id: str,
        last_event_id: Optional[int] = None,
        read_timeout: float = STREAM_READ_TIMEOUT_S,
    ) -> Iterator[Tuple[str, int, Dict[str, object]]]:
        """One ``GET /jobs/{id}/stream`` connection, parsed frame by frame.

        Yields ``(event, id, data)`` triples — ``event`` is ``trace``,
        ``progress`` or ``end``; ``id`` is the trace line number (the
        resume cursor); ``data`` the decoded JSON payload.  Returns when
        the server closes the stream (after ``end``) — a *transient*
        drop mid-stream also just ends the iterator, which is why
        :meth:`wait_streaming` wraps this with reconnects.
        """
        url = f"{self.base_url}/jobs/{job_id}/stream"
        headers = {"Accept": "text/event-stream"}
        if last_event_id is not None:
            headers["Last-Event-ID"] = str(int(last_event_id))
        request = Request(url, headers=headers, method="GET")
        try:
            response = urlopen(request, timeout=read_timeout)
        except HTTPError as exc:
            detail = ""
            try:
                body = json.loads(exc.read().decode("utf-8"))
                detail = str(body.get("error", ""))
            except Exception:  # noqa: BLE001
                pass
            raise ServiceError(
                detail or f"{exc.code} {exc.reason}", status=exc.code
            ) from exc
        except URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}"
            ) from exc
        with response:
            event_name = "message"
            event_id = -1
            data_lines: List[str] = []
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
                if not line:  # frame boundary
                    if data_lines:
                        try:
                            data = json.loads("\n".join(data_lines))
                        except json.JSONDecodeError:
                            data = {}
                        yield event_name, event_id, data
                    event_name = "message"
                    data_lines = []
                    continue
                if line.startswith(":"):
                    continue  # heartbeat comment
                field, _, value = line.partition(":")
                value = value.lstrip(" ")
                if field == "event":
                    event_name = value
                elif field == "id":
                    try:
                        event_id = int(value)
                    except ValueError:
                        pass
                elif field == "data":
                    data_lines.append(value)

    def wait_streaming(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        on_progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        """Follow the job's SSE stream to completion; returns the row.

        Reconnects up to :data:`STREAM_RECONNECTS` times on transient
        drops, resuming from the last seen event id (no replay, no
        gaps).  ``on_event`` receives every trace record; ``on_progress``
        every progress frame.

        Raises
        ------
        ServiceError
            On timeout, or when the stream keeps dropping.
        """
        deadline = None if timeout is None else time.time() + timeout
        cursor: Optional[int] = None
        drops = 0
        while True:
            try:
                for event, event_id, data in self.stream(
                    job_id, last_event_id=cursor
                ):
                    if event_id >= 0:
                        cursor = event_id
                    if event == "trace" and on_event is not None:
                        on_event(data)
                    elif event == "progress" and on_progress is not None:
                        on_progress(data)
                    elif event == "end":
                        job = data.get("job")
                        if isinstance(job, dict):
                            return job
                        return self.job(job_id)["job"]  # defensive
                    if deadline is not None and time.time() >= deadline:
                        raise ServiceError(
                            f"timed out after {timeout}s streaming {job_id}"
                        )
                drops += 1  # server closed without an end frame
            except ServiceError as exc:
                if exc.status is not None:
                    raise  # HTTP error (404, ...) — not transient
                drops += 1
            except OSError:
                drops += 1  # socket timeout / reset mid-stream
            if drops > STREAM_RECONNECTS:
                raise ServiceError(
                    f"stream for {job_id} dropped {drops} times; giving up"
                )
            if deadline is not None and time.time() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout}s streaming {job_id}"
                )
            self._sleep(min(POLL_CAP_S, POLL_INITIAL_S * (2 ** drops)))
