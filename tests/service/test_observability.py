"""The observability surface of the service, over a real socket.

/metrics exposition, /readyz back-pressure, the structured access log,
the /dash dashboard's XML gate, the SSE stream (fresh and resumed), the
route templating that bounds metric cardinality, and the client's
backoff schedule.
"""

import json
import urllib.error
import urllib.request
import xml.etree.ElementTree as ET

import pytest

from repro.obs.exposition import find_sample, parse_exposition
from repro.service import (
    JobManager,
    JobSpec,
    ServiceClient,
    ServiceError,
    route_template,
    serve_in_thread,
)
from repro.store import ResultStore
from tests.service.test_server import TraceWritingRunner

WAIT = 10.0


@pytest.fixture
def service(tmp_path):
    """(client, manager, access-log path) with the access log enabled."""
    access_log = tmp_path / "access.jsonl"
    store = ResultStore(tmp_path / "store.db")
    manager = JobManager(
        store, tmp_path / "data", max_workers=1, runner=TraceWritingRunner()
    )
    manager.start()
    server, _ = serve_in_thread(manager, access_log=access_log)
    host, port = server.server_address[0], server.server_address[1]
    client = ServiceClient(f"http://{host}:{port}", timeout=WAIT)
    yield client, manager, access_log
    server.shutdown()
    server.server_close()
    manager.shutdown()


def _run_one_job(client):
    job = client.submit(JobSpec(command="hunt"))
    job_id = str(job["job_id"])
    client.wait(job_id, timeout=WAIT, poll_s=0.02)
    return job_id


def _access_records(access_log, predicate, deadline_s=WAIT):
    """Access-log records matching ``predicate``, polling briefly.

    The server appends the access line *after* sending the response (the
    duration covers the whole request), so the matching line can land a
    beat after the client has read the body.
    """
    import time

    deadline = time.time() + deadline_s
    while True:
        records = [
            json.loads(line)
            for line in access_log.read_text().splitlines()
            if line.strip()
        ]
        matched = [r for r in records if predicate(r)]
        if matched or time.time() >= deadline:
            return matched, records
        time.sleep(0.02)


class TestMetricsEndpoint:
    def test_exposition_parses_and_counts_requests(self, service):
        import time

        client, manager, _ = service
        job_id = _run_one_job(client)
        # request counters are recorded after the response is sent, so
        # scrape until the submit's and the status polls' counters landed
        deadline = time.time() + WAIT
        while True:
            samples = parse_exposition(client.metrics())
            total = find_sample(samples, "repro_http_requests_total", {})
            submit_landed = find_sample(
                samples, "repro_http_requests_total", {"label": "POST /jobs"}
            )
            if (
                submit_landed is not None
                and total is not None
                and total.value >= 2
            ) or time.time() >= deadline:
                break
            time.sleep(0.02)

        requests = find_sample(samples, "repro_http_requests_total", {})
        assert requests is not None and requests.value >= 2
        submit = find_sample(
            samples, "repro_http_requests_total", {"label": "POST /jobs"}
        )
        assert submit is not None and submit.value == 1
        created = find_sample(
            samples, "repro_http_responses_total", {"label": "201"}
        )
        assert created is not None and created.value == 1

        latency_count = find_sample(
            samples, "repro_http_request_seconds_count", {}
        )
        assert latency_count is not None and latency_count.value >= 2
        assert find_sample(samples, "repro_jobs_workers_max", {}).value == 1
        assert find_sample(samples, "repro_jobs_queue_depth", {}).value == 0
        assert (
            find_sample(samples, "repro_jobs_state_completed", {}).value == 1
        )
        assert find_sample(samples, "repro_jobs_failure_rate", {}).value == 0
        assert find_sample(samples, "repro_service_uptime_seconds", {}) \
            .value >= 0
        # the scrape itself is in flight while the gauge is read
        assert find_sample(samples, "repro_http_in_flight", {}).value >= 1

    def test_content_type_is_prometheus_text(self, service):
        client, manager, _ = service
        with urllib.request.urlopen(
            client.base_url + "/metrics", timeout=WAIT
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )


class TestReadyz:
    def test_ready_when_queue_is_shallow(self, service):
        client, manager, _ = service
        body = client.ready()
        assert body["status"] == "ok"
        assert body["queue_limit"] > 0

    def test_503_when_queue_saturated(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        manager = JobManager(
            store,
            tmp_path / "data",
            max_workers=1,
            runner=TraceWritingRunner(),
        )
        # not started: submissions stay queued forever
        server, _ = serve_in_thread(manager, ready_queue_limit=1)
        try:
            host, port = server.server_address[0], server.server_address[1]
            client = ServiceClient(f"http://{host}:{port}", timeout=WAIT)
            assert client.ready()["status"] == "ok"
            client.submit(JobSpec(command="hunt"))
            assert client.ready()["status"] == "ok"  # at the limit
            client.submit(JobSpec(command="hunt"))
            with pytest.raises(ServiceError) as err:
                client.ready()
            assert err.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown()


class TestAccessLog:
    def test_one_json_line_per_request_with_request_id(self, service):
        client, manager, access_log = service
        job_id = _run_one_job(client)
        client.metrics()
        _, lines = _access_records(
            access_log, lambda r: r["route"] == "/metrics"
        )
        assert lines, "access log is empty"
        for record in lines:
            assert set(record) >= {
                "ts", "request_id", "method", "path", "route", "status",
                "duration_ms", "job_id", "client",
            }
            assert record["request_id"]
            assert record["duration_ms"] >= 0
        submits = [r for r in lines if r["route"] == "/jobs"
                   and r["method"] == "POST"]
        assert len(submits) == 1
        assert submits[0]["status"] == 201
        assert submits[0]["job_id"] == job_id

    def test_client_supplied_request_id_is_honoured_and_echoed(
        self, service
    ):
        client, manager, access_log = service
        request = urllib.request.Request(
            client.base_url + "/healthz",
            headers={"X-Request-Id": "req-custom-42"},
        )
        with urllib.request.urlopen(request, timeout=WAIT) as response:
            assert response.headers["X-Request-Id"] == "req-custom-42"
        matched, lines = _access_records(
            access_log, lambda r: r["request_id"] == "req-custom-42"
        )
        assert matched, lines

    def test_request_id_lands_on_the_job_row(self, service):
        client, manager, access_log = service
        job_id = _run_one_job(client)
        row = manager.store.get_job(job_id)
        submits, _ = _access_records(
            access_log,
            lambda r: r["method"] == "POST" and r["job_id"] == job_id,
        )
        assert len(submits) == 1
        assert row["request_id"] == submits[0]["request_id"]


class TestDashboard:
    def test_dash_is_xml_wellformed_html(self, service):
        client, manager, _ = service
        _run_one_job(client)
        with urllib.request.urlopen(
            client.base_url + "/dash", timeout=WAIT
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/html")
            html = response.read().decode("utf-8")
        assert html.startswith("<!DOCTYPE html>")
        ET.fromstring(html)  # the CI well-formedness gate
        assert "Service overview" in html
        assert "Job throughput" in html


class TestStreaming:
    def test_fresh_stream_replays_trace_and_ends(self, service):
        client, manager, _ = service
        job_id = _run_one_job(client)
        frames = list(client.stream(job_id))
        names = [name for name, _, _ in frames]
        assert names[-1] == "end"
        traces = [data for name, _, data in frames if name == "trace"]
        assert [t["type"] for t in traces] == [
            "campaign_phase", "measurement", "measurement", "campaign_phase",
        ]
        # ids are 1-based trace line numbers
        trace_ids = [fid for name, fid, _ in frames if name == "trace"]
        assert trace_ids == [1, 2, 3, 4]
        progresses = [d for name, _, d in frames if name == "progress"]
        assert progresses[-1]["state"] == "completed"
        assert progresses[-1]["measurements"] == 2
        end = frames[-1][2]
        assert end["job"]["state"] == "completed"

    def test_last_event_id_resumes_without_replay(self, service):
        client, manager, _ = service
        job_id = _run_one_job(client)
        frames = list(client.stream(job_id, last_event_id=2))
        trace_ids = [fid for name, fid, _ in frames if name == "trace"]
        assert trace_ids == [3, 4]

    def test_resumed_stream_progress_covers_the_whole_trace(self, service):
        client, manager, _ = service
        job_id = _run_one_job(client)
        frames = list(client.stream(job_id, last_event_id=3))
        first = next(data for name, _, data in frames if name == "progress")
        expected = dict(client.job(job_id)["progress"])
        expected["state"] = "completed"
        assert first == expected
        assert first["measurements"] == 2

    def test_query_param_resume_matches_header(self, service):
        client, manager, _ = service
        job_id = _run_one_job(client)
        url = f"{client.base_url}/jobs/{job_id}/stream?last_event_id=3"
        with urllib.request.urlopen(url, timeout=WAIT) as response:
            assert response.headers["Content-Type"].startswith(
                "text/event-stream"
            )
            body = response.read().decode("utf-8")
        assert body.count("event: trace") == 1
        assert "id: 4" in body

    def test_stream_of_unknown_job_is_404(self, service):
        client, manager, _ = service
        with pytest.raises(ServiceError) as err:
            list(client.stream("job-9999"))
        assert err.value.status == 404

    def test_wait_streaming_returns_the_final_row(self, service):
        client, manager, _ = service
        job = client.submit(JobSpec(command="hunt"))
        job_id = str(job["job_id"])
        events, progresses = [], []
        final = client.wait_streaming(
            job_id,
            timeout=WAIT,
            on_event=events.append,
            on_progress=progresses.append,
        )
        assert final["state"] == "completed"
        assert [e["type"] for e in events] == [
            "campaign_phase", "measurement", "measurement", "campaign_phase",
        ]
        assert progresses and progresses[-1]["state"] == "completed"


class TestRouteTemplate:
    def test_known_routes_are_bounded(self):
        assert route_template([]) == "/"
        assert route_template(["metrics"]) == "/metrics"
        assert route_template(["jobs"]) == "/jobs"
        assert route_template(["jobs", "job-0001"]) == "/jobs/{id}"
        assert (
            route_template(["jobs", "job-0001", "stream"])
            == "/jobs/{id}/stream"
        )
        assert route_template(["jobs", "job-0001", "wcdb"]) \
            == "/jobs/{id}/wcdb"

    def test_unknown_routes_collapse_to_one_label(self):
        assert route_template(["nope"]) == "(unknown)"
        assert route_template(["jobs", "x", "frobnicate"]) == "(unknown)"
        assert route_template(["a", "b", "c", "d"]) == "(unknown)"


class TestClientBackoff:
    def test_poll_delays_grow_with_jitter_to_the_cap(self):
        client = ServiceClient("http://unused.invalid")
        sleeps = []
        client._sleep = sleeps.append

        states = iter(
            ["queued"] * 8 + ["running"] * 4 + ["completed"]
        )
        client.job = lambda job_id: {
            "job": {"state": next(states)}, "progress": {}
        }
        final = client.wait("job-x", timeout=None, poll_s=0.2)
        assert final["state"] == "completed"
        assert len(sleeps) == 12
        # each delay within the jitter band of the nominal schedule
        nominal = 0.2
        for actual in sleeps:
            assert nominal * 0.8 - 1e-9 <= actual <= nominal * 1.2 + 1e-9
            nominal = min(2.0, nominal * 1.7)
        # the schedule reached (and then held) the cap
        assert sleeps[-1] >= 2.0 * 0.8

    def test_timeout_clamps_the_last_delay(self):
        import time as time_mod

        client = ServiceClient("http://unused.invalid")
        sleeps = []
        client._sleep = sleeps.append
        client.job = lambda job_id: {
            "job": {"state": "running"}, "progress": {}
        }
        start = time_mod.time()
        with pytest.raises(ServiceError, match="timed out"):
            client.wait("job-x", timeout=0.0, poll_s=5.0)
        assert time_mod.time() - start < 1.0
        assert sleeps == []  # deadline hit before the first sleep


class TestBrokerGaugeProxy:
    """``serve --broker`` folds farm-broker gauges into ``/metrics``."""

    def _scrape(self, tmp_path, broker_address):
        store = ResultStore(tmp_path / "store.db")
        manager = JobManager(
            store, tmp_path / "data", max_workers=1,
            runner=TraceWritingRunner(), broker=broker_address,
        )
        manager.start()
        server, _ = serve_in_thread(manager)
        host, port = server.server_address[0], server.server_address[1]
        try:
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=WAIT
            ) as response:
                body = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown()
        return parse_exposition(body)

    def test_no_broker_configured_means_no_farm_series(self, tmp_path):
        samples = self._scrape(tmp_path, None)
        assert find_sample(samples, "repro_farm_broker_up", {}) is None

    def test_unreachable_broker_degrades_to_zero(self, tmp_path):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()  # nothing listens here any more
        samples = self._scrape(tmp_path, f"{host}:{port}")
        up = find_sample(samples, "repro_farm_broker_up", {})
        assert up is not None and up.value == 0.0

    def test_live_broker_gauges_ride_the_service_scrape(self, tmp_path):
        from repro.farm.remote import FarmBroker

        with FarmBroker(port=0, poll_s=0.05) as broker:
            host, port = broker.address
            samples = self._scrape(tmp_path, f"{host}:{port}")
        up = find_sample(samples, "repro_farm_broker_up", {})
        assert up is not None and up.value == 1.0
        for name in (
            "repro_farm_queue_depth",
            "repro_farm_leases_active",
            "repro_farm_workers_connected",
            "repro_farm_units_completed",
            "repro_farm_uptime_seconds",
        ):
            sample = find_sample(samples, name, {})
            assert sample is not None, name
            assert sample.value >= 0.0
