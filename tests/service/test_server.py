"""The HTTP job API, exercised through the real client over a socket."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import (
    JobManager,
    JobOutcome,
    JobSpec,
    ServiceClient,
    ServiceError,
    serve_in_thread,
)
from repro.store import ResultStore

WAIT = 10.0


class TraceWritingRunner:
    """Synchronous runner that leaves a plausible trace (and wcdb)."""

    def __init__(self, events=None, wcdb_payload=None, exit_code=0):
        self.events = events if events is not None else [
            {"type": "campaign_phase", "phase": "probe", "status": "start"},
            {"type": "measurement", "test": "t1"},
            {"type": "measurement", "test": "t2"},
            {"type": "campaign_phase", "phase": "probe", "status": "end"},
        ]
        self.wcdb_payload = wcdb_payload
        self.exit_code = exit_code

    def run(self, job):
        from pathlib import Path

        job_dir = Path(str(job["job_dir"]))
        with (job_dir / "trace.jsonl").open("w") as handle:
            for event in self.events:
                handle.write(json.dumps(event) + "\n")
        (job_dir / "job.log").write_text("campaign output\n")
        if self.wcdb_payload is not None:
            spec = JobSpec.from_payload(job["spec"])
            target = spec.wcdb_path(job_dir)
            if target is not None:
                target.write_text(json.dumps(self.wcdb_payload))
        return JobOutcome(exit_code=self.exit_code)


@pytest.fixture
def service(tmp_path):
    """(client, manager, base_url) against a live threaded server."""
    store = ResultStore(tmp_path / "store.db")
    manager = JobManager(
        store, tmp_path / "data", max_workers=1, runner=TraceWritingRunner()
    )
    manager.start()
    server, _ = serve_in_thread(manager)
    host, port = server.server_address[0], server.server_address[1]
    client = ServiceClient(f"http://{host}:{port}", timeout=WAIT)
    yield client, manager
    server.shutdown()
    server.server_close()
    manager.shutdown()


class TestLifecycleOverHTTP:
    def test_submit_poll_fetch(self, service):
        client, manager = service
        job = client.submit(JobSpec(command="random", params={"tests": 5}))
        job_id = str(job["job_id"])
        final = client.wait(job_id, timeout=WAIT, poll_s=0.02)
        assert final["state"] == "completed"

        status = client.job(job_id)
        assert status["job"]["spec"]["command"] == "random"
        assert status["progress"]["measurements"] == 2
        assert status["progress"]["events"] == 4

        page = client.events(job_id, offset=0, limit=2)
        assert len(page["events"]) == 2
        assert page["next_offset"] == 2
        rest = client.events(job_id, offset=page["next_offset"], limit=100)
        assert len(rest["events"]) == 2

        assert b"campaign output" in client.log(job_id)
        html = client.report(job_id).decode("utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert job_id in html

    def test_health_tallies_states(self, service):
        client, manager = service
        job = client.submit(JobSpec(command="hunt"))
        client.wait(str(job["job_id"]), timeout=WAIT, poll_s=0.02)
        health = client.health()
        assert health["status"] == "ok"
        assert health["max_workers"] == 1
        assert health["jobs"] == {"completed": 1}

    def test_jobs_listing(self, service):
        client, manager = service
        first = client.submit(JobSpec(command="hunt"))
        second = client.submit(JobSpec(command="sweep"))
        client.wait(str(second["job_id"]), timeout=WAIT, poll_s=0.02)
        listed = client.jobs()
        assert [j["job_id"] for j in listed] == [
            first["job_id"], second["job_id"],
        ]

    def test_wcdb_roundtrip_bytes(self, tmp_path):
        payload = {"records": [], "functional_failures": []}
        raw = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        store = ResultStore(tmp_path / "store.db")
        manager = JobManager(
            store, tmp_path / "data", max_workers=1,
            runner=TraceWritingRunner(wcdb_payload=payload),
        )
        manager.start()
        server, _ = serve_in_thread(manager)
        try:
            host, port = server.server_address[0], server.server_address[1]
            client = ServiceClient(f"http://{host}:{port}", timeout=WAIT)
            job = client.submit(JobSpec(command="hunt"))
            client.wait(str(job["job_id"]), timeout=WAIT, poll_s=0.02)
            served = client.wcdb(str(job["job_id"]))
            # the endpoint serves the artifact's bytes, not a re-encoding
            assert served == json.dumps(payload).encode("utf-8")
            assert served != raw.encode("utf-8")
            # completed jobs also fold the records into the store
            assert store.wc_record_count(scope=str(job["job_id"])) == 0
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown()


class TestValidationOverHTTP:
    def test_bad_spec_is_400(self, service):
        client, manager = service
        with pytest.raises(ServiceError) as err:
            client.submit(JobSpec(command="nope"))
        assert err.value.status == 400
        assert "unknown command" in str(err.value)

    def test_bad_choice_is_400_and_creates_no_job(self, service):
        # The CLI subcommand rejects the value, so the service does too —
        # at submit, not as a job that is queued and then fails.
        client, manager = service
        with pytest.raises(ServiceError) as err:
            client.submit(
                JobSpec(command="march", params={"algorithm": "nope"})
            )
        assert err.value.status == 400
        assert "invalid choice: 'nope'" in str(err.value)
        assert "march_c-" in str(err.value)
        assert manager.store.list_jobs() == []

    def test_non_json_body_is_400(self, service):
        client, manager = service
        request = urllib.request.Request(
            client.base_url + "/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=WAIT)
        assert err.value.code == 400

    def test_unknown_job_is_404(self, service):
        client, manager = service
        with pytest.raises(ServiceError) as err:
            client.job("job-9999")
        assert err.value.status == 404
        with pytest.raises(ServiceError):
            client.cancel("job-9999")
        with pytest.raises(ServiceError):
            client.report("job-9999")

    def test_unknown_routes_are_404(self, service):
        client, manager = service
        with pytest.raises(ServiceError) as err:
            client._request_json("/nope")
        assert err.value.status == 404
        job = client.submit(JobSpec(command="hunt"))
        client.wait(str(job["job_id"]), timeout=WAIT, poll_s=0.02)
        with pytest.raises(ServiceError) as err:
            client._request_json(f"/jobs/{job['job_id']}/frobnicate")
        assert err.value.status == 404

    def test_wcdb_404_for_non_exporting_command(self, service):
        client, manager = service
        job = client.submit(JobSpec(command="random", params={"tests": 3}))
        client.wait(str(job["job_id"]), timeout=WAIT, poll_s=0.02)
        with pytest.raises(ServiceError) as err:
            client.wcdb(str(job["job_id"]))
        assert err.value.status == 404
        assert "no worst-case export" in str(err.value)

    def test_unreachable_service_is_a_clean_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach service"):
            client.health()
