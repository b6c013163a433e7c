"""Chaos suite: the remote farm under worker death and wire mischief.

Every scenario ends with the same assertion — the merged results are
byte-identical to a serial run with the same seeds — because that is
the whole contract of the farm: scheduling chaos must never reach the
data.  Scenarios:

* a worker SIGKILLed mid-unit (socket death → immediate re-issue);
* a silent worker that leases a unit and never heartbeats (lease
  expiry → re-issue; its late result is suppressed);
* duplicate delivery of the same result frame;
* a full ``repro.cli lot`` campaign over subprocess workers with one
  worker killed mid-campaign, compared byte-for-byte (``cmp``-style)
  against the serial export.
"""

import json
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.farm.executor import SerialExecutor
from repro.farm.remote import (
    PROTOCOL_VERSION,
    FarmBroker,
    RemoteExecutor,
    pack,
    recv_frame,
    run_worker,
    send_frame,
)
from repro.farm.workunit import WorkUnit

from tests.chaos.chaos_runners import deterministic_runner

REPO_ROOT = Path(__file__).resolve().parents[2]


def _units(count, **payload):
    return [
        WorkUnit(
            key=f"unit/{i:03d}", kind="chaos_kind", payload=dict(payload),
            seed=7000 + i, index=i, cost_hint=float(count - i),
        )
        for i in range(count)
    ]


def _merged_bytes(results):
    """The deterministic projection of a result list, as bytes.

    Worker names, attempt counts and wall-clock times legitimately vary
    under chaos; the characterization data must not.
    """
    return json.dumps(
        [
            [r.unit_key, r.index, r.value, r.measurements, r.rtp]
            for r in results
        ],
        sort_keys=True,
    ).encode("utf-8")


def _serial_bytes(units):
    return _merged_bytes(SerialExecutor().run(units, deterministic_runner))


def _start_thread_worker(address, name, delay_s=0.0):
    def serve():
        if delay_s:
            time.sleep(delay_s)
        try:
            run_worker(address, name=name)
        except OSError:
            pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def _worker_env():
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    return env


def _spawn_worker_process(address, name):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "farm-worker",
            "--connect", f"{address[0]}:{address[1]}",
            "--name", name, "--max-idle", "60",
        ],
        cwd=str(REPO_ROOT), env=_worker_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


class _FakeWorker:
    """A hand-driven worker connection for injecting wire mischief."""

    def __init__(self, address, name="saboteur"):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.sock.settimeout(10.0)
        send_frame(self.sock, {
            "type": "hello", "role": "worker",
            "version": PROTOCOL_VERSION, "worker": name,
        })
        greeting = recv_frame(self.sock)
        assert greeting and greeting["type"] == "welcome"

    def pull(self):
        send_frame(self.sock, {"type": "request"})
        return recv_frame(self.sock)

    def pull_unit(self, timeout_s=5.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            frame = self.pull()
            if frame is not None and frame["type"] == "unit":
                return frame
            time.sleep(0.02)
        raise AssertionError("no unit leased within the window")

    def deliver(self, unit_frame):
        unit = None
        from repro.farm.remote import unpack

        unit = unpack(unit_frame["unit"])
        outcome = deterministic_runner(unit)
        send_frame(self.sock, {
            "type": "result",
            "key": unit_frame["key"],
            "attempt": unit_frame["attempt"],
            "ok": True,
            "elapsed_s": 0.01,
            "outcome": pack(outcome),
        })
        return recv_frame(self.sock)

    def close(self):
        self.sock.close()


class TestKilledWorker:
    def test_sigkill_mid_unit_reissues_and_merges_identically(self):
        units = _units(4, sleep_s=0.5)
        expected = _serial_bytes(units)
        with FarmBroker(port=0, poll_s=0.02, lease_timeout_s=10.0) as broker:
            doomed = _spawn_worker_process(broker.address, "doomed")
            # The healthy worker joins only after the kill, so the doomed
            # worker is guaranteed to be holding a unit when it dies.
            healthy = _start_thread_worker(
                broker.address, "healthy", delay_s=1.0
            )

            def assassinate():
                time.sleep(0.9)  # past startup + into the first sleep
                doomed.send_signal(signal.SIGKILL)

            killer = threading.Thread(target=assassinate, daemon=True)
            killer.start()
            results = RemoteExecutor(
                broker.address, max_attempts=3
            ).run(units, deterministic_runner)
            doomed.wait(timeout=10.0)
            assert _merged_bytes(results) == expected
            assert broker.stats_payload()["totals"]["reissues"] >= 1
            assert broker.stats_payload()["totals"]["units_completed"] == 4
        healthy.join(timeout=5.0)


class TestDroppedAndLateResults:
    def test_silent_lease_expires_and_late_result_is_suppressed(self):
        units = _units(3)
        expected = _serial_bytes(units)
        with FarmBroker(port=0, poll_s=0.02, lease_timeout_s=0.4) as broker:
            saboteur = _FakeWorker(broker.address)
            merged = {}

            def client():
                merged["results"] = RemoteExecutor(
                    broker.address, max_attempts=3, lease_timeout_s=0.4
                ).run(units, deterministic_runner)

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            # Steal a unit and go completely silent: no result, no
            # heartbeat.  The lease must expire and the unit re-issue.
            stolen = saboteur.pull_unit()
            deadline = time.monotonic() + 10.0
            while broker.stats_payload()["totals"]["reissues"] < 1:
                assert time.monotonic() < deadline, "lease never expired"
                time.sleep(0.02)
            healthy = _start_thread_worker(broker.address, "healthy")
            thread.join(timeout=15.0)
            assert not thread.is_alive()
            # The presumed-dead worker finally answers: first result
            # already won, so this delivery must be refused.
            ack = saboteur.deliver(stolen)
            assert ack is not None and ack["accepted"] is False
            saboteur.close()
            assert _merged_bytes(merged["results"]) == expected
        healthy.join(timeout=5.0)

    def test_worker_disconnect_drops_result_but_not_unit(self):
        units = _units(3)
        expected = _serial_bytes(units)
        with FarmBroker(port=0, poll_s=0.02, lease_timeout_s=10.0) as broker:
            saboteur = _FakeWorker(broker.address)
            merged = {}

            def client():
                merged["results"] = RemoteExecutor(
                    broker.address, max_attempts=3
                ).run(units, deterministic_runner)

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            saboteur.pull_unit()
            # Vanish with the unit: the result is simply never sent.
            saboteur.close()
            healthy = _start_thread_worker(broker.address, "healthy")
            thread.join(timeout=15.0)
            assert not thread.is_alive()
            assert _merged_bytes(merged["results"]) == expected
            assert broker.stats_payload()["totals"]["reissues"] >= 1
        healthy.join(timeout=5.0)


class TestDuplicateDelivery:
    def test_double_send_merges_once_byte_identically(self):
        units = _units(3)
        expected = _serial_bytes(units)
        with FarmBroker(port=0, poll_s=0.02, lease_timeout_s=10.0) as broker:
            saboteur = _FakeWorker(broker.address)
            merged = {}

            def client():
                merged["results"] = RemoteExecutor(
                    broker.address, max_attempts=3
                ).run(units, deterministic_runner)

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            stolen = saboteur.pull_unit()
            first = saboteur.deliver(stolen)
            assert first["accepted"] is True
            second = saboteur.deliver(stolen)
            assert second["accepted"] is False
            assert "duplicate" in second["reason"]
            healthy = _start_thread_worker(broker.address, "healthy")
            thread.join(timeout=15.0)
            assert not thread.is_alive()
            saboteur.close()
            assert _merged_bytes(merged["results"]) == expected
            assert broker.stats_payload()["totals"]["duplicates_dropped"] == 1
        healthy.join(timeout=5.0)


class TestChaoticLotCampaign:
    """The end-to-end gate: a real lot campaign over subprocess workers,
    one of them murdered mid-campaign, exports the same database bytes
    as the serial CLI run."""

    @staticmethod
    def _run_cli(argv, cwd):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=str(cwd), env=_worker_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stdout.decode()

    def test_lot_database_byte_identical_under_worker_murder(self, tmp_path):
        serial_db = tmp_path / "serial_wcdb.json"
        remote_db = tmp_path / "remote_wcdb.json"
        lot = ["lot", "--dies", "3", "--tests", "2"]
        self._run_cli(
            ["--seed", "7", *lot, "--database", str(serial_db)], tmp_path
        )
        with FarmBroker(port=0, poll_s=0.02, lease_timeout_s=10.0) as broker:
            victim = _spawn_worker_process(broker.address, "victim")
            survivor = _spawn_worker_process(broker.address, "survivor")
            killer = threading.Timer(
                1.0, lambda: victim.send_signal(signal.SIGKILL)
            )
            killer.start()
            try:
                host, port = broker.address
                self._run_cli(
                    [
                        "--seed", "7",
                        "--backend", "remote",
                        "--broker", f"{host}:{port}",
                        *lot, "--database", str(remote_db),
                    ],
                    tmp_path,
                )
            finally:
                killer.cancel()
                for proc in (victim, survivor):
                    proc.terminate()
        for proc in (victim, survivor):
            proc.wait(timeout=10.0)
        assert remote_db.read_bytes() == serial_db.read_bytes()


class TestFarmObservabilityEndToEnd:
    """The telemetry acceptance gate: chaos with the control plane
    observable.  Broker + two workers, one murdered mid-unit; the
    merged data must stay byte-identical to serial, the broker's
    ``/metrics`` must parse and show the re-issue, and the client's
    trace must render a timeline with a broker track and both worker
    tracks whose skew-corrected lease spans are non-negative."""

    @staticmethod
    def _doomed_holding_second_lease(broker):
        """True once worker ``doomed`` has completed a unit and is
        leasing another — the moment a SIGKILL lands mid-unit."""
        with broker._lock:
            campaign = broker._campaign
            if campaign is None:
                return False
            for state in broker._workers.values():
                if state.name == "doomed" and state.completed >= 1:
                    return any(
                        lease.worker == state.worker_id
                        for lease in campaign.leases.leases.values()
                    )
        return False

    def test_identity_metrics_and_timeline_under_worker_murder(
        self, tmp_path
    ):
        import urllib.request

        from repro import obs
        from repro.obs.exposition import find_sample, parse_exposition
        from repro.obs.report import read_trace
        from repro.obs.timeline import build_chrome_trace

        units = _units(6, sleep_s=0.5)
        expected = _serial_bytes(units)
        trace = tmp_path / "client.jsonl"
        obs.configure(trace_path=trace)
        try:
            with FarmBroker(
                port=0, poll_s=0.02, lease_timeout_s=10.0, metrics_port=0
            ) as broker:
                # Both workers are real processes: in-thread workers
                # would swap the client's OBS switchboard while
                # capturing units (see UnitCapture), garbling the very
                # trace this test asserts on.
                doomed = _spawn_worker_process(broker.address, "doomed")
                survivor = {}
                killed = threading.Event()

                def assassinate():
                    deadline = time.monotonic() + 20.0
                    while time.monotonic() < deadline:
                        if self._doomed_holding_second_lease(broker):
                            break
                        time.sleep(0.01)
                    doomed.send_signal(signal.SIGKILL)
                    killed.set()

                def healthy_serve():
                    # The survivor joins only after the murder, so the
                    # doomed worker is guaranteed both a completed unit
                    # (its timeline track) and a dying lease (the
                    # re-issue).
                    killed.wait(timeout=30.0)
                    survivor["proc"] = _spawn_worker_process(
                        broker.address, "healthy"
                    )

                killer = threading.Thread(target=assassinate, daemon=True)
                healthy = threading.Thread(target=healthy_serve, daemon=True)
                killer.start()
                healthy.start()
                try:
                    results = RemoteExecutor(
                        broker.address, max_attempts=3
                    ).run(units, deterministic_runner)
                finally:
                    healthy.join(timeout=30.0)
                    if survivor.get("proc") is not None:
                        survivor["proc"].terminate()
                doomed.wait(timeout=10.0)
                # 1) Scheduling chaos never reaches the data.
                assert _merged_bytes(results) == expected
                assert broker.stats_payload()["totals"]["reissues"] >= 1
                # 2) The embedded endpoint speaks valid exposition text
                # and counted the re-issue.
                mhost, mport = broker.metrics_address
                body = urllib.request.urlopen(
                    f"http://{mhost}:{mport}/metrics", timeout=5.0
                ).read().decode("utf-8")
            if survivor.get("proc") is not None:
                survivor["proc"].wait(timeout=10.0)
        finally:
            obs.reset()
        samples = parse_exposition(body)
        reissued = find_sample(samples, "repro_farm_lease_reissued_total", {})
        assert reissued is not None and reissued.value >= 1.0
        expired = find_sample(samples, "repro_farm_lease_expired_total", {})
        assert expired is not None and expired.value >= 1.0
        completed = find_sample(samples, "repro_farm_units_completed_total", {})
        assert completed is not None and completed.value == float(len(units))
        # 3) The shipped broker story renders as a timeline: broker
        # track plus one track per worker, lease spans never negative
        # after skew correction.
        records = read_trace(trace)
        types = {r["type"] for r in records}
        assert "broker_clock_sync" in types
        assert {"lease_issued", "lease_reissued", "worker_joined"} <= types
        events = build_chrome_trace(records)["traceEvents"]
        track_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "broker" in track_names
        assert "worker doomed" in track_names
        assert "worker healthy" in track_names
        lease_spans = [e for e in events if e.get("cat") == "lease"]
        assert lease_spans, "broker track lost its lease spans"
        assert all(e["dur"] >= 0.0 for e in lease_spans)
        assert all(e["ts"] >= 0.0 for e in lease_spans)
        assert any(
            e.get("cat") == "broker" and e["name"].startswith("reissue")
            for e in events
        )
