"""Socket-level broker tests: hand-rolled client and worker frames.

These talk the wire protocol directly (no RemoteExecutor, no
run_worker) so each broker decision — version rejection, stale
campaign pins, duplicate suppression, retry exhaustion, spool
restore, the order of client frames — is observable frame by frame.
"""

import socket
import sys
import threading
import time

import pytest

import repro.farm.remote.broker as broker_module
from repro.farm.remote import (
    PROTOCOL_VERSION,
    FarmBroker,
    pack,
    recv_frame,
    send_frame,
)


@pytest.fixture
def broker():
    with FarmBroker(port=0, lease_timeout_s=30.0, poll_s=0.05) as live:
        yield live


def _connect(address):
    sock = socket.create_connection(address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _hello(sock, role, version=PROTOCOL_VERSION, **extra):
    send_frame(sock, {"type": "hello", "role": role, "version": version,
                      **extra})
    return recv_frame(sock)


def _submit(sock, campaign, keys, max_attempts=2):
    send_frame(sock, {
        "type": "submit",
        "campaign": campaign,
        "units": [{"key": key, "unit": pack({"key": key})} for key in keys],
        "runner": "tests.farm.runners:echo_runner",
        "config": None,
        "max_attempts": max_attempts,
        "lease_s": 30.0,
    })
    return recv_frame(sock)


def _pull(worker):
    send_frame(worker, {"type": "request"})
    return recv_frame(worker)


def _deliver(worker, key, attempt, ok=True, error=None):
    frame = {"type": "result", "key": key, "attempt": attempt, "ok": ok,
             "elapsed_s": 0.01}
    if ok:
        frame["outcome"] = pack({"key": key})
    else:
        frame["error"] = error or "boom"
    send_frame(worker, frame)
    return recv_frame(worker)


def _drain_until(sock, wanted, limit=50):
    frames = []
    for _ in range(limit):
        frame = recv_frame(sock)
        assert frame is not None, f"EOF before a {wanted!r} frame"
        frames.append(frame)
        if frame["type"] == wanted:
            return frames
    raise AssertionError(f"no {wanted!r} frame within {limit} frames")


class TestHandshake:
    def test_version_mismatch_rejected(self, broker):
        sock = _connect(broker.address)
        try:
            reply = _hello(sock, "worker", version=PROTOCOL_VERSION + 1)
            assert reply["type"] == "reject"
            assert "version" in reply["reason"]
        finally:
            sock.close()
        assert broker.stats_payload()["totals"]["workers_seen"] == 0

    def test_unknown_role_rejected(self, broker):
        sock = _connect(broker.address)
        try:
            reply = _hello(sock, "auditor")
            assert reply["type"] == "reject"
            assert "role" in reply["reason"]
        finally:
            sock.close()

    def test_worker_welcomed_and_idles_without_campaign(self, broker):
        sock = _connect(broker.address)
        try:
            assert _hello(sock, "worker", worker="w1")["type"] == "welcome"
            idle = _pull(sock)
            assert idle["type"] == "idle"
            assert idle["poll_s"] == broker.poll_s
        finally:
            sock.close()

    def test_second_client_rejected_while_campaign_active(self, broker):
        first = _connect(broker.address)
        second = _connect(broker.address)
        try:
            assert _hello(first, "client")["type"] == "welcome"
            assert _submit(first, "camp-a", ["u/1"])["type"] == "accepted"
            reply = _hello(second, "client")
            assert reply["type"] == "reject"
            assert "one campaign at a time" in reply["reason"]
        finally:
            first.close()
            second.close()

    def test_stale_campaign_pin_refused(self, broker):
        client = _connect(broker.address)
        pinned = _connect(broker.address)
        matching = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp-a", ["u/1"])["type"] == "accepted"
            # A worker pinned to a finished/previous campaign must not
            # pull camp-a units it was never meant for.
            reply = _hello(pinned, "worker", worker="w1", campaign="camp-b")
            assert reply["type"] == "reject"
            assert "stale campaign" in reply["reason"]
            # The same pin against the matching campaign is welcomed.
            reply = _hello(matching, "worker", worker="w2", campaign="camp-a")
            assert reply["type"] == "welcome"
        finally:
            client.close()
            pinned.close()
            matching.close()
        assert broker.stats_payload()["totals"]["workers_rejected"] == 1


class TestCampaignFlow:
    def test_dispatch_results_and_completion_frames(self, broker):
        client = _connect(broker.address)
        worker = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            accepted = _submit(client, "camp", ["u/1", "u/2"])
            assert accepted["type"] == "accepted"
            assert accepted["pending"] == 2
            assert accepted["restored"] == 0

            assert _hello(worker, "worker", worker="w1")["type"] == "welcome"
            for expected_key in ("u/1", "u/2"):
                unit = _pull(worker)
                assert unit["type"] == "unit"
                assert unit["key"] == expected_key
                assert unit["attempt"] == 1
                assert unit["runner"] == "tests.farm.runners:echo_runner"
                ack = _deliver(worker, unit["key"], unit["attempt"])
                assert ack == {"type": "ack", "accepted": True}
            assert _pull(worker)["type"] == "idle"

            frames = _drain_until(client, "campaign_done")
            kinds = [frame["type"] for frame in frames]
            assert kinds.count("leased") == 2
            assert kinds.count("done") == 2
            final = frames[-1]
            assert final["completed"] == 2
            assert final["failed"] == []
            assert final["reissues"] == 0
        finally:
            client.close()
            worker.close()
        assert broker.stats_payload()["totals"]["units_completed"] == 2

    def test_duplicate_delivery_suppressed(self, broker):
        client = _connect(broker.address)
        worker = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            reply = _submit(client, "camp", ["u/1", "u/2"])
            assert reply["type"] == "accepted"
            assert _hello(worker, "worker", worker="w1")["type"] == "welcome"
            unit = _pull(worker)
            assert _deliver(worker, unit["key"], 1)["accepted"] is True
            # Redeliver the first unit before the campaign finishes.
            again = _deliver(worker, unit["key"], 1)
            assert again["accepted"] is False
            assert "duplicate" in again["reason"]
            unit = _pull(worker)
            assert _deliver(worker, unit["key"], 1)["accepted"] is True
            frames = _drain_until(client, "campaign_done")
            assert [f["type"] for f in frames].count("done") == 2
            assert frames[-1]["duplicates_dropped"] == 1
        finally:
            client.close()
            worker.close()
        assert broker.stats_payload()["totals"]["duplicates_dropped"] == 1

    def test_failed_attempt_retries_then_exhausts(self, broker):
        client = _connect(broker.address)
        worker = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            reply = _submit(client, "camp", ["u/1"], max_attempts=2)
            assert reply["type"] == "accepted"
            assert _hello(worker, "worker", worker="w1")["type"] == "welcome"

            unit = _pull(worker)
            assert unit["attempt"] == 1
            assert _deliver(worker, "u/1", 1, ok=False,
                            error="first crash")["accepted"] is True
            retry = _pull(worker)
            assert retry["type"] == "unit"
            assert retry["attempt"] == 2
            assert _deliver(worker, "u/1", 2, ok=False,
                            error="second crash")["accepted"] is True
            assert _pull(worker)["type"] == "idle"

            frames = _drain_until(client, "campaign_done")
            kinds = [frame["type"] for frame in frames]
            assert "retry" in kinds
            assert "unit_failed" in kinds
            failed = next(f for f in frames if f["type"] == "unit_failed")
            assert failed["key"] == "u/1"
            assert "second crash" in failed["reason"]
            assert frames[-1]["failed"] == ["u/1"]
        finally:
            client.close()
            worker.close()
        assert broker.stats_payload()["totals"]["units_failed"] == 1
        assert broker.stats_payload()["totals"]["reissues"] == 1

    def test_stale_heartbeat_counted_in_totals(self, broker):
        client = _connect(broker.address)
        worker = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp", ["u/1", "u/2"])["type"] == \
                "accepted"
            assert _hello(worker, "worker", worker="w1")["type"] == "welcome"
            unit = _pull(worker)
            assert _deliver(worker, unit["key"], unit["attempt"])["accepted"]
            # A beat for the completed attempt is stale; one for a live
            # lease is fresh.  Heartbeats get no reply, so poll.
            live = _pull(worker)
            for key, attempt in ((unit["key"], 1), (live["key"], 1)):
                send_frame(worker, {"type": "heartbeat", "key": key,
                                    "attempt": attempt})
            deadline = time.monotonic() + 5.0
            counters = broker.telemetry.metrics.counters
            while "farm.heartbeats" not in counters:
                assert time.monotonic() < deadline, "heartbeat never counted"
                time.sleep(0.01)
            assert broker.stats_payload()["totals"]["stale_heartbeats"] == 1
        finally:
            client.close()
            worker.close()

    def test_worker_disconnect_requeues_leased_unit(self, broker):
        client = _connect(broker.address)
        first = _connect(broker.address)
        second = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp", ["u/1"])["type"] == "accepted"
            assert _hello(first, "worker", worker="w1")["type"] == "welcome"
            unit = _pull(first)
            assert unit["type"] == "unit"
            # The worker vanishes with the unit leased: its lease is
            # released on disconnect and the unit re-issued.
            first.close()
            assert _hello(second, "worker", worker="w2")["type"] == "welcome"
            reissued = None
            for _ in range(100):
                frame = _pull(second)
                if frame["type"] == "unit":
                    reissued = frame
                    break
            assert reissued is not None, "unit never re-issued"
            assert reissued["key"] == "u/1"
            assert reissued["attempt"] == 2
            assert _deliver(second, "u/1", 2)["accepted"] is True
            frames = _drain_until(client, "campaign_done")
            assert frames[-1]["completed"] == 1
            assert frames[-1]["reissues"] == 1
        finally:
            client.close()
            second.close()


class TestSpoolRestore:
    def test_broker_restart_restores_completed_units(self, tmp_path):
        spool_dir = tmp_path / "spool"
        keys = ["u/1", "u/2", "u/3"]
        with FarmBroker(port=0, poll_s=0.05, spool_dir=spool_dir) as live:
            client = _connect(live.address)
            worker = _connect(live.address)
            try:
                assert _hello(client, "client")["type"] == "welcome"
                assert _submit(client, "resume-camp", keys)["type"] == \
                    "accepted"
                assert _hello(worker, "worker",
                              worker="w1")["type"] == "welcome"
                # Complete only two of three units, then the broker dies.
                for _ in range(2):
                    unit = _pull(worker)
                    _deliver(worker, unit["key"], unit["attempt"])
            finally:
                client.close()
                worker.close()
        assert list(spool_dir.glob("spool-*.jsonl"))

        with FarmBroker(port=0, poll_s=0.05, spool_dir=spool_dir) as live:
            client = _connect(live.address)
            worker = _connect(live.address)
            try:
                assert _hello(client, "client")["type"] == "welcome"
                accepted = _submit(client, "resume-camp", keys)
                assert accepted["type"] == "accepted"
                assert accepted["restored"] == 2
                assert accepted["pending"] == 1
                assert _hello(worker, "worker",
                              worker="w1")["type"] == "welcome"
                unit = _pull(worker)
                assert unit["type"] == "unit"
                assert unit["key"] == "u/3"
                _deliver(worker, "u/3", unit["attempt"])
                frames = _drain_until(client, "campaign_done")
                restored = [f for f in frames if f["type"] == "done"
                            and f.get("restored")]
                assert sorted(f["key"] for f in restored) == ["u/1", "u/2"]
                assert frames[-1]["completed"] == 3
            finally:
                client.close()
                worker.close()
            assert live.stats_payload()["totals"]["units_restored"] == 2

    def test_spool_for_other_campaign_not_reused(self, tmp_path):
        spool_dir = tmp_path / "spool"
        with FarmBroker(port=0, poll_s=0.05, spool_dir=spool_dir) as live:
            client = _connect(live.address)
            worker = _connect(live.address)
            try:
                assert _hello(client, "client")["type"] == "welcome"
                assert _submit(client, "camp-a", ["u/1"])["type"] == "accepted"
                assert _hello(worker, "worker",
                              worker="w1")["type"] == "welcome"
                unit = _pull(worker)
                _deliver(worker, unit["key"], unit["attempt"])
                _drain_until(client, "campaign_done")
            finally:
                client.close()
                worker.close()
        with FarmBroker(port=0, poll_s=0.05, spool_dir=spool_dir) as live:
            client = _connect(live.address)
            try:
                assert _hello(client, "client")["type"] == "welcome"
                accepted = _submit(client, "camp-b", ["u/1"])
                assert accepted["restored"] == 0
                assert accepted["pending"] == 1
            finally:
                client.close()


def _delay_frames(monkeypatch, owner, name, should_delay, seconds):
    """Make ``owner.name(..., frame)`` sleep before sending a frame that
    ``should_delay``; the returned event is set when a delay starts."""
    real = getattr(owner, name)
    delaying = threading.Event()

    def slow(*args):
        if should_delay(args[-1]):
            delaying.set()
            time.sleep(seconds)
        return real(*args)

    monkeypatch.setattr(owner, name, slow)
    return delaying


class TestClientFrameOrder:
    """Client frames leave in the order of the state changes behind them."""

    def test_accepted_reaches_client_before_any_lease(
        self, broker, monkeypatch
    ):
        _delay_frames(
            monkeypatch, broker_module, "send_frame",
            lambda frame: frame["type"] == "accepted", 0.3,
        )
        client = _connect(broker.address)
        worker = _connect(broker.address)
        pulled = []
        try:
            assert _hello(worker, "worker", worker="w1")["type"] == "welcome"

            def poll():
                # Already polling when the submit lands.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    frame = _pull(worker)
                    if frame["type"] == "unit":
                        pulled.append(frame)
                        return
                    time.sleep(0.01)

            poller = threading.Thread(target=poll, daemon=True)
            poller.start()
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp", ["u/1"])["type"] == "accepted"
            poller.join(timeout=10.0)
            assert pulled, "the polling worker never leased the unit"
            assert recv_frame(client)["type"] == "leased"
        finally:
            client.close()
            worker.close()

    def test_campaign_done_arrives_after_every_done(
        self, broker, monkeypatch
    ):
        delaying = _delay_frames(
            monkeypatch, broker_module._Campaign, "push",
            lambda frame: frame["type"] == "done" and frame["key"] == "u/1",
            0.5,
        )
        client = _connect(broker.address)
        first = _connect(broker.address)
        second = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp", ["u/1", "u/2"])["type"] == \
                "accepted"
            assert _hello(first, "worker", worker="w1")["type"] == "welcome"
            assert _hello(second, "worker", worker="w2")["type"] == "welcome"
            assert _pull(first)["key"] == "u/1"
            assert _pull(second)["key"] == "u/2"
            # u/1's done push stalls; meanwhile w2 finishes the last unit.
            send_frame(first, {
                "type": "result", "key": "u/1", "attempt": 1, "ok": True,
                "elapsed_s": 0.01, "outcome": pack({"key": "u/1"}),
            })
            assert delaying.wait(timeout=5.0)
            assert _deliver(second, "u/2", 1)["accepted"] is True
            frames = _drain_until(client, "campaign_done")
            done = [f["key"] for f in frames if f["type"] == "done"]
            assert sorted(done) == ["u/1", "u/2"]
            assert recv_frame(first)["accepted"] is True
        finally:
            client.close()
            first.close()
            second.close()

    def test_frame_order_holds_under_contention(self, broker):
        """More worker threads than cores race a 40-unit campaign with a
        tiny switch interval; the client still sees ``accepted`` first,
        each unit leased before its one ``done``, and every ``done``
        before ``campaign_done``."""
        keys = [f"u/{i:02d}" for i in range(40)]
        stop = threading.Event()

        def work(name):
            sock = _connect(broker.address)
            try:
                assert _hello(sock, "worker", worker=name)["type"] == \
                    "welcome"
                while not stop.is_set():
                    frame = _pull(sock)
                    if frame["type"] == "unit":
                        _deliver(sock, frame["key"], frame["attempt"])
                    else:
                        time.sleep(0.005)
            finally:
                sock.close()

        workers = [
            threading.Thread(target=work, args=(f"w{i}",), daemon=True)
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        client = _connect(broker.address)
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers:
                thread.start()
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp", keys)["type"] == "accepted"
            frames = _drain_until(client, "campaign_done", limit=200)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in workers:
                thread.join(timeout=5.0)
            client.close()
        assert not any(thread.is_alive() for thread in workers)
        leased, done = set(), []
        for frame in frames:
            if frame["type"] == "leased":
                leased.add(frame["key"])
            elif frame["type"] == "done":
                assert frame["key"] in leased
                done.append(frame["key"])
        assert sorted(done) == keys
        assert frames[-1]["completed"] == len(keys)
        totals = broker.stats_payload()["totals"]
        assert totals["units_completed"] == len(keys)
        assert totals["units_dispatched"] == len(keys)
