"""Crash-safe IO helpers behind runs.jsonl / checkpoints / exports."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.ioutil import (
    atomic_write_text,
    durable_append_line,
    fsync_handle,
    read_jsonl,
)


class TestDurableAppend:
    def test_line_is_visible_immediately(self, tmp_path):
        # The crash-safety contract: once append returns, a concurrent
        # reader (or a post-crash one) sees the complete line.
        path = tmp_path / "log.jsonl"
        with path.open("a") as handle:
            durable_append_line(handle, '{"a": 1}')
            assert path.read_text() == '{"a": 1}\n'
            durable_append_line(handle, '{"b": 2}')
        assert path.read_text().splitlines() == ['{"a": 1}', '{"b": 2}']

    def test_newline_not_doubled(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with path.open("a") as handle:
            durable_append_line(handle, "already terminated\n")
        assert path.read_text() == "already terminated\n"

    def test_fsync_tolerates_pseudo_files(self):
        class NoFileno:
            def flush(self):
                self.flushed = True

        handle = NoFileno()
        fsync_handle(handle)  # must not raise
        assert handle.flushed


class TestAtomicWrite:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "out.json"
        assert atomic_write_text(path, "one") == path
        assert path.read_text() == "one"
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "data")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def _drain(reader):
    """All ``(line_number, record)`` pairs plus the generator's next offset."""
    items = []
    while True:
        try:
            items.append(next(reader))
        except StopIteration as stop:
            return items, stop.value


_objects = st.dictionaries(
    st.text(max_size=5),
    st.one_of(st.none(), st.integers(), st.text(max_size=8)),
    max_size=3,
).map(lambda obj: json.dumps(obj, ensure_ascii=False).encode("utf-8"))
_non_objects = st.sampled_from([b"[1, 2]", b"3", b'"text"', b"null", b"true"])
_blanks = st.sampled_from([b"", b"  ", b"\t", b"\r"])
_garbage = st.binary(max_size=12).filter(lambda raw: b"\n" not in raw)
_lines = st.lists(
    st.one_of(_objects, _objects, _non_objects, _blanks, _garbage),
    max_size=25,
)


class TestReadJsonl:
    @settings(max_examples=200, deadline=None)
    @given(lines=_lines, cut=st.floats(0.0, 1.0), complete=st.booleans(),
           page=st.integers(1, 6))
    def test_torn_and_corrupt_files(self, lines, cut, complete, page):
        data = b"".join(line + b"\n" for line in lines)
        data = data[: int(len(data) * cut)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            path.write_bytes(data)
            full, end = _drain(read_jsonl(path, complete_lines_only=complete))

            # Never raises; every non-blank line is either kept or dropped.
            raw = data.split(b"\n")
            torn = raw.pop()  # b"" when the file ends with a newline
            if torn and not complete:
                raw.append(torn)
            assert end == len(raw)
            assert len(full) == sum(1 for line in raw if line.strip())
            for number, record in full:
                assert record is None or isinstance(record, dict)
                if record is not None:
                    assert record == json.loads(raw[number - 1])

            # offset/limit pages join back into the full read.
            joined, offset = [], 0
            while True:
                items, next_offset = _drain(read_jsonl(
                    path, offset, page, complete_lines_only=complete
                ))
                assert next_offset - offset <= page
                joined.extend(items)
                if next_offset == offset:
                    break
                offset = next_offset
            assert joined == full and offset == end

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n\n[1]\n{"b": 2}\n{"torn')
        assert list(read_jsonl(path)) == [
            (1, {"a": 1}), (3, None), (4, {"b": 2}), (5, None),
        ]
        assert _drain(read_jsonl(path, complete_lines_only=True)) == (
            [(1, {"a": 1}), (3, None), (4, {"b": 2})], 4,
        )


# Every consumer of read_jsonl sees its own good records plus the same
# corruption.  No blank line is among it: ``GET /jobs/{id}/events``
# has always counted a blank line in its ``malformed`` tally.
_CORRUPTION = ["{not json", "\udcff garbage", "[1, 2]", '"text"', "null"]
_TORN = '{"torn": '


def _trace_records(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps({"type": "measurement", "test_name": "t"}) + "\n")
    return path


def _load_trace(path):
    from repro.obs.report import load_trace

    loaded = load_trace(path)
    return len(loaded.records), loaded.dropped_lines


def _load_events_page(path):
    from repro.service.progress import read_numbered_events

    numbered, _, malformed = read_numbered_events(path)
    return len(numbered), malformed


def _run_history(tmp_path):
    from repro.obs.history import RunHistory

    path = tmp_path / "runs.jsonl"
    RunHistory(path).append({"kind": "repro.obs.run", "schema": 1, "run": "a"})
    return path


def _load_run_history(path):
    from repro.obs.history import RunHistory

    loaded = RunHistory(path).load()
    return len(loaded.records), loaded.dropped_lines


def _checkpoint(tmp_path):
    from repro.farm.checkpoint import CheckpointStore
    from repro.farm.workunit import WorkResult

    path = tmp_path / "ckpt.jsonl"
    with CheckpointStore(path, campaign="c") as store:
        store.record(WorkResult(unit_key="u/1", index=0, value=1))
    return path


def _load_checkpoint(path):
    from repro import obs
    from repro.farm.checkpoint import CheckpointStore

    sink = obs.RingBufferSink()
    obs.enable(sink)
    try:
        loaded = CheckpointStore(path, campaign="c").load()
    finally:
        events = sink.of_type("farm_checkpoint_dropped")
        obs.reset()
    return len(loaded), sum(event.lines for event in events)


def _spool(tmp_path):
    from repro.farm.remote.broker import ResultSpool

    path = tmp_path / "spool.jsonl"
    spool = ResultSpool(path, "c")
    spool.record({"key": "u/1", "attempt": 1, "outcome": "p"})
    spool.close()
    return path


def _load_spool(path):
    from repro.farm.remote.broker import ResultSpool

    results, dropped = ResultSpool(path, "c").load()
    return len(results), dropped


@pytest.mark.parametrize(
    "write, load",
    [
        (_trace_records, _load_trace),
        (_trace_records, _load_events_page),
        (_run_history, _load_run_history),
        (_checkpoint, _load_checkpoint),
        (_spool, _load_spool),
    ],
    ids=["trace", "events_page", "run_history", "checkpoint", "spool"],
)
def test_consumers_report_dropped_lines(tmp_path, write, load):
    path = write(tmp_path)
    with path.open("a", encoding="utf-8", errors="surrogateescape") as handle:
        handle.write("\n".join(_CORRUPTION) + "\n" + _TORN)
    assert load(path) == (1, len(_CORRUPTION) + 1)
