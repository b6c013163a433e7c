"""Golden pins: every trace read-side output, byte for byte.

Three recorded ``lot`` traces live in ``tests/obs/golden/`` (a serial
profiled run, a profiled 2-worker process farm with a retried and a
checkpoint-skipped die, and a remote run with broker clock sync; see
``make_traces.py`` there).  For each, the exact text of ``obs summary``
(text and ``--json``), ``obs slowest``, ``obs profile`` (hot paths plus
the per-worker utilization table), the ``obs report`` HTML, the ``obs
timeline`` JSON and the service's ``job_progress`` dict is pinned in a
file next to the trace.  Any change to how the read side tallies or
renders a trace shows up here as a diff.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.progress import job_progress

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("serial", "process", "remote")


def _stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(argv)
    return buffer.getvalue()


def render_pins(trace):
    """Every pinned output for one trace, keyed by pin file suffix."""
    trace = str(trace)
    with tempfile.TemporaryDirectory() as scratch:
        timeline = Path(scratch) / "timeline.json"
        report = Path(scratch) / "report.html"
        _stdout(["obs", "timeline", trace, "-o", str(timeline)])
        _stdout(["obs", "report", trace, str(report)])
        return {
            "summary.txt": _stdout(["obs", "summary", trace]),
            "summary.json": _stdout(["obs", "summary", trace, "--json"]),
            "slowest.txt": _stdout(["obs", "slowest", trace]),
            "profile.txt": _stdout(["obs", "profile", trace]),
            "report.html": report.read_text(),
            "timeline.json": timeline.read_text(),
            "progress.json": json.dumps(
                job_progress(trace), indent=2, sort_keys=True
            ) + "\n",
        }


@pytest.mark.parametrize("name", FIXTURES)
def test_outputs_match_pins(name):
    rendered = render_pins(GOLDEN / f"{name}.jsonl")
    for pin, text in rendered.items():
        expected = (GOLDEN / f"{name}.{pin}").read_text()
        assert text == expected, f"{name}.{pin} drifted"


def test_fixtures_cover_the_farm_paths():
    """The fixtures hold what the pins are meant to exercise."""
    types = {
        name: [
            json.loads(line)["type"]
            for line in (GOLDEN / f"{name}.jsonl").read_text().splitlines()
        ]
        for name in FIXTURES
    }
    assert "profile" in types["serial"]
    assert "resource_sample" in types["serial"]
    for kind in ("farm_unit_retried", "farm_unit_skipped",
                 "farm_checkpoint_dropped", "profile", "resource_sample"):
        assert kind in types["process"], kind
    assert "broker_clock_sync" in types["remote"]
