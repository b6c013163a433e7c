"""Live job progress, derived from the job's telemetry trace.

Every job runs with ``--trace`` pointing into its job directory, and the
:class:`~repro.obs.events.TraceWriter` flushes each event line as it is
emitted — so the trace file *is* the live progress stream.  This module
reads it tolerantly (a torn final line is simply the event in flight)
and rolls the per-unit farm events, measurement events and campaign
phases up into the small progress dict ``GET /jobs/{id}`` returns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.ioutil import read_jsonl


class ProgressTally:
    """Incremental form of :func:`job_progress`.

    Feed it parsed trace records one at a time (:meth:`add`) and read the
    same progress dict at any point (:meth:`as_dict`).  The SSE stream
    handler uses this to keep live progress while *tailing* a trace —
    one pass over each line ever, instead of re-scanning the whole file
    per poll.
    """

    def __init__(self) -> None:
        self.events = 0
        self.measurements = 0
        self.units_total = 0
        self.units_done = 0
        self.units_skipped = 0
        self._phase_stack: List[str] = []

    def add(self, record: Dict[str, object]) -> None:
        """Fold one parsed trace record into the tally."""
        self.events += 1
        kind = record.get("type")
        if kind == "measurement":
            self.measurements += 1
        elif kind == "farm_run_started":
            self.units_total += int(record.get("units", 0) or 0)
        elif kind == "farm_unit_completed":
            self.units_done += 1
        elif kind == "farm_unit_skipped":
            self.units_skipped += 1
        elif kind == "campaign_phase":
            phase = str(record.get("phase", "") or "")
            if record.get("status") == "start":
                self._phase_stack.append(phase)
            elif self._phase_stack and self._phase_stack[-1] == phase:
                self._phase_stack.pop()

    def as_dict(self) -> Dict[str, object]:
        """The progress dict ``GET /jobs/{id}`` returns."""
        return {
            "events": self.events,
            "measurements": self.measurements,
            "units_total": self.units_total,
            "units_done": self.units_done,
            "units_skipped": self.units_skipped,
            "phase": self._phase_stack[-1] if self._phase_stack else None,
        }


def job_progress(trace_path: Union[str, Path]) -> Dict[str, object]:
    """Roll a (possibly still growing) trace up into progress numbers.

    Returns ``events`` (total lines parsed), ``measurements``,
    ``units_total``/``units_done``/``units_skipped`` (farm work units;
    skipped = restored from checkpoint), and ``phase`` — the innermost
    campaign phase currently open (``None`` before the first phase or
    after the last one closes).
    """
    path = Path(trace_path)
    tally = ProgressTally()
    if path.exists():
        for _, record in read_jsonl(path):
            if _is_event(record):
                tally.add(record)
    return tally.as_dict()


def read_numbered_events(
    trace_path: Union[str, Path],
    offset: int = 0,
    limit: int = 500,
    complete_lines_only: bool = False,
) -> Tuple[List[Tuple[int, Dict[str, object]]], int, int]:
    """One page of trace events, each with its line id.

    Returns ``(numbered, next_offset, malformed)``.  ``numbered`` pairs
    each event with the 1-based number of the trace line it came from;
    ``GET /jobs/{id}/events`` drops the numbers, and the SSE stream uses
    them as the frame's ``id:`` field, so a client reconnecting with
    ``Last-Event-ID: N`` resumes at ``offset=N`` without replaying or
    skipping events.  Offsets and ids share one unit: *file lines*
    consumed, so a page boundary is stable while the file grows.
    ``next_offset`` is the offset of the following page and
    ``malformed`` counts the lines in this page that held no event
    (normally just a torn in-flight final line).

    With ``complete_lines_only`` a final line missing its newline is
    left *unconsumed* (not counted in ``next_offset``): it is the event
    in flight, and a tailing reader must pick it up whole on the next
    poll instead of skipping its truncated half as malformed.
    """
    numbered: List[Tuple[int, Dict[str, object]]] = []
    if not Path(trace_path).exists():
        return numbered, offset, 0
    lines = read_jsonl(trace_path, offset, limit, complete_lines_only)
    while True:
        try:
            number, record = next(lines)
        except StopIteration as stop:
            next_offset = stop.value
            break
        if _is_event(record):
            numbered.append((number, record))
    return numbered, next_offset, next_offset - offset - len(numbered)


def _is_event(record: Optional[Dict[str, object]]) -> bool:
    return record is not None and "type" in record
