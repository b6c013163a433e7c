"""Live job progress, derived from the job's telemetry trace.

Every job runs with ``--trace`` pointing into its job directory, and the
:class:`~repro.obs.events.TraceWriter` flushes each event line as it is
emitted — so the trace file *is* the live progress stream.  This module
reads it tolerantly (a torn final line is simply the event in flight)
and views its :class:`~repro.obs.report.TraceRollup` as the small
progress dict ``GET /jobs/{id}`` returns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.ioutil import read_jsonl
from repro.obs.report import TraceRollup


def rollup_progress(rollup: TraceRollup) -> Dict[str, object]:
    """The progress dict ``GET /jobs/{id}`` returns, as a view of a trace
    roll-up: ``units_skipped`` counts units restored from checkpoint, and
    ``phase`` is the innermost campaign phase open (``None`` outside any).
    """
    return {
        "events": rollup.events,
        "measurements": rollup.measurements,
        "units_total": rollup.units_total,
        "units_done": rollup.counts.get("farm_unit_completed", 0),
        "units_skipped": rollup.counts.get("farm_unit_skipped", 0),
        "phase": rollup.phases[-1] if rollup.phases else None,
    }


def trace_rollup(
    trace_path: Union[str, Path], lines: Optional[int] = None
) -> TraceRollup:
    """Fold the first ``lines`` lines of a job trace (all by default)."""
    rollup = TraceRollup()
    if Path(trace_path).exists():
        for _, record in read_jsonl(trace_path, 0, lines):
            if _is_event(record):
                rollup.add(record)
    return rollup


def job_progress(trace_path: Union[str, Path]) -> Dict[str, object]:
    """Roll a (possibly still growing) trace up into progress numbers."""
    return rollup_progress(trace_rollup(trace_path))


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
