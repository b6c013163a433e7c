"""Render telemetry into human-readable cost summaries.

:class:`TraceRollup` folds a trace's records once into every tally the
read side reports; ``obs summary``, ``obs slowest``, worker utilization,
the HTML report and live job progress are views of it.  Two views of one
campaign live here:

* :func:`render_metrics_summary` — the registry as an aligned text table:
  every counter (with its top label breakdown — e.g. measurements per
  test), every gauge, every histogram with count/p50/p95/max.  This is what
  the CLI's ``--metrics`` flag prints at exit.
* :func:`render_trace_cost_profile` — the fig. 3 per-test measurement-cost
  profile rebuilt from a live JSONL trace: consecutive
  ``measurement`` events are grouped per test and drawn as a bar per test,
  reproducing the "number of search steps" axis of the paper's figure from
  observed data instead of a bespoke benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.ioutil import read_jsonl
from repro.obs.events import known_event_types
from repro.obs.metrics import MetricsRegistry


def _is_event(record: Optional[Dict[str, object]]) -> bool:
    return record is not None and "type" in record


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a :class:`~repro.obs.events.TraceWriter` JSONL file.

    Raises
    ------
    ValueError
        On a line that is not a JSON object with a ``type`` field
        (line-numbered, so a truncated trace is easy to diagnose).
    """
    records: List[Dict[str, object]] = []
    for line_number, record in read_jsonl(path):
        if not _is_event(record):
            raise ValueError(
                f"trace line {line_number}: not a JSON event object"
            )
        records.append(record)
    return records


@dataclass
class TraceLoadResult:
    """A tolerantly-loaded trace plus what had to be forgiven."""

    records: List[Dict[str, object]] = field(default_factory=list)
    dropped_lines: int = 0
    unknown_types: Dict[str, int] = field(default_factory=dict)


def load_trace(path: Union[str, Path]) -> TraceLoadResult:
    """Load a trace *tolerantly* (the ``repro obs`` commands use this).

    Unlike :func:`read_trace`, a malformed line is counted and skipped
    rather than fatal, and records whose ``type`` is not one of this
    build's event classes are *kept* (and tallied in
    :attr:`TraceLoadResult.unknown_types`) — so traces and ``runs.jsonl``
    baselines written by older or newer schema versions stay loadable.
    """
    known = known_event_types()
    loaded = TraceLoadResult()
    for _, record in read_jsonl(path):
        if not _is_event(record):
            loaded.dropped_lines += 1
            continue
        kind = str(record["type"])
        if kind not in known:
            loaded.unknown_types[kind] = loaded.unknown_types.get(kind, 0) + 1
        loaded.records.append(record)
    return loaded


@dataclass
class WorkerUtilization:
    """One worker's busy/idle picture over a farm run."""

    worker: str
    units: int = 0
    busy_s: float = 0.0
    span_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: int = 0

    @property
    def utilization(self) -> float:
        """Busy fraction of the run span (0..1; 0 when span unknown)."""
        if self.span_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / self.span_s)


@dataclass
class UnitRow:
    """The last ``farm_unit_completed`` record seen for one unit key."""

    key: str
    attempt: int
    elapsed_s: float
    measurements: int
    worker: str


@dataclass
class TraceRollup:
    """Every tally the trace read side reports, folded in one pass.

    Feed records in trace order with :meth:`add` (or build one with
    :meth:`of`).  ``obs summary``/``slowest``, worker utilization, the
    HTML report and live job progress are all views of this one fold,
    so they cannot disagree, and a tailing reader (the SSE stream) can
    keep adding lines as the trace grows.  Plain event counts (unit
    completions, retries, skips, profile sessions) live in ``counts``.
    """

    events: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    #: Consecutive ``measurement`` events of one test, in trace order.
    measurement_groups: List[Tuple[str, int]] = field(default_factory=list)
    #: One row per unit key; the last completion wins.
    units: Dict[str, UnitRow] = field(default_factory=dict)
    units_total: int = 0
    dropped_events: int = 0
    checkpoint_dropped_lines: int = 0
    #: Per worker, over every completion event; ``peak_rss_kb`` counts
    #: the worker's resource samples from its first completion on.
    workers: Dict[str, WorkerUtilization] = field(default_factory=dict)
    #: Lowest and highest cumulative CPU seconds sampled per process.
    cpu_bounds: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    peak_rss_kb: int = 0
    run_start: float = math.inf
    run_end: float = -math.inf
    phases: List[str] = field(default_factory=list)
    profile_weight: int = 0
    profile_unit: Optional[str] = None

    @classmethod
    def of(cls, records: Iterable[Dict[str, object]]) -> "TraceRollup":
        rollup = cls()
        for record in records:
            rollup.add(record)
        return rollup

    def add(self, record: Dict[str, object]) -> None:
        """Fold one trace record in."""
        self.events += 1
        kind = str(record.get("type"))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if kind == "measurement":
            name = str(record.get("test_name", "unnamed"))
            groups = self.measurement_groups
            if groups and groups[-1][0] == name:
                groups[-1] = (name, groups[-1][1] + 1)
            else:
                groups.append((name, 1))
        elif kind == "farm_unit_completed":
            self._unit_completed(record)
        elif kind == "resource_sample":
            worker = str(record.get("worker", "") or "serial")
            cpu = float(record.get("cpu_user_s", 0.0) or 0.0) + float(
                record.get("cpu_system_s", 0.0) or 0.0
            )
            low, high = self.cpu_bounds.get(worker, (cpu, cpu))
            self.cpu_bounds[worker] = (min(low, cpu), max(high, cpu))
            rss = int(record.get("max_rss_kb", 0) or 0)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            row = self.workers.get(worker)
            if row is not None:
                row.peak_rss_kb = max(row.peak_rss_kb, rss)
        elif kind == "farm_run_started":
            self.units_total += int(record.get("units", 0) or 0)
            ts = record.get("ts")
            if isinstance(ts, (int, float)):
                self.run_start = min(self.run_start, float(ts))
        elif kind == "farm_unit_merged":
            self.dropped_events += int(record.get("dropped_events", 0) or 0)
        elif kind == "farm_checkpoint_dropped":
            self.checkpoint_dropped_lines += int(record.get("lines", 0) or 0)
        elif kind == "campaign_phase":
            phase = str(record.get("phase", "") or "")
            if record.get("status") == "start":
                self.phases.append(phase)
            elif self.phases and self.phases[-1] == phase:
                self.phases.pop()
        elif kind == "profile":
            self.profile_weight += sum(
                int(entry[2]) for entry in record.get("folded") or ()
            )
            if self.profile_unit is None:
                self.profile_unit = str(record.get("unit", "samples"))

    def _unit_completed(self, record: Dict[str, object]) -> None:
        row = UnitRow(
            key=str(record.get("key")),
            attempt=int(record.get("attempt", 1) or 1),
            elapsed_s=float(record.get("elapsed_s", 0.0) or 0.0),
            measurements=int(record.get("measurements", 0) or 0),
            worker=str(record.get("worker", "") or "serial"),
        )
        self.units[row.key] = row
        worker = self.workers.setdefault(
            row.worker, WorkerUtilization(worker=row.worker)
        )
        worker.units += 1
        worker.busy_s += row.elapsed_s
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            self.run_start = min(self.run_start, float(ts) - row.elapsed_s)
            self.run_end = max(self.run_end, float(ts))

    @property
    def measurements(self) -> int:
        return self.counts.get("measurement", 0)

    def per_test(self) -> Dict[str, int]:
        """Measurements per test name, over all of the test's groups."""
        totals: Dict[str, int] = {}
        for name, count in self.measurement_groups:
            totals[name] = totals.get(name, 0) + count
        return totals

    def worker_utilization(self) -> List[WorkerUtilization]:
        """Per-worker busy/idle utilization over the farm run span.

        Busy time sums each worker's ``farm_unit_completed`` durations;
        the run span stretches from ``farm_run_started`` (or the earliest
        unit start) to the last completion, so idle time is scheduling
        gaps plus tail imbalance.  CPU seconds and peak RSS come from
        each worker's ``resource_sample`` series when profiling was on.
        """
        span = max(0.0, self.run_end - self.run_start)
        rows = []
        for worker in sorted(self.workers):
            row = self.workers[worker]
            low, high = self.cpu_bounds.get(worker, (0.0, 0.0))
            rows.append(
                replace(
                    row,
                    span_s=round(span, 6),
                    busy_s=round(row.busy_s, 6),
                    cpu_s=round(high - low, 6),
                )
            )
        return rows


def render_metrics_summary(
    registry: MetricsRegistry,
    title: str = "telemetry summary",
    max_labels: int = 15,
) -> str:
    """The whole registry as one aligned text block."""
    lines = [f"== {title} =="]
    if registry.counters:
        lines.append("counters:")
        for name in sorted(registry.counters):
            counter = registry.counters[name]
            lines.append(f"  {name:<40} {counter.value:>10}")
            shown = counter.top_labels(max_labels)
            for label, value in shown:
                lines.append(f"    - {label:<36} {value:>10}")
            hidden = len(counter.by_label) - len(shown)
            if hidden > 0:
                lines.append(f"    - ... {hidden} more label(s)")
    if registry.gauges:
        lines.append("gauges:")
        for name in sorted(registry.gauges):
            gauge = registry.gauges[name]
            value = "n/a" if gauge.value is None else f"{gauge.value:.4f}"
            lines.append(f"  {name:<40} {value:>10}")
    if registry.histograms:
        lines.append(
            f"histograms:{'':<31}{'count':>8}{'p50':>10}"
            f"{'p95':>10}{'max':>10}"
        )
        for name in sorted(registry.histograms):
            hist = registry.histograms[name]
            if hist.count == 0:
                lines.append(f"  {name:<40}{0:>8}")
                continue
            lines.append(
                f"  {name:<40}{hist.count:>8}{hist.p50:>10.3f}"
                f"{hist.p95:>10.3f}{hist.max:>10.3f}"
            )
    if len(lines) == 1:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines)

def per_test_measurement_counts(
    records: Iterable[Dict[str, object]],
) -> List[Tuple[str, int]]:
    """Measurement cost per test from a trace, in campaign order.

    Consecutive ``measurement`` events with the same test name form one
    per-test group (the same test re-measured later — e.g. the Table-1
    final re-measurement — starts a new group, as on the real tester).
    """
    return TraceRollup.of(records).measurement_groups


def render_trace_cost_profile(
    records: Iterable[Dict[str, object]],
    max_tests: Optional[int] = 60,
    bar_width: int = 40,
) -> str:
    """Fig. 3-style per-test measurement-cost bars from a trace."""
    groups = per_test_measurement_counts(records)
    if not groups:
        return "(no measurement events in trace)"
    lines = ["per-test measurement cost (from trace):"]
    shown = groups if max_tests is None else groups[:max_tests]
    peak = max(count for _, count in groups)
    scale = max(1, -(-peak // bar_width))  # ceil division
    for index, (name, count) in enumerate(shown):
        bar = "#" * max(1, count // scale)
        lines.append(f"  {index:>4} {name[:28]:<28} {bar} {count}")
    if len(shown) < len(groups):
        rest = groups[len(shown):]
        total = sum(count for _, count in rest)
        lines.append(
            f"  ... {len(rest)} more test(s), {total} measurement(s)"
        )
    lines.append(
        f"total: {sum(c for _, c in groups)} measurements over "
        f"{len(groups)} test group(s)"
    )
    return "\n".join(lines)

def trace_summary_data(loaded: TraceLoadResult) -> Dict[str, object]:
    """``repro obs summary --json``: the summary as plain data.

    Mirrors :func:`render_trace_summary` section for section so CI can
    assert on fields instead of scraping the text table.
    """
    rollup = TraceRollup.of(loaded.records)
    counts = rollup.counts
    by_worker: Dict[str, Dict[str, object]] = {}
    for row in rollup.units.values():
        agg = by_worker.setdefault(
            row.worker, {"units": 0, "busy_s": 0.0, "measurements": 0}
        )
        agg["units"] = int(agg["units"]) + 1
        agg["busy_s"] = round(float(agg["busy_s"]) + row.elapsed_s, 6)
        agg["measurements"] = int(agg["measurements"]) + row.measurements
    resources = None
    if counts.get("resource_sample"):
        resources = {
            "samples": counts["resource_sample"],
            "workers": len(rollup.cpu_bounds),
            "cpu_s": round(
                sum(high - low for low, high in rollup.cpu_bounds.values()),
                6,
            ),
            "peak_rss_kb": rollup.peak_rss_kb,
        }
    return {
        "events": rollup.events,
        "events_by_type": counts,
        "farm": {
            "units": len(rollup.units),
            "workers": by_worker,
            "retries": counts.get("farm_unit_retried", 0),
            "skipped": counts.get("farm_unit_skipped", 0),
            "merged": counts.get("farm_unit_merged", 0),
            "dropped_events": rollup.dropped_events,
        },
        "checkpoint_dropped_lines": rollup.checkpoint_dropped_lines,
        "measurements": {
            "total": rollup.measurements,
            "groups": len(rollup.measurement_groups),
            "per_test": rollup.per_test(),
        },
        "resources": resources,
        "profile_sessions": counts.get("profile", 0),
        "profile_weight": rollup.profile_weight,
        "profile_unit": rollup.profile_unit,
        "dropped_lines": loaded.dropped_lines,
        "unknown_types": dict(loaded.unknown_types),
    }


def render_trace_summary(loaded: TraceLoadResult) -> str:
    """``repro obs summary``: one screen describing a merged trace.

    Event counts by type, the farm section (units, workers, retries,
    merge bookkeeping), measurement totals with the costliest tests, and
    an honesty footer for anything the tolerant loader had to forgive.
    The text is a view of :func:`trace_summary_data`, so the two never
    disagree.
    """
    data = trace_summary_data(loaded)
    lines = [f"== trace summary: {data['events']} event(s) =="]
    counts: Dict[str, int] = data["events_by_type"]
    lines.append("events by type:")
    for kind in sorted(counts, key=lambda k: (-counts[k], k)):
        lines.append(f"  {kind:<30} {counts[kind]:>8}")

    farm: Dict[str, object] = data["farm"]
    workers: Dict[str, Dict[str, object]] = farm["workers"]
    if farm["units"]:
        lines.append(
            f"farm: {farm['units']} unit(s) completed on "
            f"{len(workers)} worker(s), {farm['skipped']} restored from "
            f"checkpoint, {farm['retries']} retry(ies), "
            f"{farm['merged']} merged"
        )
        for worker in sorted(workers):
            row = workers[worker]
            lines.append(
                f"  {worker:<24} {row['units']:>4} unit(s)"
                f" {row['busy_s']:>9.3f}s busy {row['measurements']:>9} meas"
            )
        if farm["dropped_events"]:
            lines.append(
                f"  warning: {farm['dropped_events']} worker event(s) "
                f"dropped (spool capacity)"
            )
    if data["checkpoint_dropped_lines"]:
        lines.append(
            f"  warning: {data['checkpoint_dropped_lines']} corrupt "
            f"checkpoint line(s) dropped"
        )

    measurements: Dict[str, object] = data["measurements"]
    per_test: Dict[str, int] = measurements["per_test"]
    if measurements["groups"]:
        lines.append(
            f"measurements: {measurements['total']} over "
            f"{measurements['groups']} test group(s); costliest:"
        )
        ranked = sorted(per_test.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        for name, count in ranked:
            lines.append(f"  {name[:40]:<40} {count:>8}")

    resources = data["resources"]
    if resources is not None:
        lines.append(
            f"resources: {resources['samples']} sample(s), "
            f"cpu {resources['cpu_s']:.3f}s, "
            f"peak rss {resources['peak_rss_kb'] / 1024.0:.1f} MB "
            f"across {resources['workers']} process(es)"
        )
    if data["profile_sessions"]:
        lines.append(
            f"profile: {data['profile_sessions']} session(s), "
            f"{data['profile_weight']} {data['profile_unit']} "
            f"recorded (see `repro obs profile`)"
        )

    if loaded.dropped_lines:
        lines.append(f"({loaded.dropped_lines} malformed line(s) skipped)")
    if loaded.unknown_types:
        # Name the drifted schemas, most frequent first, so "what wrote
        # this trace?" is answerable from the summary alone.
        ranked_unknown = sorted(
            loaded.unknown_types.items(), key=lambda kv: (-kv[1], kv[0])
        )
        shown_unknown = ranked_unknown[:5]
        detail = ", ".join(
            f"{kind} x{count}" for kind, count in shown_unknown
        )
        hidden = len(ranked_unknown) - len(shown_unknown)
        if hidden > 0:
            detail += f", ... {hidden} more type(s)"
        lines.append(f"({sum(loaded.unknown_types.values())} event(s) of "
                     f"unknown type kept: {detail})")
    return "\n".join(lines)


def render_slowest(loaded: TraceLoadResult, count: int = 10) -> str:
    """``repro obs slowest``: the wall-clock and cost hot spots."""
    rollup = TraceRollup.of(loaded.records)
    lines: List[str] = []
    units = sorted(
        rollup.units.values(), key=lambda r: (-r.elapsed_s, r.key)
    )[:count]
    if units:
        lines.append(f"slowest {len(units)} unit(s):")
        for row in units:
            attempt = f" (attempt {row.attempt})" if row.attempt > 1 else ""
            lines.append(
                f"  {row.key[:32]:<32} {row.elapsed_s:>9.3f}s"
                f" {row.measurements:>8} meas on {row.worker}{attempt}"
            )
    totals = rollup.per_test()
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:count]
    if ranked:
        lines.append(f"costliest {len(ranked)} test(s):")
        for name, meas in ranked:
            lines.append(f"  {name[:40]:<40} {meas:>8} meas")
    if not lines:
        lines.append("(no farm units or measurements in trace)")
    return "\n".join(lines)
