"""Continuous profiling and resource telemetry (``--profile``).

The obs stack records *what* a campaign did (events, metrics, insight)
but, until this module, not *where the CPU went* — exactly the question
ROADMAP item 6 ("name the remaining scalar loops") needs answered.  Two
recorders run alongside tracing, both stdlib-only and both emitting
ordinary telemetry events so profiles ride the existing trace/spool/
merge machinery unchanged:

* :class:`SamplingProfiler` — a background daemon thread wakes ~100
  times a second, reads the profiled thread's frame stack via
  ``sys._current_frames()`` and aggregates the stacks into collapsed
  (folded) counts keyed by the live campaign phase
  (:func:`repro.obs.timing.current_phase`).  Statistical, near-zero
  overhead on the profiled thread, safe for production runs.  The
  session ends in one :class:`~repro.obs.events.ProfileRecorded` event.
* :class:`ResourceSampler` — periodically records ``getrusage`` CPU
  time, RSS (``/proc/self/status`` with a portable fallback) and GC
  counters as :class:`~repro.obs.events.ResourceSample` events plus
  ``proc.*`` gauges.

Farm work units run their own pair inside the worker capture, so
profiles and resource series ship back inside ``WorkerTelemetry`` and
merge deterministically like every other event.

The second half of the module is the read side: aggregate the
``profile`` events of a loaded trace into per-phase hot-path tables
(``repro obs profile``), export flamegraph.pl / speedscope-compatible
folded stacks (``repro obs flame``), and derive per-worker busy/idle
utilization from the unit spans and resource series.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import timing
from repro.obs.events import EventBus, ProfileRecorded, ResourceSample
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import TraceRollup, WorkerUtilization
from repro.obs.runtime import OBS

#: Default sampling cadence: ~100 Hz keeps per-sample cost invisible
#: while resolving phases tens of milliseconds long.
DEFAULT_INTERVAL_S = 0.01

#: Default resource-sample cadence.  Each sample is a couple of syscalls;
#: 4 Hz bounds trace growth on long campaigns.
DEFAULT_RESOURCE_INTERVAL_S = 0.25

#: Deepest stack recorded per sample; frames beyond are dropped rootward.
MAX_STACK_DEPTH = 64

#: Phase label for samples taken outside any open span.
TOP_PHASE = "(top)"


@dataclass(frozen=True)
class ProfileConfig:
    """What to record; tiny and picklable so farm dispatches can ship it.

    ``max_stacks`` bounds the folded table carried by the ``profile``
    event; overflow is counted in ``truncated``, never silently lost.
    """

    interval_s: float = DEFAULT_INTERVAL_S
    resource_interval_s: float = DEFAULT_RESOURCE_INTERVAL_S
    max_stacks: int = 2000

    def __post_init__(self) -> None:
        if self.interval_s <= 0 or self.resource_interval_s <= 0:
            raise ValueError("profile intervals must be positive")
        if self.max_stacks < 1:
            raise ValueError("max_stacks must be >= 1")


# -- resource readings ---------------------------------------------------------------


def process_cpu_seconds(include_children: bool = False) -> Tuple[float, float]:
    """This process's cumulative ``(user_s, system_s)`` CPU time.

    Uses ``resource.getrusage`` where available and ``os.times`` as the
    portable fallback; ``include_children`` folds in reaped child
    processes (farm workers) — the right total for a campaign record.
    """
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        user, system = usage.ru_utime, usage.ru_stime
        if include_children:
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            user += children.ru_utime
            system += children.ru_stime
        return user, system
    except (ImportError, OSError):
        times = os.times()
        user, system = times.user, times.system
        if include_children:
            user += times.children_user
            system += times.children_system
        return user, system


def _max_rss_kb() -> int:
    """Peak RSS in KiB from ``getrusage`` (0 where unsupported).

    Linux reports ``ru_maxrss`` in KiB, macOS in bytes; normalize.
    """
    try:
        import resource

        peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError):
        return 0
    if sys.platform == "darwin":
        peak //= 1024
    return peak


def _proc_rss_kb() -> int:
    """Current RSS in KiB via ``/proc/self/status`` (0 where absent)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def read_resource_sample(phase: Optional[str] = None) -> ResourceSample:
    """One :class:`ResourceSample` for the calling process, right now."""
    user, system = process_cpu_seconds()
    max_rss = _max_rss_kb()
    rss = _proc_rss_kb() or max_rss
    counts = gc.get_count()
    return ResourceSample(
        cpu_user_s=round(user, 6),
        cpu_system_s=round(system, 6),
        rss_kb=rss,
        max_rss_kb=max_rss,
        gc_gen0=counts[0],
        gc_gen1=counts[1],
        gc_gen2=counts[2],
        phase=timing.current_phase() if phase is None else phase,
    )


class ResourceSampler:
    """Background thread emitting :class:`ResourceSample` events.

    The bus and registry are bound at :meth:`start` — a farm unit
    capture swaps the global switchboard, and each sampler must keep
    feeding the sinks it was started against (the parent's trace, or
    the unit's spool), never whichever bus is current when its timer
    fires.  :meth:`stop` takes one final synchronous sample, so even a
    unit shorter than the interval records its resource footprint.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_RESOURCE_INTERVAL_S,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.samples = 0
        self._bus = bus
        self._metrics = metrics
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ResourceSampler":
        """Bind the current switchboard and launch the sampler thread."""
        if self._thread is not None:
            return self
        if self._bus is None:
            self._bus = OBS.bus
        if self._metrics is None:
            self._metrics = OBS.metrics
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _emit(self) -> None:
        sample = read_resource_sample()
        self.samples += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.gauge("proc.cpu.user_s").set(sample.cpu_user_s)
            metrics.gauge("proc.cpu.system_s").set(sample.cpu_system_s)
            metrics.gauge("proc.rss_kb").set(sample.rss_kb)
            metrics.gauge("proc.rss_peak_kb").set(sample.max_rss_kb)
        if self._bus is not None:
            self._bus.emit(sample)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._emit()

    def stop(self) -> None:
        """Stop the thread and record the final synchronous sample."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._emit()


# -- sampling profiler ---------------------------------------------------------------


def _frame_stack(frame) -> Tuple[str, ...]:
    """``frame``'s stack as root-first ``module:function`` labels."""
    parts: List[str] = []
    while frame is not None and len(parts) < MAX_STACK_DEPTH:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return tuple(parts)


class SamplingProfiler:
    """Statistical profiler: periodic stack captures of one thread.

    A daemon thread wakes every ``interval_s`` and reads the *target*
    thread's current frame via ``sys._current_frames()`` — the profiled
    thread itself is never interrupted, so the observed computation is
    bit-identical with the profiler on or off.  Each captured stack is
    attributed to the campaign phase live at capture time and counted
    into a folded-stack table.
    """

    def __init__(self, config: Optional[ProfileConfig] = None) -> None:
        self.config = config if config is not None else ProfileConfig()
        self.samples = 0
        self._counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target_id: Optional[int] = None
        self._started = 0.0

    def start(self) -> "SamplingProfiler":
        """Profile the calling thread from now until :meth:`stop`."""
        if self._thread is not None:
            return self
        self._target_id = threading.get_ident()
        self._started = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampling-profiler", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        interval = self.config.interval_s
        while not self._stop.wait(interval):
            frame = sys._current_frames().get(self._target_id)
            if frame is None:
                continue
            phase = timing.current_phase() or TOP_PHASE
            key = (phase, _frame_stack(frame))
            self._counts[key] = self._counts.get(key, 0) + 1
            self.samples += 1

    def stop(self) -> ProfileRecorded:
        """Stop sampling; the session's :class:`ProfileRecorded` event."""
        duration = time.perf_counter() - self._started
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        ranked = sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        kept = ranked[: self.config.max_stacks]
        folded = tuple(
            (phase, ";".join(stack), count)
            for (phase, stack), count in kept
        )
        return ProfileRecorded(
            mode="sampling",
            unit="samples",
            samples=self.samples,
            interval_s=self.config.interval_s,
            duration_s=round(duration, 6),
            folded=folded,
            truncated=len(ranked) - len(kept),
        )


class ProfileSession:
    """One profiler + resource sampler pair with a bound event bus.

    The CLI runs one session for the whole process; every farm unit
    capture runs its own inside the executing process.  :meth:`stop`
    emits the session's ``profile`` event (and the resource sampler's
    final reading) onto the bus that was live at :meth:`start`, then
    sets the ``profile.*`` bookkeeping gauges.
    """

    def __init__(self, config: Optional[ProfileConfig] = None) -> None:
        self.config = config if config is not None else ProfileConfig()
        self._bus: Optional[EventBus] = None
        self._metrics: Optional[MetricsRegistry] = None
        self._profiler: Optional[SamplingProfiler] = None
        self._resources: Optional[ResourceSampler] = None

    def start(self) -> "ProfileSession":
        """Start both recorders against the current switchboard."""
        if self._profiler is not None:
            return self
        self._bus = OBS.bus
        self._metrics = OBS.metrics
        self._resources = ResourceSampler(
            self.config.resource_interval_s,
            bus=self._bus,
            metrics=self._metrics,
        ).start()
        self._profiler = SamplingProfiler(self.config).start()
        return self

    def stop(self, emit: bool = True) -> Optional[ProfileRecorded]:
        """Stop both recorders; emit and return the ``profile`` event.

        With ``emit=False`` the threads are stopped and everything is
        discarded — the teardown safety net for :func:`repro.obs.reset`,
        which must never write into sinks it is about to close.
        """
        if self._profiler is None:
            return None
        profiler, self._profiler = self._profiler, None
        resources, self._resources = self._resources, None
        if not emit and resources is not None:
            resources._bus = None  # discard: stop without a final emit
            resources._metrics = None
        if resources is not None:
            resources.stop()
        event = profiler.stop()
        if not emit:
            return None
        if self._bus is not None:
            self._bus.emit(event)
        if self._metrics is not None:
            self._metrics.gauge("profile.samples").set(event.samples)
            self._metrics.gauge("profile.duration_s").set(event.duration_s)
        return event


#: The process-wide session (CLI ``--profile``) and its config; farm
#: collectors read the config to ship per-unit profiling to workers.
_ACTIVE_CONFIG: Optional[ProfileConfig] = None
_ACTIVE_SESSION: Optional[ProfileSession] = None


def active_profile_config() -> Optional[ProfileConfig]:
    """The config of the running process-wide session, else ``None``."""
    return _ACTIVE_CONFIG


def start_profiling(config: Optional[ProfileConfig] = None) -> ProfileSession:
    """Start (or return) the process-wide profiling session."""
    global _ACTIVE_CONFIG, _ACTIVE_SESSION
    if _ACTIVE_SESSION is not None:
        return _ACTIVE_SESSION
    _ACTIVE_CONFIG = config if config is not None else ProfileConfig()
    _ACTIVE_SESSION = ProfileSession(_ACTIVE_CONFIG).start()
    return _ACTIVE_SESSION


def stop_profiling(emit: bool = True) -> Optional[ProfileRecorded]:
    """Stop the process-wide session (idempotent); its profile event."""
    global _ACTIVE_CONFIG, _ACTIVE_SESSION
    session, _ACTIVE_SESSION = _ACTIVE_SESSION, None
    _ACTIVE_CONFIG = None
    if session is None:
        return None
    return session.stop(emit=emit)


# -- trace analysis ------------------------------------------------------------------


def profile_events(
    records: Iterable[Dict[str, object]],
) -> List[Dict[str, object]]:
    """The ``profile`` events of a loaded trace, in trace order."""
    return [r for r in records if r.get("type") == "profile"]


def merged_folded(
    records: Iterable[Dict[str, object]],
    phase: Optional[str] = None,
) -> Dict[Tuple[str, str], int]:
    """Summed folded-stack weights across every profile in the trace.

    Keys are ``(phase, stack)``; ``phase`` filters to one campaign
    phase.  Weights from different units/workers simply add — sample
    counts and milliseconds both accumulate meaningfully per mode.
    """
    totals: Dict[Tuple[str, str], int] = {}
    for event in profile_events(records):
        for entry in event.get("folded") or ():
            try:
                entry_phase, stack, weight = entry[0], entry[1], int(entry[2])
            except (IndexError, TypeError, ValueError):
                continue
            if phase is not None and entry_phase != phase:
                continue
            key = (str(entry_phase), str(stack))
            totals[key] = totals.get(key, 0) + weight
    return totals


@dataclass
class HotPath:
    """One function's aggregated profile weight within a phase."""

    phase: str
    function: str
    self_weight: int = 0
    cum_weight: int = 0


@dataclass
class ProfileSummary:
    """Per-phase hot-path attribution for a loaded trace."""

    unit: str = "samples"
    modes: List[str] = field(default_factory=list)
    total_weight: int = 0
    truncated: int = 0
    phases: Dict[str, List[HotPath]] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.phases


def build_profile_summary(
    records: Iterable[Dict[str, object]],
    phase: Optional[str] = None,
) -> ProfileSummary:
    """Aggregate a trace's profile events into per-phase hot paths.

    Self weight counts stacks where the function is the leaf;
    cumulative weight counts stacks containing it anywhere — the usual
    flame-graph semantics, computed from the folded table.
    """
    records = list(records)
    summary = ProfileSummary()
    for event in profile_events(records):
        mode = str(event.get("mode", "sampling"))
        if mode not in summary.modes:
            summary.modes.append(mode)
        summary.unit = str(event.get("unit", summary.unit))
        summary.truncated += int(event.get("truncated", 0) or 0)
    table: Dict[Tuple[str, str], HotPath] = {}
    for (entry_phase, stack), weight in merged_folded(
        records, phase=phase
    ).items():
        summary.total_weight += weight
        frames = stack.split(";")
        leaf = frames[-1]
        for function in set(frames):
            row = table.get((entry_phase, function))
            if row is None:
                row = table[(entry_phase, function)] = HotPath(
                    phase=entry_phase, function=function
                )
            row.cum_weight += weight
            if function == leaf:
                row.self_weight += weight
    for row in table.values():
        summary.phases.setdefault(row.phase, []).append(row)
    for rows in summary.phases.values():
        rows.sort(key=lambda r: (-r.self_weight, -r.cum_weight, r.function))
    return summary


def _phase_order(summary: ProfileSummary) -> List[str]:
    """Phases by total self weight, descending (ties by name)."""
    weights = {
        phase: sum(r.self_weight for r in rows)
        for phase, rows in summary.phases.items()
    }
    return sorted(weights, key=lambda p: (-weights[p], p))


def render_profile(
    summary: ProfileSummary, top: int = 15
) -> str:
    """``repro obs profile``: the per-phase hot-path table as text."""
    if summary.empty:
        return "(no profile events in trace — record one with --profile)"
    unit = summary.unit
    lines = [
        f"== profile: {summary.total_weight} {unit} across "
        f"{len(summary.phases)} phase(s) "
        f"(mode: {', '.join(summary.modes)}) =="
    ]
    for phase in _phase_order(summary):
        rows = summary.phases[phase]
        phase_total = sum(r.self_weight for r in rows)
        lines.append(f"phase {phase}: {phase_total} {unit}")
        lines.append(
            f"  {'self':>8} {'self%':>6} {'cum':>8} {'cum%':>6}  function"
        )
        for row in rows[:top]:
            self_pct = 100.0 * row.self_weight / max(1, phase_total)
            cum_pct = 100.0 * row.cum_weight / max(1, phase_total)
            lines.append(
                f"  {row.self_weight:>8} {self_pct:>5.1f}% "
                f"{row.cum_weight:>8} {cum_pct:>5.1f}%  {row.function}"
            )
        hidden = len(rows) - min(len(rows), top)
        if hidden > 0:
            lines.append(f"  ... {hidden} more function(s)")
    if summary.truncated:
        lines.append(
            f"({summary.truncated} folded stack(s) truncated at record "
            f"time — raise ProfileConfig.max_stacks to keep more)"
        )
    return "\n".join(lines)


def profile_summary_data(
    summary: ProfileSummary, top: int = 15
) -> Dict[str, object]:
    """Machine-readable form of the hot-path table (``--json``)."""
    return {
        "unit": summary.unit,
        "modes": list(summary.modes),
        "total_weight": summary.total_weight,
        "truncated": summary.truncated,
        "phases": {
            phase: [
                {
                    "function": row.function,
                    "self": row.self_weight,
                    "cum": row.cum_weight,
                }
                for row in summary.phases[phase][:top]
            ]
            for phase in _phase_order(summary)
        },
    }


def write_folded(
    records: Iterable[Dict[str, object]],
    path: Union[str, Path],
    phase: Optional[str] = None,
) -> int:
    """Export a trace's profiles as collapsed stacks; lines written.

    One ``phase;frame;...;frame weight`` line per distinct stack — the
    flamegraph.pl collapsed format, which speedscope also imports
    directly.  The phase rides as the root frame so per-phase flames
    separate visually.
    """
    totals = merged_folded(records, phase=phase)
    ordered = sorted(totals.items(), key=lambda kv: (kv[0][0], -kv[1], kv[0][1]))
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for (entry_phase, stack), weight in ordered:
            handle.write(f"{entry_phase};{stack} {weight}\n")
    return len(ordered)


# -- worker utilization --------------------------------------------------------------


def worker_utilization(
    records: Iterable[Dict[str, object]],
) -> List[WorkerUtilization]:
    """Per-worker busy/idle utilization derived from unit spans.

    A view of :meth:`repro.obs.report.TraceRollup.worker_utilization`.
    """
    return TraceRollup.of(records).worker_utilization()


def render_worker_utilization(rows: Sequence[WorkerUtilization]) -> str:
    """The per-worker utilization table as aligned text."""
    if not rows:
        return "(no farm unit spans in trace)"
    lines = [
        f"  {'worker':<24}{'units':>6}{'busy s':>10}{'util':>7}"
        f"{'cpu s':>9}{'peak rss':>12}"
    ]
    for row in rows:
        rss = f"{row.peak_rss_kb / 1024.0:.1f} MB" if row.peak_rss_kb else "n/a"
        cpu = f"{row.cpu_s:.3f}" if row.cpu_s else "n/a"
        lines.append(
            f"  {row.worker:<24}{row.units:>6}{row.busy_s:>10.3f}"
            f"{100.0 * row.utilization:>6.1f}%{cpu:>9}{rss:>12}"
        )
    return "\n".join(lines)


__all__ = [
    "DEFAULT_INTERVAL_S",
    "DEFAULT_RESOURCE_INTERVAL_S",
    "HotPath",
    "ProfileConfig",
    "ProfileSession",
    "ProfileSummary",
    "ResourceSampler",
    "SamplingProfiler",
    "WorkerUtilization",
    "active_profile_config",
    "build_profile_summary",
    "merged_folded",
    "process_cpu_seconds",
    "profile_events",
    "profile_summary_data",
    "read_resource_sample",
    "render_profile",
    "render_worker_utilization",
    "start_profiling",
    "stop_profiling",
    "worker_utilization",
    "write_folded",
]
