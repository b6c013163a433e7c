"""Structured telemetry for the characterization stack.

The paper's central claim is a *measurement-cost* argument — SUTP's
incremental walk (eqs. 3/4) against the full-range search (eq. 2), the
NN+GA hunt against exhaustive random characterization (Table 1).  This
package turns every such cost into an observable:

* :mod:`repro.obs.events` — typed events (one measurement, one SUTP walk
  step, one GA generation, one NN epoch, one campaign phase) on an
  :class:`EventBus`, with JSONL (:class:`TraceWriter`), in-memory
  (:class:`RingBufferSink`) and logging (:class:`LoggingSink`) sinks,
  plus the process-local trace context (campaign/unit/worker ids)
  stamped onto every serialized event;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and streaming histograms (``ate.measurements``,
  ``sutp.fallbacks``, ``search.probes_per_trip``, ``ga.fitness_evals``,
  ``nn.epoch_loss``, ...);
* :mod:`repro.obs.timing` — :func:`span`/:func:`timed` wall-clock phase
  timers feeding both;
* :mod:`repro.obs.collector` — cross-process farm telemetry: per-unit
  worker spools, trace-context propagation, the deterministic
  submission-order merge, and the live :class:`FarmProgressReporter`;
* :mod:`repro.obs.timeline` — Chrome-trace / Perfetto export of a
  merged farm trace (one track per worker);
* :mod:`repro.obs.history` — the per-campaign ``runs.jsonl`` run store
  and the cost-regression comparison behind ``repro obs compare``;
* :mod:`repro.obs.report` — text summaries, including the fig. 3
  per-test cost profile rebuilt from a live trace and the tolerant
  :func:`load_trace` used by the ``repro obs`` commands;
* :mod:`repro.obs.insight` — decision-level introspection: the SUTP
  search audit (RTP reuse vs. window escalation, drift, wasted probes),
  NN ensemble vote breakdowns with calibration, GA convergence and
  operator attribution, and the WCR classification tally;
* :mod:`repro.obs.html` — ``repro obs report``: every insight view plus
  the shmoo heatmap, resource utilization and run history rendered into
  one self-contained HTML file (inline SVG, no scripts, no external
  assets);
* :mod:`repro.obs.profile` — continuous profiling & resource telemetry:
  a background sampling profiler folding stacks per campaign phase, a
  resource sampler (``getrusage`` CPU, RSS, GC) emitting
  ``resource_sample`` events, per-worker sessions that ride the farm telemetry merge, and
  the hot-path / folded-stack / utilization analysis behind
  ``repro obs profile`` and ``repro obs flame``.

Everything hangs off the global :data:`OBS` switchboard and is **off by
default**: the disabled path is a single attribute check, so benchmarks
and production runs pay nothing.  See ``docs/observability.md``.
"""

from repro.obs.collector import (
    DEFAULT_SPOOL_CAPACITY,
    FarmCollector,
    FarmProgressReporter,
    SpoolSink,
    UnitCapture,
    WorkerCaptureConfig,
    WorkerTelemetry,
    run_unit_captured,
)
from repro.obs.events import (
    BrokerCampaignStarted,
    BrokerClockSync,
    CampaignPhase,
    DuplicateSuppressed,
    Event,
    EventBus,
    FarmCheckpointDropped,
    FarmRunStarted,
    FarmUnitCompleted,
    FarmUnitDispatched,
    FarmUnitMerged,
    FarmUnitRetried,
    FarmUnitSkipped,
    FarmWorkerPool,
    GAGeneration,
    LeaseCompleted,
    LeaseExpired,
    LeaseHeartbeat,
    LeaseIssued,
    LeaseReissued,
    LoggingSink,
    MeasurementEvent,
    NNCalibration,
    NNEpoch,
    NNVote,
    ProfileRecorded,
    RequestContext,
    ResourceSample,
    RingBufferSink,
    SearchConverged,
    SearchStarted,
    SUTPFallback,
    SUTPTestMeasured,
    SUTPWalkStep,
    SpoolRestored,
    SUTPWindowEscalated,
    TraceWriter,
    WCRClassified,
    WorkerJoined,
    WorkerLeft,
    clear_trace_context,
    current_trace_context,
    known_event_types,
    set_trace_context,
    trace_context,
)
from repro.obs.alerts import (
    AlertResult,
    AlertRule,
    AlertRuleError,
    DEFAULT_RULES,
    evaluate_rules,
    parse_rule,
    render_results,
    store_samples,
    worst_level,
)
from repro.obs.exposition import (
    ExpositionError,
    Sample,
    find_sample,
    parse_exposition,
    render_exposition,
    sanitize_metric_name,
)
from repro.obs.history import (
    RunComparison,
    RunHistory,
    build_run_record,
    compare_runs,
)
from repro.obs.farm import (
    BROKER_EVENT_TYPES,
    align_records,
    extract_clock_sync,
    render_farm_top,
)
from repro.obs.html import build_html_report
from repro.obs.insight import (
    GAInsight,
    INSIGHT_EVENT_TYPES,
    RunInsight,
    SUTPAudit,
    SUTPAuditRow,
    VoteInsight,
    VoteRecord,
    WCRInsight,
    build_insight,
    insight_events,
    render_insight,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import (
    ProfileConfig,
    ProfileSession,
    ProfileSummary,
    ResourceSampler,
    SamplingProfiler,
    WorkerUtilization,
    active_profile_config,
    build_profile_summary,
    process_cpu_seconds,
    profile_summary_data,
    read_resource_sample,
    render_profile,
    render_worker_utilization,
    start_profiling,
    stop_profiling,
    worker_utilization,
    write_folded,
)
from repro.obs.report import (
    TraceLoadResult,
    load_trace,
    per_test_measurement_counts,
    read_trace,
    render_metrics_summary,
    render_slowest,
    render_trace_cost_profile,
    render_trace_summary,
    trace_summary_data,
)
from repro.obs.runtime import (
    OBS,
    Observability,
    configure,
    disable,
    enable,
    reset,
)
from repro.obs.timeline import build_chrome_trace, write_chrome_trace
from repro.obs.timing import span, timed

__all__ = [
    "AlertResult",
    "AlertRule",
    "AlertRuleError",
    "BROKER_EVENT_TYPES",
    "BrokerCampaignStarted",
    "BrokerClockSync",
    "CampaignPhase",
    "Counter",
    "DEFAULT_RULES",
    "DEFAULT_SPOOL_CAPACITY",
    "DuplicateSuppressed",
    "Event",
    "ExpositionError",
    "EventBus",
    "FarmCheckpointDropped",
    "FarmCollector",
    "FarmProgressReporter",
    "FarmRunStarted",
    "FarmUnitCompleted",
    "FarmUnitDispatched",
    "FarmUnitMerged",
    "FarmUnitRetried",
    "FarmUnitSkipped",
    "FarmWorkerPool",
    "GAGeneration",
    "GAInsight",
    "Gauge",
    "Histogram",
    "INSIGHT_EVENT_TYPES",
    "LeaseCompleted",
    "LeaseExpired",
    "LeaseHeartbeat",
    "LeaseIssued",
    "LeaseReissued",
    "LoggingSink",
    "MeasurementEvent",
    "MetricsRegistry",
    "NNCalibration",
    "NNEpoch",
    "NNVote",
    "OBS",
    "Observability",
    "ProfileConfig",
    "ProfileRecorded",
    "ProfileSession",
    "ProfileSummary",
    "RequestContext",
    "ResourceSample",
    "ResourceSampler",
    "RingBufferSink",
    "RunComparison",
    "RunHistory",
    "RunInsight",
    "SUTPAudit",
    "Sample",
    "SUTPAuditRow",
    "SUTPFallback",
    "SUTPTestMeasured",
    "SUTPWalkStep",
    "SUTPWindowEscalated",
    "SamplingProfiler",
    "SearchConverged",
    "SearchStarted",
    "SpoolRestored",
    "SpoolSink",
    "TraceLoadResult",
    "TraceWriter",
    "UnitCapture",
    "VoteInsight",
    "VoteRecord",
    "WCRClassified",
    "WCRInsight",
    "WorkerCaptureConfig",
    "WorkerJoined",
    "WorkerLeft",
    "WorkerTelemetry",
    "WorkerUtilization",
    "active_profile_config",
    "align_records",
    "build_chrome_trace",
    "build_html_report",
    "build_insight",
    "build_profile_summary",
    "build_run_record",
    "clear_trace_context",
    "compare_runs",
    "configure",
    "current_trace_context",
    "disable",
    "enable",
    "evaluate_rules",
    "extract_clock_sync",
    "find_sample",
    "insight_events",
    "known_event_types",
    "load_trace",
    "parse_exposition",
    "parse_rule",
    "per_test_measurement_counts",
    "process_cpu_seconds",
    "profile_summary_data",
    "read_resource_sample",
    "read_trace",
    "render_exposition",
    "render_farm_top",
    "render_insight",
    "render_metrics_summary",
    "render_profile",
    "render_results",
    "render_slowest",
    "render_trace_cost_profile",
    "render_trace_summary",
    "render_worker_utilization",
    "reset",
    "run_unit_captured",
    "sanitize_metric_name",
    "set_trace_context",
    "span",
    "start_profiling",
    "stop_profiling",
    "store_samples",
    "timed",
    "trace_context",
    "trace_summary_data",
    "worker_utilization",
    "worst_level",
    "write_chrome_trace",
    "write_folded",
]
