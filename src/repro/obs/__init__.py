"""Observability: typed event bus, metrics registry, exporters.

The ``repro.obs`` package is the simulator's introspection surface.  The
engine, memory hierarchy, bandwidth model and prefetchers all publish
typed events on a shared :class:`EventBus`; metrics collectors and trace
exporters are just subscribers.  With no bus attached (the default) the
whole layer costs one ``is None`` check per emission site.

Quick tour
----------
>>> from repro import EpochSimulator, ProcessorConfig, make_workload
>>> from repro.obs import EventBus, SimulationMetrics, EpochClosed
>>> bus = EventBus()
>>> metrics = SimulationMetrics(bus)
>>> closes = bus.subscribe(EpochClosed, lambda e: None)
>>> trace = make_workload("database", records=20_000)
>>> sim = EpochSimulator(ProcessorConfig.scaled(), None, bus=bus)
>>> result = sim.run(trace)
>>> metrics.epochs.value > 0
True
"""

from .bus import EventBus, global_bus, peek_global_bus, reset_global_bus
from .events import (
    EVENT_TYPES,
    AccessResolved,
    BudgetExhausted,
    CacheQuarantined,
    EpochClosed,
    Event,
    ExecutionDegraded,
    JobResumed,
    JobRetried,
    JobTimedOut,
    PrefetchDropped,
    PrefetchFilled,
    PrefetchHit,
    PrefetchIssued,
    TableRead,
    TableWrite,
    TraceCacheWarmed,
    WorkerCrashed,
    event_payload,
)
from .exporters import (
    ChromeTraceExporter,
    JsonlTraceWriter,
    PhaseTimer,
    RunManifest,
    read_jsonl,
)
from .log import configure_logging
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ResilienceMetrics,
    RouterMetrics,
    ServiceMetrics,
    SimulationMetrics,
)
from .prometheus import render_prometheus
from .tracing import (
    SpanRecorder,
    TelemetrySink,
    TraceContext,
    chrome_trace_from_spans,
    wall_us,
    write_chrome_trace,
)

__all__ = [
    "AccessResolved",
    "BudgetExhausted",
    "CacheQuarantined",
    "ChromeTraceExporter",
    "Counter",
    "EpochClosed",
    "Event",
    "EventBus",
    "EVENT_TYPES",
    "ExecutionDegraded",
    "Gauge",
    "Histogram",
    "JobResumed",
    "JobRetried",
    "JobTimedOut",
    "JsonlTraceWriter",
    "MetricsRegistry",
    "PhaseTimer",
    "PrefetchDropped",
    "PrefetchFilled",
    "PrefetchHit",
    "PrefetchIssued",
    "ResilienceMetrics",
    "RouterMetrics",
    "RunManifest",
    "ServiceMetrics",
    "SimulationMetrics",
    "SpanRecorder",
    "TableRead",
    "TableWrite",
    "TelemetrySink",
    "TraceCacheWarmed",
    "TraceContext",
    "WorkerCrashed",
    "chrome_trace_from_spans",
    "configure_logging",
    "event_payload",
    "global_bus",
    "peek_global_bus",
    "read_jsonl",
    "render_prometheus",
    "reset_global_bus",
    "wall_us",
    "write_chrome_trace",
]
