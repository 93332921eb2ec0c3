"""The stable public facade of the reproduction.

``repro.api`` is the one import that downstream code (notebooks, the
benches, external tooling) should depend on.  Everything exported here
carries a stability promise: names stay put across refactors of the
underlying packages, and behaviour changes only with a deprecation
cycle.  Internals — anything *not* in ``__all__`` below — may move or
change between versions without notice.

The surface, by theme
---------------------
Simulation
    :class:`EpochSimulator`, :class:`ProcessorConfig`,
    :class:`CacheConfig`, :class:`SimulationResult`,
    :class:`SimulationStats`
Workloads
    :func:`make_workload`, :data:`WORKLOADS`,
    :data:`COMMERCIAL_WORKLOADS`, :class:`Trace`
Prefetchers
    :func:`build_prefetcher`, :data:`PREFETCHERS`, :class:`Prefetcher`,
    :func:`make_ebcp`
Execution
    :class:`ExecutionPolicy` (timeouts, retries, checkpoints, fault
    injection), :class:`JobSpec`, :func:`run_jobs`
Sweep specs (the declarative surface)
    :class:`SweepSpec` with :func:`load_spec` / :func:`loads_spec` /
    :func:`dump_spec`, executed by :func:`run_spec` (local) or
    :func:`submit_spec` (streamed through a service); :func:`expand`
    lowers a spec to its job grid, :class:`SweepResult` carries the
    results (:meth:`SweepResult.grid` as :class:`SweepPoint` lists),
    :class:`SpecError` / :class:`SpecVersionError` are the typed
    validation failures, :data:`SPEC_VERSION` is the schema version
    this build reads and writes
Experiments
    :func:`run_experiment` regenerates one paper table/figure from its
    committed ``specs/*.toml`` file; :data:`EXPERIMENTS` maps each
    experiment id to its module (spec file plus assembly step).
    :class:`FigureResult` and :class:`TableResult` are the rendered
    shapes experiments return.
Observability
    :class:`EventBus`, :class:`MetricsRegistry`, and the tracing
    vocabulary :class:`TraceContext` / :class:`SpanRecorder` /
    :class:`TelemetrySink` with :func:`render_prometheus` exposition
Service
    :class:`ServiceClient` / :class:`AsyncServiceClient` (talk to a
    running ``repro-ebcp serve``) with :meth:`~ServiceClient.sweep` /
    :meth:`~ServiceClient.iter_sweep` streaming (:class:`SweepFrame`
    per job), :class:`ServedResult`, :class:`ServiceConfig`,
    :class:`SimulationService`, :func:`serve`,
    :class:`BackgroundService` (in-process harness for tests and
    notebooks), :class:`ResultCache`, :data:`PROTOCOL_VERSION`, the
    sharded tier :class:`ShardedService` with :class:`HashRing` /
    :func:`routing_key` consistent-hash routing, and the typed client
    errors :class:`ServiceError` / :class:`ServiceBusyError`

>>> from repro import api
>>> spec = api.load_spec("specs/table1.toml")
>>> result = api.run_spec(spec, policy=api.ExecutionPolicy(jobs=2))
... # doctest: +SKIP
"""

from __future__ import annotations

from .analysis.sweep import SweepPoint
from .core import make_ebcp
from .engine import (
    CacheConfig,
    EpochSimulator,
    ProcessorConfig,
    SimulationResult,
    SimulationStats,
)
from .experiments import EXPERIMENTS
from .experiments.common import FigureResult, TableResult
from .experiments.from_spec import run_experiment
from .obs import (
    EventBus,
    MetricsRegistry,
    SpanRecorder,
    TelemetrySink,
    TraceContext,
    render_prometheus,
)
from .parallel import JobSpec, run_jobs
from .prefetchers import PREFETCHERS, Prefetcher, build_prefetcher
from .resilience import ExecutionPolicy
from .service import (
    PROTOCOL_VERSION,
    AsyncServiceClient,
    BackgroundService,
    HashRing,
    ResultCache,
    ServedResult,
    ServiceBusyError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ShardedService,
    SimulationService,
    routing_key,
    serve,
)
from .service.client import SweepFrame
from .spec import (
    SPEC_VERSION,
    SpecError,
    SpecVersionError,
    SweepResult,
    SweepSpec,
    dump_spec,
    dumps_spec,
    expand,
    load_spec,
    loads_spec,
    run_spec,
    submit_spec,
)
from .workloads import COMMERCIAL_WORKLOADS, WORKLOADS, Trace, make_workload

__all__ = [
    "AsyncServiceClient",
    "BackgroundService",
    "CacheConfig",
    "COMMERCIAL_WORKLOADS",
    "EXPERIMENTS",
    "EpochSimulator",
    "EventBus",
    "ExecutionPolicy",
    "FigureResult",
    "HashRing",
    "JobSpec",
    "MetricsRegistry",
    "PREFETCHERS",
    "PROTOCOL_VERSION",
    "Prefetcher",
    "ProcessorConfig",
    "ResultCache",
    "SPEC_VERSION",
    "ServedResult",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ShardedService",
    "SimulationResult",
    "SimulationStats",
    "SimulationService",
    "SpanRecorder",
    "SpecError",
    "SpecVersionError",
    "SweepFrame",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "TableResult",
    "TelemetrySink",
    "Trace",
    "TraceContext",
    "WORKLOADS",
    "build_prefetcher",
    "dump_spec",
    "dumps_spec",
    "expand",
    "load_spec",
    "loads_spec",
    "make_ebcp",
    "make_workload",
    "render_prometheus",
    "routing_key",
    "run_experiment",
    "run_jobs",
    "run_spec",
    "serve",
    "submit_spec",
]
