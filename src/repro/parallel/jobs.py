"""Picklable simulation jobs and the process-pool execution primitive.

A :class:`JobSpec` fully describes one simulator run — workload generation
parameters, processor configuration and a *fresh* prefetcher instance —
using only picklable state, so it can be shipped to a
``ProcessPoolExecutor`` worker.  Traces are deliberately **not** part of
the spec: each attempt builds its job's inputs (:meth:`JobSpec.build_inputs`)
in the process that runs it, so the workers of a pooled sweep generate
distinct traces in parallel and share them through the on-disk ``.npz``,
filter-plane and epoch-segment caches (:mod:`repro.workloads.cache`),
while the parent generates nothing.

Determinism
-----------
A job's result depends only on its spec: traces are deterministic in
``(workload, records, seed, scale)``, prefetcher state is never shared
between runs, and the simulator is single-threaded.  ``run_jobs`` returns
results in input order regardless of completion order, so parallel and
sequential execution are bit-for-bit identical.

Identity
--------
:func:`job_identity` is the one key every store finds a job under: the
result entries of checkpoint directories and the result cache's disk
tier, the cache's memory tier and the service's batch dedup.  It carries
the model and generator versions.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import os
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..engine.config import ProcessorConfig
from ..engine.filter_plane import get_epoch_segments, get_filter_plane, kernel_enabled
from ..engine.simulator import MODEL_VERSION, EpochSimulator
from ..engine.stats import SimulationResult
from ..prefetchers.base import Prefetcher
from ..workloads.commercial import GENERATOR_VERSION, PROFILES
from ..workloads.registry import _cached_commercial, make_workload
from ..workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - cycle: resilience.executor imports us
    from ..obs.bus import EventBus
    from ..obs.metrics import SimulationMetrics
    from ..resilience.policy import ExecutionPolicy

__all__ = [
    "JobSpec",
    "job_identity",
    "run_jobs",
    "resolve_jobs",
    "warm_trace_cache",
]

log = logging.getLogger(__name__)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``$REPRO_JOBS``, else 1.

    ``0`` (explicit or from the environment) means "all cores".
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            log.warning("ignoring non-integer REPRO_JOBS=%r", env)
            return 1
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def job_identity(
    workload: str, records: int, seed: int, scale: float, n_threads: int,
    warmup_records: Optional[int], config_fp: tuple, prefetcher: str, overrides: str,
) -> str:
    """The versioned identity of one simulation: a sha256 hex digest.

    ``prefetcher`` is the registry name (``"none"`` for none) and
    ``overrides`` its :func:`~repro.prefetchers.registry.canonical_overrides`.
    The label (results carry none) and the execution path (the kernel
    and the scalar walk are bit-identical) are left out.
    """
    fields = [workload, records, seed, float(scale), n_threads, warmup_records,
              config_fp, prefetcher, overrides, MODEL_VERSION, GENERATOR_VERSION]
    canonical = json.dumps(fields, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class JobSpec:
    """One simulator run, described by picklable state only.

    ``prefetcher`` must be a freshly constructed instance (its initial
    state is part of the job's identity); ``None`` runs the
    no-prefetching baseline.  ``n_threads > 0`` requests the CMP
    interleaving of :mod:`repro.workloads.multithread`, with ``records``
    then counting per thread.
    """

    workload: str
    records: int
    seed: int
    config: ProcessorConfig
    prefetcher: Optional[Prefetcher] = None
    label: str = ""
    scale: float = 1.0
    n_threads: int = 0
    warmup_records: Optional[int] = None

    def identity(self) -> str:
        """This job's :func:`job_identity`.

        A prefetcher built by hand, without the ``built_as`` pair that
        ``build_prefetcher`` records, is named by its class and a sha256
        of its pickled state; ``TypeError`` if it does not pickle.
        """
        pf = self.prefetcher
        if pf is None:
            name, overrides = "none", ""
        elif pf.built_as is not None:
            name, overrides = pf.built_as
        else:
            cls = type(pf)
            try:
                state = pickle.dumps(pf)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise TypeError(f"cannot identify hand-built {cls.__qualname__}: {exc}") from None
            name = f"{cls.__module__}.{cls.__qualname__}"
            overrides = hashlib.sha256(state).hexdigest()
        return job_identity(
            self.workload, self.records, self.seed, self.scale, self.n_threads,
            self.warmup_records, self.config.fingerprint(), name, overrides,
        )

    def build_trace(self) -> Trace:
        if self.n_threads > 0:
            from ..workloads.multithread import make_cmp_workload

            return make_cmp_workload(
                self.workload,
                n_threads=self.n_threads,
                records_per_thread=self.records,
                seed=self.seed,
            )
        return make_workload(
            self.workload, records=self.records, seed=self.seed, scale=self.scale
        )

    def _builds_inputs(self) -> bool:
        """Whether :meth:`build_inputs` builds anything: only commercial
        traces are memoised, so a synthetic or CMP trace built early
        would be built again by the run."""
        return self.n_threads == 0 and self.workload in PROFILES

    def build_inputs(self) -> None:
        """Build this job's memoised inputs in the calling process: the
        commercial trace, its filter plane and, when the run takes the
        kernel, its epoch segments.

        Each layer is memoised in-process and persisted through the
        on-disk caches, so the :meth:`run` that follows finds all three
        built, and other processes load the entries instead of building
        them again.  The executor calls this inside every attempt, so a
        pool worker builds the inputs of the jobs it runs, under the
        attempt's retries, fault hooks and timeout.
        """
        if not self._builds_inputs():
            return
        trace = self.build_trace()
        plane = get_filter_plane(trace, *self.l1_geometry_keys())
        if self.takes_kernel():
            get_epoch_segments(trace, plane, *self.segment_geometry_key())

    def run(
        self,
        bus: "Optional[EventBus]" = None,
        metrics: "Optional[SimulationMetrics]" = None,
    ) -> SimulationResult:
        # A memo hit once build_inputs() ran in this process, as every
        # executor attempt does; a bare run() builds its own inputs.
        trace = self.build_trace()
        # Simulate a *copy* of the prefetcher: running warms its tables, and
        # an idempotent spec is what makes in-process fallback (and re-runs)
        # bit-identical to shipping the spec through the pickle boundary.
        # ``metrics`` are fed by the run itself (worker-side telemetry,
        # kernel kept); an attached ``bus`` sees every event but forces the
        # scalar walk.  Neither alters simulation state, so results stay
        # bit-identical with or without them.
        sim = EpochSimulator(
            self.config,
            copy.deepcopy(self.prefetcher),
            cpi_perf=trace.meta.cpi_perf,
            overlap=trace.meta.overlap,
            bus=bus,
            metrics=metrics,
        )
        return sim.run(trace, warmup_records=self.warmup_records)

    def l1_geometry_keys(self) -> "tuple[tuple, tuple]":
        """The (L1I, L1D) geometry keys this spec's hierarchy will use."""
        cfg = self.config
        return (
            (cfg.l1i.size_bytes, cfg.l1i.ways, cfg.line_size),
            (cfg.l1d.size_bytes, cfg.l1d.ways, cfg.line_size),
        )

    def takes_kernel(self) -> bool:
        """Whether this spec's run takes the epoch kernel, and so reads
        its epoch segments: with the kernel on, for no prefetcher or one
        that sets ``supports_epoch_batch`` (every Figure 9 scheme; the
        kernel's own checks still apply)."""
        return kernel_enabled() and (
            self.prefetcher is None or self.prefetcher.supports_epoch_batch
        )

    def segment_geometry_key(self) -> "tuple[tuple, int]":
        """The (L2 geometry, ROB size) key of this spec's epoch segments."""
        cfg = self.config
        return ((cfg.l2.size_bytes, cfg.l2.ways, cfg.line_size), cfg.rob_size)


def warm_trace_cache(
    specs: Sequence[JobSpec], bus: "Optional[EventBus]" = None
) -> None:
    """Build the inputs of a known working set ahead of its jobs.

    A shard that knows its expected working set (``serve --prewarm``)
    builds those traces, filter planes and epoch segments before
    reporting ready, so its first real request is answered from warm
    state instead of paying the build under traffic.  Each spec runs
    :meth:`JobSpec.build_inputs`, and the call counts what that added to
    the in-process memos: a trace-memo miss, and a filter plane or epoch
    segmentation the memos did not hold before.  Emits one
    :class:`~repro.obs.events.TraceCacheWarmed` event per call that
    added anything.  Sweeps do not call this: each attempt builds its
    own job's inputs.
    """
    built = {"trace": 0, "plane": 0, "segment": 0}
    for spec in specs:
        if not spec._builds_inputs():
            continue
        misses = _cached_commercial.cache_info().misses
        trace = spec.build_trace()
        built["trace"] += _cached_commercial.cache_info().misses - misses
        plane = trace._plane_cache.get(spec.l1_geometry_keys())
        built["plane"] += plane is None
        built["segment"] += spec.takes_kernel() and (
            plane is None or spec.segment_geometry_key() not in plane._segment_cache
        )
        spec.build_inputs()
    if any(built.values()):
        from ..obs.bus import peek_global_bus
        from ..obs.events import TraceCacheWarmed

        event = TraceCacheWarmed(
            traces=built["trace"],
            planes=built["plane"],
            segments=built["segment"],
            total_specs=len(specs),
        )
        target = bus if bus is not None else peek_global_bus()
        if target is not None and target.wants(TraceCacheWarmed):
            target.emit(event)


def run_jobs(
    specs: Iterable[JobSpec],
    jobs: Optional[int] = None,
    policy: "Optional[ExecutionPolicy]" = None,
    bus: "Optional[EventBus]" = None,
) -> "list[SimulationResult]":
    """Run every job under ``policy`` and return results in input order.

    This is a thin facade over :func:`repro.resilience.executor.execute`,
    which owns pool management, bounded retry, per-job timeouts,
    ``BrokenProcessPool`` recovery and checkpoint resume.  With the
    default policy the behaviour matches the historical primitive:
    ``policy.jobs > 1`` fans out over a ``ProcessPoolExecutor``, and
    anything that prevents parallel execution — unpicklable specs, a pool
    that cannot start — degrades to in-process execution with a warning
    (and an :class:`~repro.obs.events.ExecutionDegraded` event) rather
    than failing the run.  Genuine simulation errors propagate unchanged
    in both modes.

    ``jobs`` is a convenience for the one-knob callers; it is folded into
    the policy (an explicit ``policy.jobs`` wins).  On a single-core
    machine a pool is pure overhead, so specs run in-process even when
    more workers were requested; ``$REPRO_FORCE_POOL=1`` forces the pool
    anyway (e.g. to exercise the pickle boundary in tests).
    """
    from ..resilience.executor import execute
    from ..resilience.policy import ExecutionPolicy

    if policy is None:
        policy = ExecutionPolicy(jobs=jobs)
    elif policy.jobs is None and jobs is not None:
        policy = policy.replace(jobs=jobs)
    return execute(list(specs), policy, bus=bus)
