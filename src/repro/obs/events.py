"""Typed event catalogue for the observability layer.

Every interesting thing that happens inside the simulator is modelled as
a small frozen dataclass published on an :class:`~repro.obs.bus.EventBus`.
The catalogue mirrors the paper's own vocabulary — epochs, prefetch
lifecycle, correlation-table traffic, bus saturation — so that a
subscriber can reconstruct the epoch-level behaviour the evaluation
argues about (epoch counts, miss clustering, skip-2 timeliness) without
touching simulator internals.

Emission points
---------------
========================  ==================================================
Event                     Emitted by
========================  ==================================================
``EpochClosed``           :class:`repro.engine.simulator.EpochSimulator`
``AccessResolved``        :class:`repro.memory.hierarchy.CacheHierarchy`
``PrefetchIssued``        :meth:`repro.prefetchers.base.Prefetcher.make_request`
``PrefetchFilled``        the simulator's per-window bus accounting
``PrefetchDropped``       the simulator (bandwidth) / the prefetch buffer
                          (capacity eviction of a never-used line)
``PrefetchHit``           the simulator, on an averted off-chip miss
``TableRead``             :class:`repro.prefetchers.base.TrafficMeter`
``TableWrite``            :class:`repro.prefetchers.base.TrafficMeter`
``BudgetExhausted``       :class:`repro.memory.bandwidth.EpochBudget`
``KernelFallback``        :class:`repro.engine.simulator.EpochSimulator`
``JobRetried``            :mod:`repro.resilience.executor`
``JobTimedOut``           :mod:`repro.resilience.executor`
``WorkerCrashed``         :mod:`repro.resilience.executor`
``JobResumed``            :mod:`repro.resilience.executor`
``ExecutionDegraded``     :mod:`repro.resilience.executor`
``CacheQuarantined``      :mod:`repro.resilience.integrity`
``RequestReceived``       :class:`repro.service.server.SimulationService`
``RequestCompleted``      :class:`repro.service.server.SimulationService`
``QueueSaturated``        :class:`repro.service.server.SimulationService`
========================  ==================================================

The resilience events describe the *execution harness* rather than the
simulated machine: bounded retries, per-job timeouts, worker-pool
crashes, checkpoint resumes, degraded (in-process) execution and
quarantined cache entries.  They are emitted on the bus passed to the
executor, or on the process-wide :func:`repro.obs.bus.global_bus` when no
bus was attached but one exists.

The service events describe the request plane of the resident
simulation service (:mod:`repro.service`): request admission,
completion (with end-to-end latency and cache disposition) and
backpressure (a request bounced off the full queue).  Shard supervision
in the sharded front-end publishes no events: its surface is log lines,
the router's restart/resize counters and per-shard uptime gauges, and
the per-shard ``state``/``restarts``/``uptime_s`` rows of ``ping`` and
``stats``.

Events deliberately carry plain scalars (plus the rich ``Epoch`` /
``Access`` objects where subscribers need them); :func:`event_payload`
flattens any event into a JSON-safe dict for the exporters.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - the engine/memory layers import us
    from ..engine.epoch import Epoch
    from ..memory.hierarchy import HierarchyResult
    from ..memory.request import Access

__all__ = [
    "Event",
    "EpochClosed",
    "AccessResolved",
    "PrefetchIssued",
    "PrefetchFilled",
    "PrefetchDropped",
    "PrefetchHit",
    "TableRead",
    "TableWrite",
    "BudgetExhausted",
    "KernelFallback",
    "JobRetried",
    "JobTimedOut",
    "WorkerCrashed",
    "JobResumed",
    "ExecutionDegraded",
    "CacheQuarantined",
    "RequestReceived",
    "RequestCompleted",
    "QueueSaturated",
    "TraceCacheWarmed",
    "EVENT_TYPES",
    "event_payload",
]


class Event:
    """Marker base class for all observability events."""

    __slots__ = ()


@dataclass(frozen=True)
class EpochClosed(Event):
    """A real epoch closed: its stall resolved and its window was charged.

    ``mlp`` equals ``n_misses`` by construction — in the epoch model every
    miss of an epoch overlaps the same single stall, so the epoch's
    memory-level parallelism *is* its miss count (paper Section 2.1).
    """

    epoch: Epoch
    index: int
    n_misses: int
    start_cycle: float
    duration_cycles: float
    read_utilization: float
    queueing_cycles: float
    measured: bool
    #: Total miss addresses buffered in the prefetcher's EMAB at close
    #: (-1 when the active prefetcher has no EMAB).
    emab_occupancy: int = -1
    #: Lines resident in the prefetch buffer at close.
    buffer_occupancy: int = 0

    @property
    def mlp(self) -> int:
        return self.n_misses


@dataclass(frozen=True)
class AccessResolved(Event):
    """One L2 access (== L1 miss) classified by the hierarchy."""

    access: Access
    line: int
    result: HierarchyResult
    cycle: float

    @property
    def outcome(self) -> str:
        return self.result.outcome.value


@dataclass(frozen=True)
class PrefetchIssued(Event):
    """A prefetcher emitted a request (before redundancy filtering)."""

    line: int
    source: str
    priority: int
    epochs_until_ready: int
    table_index: Optional[int] = None


@dataclass(frozen=True)
class PrefetchFilled(Event):
    """A staged prefetch's bus transfer completed in its window."""

    line: int
    issue_epoch: int
    window_epoch: int


@dataclass(frozen=True)
class PrefetchDropped(Event):
    """A staged prefetch died before being used.

    ``reason`` is ``"bandwidth"`` when the read-bus budget of its transfer
    window was exhausted (the paper's Section 5.2.1 drop), or
    ``"evicted_unused"`` when the buffer evicted a never-used line to make
    room.
    """

    line: int
    reason: str
    source: str = ""


@dataclass(frozen=True)
class PrefetchHit(Event):
    """A demand access was satisfied by a ready prefetch-buffer line."""

    line: int
    epoch_index: int
    issue_epoch: int
    source: str
    measured: bool
    table_index: Optional[int] = None

    @property
    def lead_epochs(self) -> int:
        """Epochs between issue and use — the skip-2 timeliness margin."""
        if self.issue_epoch < 0:
            return -1
        return self.epoch_index - self.issue_epoch


@dataclass(frozen=True)
class TableRead(Event):
    """Correlation-table read traffic (lookup or training read)."""

    nbytes: int
    purpose: str  # "lookup" | "update"


@dataclass(frozen=True)
class TableWrite(Event):
    """Correlation-table write traffic (training write or LRU refresh)."""

    nbytes: int
    purpose: str  # "update" | "lru"


@dataclass(frozen=True)
class BudgetExhausted(Event):
    """A droppable transfer found its epoch-window bus budget exhausted."""

    bus: str  # "read" | "write"
    priority: int
    nbytes: int
    utilization: float


@dataclass(frozen=True)
class KernelFallback(Event):
    """A run that could have used the epoch-batched execution kernel —
    one with no prefetcher or an EBCP-family one — took the scalar path
    instead.

    ``prefetcher`` is the prefetcher's name, ``"none"`` for the
    no-prefetch baseline.  ``cause`` names the reason
    (``bus_attached``, ``warm_state``, ``disabled``, ...) — see
    :func:`repro.engine.ebcp_kernel.kernel_fallback_cause`.  The
    scalar path is always the filter-plane walk, so the former
    ``compressed_disabled`` cause can no longer occur.
    """

    prefetcher: str
    cause: str


# ----------------------------------------------------------------------
# Resilience / execution-harness events (repro.resilience)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobRetried(Event):
    """A job attempt failed and the executor will try it again.

    ``attempt`` is the attempt number that failed (1-based); the retry
    about to run is attempt ``attempt + 1``.
    """

    label: str
    index: int
    attempt: int
    cause: str


@dataclass(frozen=True)
class JobTimedOut(Event):
    """A pooled job exceeded the policy's per-job ``timeout_s``."""

    label: str
    index: int
    timeout_s: float


@dataclass(frozen=True)
class WorkerCrashed(Event):
    """The process pool broke (a worker died); in-flight jobs replay."""

    cause: str
    jobs_in_flight: int


@dataclass(frozen=True)
class JobResumed(Event):
    """A job's result was loaded from a checkpoint entry, not re-run.

    ``key`` is the job's identity, the entry's file stem.
    """

    label: str
    index: int
    key: str


@dataclass(frozen=True)
class ExecutionDegraded(Event):
    """Parallel execution fell back to in-process execution.

    ``reason`` is ``"unpicklable"`` (specs cannot cross the process
    boundary) or ``"pool_unavailable"`` (the pool could not start).
    """

    reason: str
    cause: str = ""


@dataclass(frozen=True)
class CacheQuarantined(Event):
    """A corrupt on-disk cache entry was quarantined and will regenerate.

    ``kind`` is ``"trace"`` or ``"plane"``; ``reason`` is
    ``"checksum_mismatch"`` or the decode error message.
    """

    path: str
    kind: str
    reason: str


# ----------------------------------------------------------------------
# Simulation-service / request-plane events (repro.service)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestReceived(Event):
    """The service admitted one protocol request for processing."""

    request_type: str  # "simulate" | "stats" | "ping" | "shutdown"
    request_id: str


@dataclass(frozen=True)
class RequestCompleted(Event):
    """One protocol request finished and its response was produced.

    ``latency_ms`` is the end-to-end server-side latency (admission to
    response ready); ``cached`` marks a simulate request answered from
    the identity-keyed result cache without running a job.
    """

    request_type: str
    request_id: str
    ok: bool
    cached: bool
    latency_ms: float
    batch_size: int = 0


@dataclass(frozen=True)
class QueueSaturated(Event):
    """A simulate request bounced off the full request queue.

    The service answers with a ``queue_full`` error (carrying a
    ``retry_after_s`` hint) instead of buffering without bound — this
    event is the observable trace of that backpressure decision.
    """

    depth: int
    limit: int
    request_id: str = ""


@dataclass(frozen=True)
class TraceCacheWarmed(Event):
    """A pre-warm pass generated traces / filter planes / epoch segments.

    Emitted once per warming call that did any new work.  The counts are
    the *newly* warmed entries; anything already in the process-wide warm
    registry (e.g. warmed by an earlier sweep batch) is skipped and not
    counted.  ``total_specs`` is the size of the job list that was
    scanned.
    """

    traces: int
    planes: int
    segments: int
    total_specs: int = 0


#: The full catalogue, in a stable order (used by exporters and tests).
EVENT_TYPES: Tuple[type, ...] = (
    EpochClosed,
    AccessResolved,
    PrefetchIssued,
    PrefetchFilled,
    PrefetchDropped,
    PrefetchHit,
    TableRead,
    TableWrite,
    BudgetExhausted,
    KernelFallback,
    JobRetried,
    JobTimedOut,
    WorkerCrashed,
    JobResumed,
    ExecutionDegraded,
    CacheQuarantined,
    RequestReceived,
    RequestCompleted,
    QueueSaturated,
    TraceCacheWarmed,
)


def _jsonify(value: Any) -> Any:
    """Recursively convert a field value into a JSON-safe structure."""
    if isinstance(value, enum.Enum):
        return value.name.lower()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def event_payload(event: Event) -> dict:
    """Flatten an event into a JSON-safe dict with an ``event`` tag."""
    payload: dict = {"event": type(event).__name__}
    for f in dataclasses.fields(event):  # type: ignore[arg-type]
        payload[f.name] = _jsonify(getattr(event, f.name))
    # Derived convenience fields exporters rely on.
    if isinstance(event, PrefetchHit):
        payload["lead_epochs"] = event.lead_epochs
    if isinstance(event, AccessResolved):
        payload["outcome"] = event.outcome
    if isinstance(event, EpochClosed):
        payload["mlp"] = event.mlp
    return payload
