"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is deliberately tiny and dependency-free — a named bag of
three instrument kinds with a JSON-safe snapshot.  The simulator-facing
collector (:class:`SimulationMetrics`) holds the standard epoch /
prefetch / bus instruments, fed either by a simulator run directly or by
the events of an :class:`~repro.obs.bus.EventBus`:

* ``epoch_misses`` / ``epoch_mlp`` — miss clustering per epoch (in the
  epoch model the two coincide: every miss of an epoch overlaps its one
  stall, paper Section 2.1);
* ``epoch_cycles`` — epoch length in cycles (stall + compute span);
* ``prefetch_lead_epochs`` — epochs between prefetch issue and use, the
  skip-2 timeliness margin (2 is the design target: table read under one
  stall, transfer under the next);
* ``read_bus_utilization`` — per-window read-bus occupancy;
* ``emab_occupancy`` — miss addresses buffered in the EMAB at each epoch
  close.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from .bus import EventBus
from .events import (
    AccessResolved,
    BudgetExhausted,
    CacheQuarantined,
    EpochClosed,
    ExecutionDegraded,
    JobResumed,
    JobRetried,
    JobTimedOut,
    KernelFallback,
    PrefetchDropped,
    PrefetchFilled,
    PrefetchHit,
    PrefetchIssued,
    TableRead,
    TableWrite,
    WorkerCrashed,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ResilienceMetrics",
    "RouterMetrics",
    "ServiceMetrics",
    "SimulationMetrics",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def merge_dict(self, payload: dict) -> None:
        """Fold another counter's snapshot into this one (sum)."""
        self.inc(payload.get("value", 0))

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down; remembers its extremes."""

    __slots__ = ("name", "help", "value", "min", "max", "_n", "_sum")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._n = 0
        self._sum = 0.0

    def set(self, value: float) -> None:
        self.value = value
        # Same as min()/max(), without the builtin calls (hot per epoch).
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._n += 1
        self._sum += value

    @property
    def mean(self) -> float:
        return self._sum / self._n if self._n else 0.0

    def merge_dict(self, payload: dict) -> None:
        """Fold another gauge's snapshot into this one.

        Last write wins for ``value`` (the snapshot being merged is
        assumed newer than this registry's state — the worker just
        reported it); extremes and the running mean fold losslessly.
        """
        samples = int(payload.get("samples", 0))
        if not samples:
            return
        self.value = payload.get("value", 0.0)
        self.min = min(self.min, payload.get("min", self.value))
        self.max = max(self.max, payload.get("max", self.value))
        self._n += samples
        self._sum += payload.get("mean", 0.0) * samples

    def to_dict(self) -> dict:
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min if self._n else 0.0,
            "max": self.max if self._n else 0.0,
            "mean": self.mean,
            "samples": self._n,
        }


class Histogram:
    """Fixed-bucket histogram with an implicit overflow bucket.

    ``buckets`` are inclusive upper bounds, strictly increasing; an
    observation lands in the first bucket whose bound is >= the value,
    or in the overflow bucket past the last bound.
    """

    __slots__ = ("name", "help", "bounds", "counts", "overflow", "_n", "_sum", "_min", "_max")

    def __init__(self, name: str, buckets: Sequence[float], help: str = "") -> None:
        bounds = list(buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds: List[float] = bounds
        self.counts: List[int] = [0] * len(bounds)
        self.overflow = 0
        self._n = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        if index == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1
        self._n += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._sum / self._n if self._n else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style).

        The bucket containing rank ``q * total`` is found, then the
        value is linearly interpolated between the bucket's effective
        edges — the previous bound (or the observed minimum for the
        first occupied bucket) and ``min(bound, observed max)``.
        Observations in the overflow bucket interpolate between the last
        bound and the observed maximum, so p99 of a long-tailed
        distribution is a real estimate rather than a clamped bound.
        The estimate is exact at bucket boundaries and off by at most
        one bucket width inside a bucket (asserted against numpy
        percentiles in ``tests/test_metrics_merge.py``).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._n:
            return 0.0
        rank = q * self._n
        cumulative = 0
        previous_bound: Optional[float] = None
        for bound, count in zip(self.bounds, self.counts):
            if count:
                if cumulative + count >= rank:
                    lower = self._min if previous_bound is None else previous_bound
                    upper = min(bound, self._max)
                    fraction = max(0.0, rank - cumulative) / count
                    value = lower + fraction * (upper - lower)
                    return min(max(value, self._min), self._max)
                cumulative += count
            previous_bound = bound
        if self.overflow:
            lower = self.bounds[-1] if cumulative else self._min
            fraction = max(0.0, rank - cumulative) / self.overflow
            value = lower + fraction * (max(self._max, lower) - lower)
            return min(max(value, self._min), self._max)
        return self._max

    def merge_dict(self, payload: dict) -> None:
        """Fold another histogram's snapshot into this one, bucket-wise.

        The other histogram must have identical bucket bounds — merging
        differently bucketed histograms would silently redistribute
        observations, so it is a :class:`ValueError` instead.
        """
        bounds = list(payload.get("buckets", []))
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram '{self.name}': bucket bounds differ "
                f"({bounds} vs {self.bounds})"
            )
        counts = payload.get("counts", [])
        for i, count in enumerate(counts):
            self.counts[i] += count
        self.overflow += payload.get("overflow", 0)
        total = int(payload.get("total", 0))
        if total:
            self._n += total
            self._sum += payload.get("sum", 0.0)
            self._min = min(self._min, payload.get("min", float("inf")))
            self._max = max(self._max, payload.get("max", float("-inf")))

    @classmethod
    def from_dict(cls, name: str, payload: dict, help: str = "") -> "Histogram":
        """Rehydrate a histogram from its :meth:`to_dict` snapshot."""
        hist = cls(name, payload["buckets"], help)
        hist.merge_dict(payload)
        return hist

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "total": self._n,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._n else 0.0,
            "max": self._max if self._n else 0.0,
        }


class MetricsRegistry:
    """A flat namespace of instruments with get-or-create semantics."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: type, factory) -> object:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric '{name}' already registered as {type(existing).__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))  # type: ignore[return-value]

    def histogram(self, name: str, buckets: Sequence[float], help: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, buckets, help))  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry | dict", prefix: str = "") -> "MetricsRegistry":
        """Fold another registry (or its :meth:`to_dict` snapshot) in.

        Counters sum, gauges take the incoming value (last write wins)
        while folding extremes and running means, histograms merge
        bucket-wise (identical bounds required — :class:`ValueError`
        otherwise).  ``prefix`` namespaces every incoming instrument
        (e.g. ``"ebcp."`` for per-prefetcher aggregation).  Merging a
        snapshot whose instrument kind conflicts with an existing name
        raises :class:`TypeError`.  The snapshot form is what pool
        workers ship back piggybacked on job results, so cross-process
        aggregation needs no shared memory.
        """
        snapshot = other.to_dict() if isinstance(other, MetricsRegistry) else other
        for name, payload in snapshot.items():
            target = prefix + name
            kind = payload.get("type")
            if kind == "counter":
                self.counter(target).merge_dict(payload)
            elif kind == "gauge":
                self.gauge(target).merge_dict(payload)
            elif kind == "histogram":
                self.histogram(target, payload["buckets"]).merge_dict(payload)
            else:
                raise ValueError(f"unknown instrument kind {kind!r} for '{name}'")
        return self

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str) -> object:
        return self._instruments[name]

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def to_dict(self) -> dict:
        """JSON-safe snapshot of every instrument, sorted by name."""
        return {name: self._instruments[name].to_dict() for name in self.names()}  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# The standard simulator instrument set
# ----------------------------------------------------------------------
#: Default buckets, chosen so the paper-scale runs spread over them.
EPOCH_MISS_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
EPOCH_CYCLE_BUCKETS = (300.0, 500.0, 750.0, 1000.0, 1500.0, 2500.0, 5000.0, 10000.0)
LEAD_EPOCH_BUCKETS = (0, 1, 2, 3, 4, 6, 8)
UTILIZATION_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.5)
EMAB_BUCKETS = (0, 4, 8, 16, 32, 64, 128)


class SimulationMetrics:
    """The standard simulation instrument set.

    One instance observes one (or several sequential) simulations and
    exposes its numbers through :attr:`registry`.  It is fed in one of
    two ways, with identical results:

    * by the run itself — pass it as ``EpochSimulator(metrics=...)`` (or
      ``JobSpec.run(metrics=...)``) with no ``bus``; the epoch kernel and
      the filter-plane walk call the update methods below from the
      values they already hold, so no run loses the kernel to metrics;
    * by a bus — ``SimulationMetrics(bus)`` subscribes handlers that call
      the same update methods once per event.  This is the reference the
      run-fed path is tested against, and what ``trace`` uses.

    ``events_total`` and the ``events.<Type>`` tallies count the bus
    events each update stands for, whichever way it arrived.
    """

    def __init__(
        self, bus: Optional[EventBus] = None, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.bus = bus
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.events_by_type = r.counter("events_total", "events delivered by type tally below")
        self._type_counters: Dict[str, Counter] = {}

        self.epochs = r.counter("epochs_closed", "real epochs closed")
        self.accesses = r.counter("accesses_resolved", "L2 accesses classified")
        self.issued = r.counter("prefetches_issued", "requests emitted by prefetchers")
        self.filled = r.counter("prefetches_filled", "prefetch bus transfers completed")
        self.dropped = r.counter("prefetches_dropped", "prefetches dropped (any reason)")
        self.hits = r.counter("prefetch_hits", "demand accesses averted by the buffer")
        self.table_reads = r.counter("table_read_bytes", "correlation-table read traffic")
        self.table_writes = r.counter("table_write_bytes", "correlation-table write traffic")
        self.budget_exhausted = r.counter("budget_exhausted", "droppable charges refused")
        self.kernel_fallbacks = r.counter(
            "kernel_fallbacks", "runs that fell back from the epoch-batched kernel"
        )

        self.epoch_misses = r.histogram(
            "epoch_misses", EPOCH_MISS_BUCKETS, "misses per epoch (== per-epoch MLP)"
        )
        self.epoch_mlp = r.histogram(
            "epoch_mlp", EPOCH_MISS_BUCKETS, "memory-level parallelism per epoch"
        )
        self.epoch_cycles = r.histogram(
            "epoch_cycles", EPOCH_CYCLE_BUCKETS, "epoch length in cycles"
        )
        self.lead_epochs = r.histogram(
            "prefetch_lead_epochs", LEAD_EPOCH_BUCKETS, "epochs between issue and use"
        )
        self.read_utilization = r.histogram(
            "read_bus_utilization", UTILIZATION_BUCKETS, "per-window read-bus occupancy"
        )
        self.emab_occupancy = r.histogram(
            "emab_occupancy", EMAB_BUCKETS, "EMAB addresses buffered at epoch close"
        )
        self.bus_queue = r.gauge("bus_queue_occupancy", "read-bus occupancy of the last window")
        self.buffer_occupancy = r.gauge("prefetch_buffer_occupancy", "buffer lines resident")

        self._unsubscribe = [] if bus is None else [
            bus.subscribe(EpochClosed, lambda e: self.epoch_closed(
                e.n_misses, e.duration_cycles, e.read_utilization,
                e.emab_occupancy, e.buffer_occupancy,
            )),
            bus.subscribe(AccessResolved, lambda e: self.accesses_resolved()),
            bus.subscribe(PrefetchIssued, lambda e: self.prefetches_issued()),
            bus.subscribe(PrefetchFilled, lambda e: self.prefetches_filled()),
            bus.subscribe(PrefetchDropped, lambda e: self.prefetches_dropped()),
            bus.subscribe(PrefetchHit, lambda e: self.prefetch_hit(e.lead_epochs)),
            bus.subscribe(TableRead, lambda e: self.table_read(e.nbytes)),
            bus.subscribe(TableWrite, lambda e: self.table_write(e.nbytes)),
            bus.subscribe(BudgetExhausted, lambda e: self.budget_refused(e.utilization)),
            bus.subscribe(KernelFallback, lambda e: self.kernel_fallback(e.cause)),
        ]

    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Stop observing the bus (the registry keeps its numbers)."""
        for unsubscribe in self._unsubscribe:
            unsubscribe()
        self._unsubscribe = []

    def _tally(self, event_type: str, count: int = 1) -> None:
        """Count ``count`` events of ``event_type``; the per-type tally
        exists only once one has been counted, as on a bus."""
        if not count:
            return
        self.events_by_type.inc(count)
        counter = self._type_counters.get(event_type)
        if counter is None:
            counter = self.registry.counter(f"events.{event_type}")
            self._type_counters[event_type] = counter
        counter.inc(count)

    # ------------------------------------------------------------------
    # Updates: one call per event (EpochClosed, PrefetchHit,
    # BudgetExhausted, KernelFallback), or one per run with a count.
    # Gauges and float sums depend on call order, so a feeder reports
    # per-event updates in the order the bus would deliver them.
    # ------------------------------------------------------------------
    def epoch_closed(
        self,
        n_misses: int,
        duration_cycles: float,
        read_utilization: float,
        emab_occupancy: int = -1,
        buffer_occupancy: int = 0,
    ) -> None:
        """One real epoch closed (``emab_occupancy < 0``: no EMAB)."""
        self._tally("EpochClosed")
        self.epochs.inc()
        self.epoch_misses.observe(n_misses)
        self.epoch_mlp.observe(n_misses)  # == MLP in the epoch model
        self.epoch_cycles.observe(duration_cycles)
        self.read_utilization.observe(read_utilization)
        self.bus_queue.set(read_utilization)
        if emab_occupancy >= 0:
            self.emab_occupancy.observe(emab_occupancy)
        self.buffer_occupancy.set(buffer_occupancy)

    def prefetch_hit(self, lead_epochs: int) -> None:
        """One demand access met a ready buffer line (``lead_epochs < 0``:
        issue epoch unknown, so no lead is observed)."""
        self._tally("PrefetchHit")
        self.hits.inc()
        if lead_epochs >= 0:
            self.lead_epochs.observe(lead_epochs)

    def budget_refused(self, utilization: float) -> None:
        """One droppable charge refused at bus ``utilization``."""
        self._tally("BudgetExhausted")
        self.budget_exhausted.inc()
        self.bus_queue.set(utilization)

    def kernel_fallback(self, cause: str) -> None:
        """One run that could not take the epoch kernel."""
        self._tally("KernelFallback")
        self.kernel_fallbacks.inc()
        self.registry.counter(f"kernel_fallbacks.{cause}").inc()

    def accesses_resolved(self, count: int = 1) -> None:
        self._tally("AccessResolved", count)
        self.accesses.inc(count)

    def prefetches_issued(self, count: int = 1) -> None:
        self._tally("PrefetchIssued", count)
        self.issued.inc(count)

    def prefetches_filled(self, count: int = 1) -> None:
        self._tally("PrefetchFilled", count)
        self.filled.inc(count)

    def prefetches_dropped(self, count: int = 1) -> None:
        self._tally("PrefetchDropped", count)
        self.dropped.inc(count)

    def table_read(self, nbytes: int, count: int = 1) -> None:
        """``count`` correlation-table reads totalling ``nbytes``."""
        self._tally("TableRead", count)
        self.table_reads.inc(nbytes)

    def table_write(self, nbytes: int, count: int = 1) -> None:
        """``count`` correlation-table writes totalling ``nbytes``."""
        self._tally("TableWrite", count)
        self.table_writes.inc(nbytes)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return self.registry.to_dict()


class ResilienceMetrics:
    """Counts the execution-harness events of :mod:`repro.resilience`.

    Subscribe it to the bus the executor emits on (usually
    :func:`repro.obs.bus.global_bus`) to make retries, timeouts, worker
    crashes, checkpoint resumes, degraded execution and quarantined cache
    entries countable alongside the simulation instruments.
    """

    def __init__(self, bus: EventBus, registry: Optional[MetricsRegistry] = None) -> None:
        self.bus = bus
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.retries = r.counter("jobs_retried", "job attempts that failed and were retried")
        self.timeouts = r.counter("jobs_timed_out", "pooled jobs that exceeded timeout_s")
        self.crashes = r.counter("worker_crashes", "process-pool breakages recovered")
        self.resumed = r.counter("jobs_resumed", "jobs loaded from a checkpoint entry")
        self.degraded = r.counter("execution_degraded", "fallbacks to in-process execution")
        self.quarantined = r.counter("cache_quarantined", "corrupt cache entries quarantined")
        self._unsubscribe = [
            bus.subscribe(JobRetried, self._count(self.retries)),
            bus.subscribe(JobTimedOut, self._count(self.timeouts)),
            bus.subscribe(WorkerCrashed, self._count(self.crashes)),
            bus.subscribe(JobResumed, self._count(self.resumed)),
            bus.subscribe(ExecutionDegraded, self._count(self.degraded)),
            bus.subscribe(CacheQuarantined, self._count(self.quarantined)),
        ]

    @staticmethod
    def _count(counter: Counter):
        return lambda event: counter.inc()

    def detach(self) -> None:
        """Stop observing the bus (the registry keeps its numbers)."""
        for unsubscribe in self._unsubscribe:
            unsubscribe()
        self._unsubscribe = []

    def to_dict(self) -> dict:
        return self.registry.to_dict()


#: Forwarding-latency buckets in milliseconds: the front-end's view of
#: one proxied round-trip (shard link write → shard response read).
FORWARD_LATENCY_MS_BUCKETS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
)


class RouterMetrics:
    """The instrument set of the sharded front-end router.

    The router is not a simulator — it parses, routes and proxies — so
    its instruments are updated directly rather than via bus events:
    one counter per routable outcome plus a per-shard routing tally
    (``routed.shard-0``, ...) and the proxied round-trip latency.  The
    registry is merged into the front-end's aggregate ``stats`` /
    ``metrics`` payloads, so shard balance is remotely scrapeable.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.routed = r.counter("router_requests_routed", "simulate frames proxied to a shard")
        self.errors = r.counter(
            "router_forward_errors", "proxied frames that failed at the shard link"
        )
        self.shards = r.gauge("router_shards", "live shard processes behind the ring")
        self.restarts = r.counter(
            "router_restarts_total", "dead shards replaced by the supervisor"
        )
        self.resizes = r.counter(
            "router_resizes_total", "admin resize operations completed"
        )
        self.forward_ms = r.histogram(
            "router_forward_latency_ms",
            FORWARD_LATENCY_MS_BUCKETS,
            "front-end round-trip latency of one proxied simulate",
        )

    def count_route(self, shard: str) -> None:
        """One frame routed to ``shard`` (also bumps the per-shard tally)."""
        self.routed.inc()
        self.registry.counter(f"routed.{shard}").inc()

    def count_restart(self, shard: str) -> None:
        """One shard respawn (also bumps the per-shard restart tally)."""
        self.restarts.inc()
        self.registry.counter(f"restarts.{shard}").inc()

    def set_uptime(self, shard: str, seconds: float) -> None:
        """Refresh the per-shard uptime gauge (probe-driven)."""
        self.registry.gauge(
            f"shard_uptime_s.{shard}", "seconds since this shard process became ready"
        ).set(seconds)

    def to_dict(self) -> dict:
        return self.registry.to_dict()


#: Request-latency buckets in milliseconds: sub-millisecond cache hits
#: through multi-second cold simulations.
REQUEST_LATENCY_MS_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
)
#: Micro-batch sizes (requests dispatched per execute() call).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class ServiceMetrics:
    """The request-plane instrument set of :mod:`repro.service`.

    Like :class:`RouterMetrics`, it is updated directly: the service's
    front-end calls :meth:`request_received`, :meth:`request_completed`
    and :meth:`queue_saturated` where a request is parsed, answered or
    bounced, and sets the queue-depth gauge and the batch-size
    histogram itself.  It also carries the model and generator versions
    the process serves.  A ``stats`` protocol request is answered with
    ``registry.to_dict()`` of this registry, so every instrument here is
    remotely scrapeable.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        # Lazy: the simulator and the generators import the obs package.
        from ..engine.simulator import MODEL_VERSION
        from ..workloads.commercial import GENERATOR_VERSION

        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        r.gauge("model_version", "simulation model version served").set(MODEL_VERSION)
        r.gauge("generator_version", "workload generator version served").set(GENERATOR_VERSION)
        self.received = r.counter("requests_received", "protocol requests admitted")
        self.completed = r.counter("requests_completed", "protocol requests answered ok")
        self.failed = r.counter("requests_failed", "protocol requests answered with an error")
        self.saturated = r.counter(
            "queue_saturated", "simulate requests bounced off the full queue"
        )
        self.cache_hits = r.counter(
            "result_cache_hits", "simulate requests served from the result cache"
        )
        self.cache_misses = r.counter(
            "result_cache_misses", "simulate requests that ran a simulation job"
        )
        self.queue_depth = r.gauge("service_queue_depth", "requests waiting in the queue")
        self.latency_ms = r.histogram(
            "request_latency_ms",
            REQUEST_LATENCY_MS_BUCKETS,
            "end-to-end server-side request latency",
        )
        self.batch_size = r.histogram(
            "batch_size", BATCH_SIZE_BUCKETS, "simulate requests per dispatched micro-batch"
        )

    def request_received(self, request_type: str) -> None:
        """One request parsed (also bumps the ``requests.<type>`` tally)."""
        self.received.inc()
        self.registry.counter(f"requests.{request_type}").inc()

    def request_completed(
        self, request_type: str, ok: bool, latency_ms: float, cached: bool = False
    ) -> None:
        """One request answered; a simulate answered ok is also a result-cache
        hit (``cached``) or miss."""
        (self.completed if ok else self.failed).inc()
        self.latency_ms.observe(latency_ms)
        if request_type == "simulate" and ok:
            (self.cache_hits if cached else self.cache_misses).inc()

    def queue_saturated(self) -> None:
        """One simulate bounced off the full queue with ``queue_full``."""
        self.saturated.inc()

    def to_dict(self) -> dict:
        return self.registry.to_dict()
