"""The asyncio simulation service and the front-end core it shares.

Two front-ends speak :mod:`repro.service.protocol`: the single-process
:class:`SimulationService` here, and the sharded
:class:`~repro.service.router.ShardedService`, a router over shard
processes that each run a :class:`SimulationService`.  Both inherit
:class:`FrontEnd`, which owns what a request goes through regardless of
where it runs:

* **connections**: binding, the per-connection frame loop (an oversized
  frame is answered, then the connection dropped) and request parsing
  with typed error replies;
* **admission**: ``simulate`` params are checked once — registered
  names, the ``config`` payload and ``prefetcher_overrides`` — so a bad
  request is ``invalid_request`` on either front-end and never reaches
  a micro-batch;
* **sweep framing**: the ``sweep`` request is decoded (spec errors carry
  their field ``path``) and expanded, each job's frame is streamed with
  its ``job`` block as it settles, then a terminal ``done`` frame;
* **graceful drain**: SIGTERM/SIGINT (or a ``shutdown`` request) stops
  admission, finishes every admitted request, delivers the responses,
  then stops;
* the common ``ping`` and ``stats`` fields (``model_version`` and
  ``generator_version`` among them) and the ``telemetry`` span cap.

:class:`SimulationService` supplies the execution, keeping everything a
cold CLI invocation pays for — interpreter startup, trace generation,
filter-plane warming, process-pool spin-up — warm across requests:

* **bounded admission**: simulate requests enter an ``asyncio.Queue``
  with a hard capacity; when it is full the client gets an immediate
  ``queue_full`` error with a ``retry_after_s`` hint (explicit
  backpressure) instead of the server buffering without bound;
* **micro-batching**: the dispatcher drains up to
  ``ServiceConfig.max_batch`` queued requests within
  ``ServiceConfig.batch_window_s`` and ships them as *one*
  :class:`~repro.parallel.jobs.JobSpec` batch through
  :func:`repro.resilience.executor.execute` — so concurrent requests
  share the executor's trace warming and fan out over the pool together;
  a request whose job cannot be built fails alone, not its batch;
* **persistent pool**: the executor leases a
  :class:`~repro.resilience.executor.PersistentPool` owned by the
  service, so pool workers (and their inherited trace/filter-plane
  memos) survive across batches;
* **result cache**: completed runs are cached by job identity
  (:mod:`repro.service.cache`); a repeat request is answered in
  microseconds without touching the queue's *execution* cost (it still
  passes admission, so backpressure semantics stay uniform).

Identity guarantee
------------------
A served simulate request runs the *same* :class:`JobSpec` path as
``repro-ebcp simulate`` and the sweep runners, so its
:class:`~repro.engine.stats.SimulationStats` are bit-identical to a
fresh CLI invocation with equal parameters (asserted in
``tests/test_service.py``).
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Dict, List, Optional, Tuple, Union

from .. import __version__
from ..engine.config import ProcessorConfig
from ..engine.simulator import MODEL_VERSION
from ..engine.stats import SimulationResult
from ..obs.bus import EventBus
from ..obs.events import QueueSaturated, RequestCompleted, RequestReceived
from ..obs.metrics import MetricsRegistry, ServiceMetrics
from ..obs.prometheus import render_prometheus
from ..obs.tracing import SpanRecorder, TelemetrySink, TraceContext, wall_us
from ..parallel.jobs import JobSpec
from ..prefetchers.registry import PREFETCHERS
from ..resilience.executor import PersistentPool, execute
from ..resilience.policy import ExecutionPolicy
from ..workloads.commercial import GENERATOR_VERSION
from ..workloads.registry import WORKLOADS
from . import protocol
from .cache import ResultCache
from .protocol import ErrorCode, ProtocolError, Request, SimulateParams

__all__ = ["ServiceConfig", "FrontEnd", "SimulationService", "BackgroundService", "serve"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance.

    ``port=0`` binds an ephemeral port; the bound address is available as
    :attr:`SimulationService.address` after :meth:`~SimulationService.start`.
    """

    host: str = "127.0.0.1"
    port: int = 7421
    #: Hard capacity of the request queue; the backpressure threshold.
    queue_size: int = 64
    #: Most simulate requests dispatched as one executor batch.
    max_batch: int = 8
    #: How long the dispatcher waits for the batch to fill before
    #: dispatching what it has.
    batch_window_s: float = 0.005
    #: Result-cache capacity (entries); 0 disables caching.
    cache_entries: int = 256
    #: Grace period for handlers to flush responses during shutdown.
    drain_timeout_s: float = 30.0
    #: Collect worker-side :class:`SimulationMetrics` per job and merge
    #: them into the service-global registry (per-prefetcher prefixed).
    worker_metrics: bool = True
    #: Disk tier of the result cache: spill lossless snapshots under
    #: this directory (sha256 sidecars, quarantine-on-corruption) so
    #: warm hits survive crashes and restarts.  ``None`` = memory only.
    #: Safe to share across shard processes (content-addressed entries,
    #: atomic writes).
    cache_dir: Optional[str] = None
    #: Disk-tier entry bound (oldest pruned beyond it).
    max_disk_entries: int = 4096
    #: ``(workload, records, seed)`` triples to pre-warm (trace + filter
    #: planes generated, pool workers pre-spawned) before reporting
    #: ready.  A sharded front-end partitions these per shard.
    prewarm: Tuple[Tuple[str, int, int], ...] = ()
    #: Position of this instance behind a sharded front-end; ``None``
    #: for a standalone service.  Surfaces in ping/stats/telemetry.
    shard_index: Optional[int] = None
    #: Load the newest ``cache_dir`` entries into the memory tier before
    #: binding.  Off by default; a live resize sets it on newcomers so
    #: a shard joining the ring serves warm from its first request.
    preload_disk: bool = False


def latency_summary(histogram: Any) -> Dict[str, Any]:
    """The ``latency_ms`` block of a ``stats`` payload (zeros when unset)."""
    if histogram is None:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "count": 0}
    return {
        "p50": histogram.quantile(0.5),
        "p90": histogram.quantile(0.9),
        "p99": histogram.quantile(0.99),
        "count": histogram.total,
    }


class FrontEnd:
    """The protocol front-end both services share.

    Owns binding, the connection loop, request parsing, drain, simulate
    admission and sweep framing.  A subclass supplies ``start`` (which
    calls :meth:`_listen`) and the per-type handlers: :meth:`_simulate`,
    :meth:`_admit_sweep_job`, :meth:`_stats_payload`,
    :meth:`_live_metrics`, :meth:`_telemetry` and, optionally,
    :meth:`_admin`; plus the drain hooks :meth:`_until_drained` and
    :meth:`_wind_down`.
    """

    #: Span ceiling per telemetry response; keeps the frame under
    #: ``protocol.MAX_FRAME_BYTES`` for long-lived services.
    TELEMETRY_SPAN_CAP = 2000

    def __init__(
        self,
        config: Optional[ServiceConfig],
        policy: Optional[ExecutionPolicy],
        bus: Optional[EventBus],
    ) -> None:
        self.config = config or ServiceConfig()
        self.policy = policy or ExecutionPolicy()
        self.bus = bus
        self.address: Optional[Tuple[str, int]] = None

        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._draining = False
        self._busy_handlers = 0
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:  # pragma: no cover - abstract
        raise NotImplementedError

    async def _listen(self) -> Tuple[str, int]:
        """Bind the front-end and return the bound ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._started_at = time.monotonic()
        return self.address

    async def run(self, install_signal_handlers: bool = False) -> None:
        """Serve until drained (SIGTERM/SIGINT or a ``shutdown`` request)."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.begin_drain)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-main thread / platform without signal support
        await self._until_drained()
        # Every admitted request has settled; give the connection
        # handlers a bounded grace period to write those responses out.
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self._busy_handlers and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await self._wind_down()
        for writer in list(self._writers):
            writer.close()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        log.info("%s drained and stopped", type(self).__name__)

    async def _until_drained(self) -> None:
        """Return once a drain began and admitted work has settled."""
        assert self._drain_requested is not None
        await self._drain_requested.wait()

    async def _wind_down(self) -> None:
        """Release what the service owns (runs before connections close)."""

    def begin_drain(self) -> None:
        """Stop admission; queued and in-flight requests still complete.

        Callable from the event loop (signal handlers, the ``shutdown``
        request); thread-safe via :meth:`begin_drain_threadsafe`.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        if self._drain_requested is not None:
            self._drain_requested.set()
        log.info("%s draining (no new requests admitted)", type(self).__name__)

    def begin_drain_threadsafe(self) -> None:
        self._call_threadsafe(self.begin_drain)

    @property
    def draining(self) -> bool:
        return self._draining

    def _call_threadsafe(self, callback) -> None:
        """Schedule on the service loop; a no-op once the loop is gone
        (an already-drained service needs no further nudging)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(callback)
        except RuntimeError:
            pass  # loop closed between the check and the call

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Frame exceeded the stream limit: answer and hang up
                    # (the stream is no longer line-synchronised).
                    writer.write(
                        protocol.encode_frame(
                            protocol.error_response(
                                "",
                                ErrorCode.MALFORMED_FRAME,
                                f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # EOF: client hung up
                self._busy_handlers += 1
                try:
                    response = await self._handle_frame(line, writer)
                finally:
                    self._busy_handlers -= 1
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-conversation; nothing to answer
        except asyncio.CancelledError:
            # Drain closes connections out from under blocked readlines;
            # a cancelled handler is normal shutdown, not an error.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_frame(self, line: bytes, writer: asyncio.StreamWriter) -> bytes:
        """One request frame in, one encoded response frame out.

        A ``sweep`` also streams its job frames through ``writer``; the
        returned frame is its terminal done marker.
        """
        started = time.monotonic()
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            request_id = str(exc.details.pop("request_id", ""))
            return self._refuse("invalid", request_id, started, exc)
        if self.bus is not None and self.bus.wants(RequestReceived):
            self.bus.emit(RequestReceived(request_type=request.type, request_id=request.id))

        try:
            # simulate, sweep and admin emit their own completion events.
            if request.type == "simulate":
                params = self._admit_simulate(request)
                return await self._simulate(request, params, line, started)
            if request.type == "sweep":
                return await self._sweep(request, writer, started)
            if request.type == "admin":
                return await self._admin(request)
            if request.type == "ping":
                payload = self._ping_payload()
            elif request.type == "stats":
                payload = {
                    "pid": os.getpid(),
                    "uptime_s": time.monotonic() - self._started_at,
                    "draining": self._draining,
                    "model_version": MODEL_VERSION,
                    "generator_version": GENERATOR_VERSION,
                    **await self._stats_payload(),
                }
            elif request.type == "metrics":
                payload = {
                    "content_type": "text/plain; version=0.0.4",
                    "text": render_prometheus(await self._live_metrics()),
                }
            elif request.type == "telemetry":
                payload = await self._telemetry_payload(bool(request.params.get("drain")))
            else:  # shutdown
                self.begin_drain()
                payload = {"draining": True}
        except ProtocolError as exc:
            return self._refuse(request.type, request.id, started, exc)
        self._emit_completed(request.type, request.id, started, ok=True)
        return protocol.encode_frame(protocol.ok_response(request.id, payload))

    def _refuse(
        self, request_type: str, request_id: str, started: float, exc: ProtocolError
    ) -> bytes:
        """The typed error frame for a request that was not admitted."""
        self._emit_completed(request_type, request_id, started, ok=False)
        return protocol.encode_frame(
            protocol.error_response(request_id, exc.code, exc.message, **exc.details)
        )

    def _emit_completed(
        self,
        request_type: str,
        request_id: str,
        started: float,
        ok: bool,
        cached: bool = False,
    ) -> None:
        if self.bus is not None and self.bus.wants(RequestCompleted):
            self.bus.emit(
                RequestCompleted(
                    request_type=request_type,
                    request_id=request_id,
                    ok=ok,
                    cached=cached,
                    latency_ms=(time.monotonic() - started) * 1000.0,
                )
            )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit_simulate(self, request: Request) -> SimulateParams:
        """The request's params, or :class:`ProtocolError` when refused.

        Builds the ``config`` and overridden prefetcher of an extended
        request once, so a payload that cannot build is refused here
        with its field ``path``; a plain request is checked by name only.
        """
        if self._draining:
            raise ProtocolError(ErrorCode.SHUTTING_DOWN, "service is draining; not admitting")
        params = SimulateParams.from_dict(request.params)
        if params.workload not in WORKLOADS:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"unknown workload '{params.workload}'",
                known=sorted(WORKLOADS),
            )
        if params.prefetcher not in PREFETCHERS:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"unknown prefetcher '{params.prefetcher}'",
                known=sorted(PREFETCHERS),
            )
        if params.config is not None or params.prefetcher_overrides:
            from ..spec import SpecError
            from ..spec.wire import config_from_wire, prefetcher_from_wire

            try:
                if params.config is not None:
                    config_from_wire(params.config)
                if params.prefetcher_overrides:
                    prefetcher_from_wire(params)
            except SpecError as exc:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST, str(exc), path=exc.path
                ) from None
        return params

    # ------------------------------------------------------------------
    # Sweep streaming (v4)
    # ------------------------------------------------------------------
    def _decode_sweep(self, request: Request) -> Tuple[Any, Any]:
        """The request's validated ``(SweepSpec, SweepPlan)``.

        Raises :class:`ProtocolError`; a spec that fails validation is
        ``invalid_request`` with the offending field's ``path``.
        """
        from ..spec import SpecError, SweepSpec, expand

        if self._draining:
            raise ProtocolError(ErrorCode.SHUTTING_DOWN, "service is draining; not admitting")
        spec_payload = request.params.get("spec")
        if not isinstance(spec_payload, dict):
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "sweep requires a 'spec' object")
        try:
            spec = SweepSpec.from_dict(spec_payload)
            return spec, expand(spec)
        except SpecError as exc:
            raise ProtocolError(ErrorCode.INVALID_REQUEST, str(exc), path=exc.path) from None
        except (KeyError, TypeError, ValueError) as exc:
            # expand() builds every candidate: overrides that do not fit
            # a prefetcher's constructor fail there, not in the schema.
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"cannot build the sweep's prefetchers: {exc}",
                path="prefetchers",
            ) from None

    async def _sweep(
        self, request: Request, writer: asyncio.StreamWriter, started: float
    ) -> bytes:
        """Expand a sweep spec and stream per-job frames as they settle.

        Jobs are admitted in plan order through :meth:`_admit_sweep_job`
        (which may block: a sweep is one request and its backpressure is
        the stream itself); admission stops early when a drain begins.
        """
        from ..spec.wire import simulate_params_for

        spec, plan = self._decode_sweep(request)
        use_cache = bool(request.params.get("use_cache", True))

        async def framed(meta: Any, job: Awaitable[Dict[str, Any]]) -> Dict[str, Any]:
            frame = await job
            frame["id"] = request.id
            frame["job"] = {
                "index": meta.index,
                "kind": meta.kind,
                "workload": meta.workload,
                "seed": meta.seed,
                "records": meta.records,
                "n_threads": meta.n_threads,
                "label": meta.label,
                "config": meta.config_label,
            }
            return frame

        settling = []
        for meta in plan.meta:
            if self._draining:
                break
            params = {**simulate_params_for(meta), "use_cache": use_cache}
            job = Request(
                type="simulate",
                id=f"{request.id}#{meta.index}",
                params=params,
                trace=request.trace,
            )
            admitted = await self._admit_sweep_job(job, SimulateParams.from_dict(params))
            settling.append(asyncio.ensure_future(framed(meta, admitted)))

        errors = 0
        for next_frame in asyncio.as_completed(settling):
            frame = await next_frame
            if not frame.get("ok"):
                errors += 1
            writer.write(protocol.encode_frame(frame))
            await writer.drain()
        aborted = len(settling) < len(plan.meta)
        self._emit_completed("sweep", request.id, started, ok=not errors and not aborted)
        done = protocol.ok_response(
            request.id,
            {
                "name": spec.name,
                "fingerprint": spec.fingerprint(),
                "jobs": len(plan.meta),
                "streamed": len(settling),
                "errors": errors,
                "aborted": aborted,
                "elapsed_ms": (time.monotonic() - started) * 1000.0,
            },
        )
        done["done"] = True
        return protocol.encode_frame(done)

    # ------------------------------------------------------------------
    # Per-type handlers and payloads
    # ------------------------------------------------------------------
    async def _simulate(
        self, request: Request, params: SimulateParams, line: bytes, started: float
    ) -> bytes:  # pragma: no cover - abstract
        """Serve one admitted simulate; emits its own completion event."""
        raise NotImplementedError

    async def _admit_sweep_job(
        self, job: Request, params: SimulateParams
    ) -> Awaitable[Dict[str, Any]]:  # pragma: no cover - abstract
        """Admit one planned job (a simulate request named ``<sweep id>#<index>``).

        The returned awaitable resolves to the job's result or error frame.
        """
        raise NotImplementedError

    async def _admin(self, request: Request) -> bytes:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            "admin commands require a sharded front-end (serve --workers N)",
        )

    def _ping_payload(self) -> Dict[str, Any]:
        return {
            "pong": True,
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "supported_versions": list(protocol.SUPPORTED_VERSIONS),
            "model_version": MODEL_VERSION,
            "generator_version": GENERATOR_VERSION,
            "pid": os.getpid(),
        }

    async def _stats_payload(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        """Everything in ``stats`` beyond ``pid``/``uptime_s``/``draining``."""
        raise NotImplementedError

    async def _live_metrics(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        """The registry snapshot the ``metrics`` request renders."""
        raise NotImplementedError

    async def _telemetry(self, drain: bool) -> Dict[str, Any]:  # pragma: no cover
        """Spans, ``dropped_spans`` and registries; ``drain`` empties the spans."""
        raise NotImplementedError

    async def _telemetry_payload(self, drain: bool) -> Dict[str, Any]:
        """Spans + registries for cross-process aggregation (v3).

        ``drain`` removes the spans on read — what a sharded front-end
        sends right before shutdown, so each span is shipped exactly
        once.  The newest :data:`TELEMETRY_SPAN_CAP` spans are kept when
        the backlog would overflow one frame; the count of dropped older
        spans is reported instead of silently truncating.
        """
        payload = await self._telemetry(drain)
        excess = len(payload["spans"]) - self.TELEMETRY_SPAN_CAP
        if excess > 0:
            payload["spans"] = payload["spans"][excess:]
            payload["dropped_spans"] += excess
        payload["pid"] = os.getpid()
        return payload


@dataclass
class _PendingRequest:
    """One admitted simulate request waiting for its batch."""

    request_id: str
    params: SimulateParams
    future: "asyncio.Future[Tuple[SimulationResult, bool]]"
    #: The server-side span context this request's downstream spans
    #: (admission, batch, cache, worker jobs) parent to; None = untraced.
    trace: Optional[TraceContext] = None
    #: ``wall_us()`` at admission — start of the admission-wait span.
    received_us: int = 0


class SimulationService(FrontEnd):
    """The single-process service: queue, micro-batcher, pool and cache."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        bus: Optional[EventBus] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(config, policy, bus if bus is not None else EventBus())
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = ServiceMetrics(self.bus, self.registry)
        self.cache = ResultCache(
            self.config.cache_entries,
            spill_dir=self.config.cache_dir,
            max_disk_entries=self.config.max_disk_entries,
        )
        self.pool = PersistentPool(self.policy.resolved_jobs())
        #: Server-side span collector; worker spans are absorbed here too,
        #: so after a traced request it holds the whole cross-process tree.
        self.recorder = SpanRecorder("server")
        #: Worker simulation metrics, merged across jobs under a
        #: per-prefetcher prefix (``ebcp.epoch_mlp``, ...).
        self.sim_registry = MetricsRegistry()
        self.sink = TelemetrySink(
            registry=self.sim_registry if self.config.worker_metrics else None,
            recorder=self.recorder,
        )

        self._queue: "Optional[asyncio.Queue[_PendingRequest]]" = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._dispatch_gate: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, start serving, and return the bound ``(host, port)``.

        With :attr:`ServiceConfig.prewarm` set, the expected working
        set (traces, filter planes, pool workers) is warmed *before*
        binding, so a ready service is a warm service.
        """
        if self.config.prewarm:
            await asyncio.get_running_loop().run_in_executor(None, self.prewarm)
        if self.config.preload_disk and self.config.cache_dir:
            loaded = await asyncio.get_running_loop().run_in_executor(
                None, self.cache.preload
            )
            if loaded:
                log.info("preloaded %d result(s) from the disk cache tier", loaded)
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._dispatch_gate = asyncio.Event()
        self._dispatch_gate.set()
        await self._listen()
        self._batcher_task = asyncio.create_task(self._batch_loop())
        log.info("simulation service listening on %s:%d", *self.address)
        return self.address

    async def _until_drained(self) -> None:
        # The batcher returns once draining with an empty queue, having
        # resolved every admitted request's future.
        assert self._batcher_task is not None
        await self._batcher_task

    async def _wind_down(self) -> None:
        self.pool.shutdown()

    def prewarm(self) -> None:
        """Warm the configured working set (blocking; called off-loop).

        Generates each prewarm triple's trace and filter planes through
        the shared on-disk caches and pre-spawns the persistent pool's
        workers, so the first real request hits warm state.
        """
        from ..parallel.jobs import warm_trace_cache

        config = ProcessorConfig.scaled()
        specs = [
            JobSpec(workload=w, records=r, seed=s, config=config)
            for (w, r, s) in self.config.prewarm
        ]
        try:
            warm_trace_cache(specs)
        except Exception as exc:  # warming is best-effort, never fatal
            log.warning("prewarm failed (%s); serving cold", exc)
        if self.pool.max_workers > 1 and (
            (os.cpu_count() or 1) > 1 or os.environ.get("REPRO_FORCE_POOL") == "1"
        ):
            self.pool.warm()
        log.info("prewarmed %d working-set entr(ies)", len(specs))

    # ------------------------------------------------------------------
    # Test seam: hold the dispatcher to observe queue/backpressure states
    # deterministically (queue saturation, drain with work pending).
    # ------------------------------------------------------------------
    def hold_dispatch(self) -> None:
        assert self._dispatch_gate is not None
        self._dispatch_gate.clear()

    def release_dispatch(self) -> None:
        assert self._dispatch_gate is not None
        self._dispatch_gate.set()

    def release_dispatch_threadsafe(self) -> None:
        self._call_threadsafe(self.release_dispatch)

    # ------------------------------------------------------------------
    # Simulate and sweep jobs
    # ------------------------------------------------------------------
    def _pending(
        self, request_id: str, params: SimulateParams, trace: Optional[TraceContext]
    ) -> _PendingRequest:
        assert self._loop is not None
        return _PendingRequest(
            request_id=request_id,
            params=params,
            future=self._loop.create_future(),
            trace=trace,
            received_us=wall_us(),
        )

    async def _simulate(
        self, request: Request, params: SimulateParams, line: bytes, started: float
    ) -> bytes:
        """Serve one simulate, continuing the client's trace when present."""
        ctx = TraceContext.from_wire(request.trace)
        if ctx is None:
            frame = await self._simulate_body(request, params, started, span=None)
        else:
            with self.recorder.span(
                "server:simulate", parent=ctx, request_id=request.id
            ) as span:
                frame = await self._simulate_body(request, params, started, span=span)
                span.set(ok=bool(frame["ok"]))
        return protocol.encode_frame(frame)

    async def _simulate_body(
        self,
        request: Request,
        params: SimulateParams,
        started: float,
        span: Optional[Any],
    ) -> Dict[str, Any]:
        assert self._queue is not None
        pending = self._pending(
            request.id, params, span.context if span is not None else None
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            retry_after = max(2.0 * self.config.batch_window_s, 0.05)
            if self.bus.wants(QueueSaturated):
                self.bus.emit(
                    QueueSaturated(
                        depth=self._queue.qsize(),
                        limit=self.config.queue_size,
                        request_id=request.id,
                    )
                )
            self._emit_completed("simulate", request.id, started, ok=False)
            return protocol.error_response(
                request.id,
                ErrorCode.QUEUE_FULL,
                f"request queue full ({self.config.queue_size} waiting)",
                retry_after_s=retry_after,
            )
        self.metrics.queue_depth.set(float(self._queue.qsize()))

        try:
            result, cached = await pending.future
        except Exception as exc:
            log.exception("simulate request %s failed", request.id or "<anon>")
            self._emit_completed("simulate", request.id, started, ok=False)
            return protocol.error_response(
                request.id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        elapsed_ms = (time.monotonic() - started) * 1000.0
        if span is not None:
            span.set(cached=cached)
        self._emit_completed("simulate", request.id, started, ok=True, cached=cached)
        return protocol.ok_response(
            request.id,
            result.snapshot(),
            cached=cached,
            elapsed_ms=elapsed_ms,
        )

    async def _admit_sweep_job(
        self, job: Request, params: SimulateParams
    ) -> Awaitable[Dict[str, Any]]:
        # The same queue and micro-batcher as a plain simulate (so results
        # are bit-identical to individual requests), but admission blocks
        # instead of answering queue_full.
        assert self._queue is not None
        pending = self._pending(job.id, params, TraceContext.from_wire(job.trace))
        await self._queue.put(pending)
        return self._job_frame(pending)

    @staticmethod
    async def _job_frame(pending: _PendingRequest) -> Dict[str, Any]:
        try:
            result, cached = await pending.future
        except Exception as exc:
            return protocol.error_response(
                pending.request_id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        return protocol.ok_response(pending.request_id, result.snapshot(), cached=cached)

    # ------------------------------------------------------------------
    # Micro-batching dispatcher
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._queue is not None and self._dispatch_gate is not None
        loop = asyncio.get_running_loop()
        while True:
            first = await self._next_pending()
            if first is None:
                return  # draining and nothing left
            batch = [first]
            deadline = loop.time() + self.config.batch_window_s
            while len(batch) < self.config.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(self._queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            self.metrics.queue_depth.set(float(self._queue.qsize()))
            await self._dispatch_gate.wait()
            self.metrics.batch_size.observe(len(batch))
            # Close each traced request's admission-wait span (receipt →
            # batch pickup, measured across two coroutines) and pick the
            # first traced request as the batch span's parent — a batch
            # has one span but possibly many traces.
            picked_up_us = wall_us()
            batch_ctx: Optional[TraceContext] = None
            for pending in batch:
                if pending.trace is None:
                    continue
                self.recorder.record_manual(
                    "admission",
                    pending.trace,
                    pending.received_us,
                    picked_up_us - pending.received_us,
                    request_id=pending.request_id,
                )
                if batch_ctx is None:
                    batch_ctx = pending.trace
            if batch_ctx is not None:
                with self.recorder.span(
                    "batch", parent=batch_ctx, size=len(batch)
                ) as batch_span:
                    outcomes = await asyncio.to_thread(
                        self._run_batch, batch, batch_span.context
                    )
            else:
                outcomes = await asyncio.to_thread(self._run_batch, batch, None)
            for pending, outcome in zip(batch, outcomes):
                if pending.future.cancelled():  # pragma: no cover - defensive
                    continue
                if isinstance(outcome, BaseException):
                    pending.future.set_exception(outcome)
                else:
                    pending.future.set_result(outcome)

    async def _next_pending(self) -> Optional[_PendingRequest]:
        """The next queued request; None once draining with an empty queue."""
        assert self._queue is not None
        while True:
            if self._draining:
                try:
                    return self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    return None
            try:
                return await asyncio.wait_for(self._queue.get(), timeout=0.1)
            except asyncio.TimeoutError:
                continue

    def _run_batch(
        self,
        batch: List[_PendingRequest],
        batch_ctx: Optional[TraceContext] = None,
    ) -> List[Union[Tuple[SimulationResult, bool], Exception]]:
        """Resolve one micro-batch (worker thread; blocking is fine here).

        Returns one ``(result, cached)`` or exception per request.
        Each request is keyed by its job identity, which needs no trace.
        Requests that hit the result cache are answered without a job;
        the rest — deduplicated, so identical concurrent requests share
        one simulation — go through :func:`repro.resilience.execute`
        over the persistent pool.  A request whose key or job cannot be
        built fails alone, and so does one whose job fails at run time
        (``execute`` returns that job's error in its slot).
        ``batch_ctx`` is the batch span's context; it propagates through
        the executor into worker jobs.
        """
        from ..spec.wire import config_from_wire, identity_from_simulate, jobspec_from_simulate

        outcomes: List[Any] = [None] * len(batch)
        jobs: List[JobSpec] = []
        slots: Dict[str, List[int]] = {}
        for i, pending in enumerate(batch):
            params = pending.params
            try:
                config = config_from_wire(params.config)
                key = identity_from_simulate(params, config)
                if params.use_cache:
                    if pending.trace is not None:
                        with self.recorder.span(
                            "cache:lookup", parent=pending.trace
                        ) as cache_span:
                            hit = self.cache.get(key)
                            cache_span.set(hit=hit is not None)
                    else:
                        hit = self.cache.get(key)
                    if hit is not None:
                        outcomes[i] = (hit, True)
                        continue
                if key in slots:
                    slots[key].append(i)
                    continue
                job = jobspec_from_simulate(params, config=config)
            except Exception as exc:  # delivered to this request as INTERNAL
                outcomes[i] = exc
                continue
            slots[key] = [i]
            jobs.append(job)
        if not jobs:
            return outcomes
        results: List[Any]
        try:
            results = execute(
                jobs, self.policy, bus=self.bus, pool=self.pool,
                trace=batch_ctx, telemetry=self.sink, return_exceptions=True,
            )
        except Exception as exc:  # the executor itself failed: every job did
            results = [exc] * len(jobs)
        for (key, indexes), result in zip(slots.items(), results):
            outcome = result
            if not isinstance(result, Exception):
                self.cache.put(key, result)
                outcome = (result, False)
            for i in indexes:
                outcomes[i] = outcome
        return outcomes

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------
    def _ping_payload(self) -> Dict[str, Any]:
        payload = super()._ping_payload()
        # The health frame a supervising front-end probes (v5).
        payload["uptime_s"] = time.monotonic() - self._started_at
        payload["state"] = "draining" if self._draining else "ready"
        if self.config.shard_index is not None:
            payload["shard_index"] = self.config.shard_index
        return payload

    async def _stats_payload(self) -> Dict[str, Any]:
        assert self._queue is not None
        return {
            "shard_index": self.config.shard_index,
            "queue": {"depth": self._queue.qsize(), "limit": self.config.queue_size},
            "cache": self.cache.info(),
            "pool": {
                "workers": self.pool.max_workers,
                "generation": self.pool.generation,
            },
            "latency_ms": latency_summary(self.metrics.latency_ms),
            "metrics": self.registry.to_dict(),
            "simulation": self.sim_registry.to_dict(),
        }

    def merged_metrics(self) -> Dict[str, Any]:
        """Service + aggregated worker instruments as one snapshot.

        Names cannot collide: worker instruments arrive prefixed with
        their job label (``ebcp.``, ``pointer_chase.``, ...), while the
        service's own instruments are unprefixed.
        """
        snapshot = dict(self.registry.to_dict())
        snapshot.update(self.sim_registry.to_dict())
        return snapshot

    async def _live_metrics(self) -> Dict[str, Any]:
        return self.merged_metrics()

    async def _telemetry(self, drain: bool) -> Dict[str, Any]:
        return {
            "shard_index": self.config.shard_index,
            "spans": self.recorder.drain() if drain else self.recorder.snapshot(),
            "dropped_spans": 0,
            "metrics": self.registry.to_dict(),
            "simulation": self.sim_registry.to_dict(),
        }


async def serve(
    config: Optional[ServiceConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
    ready_message: bool = True,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    workers: int = 1,
    heartbeat_s: float = 2.0,
    max_restarts: int = 5,
) -> int:
    """Run one service until it drains (the ``repro-ebcp serve`` body).

    ``workers > 1`` runs the sharded tier instead: a consistent-hash
    front-end over that many single-shard worker processes
    (:class:`~repro.service.router.ShardedService`), supervised every
    ``heartbeat_s`` (must be positive) with at most ``max_restarts``
    respawns per shard.  ``metrics_out`` dumps the
    merged registry (service + aggregated worker metrics) as JSON on
    shutdown; ``trace_out`` writes every span the service recorded (its
    own and the worker spans it absorbed) as a Chrome trace.
    """
    import json as _json

    from ..obs.tracing import write_chrome_trace

    if workers > 1:
        from .router import ShardedService

        service: Any = ShardedService(
            config=config,
            policy=policy,
            workers=workers,
            heartbeat_s=heartbeat_s,
            max_restarts=max_restarts,
        )
    else:
        service = SimulationService(config=config, policy=policy)
    host, port = await service.start()
    if ready_message:
        # The sentinel line CI and scripts wait for before sending traffic.
        print(f"repro-ebcp service listening on {host}:{port}", flush=True)
    await service.run(install_signal_handlers=True)
    if metrics_out:
        from pathlib import Path

        Path(metrics_out).write_text(
            _json.dumps(service.merged_metrics(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        log.info("merged metrics written to %s", metrics_out)
    if trace_out:
        write_chrome_trace(service.recorder.spans, trace_out)
        log.info("service trace written to %s", trace_out)
    return 0


class BackgroundService:
    """A service on a daemon thread — the harness tests and benches use.

    Runs ``asyncio.run(service.run())`` off-thread and blocks until the
    ephemeral port is bound, so callers can connect immediately:

    >>> with BackgroundService() as svc:        # doctest: +SKIP
    ...     client = ServiceClient(*svc.address)

    ``service`` hosts a prebuilt instance instead — any object with the
    service lifecycle (``start``/``run``/``begin_drain_threadsafe``/
    ``address``), which is how the sharded front-end
    (:class:`~repro.service.router.ShardedService`) reuses this harness.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        start_timeout_s: float = 10.0,
        service: Optional[Any] = None,
    ) -> None:
        if service is not None and (config is not None or policy is not None):
            raise ValueError("pass either a prebuilt service or config/policy, not both")
        self.service = service if service is not None else SimulationService(
            config=config or ServiceConfig(port=0), policy=policy
        )
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._start_timeout_s = start_timeout_s

    def _main(self) -> None:
        async def body() -> None:
            await self.service.start()
            self._ready.set()
            await self.service.run()

        try:
            asyncio.run(body())
        except BaseException as exc:  # surfaced to the starting thread
            self._error = exc
            self._ready.set()

    # ------------------------------------------------------------------
    def start(self) -> "BackgroundService":
        self._thread.start()
        if not self._ready.wait(self._start_timeout_s):
            raise TimeoutError("service failed to start within the timeout")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    @property
    def address(self) -> Tuple[str, int]:
        assert self.service.address is not None
        return self.service.address

    def stop(self, timeout_s: float = 30.0) -> None:
        self.service.begin_drain_threadsafe()
        self._thread.join(timeout_s)
        if self._thread.is_alive():  # pragma: no cover - drain wedged
            raise TimeoutError("service did not drain within the timeout")

    def __enter__(self) -> "BackgroundService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
