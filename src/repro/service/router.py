"""The sharded service tier: consistent-hash front-end over N shards.

One :class:`ShardedService` is a front-end acceptor plus ``workers``
single-shard worker processes, each running an unmodified
:class:`~repro.service.server.SimulationService` on an ephemeral
localhost port — its own admission queue, micro-batcher,
:class:`~repro.resilience.executor.PersistentPool` and
:class:`~repro.service.cache.ResultCache`.  Connections, request
parsing, simulate admission checks, sweep decoding and framing, and
drain come from the shared :class:`~repro.service.server.FrontEnd`
core, so both front-ends answer a bad request the same way.  The
router adds three things:

* **routing**: every simulate frame — a client's, or one job of a sweep
  the router expanded — takes one routed round-trip over a
  consistent-hash ring (:mod:`repro.service.sharding`) keyed by the
  request's generation parameters + processor-config fingerprint, so
  every run of one trace lands on the same shard and that shard's trace
  memo, filter planes and result cache stay hot.  An untraced frame is
  forwarded verbatim over a pooled shard connection; a traced frame is
  re-parented under a ``router:route`` span first, so the client's
  trace shows the routing hop.  The answer comes back with
  ``"shard": {"index", "pid"}`` attached;
* **fleet aggregation**: ``ping`` describes the fleet, ``stats``/
  ``metrics`` fan out to every shard and merge the registries
  (:meth:`MetricsRegistry.merge`) into one aggregate *plus* per-shard
  breakdowns, ``telemetry`` combines every process's spans.  A shard
  that retires hands over its final spans and metrics first, so
  ``--trace-out``/``--metrics-out`` cover the whole fleet;
* **supervision**: a :class:`~repro.service.supervisor.ShardSupervisor`
  owns fleet membership and shard lifecycle.  Boot is its grow from an
  empty ring, drain its retire of every shard; in between it probes the
  fleet every ``heartbeat_s``, replaces dead shards in place (the ring
  untouched, so the replacement owns the same key range) and executes
  live resizes requested over the protocol v5 ``admin`` request — see
  :mod:`repro.service.supervisor`.

Shards share one ``cache_dir`` when configured: the disk tier is
content-addressed and written atomically, so warm results survive not
just restarts but ring resizes (a key that moves shards is re-served
from disk, not re-simulated).
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Awaitable, Dict, Iterable, List, Optional, Tuple

from ..engine.config import ProcessorConfig
from ..obs.metrics import MetricsRegistry, RouterMetrics
from ..obs.tracing import SpanRecorder, TraceContext
from ..resilience.policy import ExecutionPolicy
from . import protocol
from .protocol import ErrorCode, ProtocolError, Request, SimulateParams
from .server import FrontEnd, ServiceConfig, latency_summary
from .sharding import HashRing, routing_key
from .supervisor import (
    ShardInfo,
    ShardState,
    ShardSupervisor,
    drop_idle_links,
)

__all__ = ["ShardedService", "ShardInfo", "ShardState"]

log = logging.getLogger(__name__)

#: One control reply per shard; ``None`` when the shard was unreachable.
Replies = List[Tuple[ShardInfo, Optional[Dict[str, Any]]]]


class ShardedService(FrontEnd):
    """Front-end acceptor routing requests over shard worker processes.

    Speaks the same wire protocol as :class:`SimulationService` on the
    same lifecycle surface (``start``/``run``/``begin_drain``/
    ``address``/``recorder``/``merged_metrics``), so ``serve``,
    :class:`~repro.service.server.BackgroundService` and the CLI host
    either interchangeably.
    """

    #: Per-shard in-flight bound for sweep jobs; keeps big sweeps from
    #: monopolising a shard's admission queue (plain simulates keep
    #: getting through) while still saturating its micro-batcher.
    SWEEP_SHARD_INFLIGHT = 16
    #: Bounded retries when a shard answers ``queue_full`` for a sweep
    #: job (each waits the shard's ``retry_after_s`` hint first).
    SWEEP_RETRIES = 50

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        workers: int = 2,
        shard_start_timeout_s: float = 120.0,
        heartbeat_s: float = 2.0,
        max_restarts: int = 5,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(config, policy)
        #: Fleet size at boot; afterwards the fleet is ``len(shards)``.
        self._boot_workers = workers
        self.shard_start_timeout_s = shard_start_timeout_s
        self.registry = MetricsRegistry()
        self.metrics = RouterMetrics(self.registry)
        #: Router spans; at drain every shard's spans are absorbed here,
        #: so ``serve --trace-out`` covers the whole fleet.
        self.recorder = SpanRecorder("router")
        #: Fleet membership; only the supervisor edits these three.
        self.ring = HashRing()
        self.shards: List[ShardInfo] = []
        self._by_name: Dict[str, ShardInfo] = {}
        #: Fleet membership and shard lifecycle owner (boot, probes,
        #: respawns, live resize, drain).
        self.supervisor = ShardSupervisor(
            self, heartbeat_s=heartbeat_s, max_restarts=max_restarts
        )

        self._config_fp: Optional[tuple] = None
        self._sweep_slots: Dict[str, asyncio.Semaphore] = {}
        #: Final telemetry payloads of retired shards (a resize's or the
        #: drain's) — their work keeps counting in fleet aggregates.
        self._retired: Replies = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Grow the fleet from zero, bind the front-end, return ``(host, port)``."""
        self._config_fp = ProcessorConfig.scaled().fingerprint()
        await self.supervisor.grow(self._boot_workers)
        try:
            await self._listen()
        except BaseException:
            # A fleet nobody can reach must not outlive the failed boot
            # (its processes would also block the interpreter's exit).
            await self.supervisor.retire(self.shards)
            raise
        self.supervisor.start()
        log.info(
            "sharded service listening on %s:%d over %d shard(s): %s",
            self.address[0],
            self.address[1],
            len(self.shards),
            ", ".join(f"{s.name}=pid{s.pid}:{s.port}" for s in self.shards),
        )
        return self.address

    async def _wind_down(self) -> None:
        # Stop the supervisor first: no probe or respawn may race the
        # fleet teardown.  Drained shards stay listed in ``shards``.
        await self.supervisor.stop()
        await self.supervisor.retire(self.shards)

    # ------------------------------------------------------------------
    # Shard links
    # ------------------------------------------------------------------
    async def _shard_roundtrip(self, shard: ShardInfo, payload: bytes) -> bytes:
        """One framed request/response against ``shard``.

        Pooled connections are reused.  *Any* write/read failure — a
        stale idle socket, the shard mid-restart, even a fresh connect
        refused — invalidates the whole pool for that shard and is
        retried once on a brand-new connection, re-reading
        ``shard.port`` (a respawned shard listens on a new ephemeral
        port).  ``inflight`` brackets the round-trip so a drain-aware
        rebalance knows when a departing shard has gone quiet.
        """
        shard.inflight += 1
        last_error: Optional[BaseException] = None
        try:
            for attempt in (0, 1):
                if attempt == 0 and shard.idle:
                    reader, writer = shard.idle.pop()
                else:
                    try:
                        reader, writer = await asyncio.open_connection(
                            "127.0.0.1", shard.port, limit=protocol.MAX_FRAME_BYTES
                        )
                    except (OSError, ConnectionError) as exc:
                        last_error = exc
                        drop_idle_links(shard)
                        continue
                try:
                    writer.write(payload)
                    await writer.drain()
                    line = await reader.readline()
                    if not line:
                        raise ConnectionError(f"{shard.name} closed the connection")
                except (OSError, ConnectionError) as exc:
                    last_error = exc
                    writer.close()
                    # The pool points at the same (possibly dead)
                    # process; a retry must start from clean sockets.
                    drop_idle_links(shard)
                    continue
                shard.idle.append((reader, writer))
                return line
            assert last_error is not None
            raise last_error
        finally:
            shard.inflight -= 1

    def _control_frame(self, request_type: str, **params: Any) -> bytes:
        frame: Dict[str, Any] = {
            "v": protocol.PROTOCOL_VERSION,
            "id": f"router-{request_type}",
            "type": request_type,
        }
        if params:
            frame["params"] = params
        return protocol.encode_frame(frame)

    async def _shard_control(
        self, shard: ShardInfo, request_type: str, **params: Any
    ) -> Optional[Dict[str, Any]]:
        """A control request's result payload, or None when unreachable."""
        try:
            line = await self._shard_roundtrip(
                shard, self._control_frame(request_type, **params)
            )
            frame = protocol.decode_frame(line)
        except (OSError, ConnectionError, ProtocolError) as exc:
            log.warning("%s %s failed: %s", shard.name, request_type, exc)
            return None
        if not frame.get("ok"):
            log.warning("%s %s answered %s", shard.name, request_type, frame.get("error"))
            return None
        return frame.get("result", {})

    async def _fan_out(self, request_type: str, **params: Any) -> Replies:
        """One control request against every shard, concurrently."""
        shards = list(self.shards)
        payloads = await asyncio.gather(
            *(self._shard_control(s, request_type, **params) for s in shards)
        )
        return list(zip(shards, payloads))

    # ------------------------------------------------------------------
    # Routed requests
    # ------------------------------------------------------------------
    def _route_key(self, params: SimulateParams) -> str:
        """Every run of one (trace, built config) cell routes to one shard."""
        config_fp = self._config_fp
        if params.config is not None:
            from ..spec.wire import config_from_wire

            config_fp = config_from_wire(params.config).fingerprint()
        return routing_key(params.workload, params.records, params.seed, config_fp)

    async def _routed(
        self, request: Request, line: bytes, key: str, bounded: bool = False
    ) -> Dict[str, Any]:
        """Route one simulate frame by ``key``; the owner's stamped answer.

        Failures come back as error frames.  While the owner is being
        replaced, or when its link fails (the supervisor is told), the
        error is a retryable ``queue_full``: the key range is served
        again within a heartbeat or two, which the SDK's retry absorbs.
        ``bounded`` holds one of the shard's sweep slots for the trip.
        """
        try:
            shard = self._by_name[self.ring.route(key)]
        except LookupError:
            return protocol.error_response(
                request.id, ErrorCode.INTERNAL, "no live shards behind the ring"
            )
        if shard.state in (ShardState.RESPAWNING, ShardState.DEAD):
            return protocol.error_response(
                request.id,
                ErrorCode.QUEUE_FULL,
                f"{shard.name} is being replaced; retry shortly",
                retry_after_s=self.supervisor.retry_after_s(),
            )
        self.metrics.count_route(shard.name)
        if not bounded:
            return await self._forward(shard, request, line)
        slot = self._sweep_slots.get(shard.name)
        if slot is None:
            slot = self._sweep_slots[shard.name] = asyncio.Semaphore(
                max(1, min(self.SWEEP_SHARD_INFLIGHT, self.config.queue_size // 2))
            )
        async with slot:
            return await self._forward(shard, request, line)

    async def _forward(
        self, shard: ShardInfo, request: Request, line: bytes
    ) -> Dict[str, Any]:
        ctx = TraceContext.from_wire(request.trace)
        span = None
        if ctx is not None:
            # Re-parent the shard's spans under a routing span, so the
            # client's trace shows front-end → shard → pool worker.
            span = self.recorder.span(
                "router:route",
                parent=ctx,
                shard=shard.index,
                shard_pid=shard.pid,
                request_id=request.id,
            )
            span.__enter__()
            forwarded = request.to_dict()
            forwarded["trace"] = span.context.to_wire()
            line = protocol.encode_frame(forwarded)
        started = time.monotonic()
        try:
            answer = await self._shard_roundtrip(shard, line)
        except (OSError, ConnectionError) as exc:
            self.metrics.errors.inc()
            if span is not None:
                span.set(error=type(exc).__name__)
            self.supervisor.note_failure(shard)
            return protocol.error_response(
                request.id,
                ErrorCode.QUEUE_FULL,
                f"{shard.name} (pid {shard.pid}) unreachable: {exc}; being replaced",
                retry_after_s=self.supervisor.retry_after_s(),
            )
        finally:
            if span is not None:
                span.__exit__(None)
        self.metrics.forward_ms.observe((time.monotonic() - started) * 1000.0)
        try:
            frame = protocol.decode_frame(answer)
        except ProtocolError:
            self.metrics.errors.inc()
            return protocol.error_response(
                request.id, ErrorCode.INTERNAL, f"{shard.name} answered garbage"
            )
        frame["shard"] = {"index": shard.index, "pid": shard.pid}
        return frame

    async def _simulate(
        self, request: Request, params: SimulateParams, line: bytes, started: float
    ) -> bytes:
        return protocol.encode_frame(
            await self._routed(request, line, self._route_key(params))
        )

    async def _admit_sweep_job(
        self, job: Request, params: SimulateParams
    ) -> Awaitable[Dict[str, Any]]:
        # The router, not the shards, expands a sweep: each shard only
        # sees simulate frames, routed like a client's.
        return self._run_sweep_job(job, params)

    async def _run_sweep_job(self, job: Request, params: SimulateParams) -> Dict[str, Any]:
        line = protocol.encode_frame(job.to_dict())
        key = self._route_key(params)
        for _attempt in range(self.SWEEP_RETRIES):
            # Re-routed every attempt: a mid-sweep respawn keeps the
            # owner but changes its port, and a mid-sweep resize may
            # hand the key to a different shard entirely.
            frame = await self._routed(job, line, key, bounded=True)
            error = frame.get("error") or {}
            if frame.get("ok") or error.get("code") != ErrorCode.QUEUE_FULL.value:
                return frame
            await asyncio.sleep(max(0.01, float(error.get("retry_after_s", 0.05))))
        return protocol.error_response(
            job.id,
            ErrorCode.INTERNAL,
            f"sweep job {job.id} still unroutable after {self.SWEEP_RETRIES} attempts",
        )

    async def _admin(self, request: Request) -> bytes:
        """Fleet control (protocol v5): currently ``resize``."""
        if self._draining:
            raise ProtocolError(ErrorCode.SHUTTING_DOWN, "service is draining")
        command = request.params.get("command")
        if command != "resize":
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"unknown admin command {command!r}",
                known=["resize"],
            )
        workers = request.params.get("workers")
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, "resize requires a positive integer 'workers'"
            )
        try:
            result = await self.supervisor.resize(workers)
        except Exception as exc:
            log.exception("resize to %d workers failed", workers)
            return protocol.encode_frame(
                protocol.error_response(
                    request.id, ErrorCode.INTERNAL, f"resize failed: {exc}"
                )
            )
        return protocol.encode_frame(protocol.ok_response(request.id, result))

    # ------------------------------------------------------------------
    # Control payloads (fleet views)
    # ------------------------------------------------------------------
    def _ping_payload(self) -> Dict[str, Any]:
        payload = super()._ping_payload()
        payload.update(
            sharded=True,
            workers=len(self.shards),
            supervised=True,
            heartbeat_s=self.supervisor.heartbeat_s,
            shards=[
                {
                    "index": s.index,
                    "pid": s.pid,
                    "port": s.port,
                    "state": s.state.value,
                    "restarts": s.restarts,
                    "uptime_s": s.uptime_s,
                }
                for s in self.shards
            ],
        )
        return payload

    def _fleet_registries(
        self, replies: Iterable[Tuple[ShardInfo, Optional[Dict[str, Any]]]]
    ) -> Tuple[MetricsRegistry, MetricsRegistry, MetricsRegistry]:
        """Fold shard payloads into ``(aggregate, per_shard, simulation)``.

        ``aggregate`` merges every shard's service instruments,
        ``per_shard`` keeps them apart under a ``shard{i}.`` prefix and
        ``simulation`` merges the worker metrics.  Shards a live resize
        retired keep counting: their processes are gone but their work
        happened.
        """
        aggregate = MetricsRegistry()
        per_shard = MetricsRegistry()
        simulation = MetricsRegistry()
        for shard, payload in [*replies, *self._retired]:
            if payload is None:
                continue
            aggregate.merge(payload.get("metrics", {}))
            per_shard.merge(payload.get("metrics", {}), prefix=f"shard{shard.index}.")
            simulation.merge(payload.get("simulation", {}))
        return aggregate, per_shard, simulation

    async def _stats_payload(self) -> Dict[str, Any]:
        """The fleet aggregate plus a per-shard breakdown."""
        replies = await self._fan_out("stats")
        cache = {"entries": 0, "hits": 0, "misses": 0, "max_entries": 0}
        disk = {"entries": 0, "hits": 0, "spilled": 0, "quarantined": 0}
        has_disk = False
        queue = {"depth": 0, "limit": 0}
        pool = {"workers": 0, "generation": 0}
        routed = self.registry.to_dict()
        shards: List[Dict[str, Any]] = []
        for shard, stats in replies:
            row: Dict[str, Any] = {
                "index": shard.index,
                "pid": shard.pid,
                "state": shard.state.value,
                "restarts": shard.restarts,
            }
            shards.append(row)
            if stats is None:
                row["unreachable"] = True
                continue
            shard_cache = stats.get("cache", {})
            for field_name in ("entries", "hits", "misses", "max_entries"):
                cache[field_name] += shard_cache.get(field_name, 0)
            shard_disk = shard_cache.get("disk")
            if shard_disk:
                has_disk = True
                for field_name in ("hits", "spilled", "quarantined"):
                    disk[field_name] += shard_disk.get(field_name, 0)
                # Shards share one spill directory; entries is the
                # directory's population, not a per-shard sum.
                disk["entries"] = max(disk["entries"], shard_disk.get("entries", 0))
            queue["depth"] += stats.get("queue", {}).get("depth", 0)
            queue["limit"] += stats.get("queue", {}).get("limit", 0)
            pool["workers"] += stats.get("pool", {}).get("workers", 0)
            pool["generation"] = max(
                pool["generation"], stats.get("pool", {}).get("generation", 0)
            )
            row.update(
                uptime_s=stats.get("uptime_s", 0.0),
                requests=stats.get("metrics", {})
                .get("requests_received", {})
                .get("value", 0),
                routed=routed.get(f"routed.{shard.name}", {}).get("value", 0),
                cache=shard_cache,
                queue=stats.get("queue", {}),
                latency_ms=stats.get("latency_ms", {}),
            )
        if has_disk:
            cache["disk"] = disk
        aggregate, _per_shard, simulation = self._fleet_registries(replies)
        return {
            "sharded": True,
            "workers": len(self.shards),
            "queue": queue,
            "cache": cache,
            "pool": pool,
            "latency_ms": latency_summary(
                aggregate["request_latency_ms"]
                if "request_latency_ms" in aggregate
                else None
            ),
            "metrics": aggregate.to_dict(),
            "simulation": simulation.to_dict(),
            "router": routed,
            "shards": shards,
        }

    def _fleet_metrics(self, replies: Replies) -> Dict[str, Any]:
        """The whole fleet as one snapshot: the aggregate, the worker
        instruments, the ``shard{i}.`` rows and the router's own."""
        aggregate, per_shard, simulation = self._fleet_registries(replies)
        return {
            **aggregate.to_dict(),
            **simulation.to_dict(),
            **per_shard.to_dict(),
            **self.registry.to_dict(),
        }

    async def _live_metrics(self) -> Dict[str, Any]:
        return self._fleet_metrics(await self._fan_out("stats"))

    async def _telemetry(self, drain: bool) -> Dict[str, Any]:
        """Every process's spans plus the aggregated registries."""
        replies = await self._fan_out("telemetry", drain=drain)
        spans = self.recorder.drain() if drain else self.recorder.snapshot()
        dropped = 0
        for _shard, payload in replies:
            if payload is not None:
                spans.extend(payload.get("spans", ()))
                dropped += int(payload.get("dropped_spans", 0))
        aggregate, per_shard, simulation = self._fleet_registries(replies)
        return {
            "sharded": True,
            "shard_index": None,
            "spans": spans,
            "dropped_spans": dropped,
            "metrics": {
                **aggregate.to_dict(),
                **per_shard.to_dict(),
                **self.registry.to_dict(),
            },
            "simulation": simulation.to_dict(),
        }

    def merged_metrics(self) -> Dict[str, Any]:
        """The fleet-wide registry snapshot over the retired shards.

        After the drain every shard has retired, so this is the union
        ``metrics`` renders live, for every shard that ever served.
        Before it, only the router's instruments and shards a resize
        retired show.
        """
        return self._fleet_metrics([])
