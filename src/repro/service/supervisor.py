"""Shard supervision: liveness, crash recovery and live resize.

PR 8's sharded tier boots a fixed fleet and assumes it stays up; this
module turns that boot-time topology into a *supervised* fleet.  One
:class:`ShardSupervisor` lives inside the
:class:`~repro.service.router.ShardedService` event loop and owns shard
lifecycle end to end:

* **Liveness** — every ``heartbeat_s`` the supervisor sweeps the fleet:
  ``process.is_alive()`` catches a crashed worker immediately, and an
  async ``ping`` probe over the pooled links catches a wedged one.  Each
  shard carries a typed state machine::

      starting ──► ready ◄────────────┐
                    │ missed probe /  │ probe ok /
                    ▼ transport error │ handshake
                  suspect ────────────┤
                    │ process dead or │
                    ▼ strikes == N    │
                   dead ──► respawning┘
                    │ restarts > max_restarts
                    ▼
                retired (ring shrinks — fail-stop)

  ``suspect`` is a strike, not a verdict: the shard keeps routing until
  the strikes accumulate or its process is simply gone.

* **Crash recovery** — a dead shard's in-flight requests fail fast with
  retryable ``queue_full`` errors (the SDK's existing backpressure
  retry absorbs the window), then the supervisor forks a replacement
  with the *same shard id*.  The ring is untouched, so the newcomer
  inherits the exact key range, re-runs the dead shard's ``--prewarm``
  slice, and — when a shared ``cache_dir`` is configured — re-serves
  previously computed results from the disk tier instead of
  re-simulating them.

* **Live resize** — the protocol v5 ``admin`` request
  (``{"command": "resize", "workers": N}``) grows the fleet via
  :meth:`HashRing.add` (each newcomer is warmed from the shared disk
  tier *before* it enters the ring) and shrinks it with a drain-aware
  rebalance: :meth:`HashRing.remove` first (no new keys route there),
  in-flight proxied requests finish, the victim's final telemetry is
  absorbed into the router, then it is shut down and joined.
  Consistent hashing guarantees only the added/removed shards' keys
  remap — the property ``tests/test_sharding.py`` pins.

The supervisor is deliberately an *event-loop peer* of the router, not
a thread: every mutation of ``shards``/``ring``/``_by_name`` happens on
the loop, so the router's request handlers never observe a torn fleet.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..engine.config import ProcessorConfig
from ..obs.events import FleetResized, ShardRestarted, ShardSuspect
from ..resilience.policy import ExecutionPolicy
from .server import ServiceConfig, SimulationService
from .sharding import HashRing, routing_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .router import ShardedService

__all__ = ["ShardState", "ShardInfo", "ShardSupervisor"]

log = logging.getLogger(__name__)


class ShardState(str, Enum):
    """Lifecycle state of one shard behind the ring."""

    STARTING = "starting"
    READY = "ready"
    SUSPECT = "suspect"
    DEAD = "dead"
    RESPAWNING = "respawning"
    DRAINING = "draining"


def _shard_main(
    index: int, config: ServiceConfig, policy: ExecutionPolicy, conn: Any
) -> None:
    """Worker-process entry point: run one shard until drained.

    Reports ``{"port", "pid"}`` through ``conn`` once the shard is
    bound (and pre-warmed, when configured), so the front-end only
    advertises readiness when the whole fleet can serve.  SIGINT is
    ignored before the loop starts — a Ctrl-C against the process group
    must reach the shard as the front-end's orderly ``shutdown`` frame
    (or SIGTERM), not as a KeyboardInterrupt mid-start.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass

    async def body() -> None:
        service = SimulationService(config=config, policy=policy)
        _host, port = await service.start()
        conn.send({"port": port, "pid": os.getpid()})
        conn.close()
        await service.run(install_signal_handlers=True)

    asyncio.run(body())


@dataclass
class ShardInfo:
    """One shard behind the ring (live or being replaced)."""

    index: int
    name: str
    port: int
    pid: int
    process: Any
    #: Idle pooled connections to this shard ``(reader, writer)``.
    idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = field(
        default_factory=list
    )
    #: The exact worker config this shard was forked with — a respawn
    #: reuses it verbatim (same shard id, same ``--prewarm`` slice).
    config: Optional[ServiceConfig] = None
    state: ShardState = ShardState.READY
    #: Times the supervisor replaced this shard's process.
    restarts: int = 0
    #: Consecutive failed health probes (reset on any success).
    probe_misses: int = 0
    #: Requests currently proxied to this shard (drain-aware rebalance).
    inflight: int = 0
    #: When the *current* process became ready (monotonic clock).
    started_at: float = field(default_factory=time.monotonic)
    #: When the current incarnation was declared dead (downtime metric).
    died_at: float = 0.0

    @property
    def uptime_s(self) -> float:
        return max(0.0, time.monotonic() - self.started_at)


def drop_idle_links(shard: ShardInfo) -> None:
    """Close every pooled connection to ``shard`` (they point at a dead
    or superseded process; the next round-trip opens fresh sockets)."""
    while shard.idle:
        _reader, writer = shard.idle.pop()
        try:
            writer.close()
        except Exception:  # pragma: no cover - already broken
            pass


def wait_shard_ready(conn: Any, process: Any, timeout_s: float) -> Dict[str, Any]:
    """Block (in an executor thread) for one shard's ready handshake."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if conn.poll(0.1):
            return conn.recv()
        if not process.is_alive():
            raise RuntimeError(
                f"shard process {process.name} exited during start-up "
                f"(exitcode {process.exitcode})"
            )
    process.terminate()
    raise TimeoutError(
        f"shard {process.name} did not report ready within {timeout_s:.0f}s"
    )


class ShardSupervisor:
    """Owns shard lifecycle inside a :class:`ShardedService`.

    Every fleet is supervised: ``heartbeat_s`` must be positive.  The
    router's boot path also forks through :meth:`spawn_shard`.
    """

    def __init__(
        self,
        service: "ShardedService",
        heartbeat_s: float = 2.0,
        max_restarts: int = 5,
        probe_timeout_s: float = 5.0,
        suspect_probes: int = 2,
    ) -> None:
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if suspect_probes < 1:
            raise ValueError(f"suspect_probes must be >= 1, got {suspect_probes}")
        self.service = service
        self.heartbeat_s = heartbeat_s
        self.max_restarts = max_restarts
        self.probe_timeout_s = probe_timeout_s
        self.suspect_probes = suspect_probes
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._respawns: Dict[int, asyncio.Task] = {}
        self._resize_lock = asyncio.Lock()

    def retry_after_s(self) -> float:
        """The backpressure hint sent while a shard is being replaced."""
        return max(0.05, min(1.0, self.heartbeat_s))

    # ------------------------------------------------------------------
    # Forking (boot, respawn and resize all share this path)
    # ------------------------------------------------------------------
    def fork(self, index: int, config: ServiceConfig) -> Tuple[Any, Any]:
        """Start one shard process; returns ``(handshake_conn, process)``."""
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        # NOT daemonic: each shard owns a ProcessPoolExecutor, and
        # daemonic processes are not allowed to have children.
        process = ctx.Process(
            target=_shard_main,
            args=(index, config, self.service.policy, child_conn),
            name=f"repro-shard-{index}",
            daemon=False,
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    async def handshake(self, conn: Any, process: Any) -> Dict[str, Any]:
        """Await the ``{"port", "pid"}`` ready frame off the loop."""
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None, wait_shard_ready, conn, process,
                self.service.shard_start_timeout_s,
            )
        finally:
            conn.close()

    async def spawn_shard(self, index: int, config: ServiceConfig) -> ShardInfo:
        """Fork + handshake one shard; terminates the process on failure."""
        conn, process = self.fork(index, config)
        try:
            info = await self.handshake(conn, process)
        except Exception:
            if process.is_alive():
                process.terminate()
            raise
        return ShardInfo(
            index=index,
            name=f"shard-{index}",
            port=int(info["port"]),
            pid=int(info["pid"]),
            process=process,
            config=config,
            state=ShardState.READY,
        )

    # ------------------------------------------------------------------
    # Heartbeat loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._task is not None:
            return
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(self._run(), name="shard-supervisor")

    async def stop(self) -> None:
        """Stop probing; let an in-flight respawn finish (never orphan a
        freshly forked process)."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._respawns:
            await asyncio.wait(
                list(self._respawns.values()),
                timeout=self.service.shard_start_timeout_s,
            )

    async def _run(self) -> None:
        assert self._wake is not None
        while True:
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=self.heartbeat_s)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            if self.service.draining:
                return
            try:
                await self.check_fleet()
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - defensive
                log.exception("supervisor heartbeat failed")

    async def check_fleet(self) -> None:
        """One liveness sweep: dead-process checks, then async probes."""
        for shard in list(self.service.shards):
            if shard.state in (
                ShardState.RESPAWNING, ShardState.DEAD, ShardState.DRAINING
            ):
                continue
            if not shard.process.is_alive():
                self.note_suspect(shard, "process exited")
                self._mark_dead(
                    shard, f"process exited (exitcode {shard.process.exitcode})"
                )
                continue
            await self._probe(shard)

    async def _probe(self, shard: ShardInfo) -> None:
        try:
            payload = await asyncio.wait_for(
                self.service._shard_control(shard, "ping"),
                timeout=self.probe_timeout_s,
            )
        except asyncio.TimeoutError:
            payload = None
        if shard.state in (
            ShardState.RESPAWNING, ShardState.DEAD, ShardState.DRAINING
        ):
            return  # the shard moved under the await; leave it alone
        if payload is not None:
            shard.probe_misses = 0
            shard.state = ShardState.READY
            self.service.metrics.set_uptime(shard.name, shard.uptime_s)
            return
        self.note_suspect(shard, "probe failed")
        if not shard.process.is_alive() or shard.probe_misses >= self.suspect_probes:
            self._mark_dead(shard, "probe failed")

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def note_suspect(self, shard: ShardInfo, cause: str) -> None:
        """One strike against ``shard`` (probe miss or transport error)."""
        shard.probe_misses += 1
        if shard.state in (ShardState.READY, ShardState.STARTING, ShardState.SUSPECT):
            shard.state = ShardState.SUSPECT
            self.service.emit(
                ShardSuspect(
                    index=shard.index,
                    pid=shard.pid,
                    misses=shard.probe_misses,
                    cause=cause,
                )
            )

    def note_failure(self, shard: ShardInfo, cause: str = "") -> None:
        """The router hit a transport error proxying to ``shard``.

        Synchronous (called from request handlers): records a strike and
        wakes the heartbeat loop so death is confirmed on the loop, not
        in the middle of a request.
        """
        if shard.state in (
            ShardState.RESPAWNING, ShardState.DEAD, ShardState.DRAINING
        ):
            return
        self.note_suspect(shard, cause or "transport error")
        if self._wake is not None:
            self._wake.set()

    def _mark_dead(self, shard: ShardInfo, cause: str) -> None:
        """Declare ``shard`` dead and schedule its replacement."""
        if shard.state in (
            ShardState.RESPAWNING, ShardState.DEAD, ShardState.DRAINING
        ):
            return
        shard.died_at = time.monotonic()
        drop_idle_links(shard)
        if shard.restarts >= self.max_restarts:
            shard.state = ShardState.DEAD
            self._retire_dead(shard, cause)
            return
        shard.state = ShardState.RESPAWNING
        log.warning("%s (pid %d) dead: %s — respawning", shard.name, shard.pid, cause)
        task = asyncio.create_task(
            self._respawn(shard), name=f"respawn-{shard.name}"
        )
        self._respawns[shard.index] = task
        task.add_done_callback(lambda _t: self._respawns.pop(shard.index, None))

    async def _respawn(self, shard: ShardInfo) -> None:
        """Replace a dead shard's process; the ring is untouched."""
        svc = self.service
        old_pid = shard.pid
        old_process = shard.process
        shard.restarts += 1
        process = None
        try:
            config = shard.config if shard.config is not None else svc.config
            conn, process = self.fork(shard.index, config)
            info = await self.handshake(conn, process)
        except Exception as exc:
            if process is not None and process.is_alive():
                process.terminate()
            # Back to suspect: the next heartbeat finds the process dead
            # and tries again (until the restart budget runs out).
            shard.state = ShardState.SUSPECT
            log.warning("respawn of %s failed: %s", shard.name, exc)
            return
        shard.port = int(info["port"])
        shard.pid = int(info["pid"])
        shard.process = process
        shard.probe_misses = 0
        shard.started_at = time.monotonic()
        shard.state = ShardState.READY
        try:
            old_process.join(0)  # reap the zombie; it is already dead
        except Exception:  # pragma: no cover - platform quirks
            pass
        downtime = time.monotonic() - (shard.died_at or time.monotonic())
        svc.metrics.count_restart(shard.name)
        svc.metrics.set_uptime(shard.name, 0.0)
        svc.emit(
            ShardRestarted(
                index=shard.index,
                old_pid=old_pid,
                new_pid=shard.pid,
                restarts=shard.restarts,
                downtime_s=downtime,
            )
        )
        log.info(
            "%s respawned: pid %d -> %d (restart %d, %.2fs downtime)",
            shard.name, old_pid, shard.pid, shard.restarts, downtime,
        )

    def _retire_dead(self, shard: ShardInfo, cause: str) -> None:
        """Fail-stop: drop a shard that exhausted its restart budget."""
        svc = self.service
        previous = len(svc.shards)
        svc.ring.remove(shard.name)
        svc._by_name.pop(shard.name, None)
        if shard in svc.shards:
            svc.shards.remove(shard)
        svc.workers = len(svc.shards)
        svc.metrics.shards.set(float(len(svc.shards)))
        svc.emit(
            FleetResized(
                previous_workers=previous,
                workers=len(svc.shards),
                removed=(shard.index,),
                reason="max_restarts",
            )
        )
        log.error(
            "%s retired after %d restarts (%s); fleet is now %d shard(s)",
            shard.name, shard.restarts, cause, len(svc.shards),
        )

    # ------------------------------------------------------------------
    # Live resize (protocol v5 admin request)
    # ------------------------------------------------------------------
    async def resize(self, workers: int) -> Dict[str, Any]:
        """Grow or shrink the fleet to ``workers`` shards, live."""
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ValueError(f"workers must be a positive integer, got {workers!r}")
        async with self._resize_lock:
            svc = self.service
            previous = len(svc.shards)
            added: List[int] = []
            removed: List[int] = []
            if workers > previous:
                added = await self._grow(workers - previous)
            elif workers < previous:
                removed = await self._shrink(previous - workers)
            svc.workers = len(svc.shards)
            svc.metrics.shards.set(float(len(svc.shards)))
            if added or removed:
                svc.metrics.resizes.inc()
                svc.emit(
                    FleetResized(
                        previous_workers=previous,
                        workers=len(svc.shards),
                        added=tuple(added),
                        removed=tuple(removed),
                    )
                )
                log.info(
                    "fleet resized %d -> %d (added %s, removed %s)",
                    previous, len(svc.shards), added or "-", removed or "-",
                )
            return {
                "workers": len(svc.shards),
                "previous_workers": previous,
                "added": added,
                "removed": removed,
                "shards": [
                    {"index": s.index, "pid": s.pid, "state": s.state.value}
                    for s in svc.shards
                ],
            }

    async def _grow(self, count: int) -> List[int]:
        """Spawn ``count`` newcomers; each enters the ring only after its
        handshake (and disk-tier warm-up) completed."""
        svc = self.service
        existing = {s.index for s in svc.shards}
        new_indexes: List[int] = []
        candidate = 0
        while len(new_indexes) < count:
            if candidate not in existing:
                new_indexes.append(candidate)
            candidate += 1

        # Partition the prewarm working set with the *prospective* ring,
        # so each newcomer warms exactly the traces it is about to own.
        prospective = HashRing(
            [s.name for s in svc.shards] + [f"shard-{i}" for i in new_indexes]
        )
        prewarm_by: Dict[str, List[Tuple[str, int, int]]] = {
            f"shard-{i}": [] for i in new_indexes
        }
        config_fp = svc._config_fp or ProcessorConfig.scaled().fingerprint()
        for workload, records, seed in svc.config.prewarm:
            owner = prospective.route(routing_key(workload, records, seed, config_fp))
            if owner in prewarm_by:
                prewarm_by[owner].append((workload, records, seed))

        async def spawn(index: int) -> ShardInfo:
            config = dataclasses.replace(
                svc.config,
                host="127.0.0.1",
                port=0,
                shard_index=index,
                prewarm=tuple(prewarm_by[f"shard-{index}"]),
                # Warm the newcomer's memory tier from the shared disk
                # tier before it takes traffic.
                preload_disk=svc.config.cache_dir is not None,
            )
            return await self.spawn_shard(index, config)

        results = await asyncio.gather(
            *(spawn(i) for i in new_indexes), return_exceptions=True
        )
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            for r in results:
                if isinstance(r, ShardInfo):
                    # Never entered the ring; discard it.
                    r.process.terminate()
            raise failures[0]
        added: List[int] = []
        for shard in results:
            assert isinstance(shard, ShardInfo)
            svc.shards.append(shard)
            svc._by_name[shard.name] = shard
            svc.ring.add(shard.name)
            added.append(shard.index)
        svc.shards.sort(key=lambda s: s.index)
        return added

    async def _shrink(self, count: int) -> List[int]:
        """Drain-aware removal of the ``count`` highest-index shards."""
        svc = self.service
        victims = sorted(svc.shards, key=lambda s: s.index)[-count:]
        removed: List[int] = []
        # Unroute all victims first — synchronously, so no request can
        # land on a shard that is about to drain.
        for victim in victims:
            victim.state = ShardState.DRAINING
            svc.ring.remove(victim.name)
            svc._by_name.pop(victim.name, None)
            svc.shards.remove(victim)
            removed.append(victim.index)
        for victim in victims:
            await self._retire(victim)
        return removed

    async def _retire(self, victim: ShardInfo) -> None:
        """Let a drained-out victim finish, absorb its telemetry, join."""
        svc = self.service
        deadline = time.monotonic() + svc.config.drain_timeout_s
        while victim.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        payload = await svc._shard_control(victim, "telemetry", drain=True)
        if payload is not None:
            svc.recorder.extend(payload.get("spans", ()))
            # The payload's registries keep counting in fleet aggregates
            # after the process is gone (stats/metrics/final telemetry).
            svc._retired.append((victim, payload))
        await svc._shard_control(victim, "shutdown")
        drop_idle_links(victim)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._join_victim, victim)
        victim.state = ShardState.DEAD

    def _join_victim(self, victim: ShardInfo) -> None:
        victim.process.join(self.service.config.drain_timeout_s)
        if victim.process.is_alive():  # pragma: no cover - drain wedged
            log.warning("%s did not drain on removal; terminating", victim.name)
            victim.process.terminate()
            victim.process.join(5.0)
