"""Shard supervision: fleet membership, liveness, crash recovery, resize.

One :class:`ShardSupervisor` lives inside the
:class:`~repro.service.router.ShardedService` event loop and owns the
fleet end to end: it is the only code that forks a shard, retires one,
or changes ``shards``/``ring``/``_by_name`` (through one
:meth:`~ShardSupervisor._admit`/:meth:`~ShardSupervisor._evict` pair).

* **One lifecycle** — boot is a grow from an empty ring
  (:meth:`~ShardSupervisor.grow`), a live resize grows or shrinks the
  ring it left, and drain retires every shard
  (:meth:`~ShardSupervisor.retire`) through the same path a shrink
  takes: in-flight proxied requests finish, the shard's final telemetry
  is absorbed into the router, then it is shut down and joined.

* **Liveness** — every ``heartbeat_s`` the supervisor sweeps the fleet:
  ``process.is_alive()`` catches a crashed worker immediately, and an
  async ``ping`` probe over the pooled links catches a wedged one.  Each
  shard carries a typed state machine (a shard exists only once its
  handshake succeeded, so it starts ``ready``)::

                   ready ◄────────────┐
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
  with the *same shard id* and config.  The ring is untouched, so the
  newcomer inherits the exact key range, re-runs the dead shard's
  ``--prewarm`` slice, and — when a shared ``cache_dir`` is configured —
  re-serves previously computed results from the disk tier instead of
  re-simulating them.

* **Live resize** — the protocol v5 ``admin`` request
  (``{"command": "resize", "workers": N}``) grows the fleet (each
  newcomer joining a live fleet is warmed from the shared disk tier
  *before* it enters the ring) and shrinks it with a drain-aware
  rebalance: the victims leave the ring first (no new keys route
  there), then retire concurrently.  Consistent hashing guarantees only
  the added/removed shards' keys remap — the property
  ``tests/test_sharding.py`` pins.

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
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from ..resilience.policy import ExecutionPolicy
from .server import ServiceConfig, SimulationService
from .sharding import HashRing, routing_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .router import ShardedService

__all__ = ["ShardState", "ShardInfo", "ShardSupervisor"]

log = logging.getLogger(__name__)


class ShardState(str, Enum):
    """Lifecycle state of one shard behind the ring."""

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
    #: The exact worker config this shard was forked with — a respawn
    #: reuses it verbatim (same shard id, same ``--prewarm`` slice).
    config: ServiceConfig
    #: Idle pooled connections to this shard ``(reader, writer)``.
    idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = field(
        default_factory=list
    )
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


def stop_process(process: Any, grace_s: float) -> bool:
    """Join ``process`` within ``grace_s``, then terminate it if it is
    still alive (blocking; run it in a thread).  True when it had to be
    terminated."""
    process.join(grace_s)
    if not process.is_alive():
        return False
    process.terminate()
    process.join(5.0)
    return True


class ShardSupervisor:
    """Owns fleet membership and shard lifecycle inside a
    :class:`ShardedService`.

    Every fleet is supervised: ``heartbeat_s`` must be positive.
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
    # Spawning (grow and respawn share this path)
    # ------------------------------------------------------------------
    async def spawn_shard(self, index: int, config: ServiceConfig) -> ShardInfo:
        """Fork one shard and await its ``{"port", "pid"}`` ready
        handshake off the loop; stops the process on failure."""
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        conn, child_conn = ctx.Pipe(duplex=False)
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
        try:
            info = await asyncio.to_thread(
                wait_shard_ready, conn, process, self.service.shard_start_timeout_s
            )
        except Exception:
            await asyncio.to_thread(stop_process, process, 0.0)
            raise
        finally:
            conn.close()
        return ShardInfo(
            index=index,
            name=f"shard-{index}",
            port=int(info["port"]),
            pid=int(info["pid"]),
            process=process,
            config=config,
        )

    # ------------------------------------------------------------------
    # Membership (the only edits of shards / _by_name / ring)
    # ------------------------------------------------------------------
    def _admit(self, *shards: ShardInfo) -> None:
        """Put ``shards`` behind the ring."""
        svc = self.service
        for shard in shards:
            svc.shards.append(shard)
            svc._by_name[shard.name] = shard
            svc.ring.add(shard.name)
        svc.shards.sort(key=lambda s: s.index)
        svc.metrics.shards.set(float(len(svc.shards)))

    def _evict(self, *shards: ShardInfo) -> None:
        """Take ``shards`` off the ring; no new request routes to them."""
        svc = self.service
        for shard in shards:
            svc.ring.remove(shard.name)
            del svc._by_name[shard.name]
            svc.shards.remove(shard)
        svc.metrics.shards.set(float(len(svc.shards)))

    # ------------------------------------------------------------------
    # Grow and retire (boot, live resize and drain)
    # ------------------------------------------------------------------
    async def grow(self, count: int) -> List[int]:
        """Start ``count`` shards at the lowest free indexes and admit
        them; returns their indexes.

        Boot grows an empty ring, a resize the live one.  Each newcomer
        warms the prewarm traces it is about to own (the list partitioned
        by the prospective ring) and enters the ring only after its
        handshake.  Either every newcomer starts or none is left running.
        """
        svc = self.service
        existing = {s.index for s in svc.shards}
        new_indexes: List[int] = []
        candidate = 0
        while len(new_indexes) < count:
            if candidate not in existing:
                new_indexes.append(candidate)
            candidate += 1

        prospective = HashRing(
            [s.name for s in svc.shards] + [f"shard-{i}" for i in new_indexes]
        )
        prewarm_by: Dict[str, List[Tuple[str, int, int]]] = {
            f"shard-{i}": [] for i in new_indexes
        }
        for workload, records, seed in svc.config.prewarm:
            owner = prospective.route(
                routing_key(workload, records, seed, svc._config_fp)
            )
            if owner in prewarm_by:
                prewarm_by[owner].append((workload, records, seed))
        # A newcomer joining a serving fleet warms its memory tier from
        # the shared disk tier before it takes traffic; boot shards
        # start cold.
        preload = svc.config.cache_dir is not None and svc.address is not None

        results = await asyncio.gather(
            *(
                self.spawn_shard(
                    index,
                    dataclasses.replace(
                        svc.config,
                        host="127.0.0.1",
                        port=0,
                        shard_index=index,
                        prewarm=tuple(prewarm_by[f"shard-{index}"]),
                        preload_disk=preload,
                    ),
                )
                for index in new_indexes
            ),
            return_exceptions=True,
        )
        spawned = [r for r in results if isinstance(r, ShardInfo)]
        if len(spawned) < len(results):
            await asyncio.gather(
                *(asyncio.to_thread(stop_process, s.process, 0.0) for s in spawned)
            )
            raise next(r for r in results if isinstance(r, BaseException))
        self._admit(*spawned)
        return new_indexes

    async def retire(self, shards: Iterable[ShardInfo]) -> None:
        """Retire ``shards`` concurrently: each finishes its in-flight
        requests, hands over its final telemetry and is shut down and
        joined.  Their spans join the router's recorder and their
        registries keep counting in fleet aggregates (stats, metrics,
        ``merged_metrics``) after the processes are gone."""
        svc = self.service
        victims = list(shards)
        for victim in victims:
            # From here no probe, strike or respawn touches the shard.
            victim.state = ShardState.DRAINING
        payloads = await asyncio.gather(*(self._retire(v) for v in victims))
        for victim, payload in zip(victims, payloads):
            if payload is not None:
                svc.recorder.extend(payload.get("spans", ()))
                svc._retired.append((victim, payload))

    async def _retire(self, victim: ShardInfo) -> Optional[Dict[str, Any]]:
        """Drain one shard within ``drain_timeout_s``; its final
        telemetry payload (None when unreachable)."""
        svc = self.service
        deadline = time.monotonic() + svc.config.drain_timeout_s
        while victim.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        payload = await svc._shard_control(victim, "telemetry", drain=True)
        await svc._shard_control(victim, "shutdown")
        drop_idle_links(victim)
        grace_s = max(0.1, deadline - time.monotonic())
        if await asyncio.to_thread(stop_process, victim.process, grace_s):
            log.warning("%s did not drain in time; terminated", victim.name)
        victim.state = ShardState.DEAD
        return payload

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
        self.note_suspect(shard)
        if not shard.process.is_alive() or shard.probe_misses >= self.suspect_probes:
            self._mark_dead(shard, "probe failed")

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def note_suspect(self, shard: ShardInfo) -> None:
        """One strike against ``shard`` (probe miss or transport error)."""
        shard.probe_misses += 1
        if shard.state in (ShardState.READY, ShardState.SUSPECT):
            shard.state = ShardState.SUSPECT

    def note_failure(self, shard: ShardInfo) -> None:
        """The router hit a transport error proxying to ``shard``.

        Synchronous (called from request handlers): records a strike and
        wakes the heartbeat loop so death is confirmed on the loop, not
        in the middle of a request.
        """
        if shard.state in (
            ShardState.RESPAWNING, ShardState.DEAD, ShardState.DRAINING
        ):
            return
        self.note_suspect(shard)
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
            # Fail-stop: a shard that exhausted its restart budget leaves
            # the ring rather than crash-looping.
            shard.state = ShardState.DEAD
            self._evict(shard)
            log.error(
                "%s retired after %d restarts (%s); fleet is now %d shard(s)",
                shard.name, shard.restarts, cause, len(self.service.shards),
            )
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
        old_pid, old_process = shard.pid, shard.process
        shard.restarts += 1
        try:
            fresh = await self.spawn_shard(shard.index, shard.config)
        except Exception as exc:
            # Back to suspect: the next heartbeat finds the process dead
            # and tries again (until the restart budget runs out).
            shard.state = ShardState.SUSPECT
            log.warning("respawn of %s failed: %s", shard.name, exc)
            return
        shard.port, shard.pid, shard.process = fresh.port, fresh.pid, fresh.process
        shard.started_at = fresh.started_at
        shard.probe_misses = 0
        shard.state = ShardState.READY
        try:
            old_process.join(0)  # reap the zombie; it is already dead
        except Exception:  # pragma: no cover - platform quirks
            pass
        downtime = time.monotonic() - (shard.died_at or time.monotonic())
        self.service.metrics.count_restart(shard.name)
        self.service.metrics.set_uptime(shard.name, 0.0)
        log.info(
            "%s respawned: pid %d -> %d (restart %d, %.2fs downtime)",
            shard.name, old_pid, shard.pid, shard.restarts, downtime,
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
                added = await self.grow(workers - previous)
            elif workers < previous:
                # The highest-index shards leave the ring first —
                # synchronously, so no request can land on a shard that
                # is about to drain — then retire.
                victims = svc.shards[workers:]
                self._evict(*victims)
                await self.retire(victims)
                removed = [v.index for v in victims]
            if added or removed:
                svc.metrics.resizes.inc()
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
