"""The ``serve_mix`` workload: a 2-shard fleet under a closed-loop mix.

``repro-ebcp serve --workers 2 -j 1`` runs with a private
``--cache-dir``, trace cache and ``HOME`` on an ephemeral port.  Set-up
is timed from spawn until ``ping`` shows every shard ``ready`` (polled
every 2 ms), five times per run; the first four fleets are drained
straight away, the last serves the workload.

Eight hot keys (each commercial workload once per shard, placed with
the program's own hash ring) are warmed before timing.  Two closed-loop ``AsyncServiceClient``
callers then replay their seed-derived request sequences: one request
in 20 is a miss on a fresh seed (workloads and owning shards in
rotation), the rest hit a hot key.  Timing runs
for ``--seconds`` and then until the percentile rule holds for every
reported percentile (capped at three times ``--seconds``; a percentile
still short of samples is reported as null).

Checks, after timing: hits must come from the cache and equal the warm
result of their key; every miss is re-run locally with
``JobSpec.run()`` and its ``snapshot()`` must be identical.  The fleet
is drained with SIGTERM and confirmed gone before the run ends.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

import lib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDS = 6_000
PREFETCHER = "ebcp"
HOT_KEYS = 8
CALLERS = 2
MISS_EVERY = 20
BATCH_WINDOW_MS = 5.0  # the serve default; a hit blocked behind a miss waits longer
BOOTS = 5
#: Percentiles reported per request kind, and the samples each needs.
HIT_Q, MISS_Q = (50, 99), (50, 75)


class Fleet:
    """One ``serve`` process tree, booted and confirmed ready."""

    def __init__(self, workdir: str, trace: bool, span_dir: Optional[str] = None) -> None:
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        flags = ["serve", "--workers", "2", "-j", "1", "--port", "0",
                 "--cache-dir", os.path.join(workdir, "results")]
        if trace:
            os.makedirs(span_dir, exist_ok=True)
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"), span_dir] + flags
        else:
            cmd = [sys.executable, "-m", "repro"] + flags
        env = lib.program_env(os.path.join(workdir, "traces"), os.path.join(workdir, "home"))
        self._stderr = open(os.path.join(workdir, "serve.log"), "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._stderr)
        self.sampler = lib.TreeRSSSampler(self.proc.pid).start()
        try:
            line = self.proc.stdout.readline().decode()
            if "listening on" not in line:
                raise RuntimeError(f"serve did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            # Keep draining stdout so the service never blocks on a full pipe.
            threading.Thread(target=self.proc.stdout.read, daemon=True).start()
            self.ping = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.spawned

    def _wait_ready(self, timeout_s: float = 60.0) -> dict:
        from repro.service import ServiceClient

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                with ServiceClient("127.0.0.1", self.port, timeout_s=2.0, retries=0) as c:
                    ping = c.ping()
                shards = ping.get("shards") or [{}]
                if all(s.get("state") == "ready" for s in shards):
                    return ping
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("fleet never became ready")

    def stop(self) -> None:
        """SIGTERM drain; the whole tree is confirmed gone on return."""
        try:
            lib.stop_process(self.proc, 60.0)
        finally:
            self.sampler.stop()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._stderr.close()


def shard_owner():
    """``(workload, seed) -> shard index`` as the fleet's own ring routes it."""
    from repro.engine.config import ProcessorConfig
    from repro.service.sharding import HashRing, routing_key

    ring = HashRing(f"shard-{i}" for i in range(2))
    fp = ProcessorConfig.scaled().fingerprint()

    def owner(workload: str, seed: int) -> int:
        return int(ring.route(routing_key(workload, RECORDS, seed, fp)).split("-")[1])

    return owner


def pick_hot_keys(seed: int) -> List[Tuple[str, int]]:
    """Eight (workload, seed) keys: each commercial workload once per shard."""
    owner = shard_owner()
    rng = lib.derive_rng(seed, "hot_keys")
    keys: List[Tuple[str, int]] = []
    for shard in range(2):
        for workload in lib.COMMERCIAL:
            while True:
                key_seed = rng.randrange(1, 1_000_000)
                if owner(workload, key_seed) == shard:
                    keys.append((workload, key_seed))
                    break
    return keys


class Sample:
    __slots__ = ("kind", "workload", "seed", "ms", "served", "error", "trace_id")

    def __init__(self, kind, workload, seed) -> None:
        self.kind, self.workload, self.seed = kind, workload, seed
        self.ms = 0.0
        self.served = None
        self.error: Optional[str] = None
        self.trace_id: Optional[str] = None


async def _warm(port: int, keys, recorder=None) -> Dict[Tuple[str, int], object]:
    from repro.service import AsyncServiceClient

    client = AsyncServiceClient("127.0.0.1", port, timeout_s=120.0, retries=3,
                                recorder=recorder)

    async def one(key):
        served = await client.simulate(key[0], PREFETCHER, records=RECORDS, seed=key[1])
        return key, served

    out = {}
    for k in range(0, len(keys), CALLERS):
        for key, served in await asyncio.gather(*(one(x) for x in keys[k:k + CALLERS])):
            out[key] = served
    return out


def _enough(samples: List[Sample]) -> bool:
    hits = sum(s.kind == "hit" for s in samples)
    misses = len(samples) - hits
    return (hits >= max(lib.min_samples(q) for q in HIT_Q)
            and misses >= max(lib.min_samples(q) for q in MISS_Q))


async def closed_loop(port: int, seed: int, hot, seconds: float, recorder=None,
                      enforce_counts: bool = True):
    """Two callers replaying their request sequences; returns (samples, wall).

    With a ``recorder`` every request starts its own trace, whose id is
    kept on the sample."""
    from repro.obs.tracing import TraceContext
    from repro.service import AsyncServiceClient

    samples: List[Sample] = []
    owner = shard_owner()
    start = time.perf_counter()
    soft_end = start + seconds
    hard_end = start + 3 * seconds

    def done() -> bool:
        now = time.perf_counter()
        if now >= hard_end:
            return True
        return now >= soft_end and (not enforce_counts or _enough(samples))

    async def caller(index: int) -> None:
        client = AsyncServiceClient("127.0.0.1", port, timeout_s=120.0, retries=3,
                                    recorder=recorder)
        chunk = 256
        sequence: List[tuple] = []
        n = 0
        while not done():
            if n >= len(sequence):
                sequence = lib.request_sequence(
                    seed, index, n + chunk, hot, MISS_EVERY, owner=owner, shards=2)
            kind, workload, key_seed = sequence[n]
            n += 1
            sample = Sample(kind, workload, key_seed)
            ctx = None
            if recorder is not None:
                ctx = TraceContext.new()
                sample.trace_id = ctx.trace_id
            t0 = time.perf_counter()
            try:
                sample.served = await client.simulate(
                    workload, PREFETCHER, records=RECORDS, seed=key_seed, trace=ctx
                )
            except Exception as exc:  # a failed or refused request
                sample.error = f"{type(exc).__name__}: {exc}"
            sample.ms = (time.perf_counter() - t0) * 1000.0
            samples.append(sample)

    await asyncio.gather(*(caller(i) for i in range(CALLERS)))
    return samples, time.perf_counter() - start


def job_for(key: Tuple[str, int]):
    """The ``JobSpec`` a shard runs for one served ``(workload, seed)``."""
    from repro.engine.config import ProcessorConfig
    from repro.parallel import JobSpec
    from repro.prefetchers.registry import build_prefetcher

    return JobSpec(workload=key[0], records=RECORDS, seed=key[1],
                   config=ProcessorConfig.scaled(),
                   prefetcher=build_prefetcher(PREFETCHER), label=PREFETCHER)


def _local_snapshot_digest(key: Tuple[str, int]) -> str:
    """``JobSpec.run()`` of one served key (pool entry point)."""
    return lib.digest(job_for(key).run().snapshot())


def check(samples: List[Sample], warm: Dict[Tuple[str, int], object], trace_dir: str) -> int:
    """Count wrong answers: hits must be cached and equal the warm result,
    misses must be bit-identical to a local ``JobSpec.run()``."""
    warm_digest = {k: lib.digest(v.result.snapshot()) for k, v in warm.items()}
    keys = sorted(set(warm) | {(s.workload, s.seed) for s in samples
                               if s.kind == "miss" and s.served is not None})
    # Re-runs load the traces the fleet generated (its trace cache); the
    # generator itself is checked by the sweeps' committed digests.
    os.environ["REPRO_TRACE_CACHE"] = trace_dir
    with ProcessPoolExecutor(max_workers=CALLERS) as pool:
        local = dict(zip(keys, pool.map(_local_snapshot_digest, keys)))
    failed = sum(warm_digest[k] != local[k] for k in warm)
    for s in samples:
        if s.served is None:
            failed += 1
            continue
        got = lib.digest(s.served.result.snapshot())
        key = (s.workload, s.seed)
        if s.kind == "hit":
            failed += (not s.served.cached) or got != warm_digest[key]
        else:
            failed += s.served.cached or got != local[key]
    return failed


def _isolate(workdir: str) -> None:
    """Point this process's own program state at the run directory."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["REPRO_TRACE_CACHE"] = os.path.join(workdir, "local-traces")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def run(seed: int, seconds: float, trace: int, workdir: str) -> dict:
    _isolate(workdir)
    if trace:
        import serve_layers

        return serve_layers.run(seed, seconds, workdir)
    setups: List[float] = []
    for boot in range(BOOTS - 1):
        fleet = Fleet(os.path.join(workdir, f"boot{boot}"), trace=False)
        setups.append(fleet.setup_s)
        fleet.stop()
    fleet = Fleet(os.path.join(workdir, "fleet"), trace=False)
    setups.append(fleet.setup_s)
    try:
        hot = pick_hot_keys(seed)
        warm = asyncio.run(_warm(fleet.port, hot))
        samples, wall = asyncio.run(closed_loop(fleet.port, seed, hot, seconds))
    finally:
        fleet.stop()
    failed = check(samples, warm, os.path.join(fleet.workdir, "traces"))
    hits = [s.ms for s in samples if s.kind == "hit" and s.served is not None]
    misses = [s.ms for s in samples if s.kind == "miss" and s.served is not None]
    metrics = {
        "setup_s": (lib.median(setups), "s"),
        "sweep_records_per_s": (len(misses) * RECORDS / wall, "records/s"),
        "peak_rss_mb": (fleet.sampler.total_mb, "MB"),
        "served_rps": (sum(s.served is not None for s in samples) / wall, "1/s"),
    }
    unmeasured = {}
    if (os.cpu_count() or 1) < 4:
        unmeasured["scaling_throughput_ratio_4w"] = (
            f"4 shards need 4 cores; this runner has {os.cpu_count()}")
    for kind, values, qs in (("hit", hits, HIT_Q), ("miss", misses, MISS_Q)):
        for q in qs:
            value = lib.supported_percentile(values, q)
            metrics[f"{kind}_p{q}_ms"] = (value, "ms")
            if value is None:
                unmeasured[f"{kind}_p{q}_ms"] = f"{len(values)} samples, fewer than 10 beyond p{q}"
    detail = {
        "hits": len(hits), "misses": len(misses), "wall_s": round(wall, 3),
        "setup_s": [round(s, 4) for s in setups],
        "processes": fleet.sampler.processes,
    }
    errors = [s.error for s in samples if s.error]
    if errors:
        detail["errors"] = f"{len(errors)}, first: {errors[0]}"
    return {"correct": failed == 0, "attempted": len(samples) + len(warm),
            "failed": failed, "metrics": metrics, "detail": detail, "unmeasured": unmeasured}
