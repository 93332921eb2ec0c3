"""The traced ``serve_mix`` run: where a cold miss and a warm hit spend time.

The fleet runs under ``serve_traced.py`` (benchmark spans around the
program's calls inside the front-end and shards).  The two callers
replay the same request mix with a client ``SpanRecorder``, so the
service continues each request's trace (``router:route``,
``server:simulate``, ``admission``, ``cache:lookup``, ``batch``,
``execute``, ``job:*``).
Benchmark spans recorded in a shard are joined to a request by shard
pid and time: they must fall inside the request's batch phase (from the
end of its admission wait to the end of ``server:simulate``).

The fleet's spans are drained over ``telemetry`` once a second while
the callers run, so its span cap never drops any.  Extra probes against
the live fleet: router overhead (one hit through
the front-end minus the same hit sent straight to the owning shard),
trace overhead (traced vs untraced hit p50), and protocol encode/decode
of real frames.  After the drain: worker-metrics overhead
(``JobSpec.run`` with the service's ``SimulationMetrics`` bus minus
without) and the bus-less engine time of the representative miss.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Dict, List, Tuple

import layers
import lib
import probes
import serve

PROBE_REQUESTS = 40


async def _sequential_ms(port: int, key, n: int, recorder=None) -> List[float]:
    from repro.service import AsyncServiceClient

    client = AsyncServiceClient("127.0.0.1", port, timeout_s=60.0, retries=3, recorder=recorder)
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        await client.simulate(key[0], serve.PREFETCHER, records=serve.RECORDS, seed=key[1])
        out.append((time.perf_counter() - t0) * 1000.0)
    return out


def _micro_us(fn, *args, n: int = 200) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn(*args)
        times.append((time.perf_counter() - t0) * 1e6)
    return lib.median(times)


def protocol_costs(port: int, key) -> Dict[str, float]:
    """Encode/decode cost of one real hit request and its reply frame."""
    import socket

    from repro.service import protocol
    from repro.service.protocol import Request, SimulateParams

    params = SimulateParams(workload=key[0], prefetcher=serve.PREFETCHER,
                            records=serve.RECORDS, seed=key[1])
    request = Request(type="simulate", id="perfbench-1", params=params.to_dict()).to_dict()
    frame = protocol.encode_frame(request)
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.sendall(frame)
        reply = sock.makefile("rb").readline()
    decoded = protocol.decode_frame(reply)
    return {
        "protocol.request_encode_us": _micro_us(protocol.encode_frame, request),
        "protocol.reply_decode_us": _micro_us(protocol.decode_frame, reply),
        "protocol.reply_encode_us": _micro_us(protocol.encode_frame, decoded),
        "protocol.reply_bytes": float(len(reply)),
    }


def local_engine(key, workdir: str) -> Tuple[float, float]:
    """(cold bus-less ``JobSpec.run`` ms, worker-metrics bus overhead ms)."""
    from repro.obs.bus import EventBus
    from repro.obs.metrics import SimulationMetrics
    from repro.workloads import registry

    os.environ["REPRO_TRACE_CACHE"] = os.path.join(workdir, "engine-traces")
    registry._cached_commercial.cache_clear()
    job = serve.job_for(key)
    t0 = time.perf_counter()
    job.run()
    cold_ms = (time.perf_counter() - t0) * 1000.0
    plain, observed = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        job.run()
        plain.append((time.perf_counter() - t0) * 1000.0)
        bus = EventBus()
        SimulationMetrics(bus)
        t0 = time.perf_counter()
        job.run(bus=bus)
        observed.append((time.perf_counter() - t0) * 1000.0)
    return cold_ms, lib.median(observed) - lib.median(plain)


def request_rows(sample, by_trace: Dict[str, List[dict]], bench: List[dict]) -> Dict[str, float]:
    """Per-layer self time (ms) of one request, plus total and unattributed."""
    tree = by_trace.get(sample.trace_id, [])
    srv = [s for s in tree if s["name"] == "server:simulate"]
    adm = [s for s in tree if s["name"] == "admission"]
    if srv and adm:
        pid = srv[0]["pid"]
        lo = adm[0]["ts_us"] + adm[0]["dur_us"]
        hi = srv[0]["ts_us"] + srv[0]["dur_us"]
        inside = [b for b in bench if b["pid"] == pid and b["ts_us"] >= lo
                  and b["ts_us"] + b["dur_us"] <= hi
                  and b["name"] not in ("encode_frame", "decode_frame")]
    else:
        inside = []
    ids = {b["span_id"] for b in inside}
    top = [b for b in inside if b["parent_id"] not in ids]
    # Each top-level benchmark span becomes a child of the smallest
    # service span of the same process that contains it.
    extra: Dict[str, List[dict]] = {}
    for b in top:
        holders = [s for s in tree if s["pid"] == b["pid"] and s["ts_us"] <= b["ts_us"]
                   and b["ts_us"] + b["dur_us"] <= s["ts_us"] + s["dur_us"]]
        if holders:
            holder = min(holders, key=lambda s: s["dur_us"])
            extra.setdefault(holder["span_id"], []).append(b)
    spans = tree + inside
    selfs = layers.self_times(spans, extra)
    rows: Dict[str, float] = {}
    for s in spans:
        rows[layers.layer_of(s)] = rows.get(layers.layer_of(s), 0.0) + selfs[s["span_id"]] / 1000.0
    rows["total (client-side)"] = sample.ms
    rows["unattributed"] = lib.unattributed(sample.ms, [v for k, v in rows.items()
                                                        if k != "total (client-side)"])
    return rows


async def traced_loop(port: int, seed: int, hot, seconds: float, recorder):
    """The closed loop with a client recorder, plus a once-a-second
    ``telemetry(drain=True)`` poll so the fleet's span cap never drops
    spans of the requests being traced."""
    from repro.service import AsyncServiceClient

    spans: List[dict] = []
    stop = asyncio.Event()

    async def poll() -> None:
        client = AsyncServiceClient("127.0.0.1", port, timeout_s=60.0, retries=3)
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), 1.0)
            except asyncio.TimeoutError:
                pass
            spans.extend((await client.telemetry(drain=True)).get("spans", ()))

    poller = asyncio.create_task(poll())
    try:
        samples, wall = await serve.closed_loop(
            port, seed, hot, seconds, recorder=recorder, enforce_counts=False)
    finally:
        stop.set()
        await poller
    return samples, wall, spans


def _representative(samples, kind: str):
    chosen = [s for s in samples if s.kind == kind and s.served is not None and s.trace_id]
    if not chosen:
        return None
    chosen.sort(key=lambda s: s.ms)
    return chosen[len(chosen) // 2]


def run(seed: int, seconds: float, workdir: str) -> dict:
    from repro.obs.tracing import SpanRecorder
    from repro.service import ServiceClient

    span_dir = os.path.join(workdir, "spans")
    fleet = serve.Fleet(os.path.join(workdir, "fleet"), trace=True, span_dir=span_dir)
    recorder = SpanRecorder("client")
    try:
        hot = serve.pick_hot_keys(seed)
        warm = asyncio.run(serve._warm(fleet.port, hot))
        samples, wall, fleet_spans = asyncio.run(
            traced_loop(fleet.port, seed, hot, seconds * 0.6, recorder))
        key = hot[0]
        shard_port = fleet.ping["shards"][0]["port"]
        via_router, direct, plain, traced = [], [], [], []
        for _ in range(2):
            via_router += asyncio.run(_sequential_ms(fleet.port, key, PROBE_REQUESTS // 2))
            direct += asyncio.run(_sequential_ms(shard_port, key, PROBE_REQUESTS // 2))
            plain += asyncio.run(_sequential_ms(fleet.port, key, PROBE_REQUESTS // 2))
            traced += asyncio.run(_sequential_ms(
                fleet.port, key, PROBE_REQUESTS // 2, recorder=SpanRecorder("probe")))
        proto = protocol_costs(fleet.port, key)
        with ServiceClient("127.0.0.1", fleet.port, timeout_s=60.0) as client:
            stats = client.stats()
            ping = client.ping()
            fleet_spans += client.telemetry(drain=True).get("spans", [])
    finally:
        fleet.stop()
    failed = serve.check(samples, warm, os.path.join(fleet.workdir, "traces"))
    bench = probes.read_spans(span_dir)

    m = layers.empty_metrics()
    shard_pids = {s["pid"] for s in ping.get("shards", ())}
    layers.engine_metrics([b for b in bench if b["pid"] in shard_pids], m)
    by_trace: Dict[str, List[dict]] = {}
    for s in list(fleet_spans) + list(recorder.spans):
        by_trace.setdefault(s["trace_id"], []).append(s)

    admission = {}
    for sample in samples:
        adm = [s for s in by_trace.get(sample.trace_id, ()) if s["name"] == "admission"]
        if adm:
            admission[sample.trace_id] = adm[0]["dur_us"] / 1000.0
    if admission:
        m["server.admission_wait_ms"] = (lib.median(list(admission.values())), "ms")
    hit_waits = [admission[s.trace_id] for s in samples
                 if s.kind == "hit" and s.trace_id in admission]
    if hit_waits:
        blocked = sum(w > 2 * serve.BATCH_WINDOW_MS for w in hit_waits)
        m["server.hit_blocked_share"] = (blocked / len(hit_waits), "ratio")
    metrics = stats.get("metrics", {})
    batch = metrics.get("batch_size", {})
    if batch.get("total"):
        m["server.batch_size_mean"] = (batch["sum"] / batch["total"], "count")
    m["server.queue_full"] = (float(metrics.get("queue_saturated", {}).get("value", 0)), "count")
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    if lookups:
        m["cache.hit_ratio"] = (cache["hits"] / lookups, "ratio")
    m["cache.disk_spilled"] = (float(cache.get("disk", {}).get("spilled", 0)), "count")
    gets = [b["dur_us"] for b in bench if b["name"] == "ResultCache.get"]
    puts = [b["dur_us"] / 1000.0 for b in bench if b["name"] == "ResultCache.put"]
    if gets:
        m["cache.get_us"] = (lib.median(gets), "us")
    if puts:
        m["cache.put_ms"] = (lib.median(puts), "ms")
    m["executor.warm_s"] = (sum(b["dur_us"] for b in bench if b["name"] == "warm") / 1e6, "s")
    m["router.overhead_ms"] = (lib.median(via_router) - lib.median(direct), "ms")
    restarts = sum(s.get("restarts", 0) for s in ping.get("shards", ()))
    m["supervisor.restarts"] = (float(restarts), "count")
    m["obs.trace_overhead_ratio"] = (lib.median(traced) / lib.median(plain), "ratio")
    for name, value in proto.items():
        m[name] = (value, m[name][1])

    # The kernel's fallback causes as the service itself counts them.
    served_fallbacks: Dict[str, float] = {}
    for name, inst in stats.get("simulation", {}).items():
        if ".kernel_fallbacks." in name:
            cause = name.rsplit(".", 1)[1]
            served_fallbacks[cause] = served_fallbacks.get(cause, 0) + inst.get("value", 0)

    table = ["  per-layer (ms, self time) of one cold miss and one warm hit",
             f"  {'layer':34s} {'cold miss':>11s} {'warm hit':>11s}"]
    rows = {}
    for kind in ("miss", "hit"):
        rep = _representative(samples, kind)
        if rep is not None:
            rows[kind] = request_rows(rep, by_trace, bench)
            m[f"{kind}.ms"] = (rep.ms, "ms")
            m[f"{kind}.unattributed_ms"] = (rows[kind]["unattributed"], "ms")
    if "hit" in rows:
        window = rows["hit"].get("service.server (admission)", 0.0)
        m["hit.batch_window_share"] = (window / rows["hit"]["total (client-side)"], "ratio")
    names = sorted({k for r in rows.values() for k in r}
                   - {"total (client-side)", "unattributed"})
    for name in names + ["unattributed", "total (client-side)"]:
        cells = [rows.get(kind, {}).get(name) for kind in ("miss", "hit")]
        shown = ["" if c is None else f"{c:11.3f}" for c in cells]
        table.append(f"  {name:34s} {shown[0]:>11s} {shown[1]:>11s}")

    miss_key = _representative(samples, "miss")
    if miss_key is not None:
        engine_ms, bus_ms = local_engine((miss_key.workload, miss_key.seed), workdir)
        m["miss.engine_ms"] = (engine_ms, "ms")
        m["obs.worker_metrics_ms"] = (bus_ms, "ms")
    table.append(
        f"  kernel fallbacks counted by the fleet: {served_fallbacks or 'none'};"
        f" EBCP runs on the kernel: {m['ebcp_kernel.taken_ratio'][0]:.2f}")
    table.append(
        f"  batch window share of the warm hit: {m['hit.batch_window_share'][0]:.2f};"
        f" hits blocked behind a batch (admission > {2 * serve.BATCH_WINDOW_MS:g} ms):"
        f" {m['server.hit_blocked_share'][0]:.3f} of {len(hit_waits)}")
    detail = {"requests": len(samples), "wall_s": round(wall, 3),
              "served_fallbacks": served_fallbacks}
    return {"correct": failed == 0, "attempted": len(samples) + len(warm), "failed": failed,
            "metrics": m, "table": "\n".join(table), "detail": detail}
