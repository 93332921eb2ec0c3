"""Per-layer metrics and tables from spans (traced runs).

Every traced run reports the same per-layer metric set (:func:`empty_metrics`);
a layer that a workload never calls reads 0.  Self time is a span's
duration minus the part its children cover (``lib.self_time_us``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import lib

FALLBACK_CAUSES = (
    "bus_attached", "disabled", "warm_state", "access_stream",
    "prefetcher_inactive", "subclassed_prefetcher", "compressed_disabled",
)
SCHEMES = (
    "none", "ghb_small", "ghb_large", "tcp_small", "tcp_large", "stream", "sms",
    "solihin_3_2", "solihin_6_1", "ebcp_minus", "ebcp",
)

#: Span name -> the module (layer) that owns the call.
LAYER_OF = {
    "generate": "workloads", "trace_load": "workloads", "make_workload": "workloads",
    "get_filter_plane": "engine.filter_plane", "compute_filter_plane": "engine.filter_plane",
    "load_plane": "engine.filter_plane", "get_epoch_segments": "engine.filter_plane",
    "compute_epoch_segments": "engine.filter_plane", "load_segments": "engine.filter_plane",
    "run_epoch_batched": "engine.ebcp_kernel",
    "EpochSimulator.run": "engine.simulator",
    "snapshot": "engine.stats",
    "job": "parallel", "warm": "parallel", "run_spec": "spec",
    "execute": "resilience.executor",
    "ResultCache.get": "service.cache", "ResultCache.put": "service.cache",
    "cache:lookup": "service.cache",
    "encode_frame": "service.protocol", "decode_frame": "service.protocol",
    "client:simulate": "service.client", "router:route": "service.router",
    "server:simulate": "service.server", "admission": "service.server (admission)",
    "batch": "service.server (batch)",
}


def layer_of(span: dict) -> str:
    name = span["name"]
    if name.startswith("job:"):
        return "parallel"
    return LAYER_OF.get(name, name)


def empty_metrics() -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric at zero (a layer the workload never calls)."""
    m: Dict[str, Tuple[float, str]] = {}

    def put(name: str, unit: str) -> None:
        m[name] = (0.0, unit)

    for name, unit in (
        ("workloads.gen_s", "s"), ("workloads.gen_us_per_record", "us"),
        ("workloads.built", "count"), ("workloads.load_s", "s"), ("workloads.loaded", "count"),
        ("filter_plane.plane_s", "s"), ("filter_plane.segments_s", "s"),
        ("filter_plane.computed", "count"), ("filter_plane.loaded", "count"),
        ("ebcp_kernel.s", "s"), ("ebcp_kernel.records_per_s", "records/s"),
        ("ebcp_kernel.runs", "count"), ("ebcp_kernel.taken_ratio", "ratio"),
        ("simulator.scalar_s", "s"), ("simulator.scalar_records_per_s", "records/s"),
        ("executor.warm_s", "s"), ("executor.busy_ratio", "ratio"),
        ("executor.retries", "count"), ("executor.degraded", "count"),
        ("executor.unattributed_s", "s"),
        ("spec.expand_ms", "ms"), ("spec.jobs", "count"), ("spec.baselines", "count"),
        ("protocol.request_encode_us", "us"), ("protocol.reply_decode_us", "us"),
        ("protocol.reply_encode_us", "us"), ("protocol.reply_bytes", "bytes"),
        ("server.admission_wait_ms", "ms"), ("server.batch_size_mean", "count"),
        ("server.hit_blocked_share", "ratio"), ("server.queue_full", "count"),
        ("cache.hit_ratio", "ratio"), ("cache.get_us", "us"), ("cache.put_ms", "ms"),
        ("cache.disk_spilled", "count"),
        ("router.overhead_ms", "ms"), ("supervisor.restarts", "count"),
        ("obs.worker_metrics_ms", "ms"), ("obs.trace_overhead_ratio", "ratio"),
        ("hit.ms", "ms"), ("hit.batch_window_share", "ratio"), ("hit.unattributed_ms", "ms"),
        ("miss.ms", "ms"), ("miss.engine_ms", "ms"), ("miss.unattributed_ms", "ms"),
    ):
        put(name, unit)
    for cause in FALLBACK_CAUSES:
        put(f"ebcp_kernel.fallback.{cause}", "count")
    for scheme in SCHEMES:
        put(f"prefetchers.{scheme}.records_per_s", "records/s")
    return m


def _named(spans: Iterable[dict], name: str) -> List[dict]:
    return [s for s in spans if s["name"] == name]


def _sum_s(spans: Iterable[dict]) -> float:
    return sum(s["dur_us"] for s in spans) / 1e6


def self_times(
    spans: List[dict], extra_children: Optional[Dict[str, List[dict]]] = None
) -> Dict[str, float]:
    """Self time (us) per span id, children found through ``parent_id``."""
    kids = lib.span_children(spans)
    out = {}
    for span in spans:
        children = list(kids.get(span["span_id"], ()))
        if extra_children:
            children += extra_children.get(span["span_id"], [])
        out[span["span_id"]] = lib.self_time_us(span, children)
    return out


def engine_metrics(spans: List[dict], m: Dict[str, Tuple[float, str]]) -> None:
    """The workloads / planes / kernel / simulator layers, wherever they ran."""
    gen = _named(spans, "generate")
    m["workloads.gen_s"] = (_sum_s(gen), "s")
    m["workloads.built"] = (float(len(gen)), "count")
    gen_records = sum(s["args"].get("records", 0) for s in gen)
    if gen_records:
        m["workloads.gen_us_per_record"] = (_sum_s(gen) * 1e6 / gen_records, "us")
    loads = _named(spans, "trace_load")
    m["workloads.load_s"] = (_sum_s(loads), "s")
    m["workloads.loaded"] = (float(len(loads)), "count")

    m["filter_plane.plane_s"] = (_sum_s(_named(spans, "get_filter_plane")), "s")
    m["filter_plane.segments_s"] = (_sum_s(_named(spans, "get_epoch_segments")), "s")
    m["filter_plane.computed"] = (float(len(_named(spans, "compute_filter_plane"))
                                        + len(_named(spans, "compute_epoch_segments"))), "count")
    m["filter_plane.loaded"] = (float(len(_named(spans, "load_plane"))
                                      + len(_named(spans, "load_segments"))), "count")

    kernel = _named(spans, "run_epoch_batched")
    kernel_s = _sum_s(kernel)
    m["ebcp_kernel.s"] = (kernel_s, "s")
    m["ebcp_kernel.runs"] = (float(len(kernel)), "count")
    if kernel_s:
        m["ebcp_kernel.records_per_s"] = (
            sum(s["args"]["records"] for s in kernel) / kernel_s, "records/s")
    runs = _named(spans, "EpochSimulator.run")
    batchable = [s for s in runs if s["args"].get("batchable")]
    if batchable:
        m["ebcp_kernel.taken_ratio"] = (len(kernel) / len(batchable), "ratio")
    for cause in FALLBACK_CAUSES:
        n = sum(s["args"].get("fallback") == cause for s in batchable)
        m[f"ebcp_kernel.fallback.{cause}"] = (float(n), "count")

    selfs = self_times(spans)
    scalar = [s for s in runs if s["args"].get("path") in ("compressed", "legacy")]
    scalar_s = sum(selfs[s["span_id"]] for s in scalar) / 1e6
    m["simulator.scalar_s"] = (scalar_s, "s")
    if scalar_s:
        m["simulator.scalar_records_per_s"] = (
            sum(s["args"]["records"] for s in scalar) / scalar_s, "records/s")
    by_id = {s["span_id"]: s for s in spans}
    per_scheme: Dict[str, List[float]] = {}
    for run in runs:
        parent = by_id.get(run["parent_id"])
        # The job's label names the scheme (the deduplicated baseline
        # is labelled "baseline" and runs no prefetcher).
        if parent is not None and parent["name"] == "job":
            label = parent["args"]["prefetcher"]
        else:
            label = run["args"]["prefetcher"]
        label = "none" if label == "baseline" else label
        acc = per_scheme.setdefault(label, [0.0, 0.0])
        acc[0] += run["args"]["records"]
        acc[1] += run["dur_us"] / 1e6
    for scheme, (records, secs) in per_scheme.items():
        if scheme in SCHEMES and secs:
            m[f"prefetchers.{scheme}.records_per_s"] = (records / secs, "records/s")


def layer_rows(spans: List[dict]) -> Dict[str, Tuple[int, float, float]]:
    """``{layer: (calls, total_s, self_s)}`` over benchmark spans."""
    selfs = self_times(spans)
    rows: Dict[str, List[float]] = {}
    for span in spans:
        row = rows.setdefault(layer_of(span), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span["dur_us"] / 1e6
        row[2] += selfs[span["span_id"]] / 1e6
    return {k: (int(v[0]), v[1], v[2]) for k, v in rows.items()}


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _executor(p: dict) -> Tuple[float, float, float]:
    """(warm_s, busy_ratio, unattributed_s) of one pass."""
    spans = p["spans"]
    top = _named(spans, "run_spec")[0]
    lo, hi = top["ts_us"], top["ts_us"] + top["dur_us"]
    warm = _named(spans, "warm")
    jobs = _named(spans, "job")
    warm_s = _sum_s(warm)
    busy = _sum_s(jobs) / (top["dur_us"] / 1e6 * 2)
    covered = lib.covered_us(
        [(s["ts_us"], s["ts_us"] + s["dur_us"]) for s in warm + jobs], lo, hi)
    return warm_s, busy, (top["dur_us"] - covered) / 1e6


def sweep_layers(
    traced: dict, plain: List[dict], traced_all: List[dict]
) -> Dict[str, Tuple[float, str]]:
    m = empty_metrics()
    engine_metrics(traced["spans"], m)
    warm_s, busy, unattributed = _executor(traced)
    m["executor.warm_s"] = (warm_s, "s")
    m["executor.busy_ratio"] = (busy, "ratio")
    m["executor.unattributed_s"] = (unattributed, "s")
    events = traced.get("events", {})
    m["executor.retries"] = (float(events.get("JobRetried", 0)), "count")
    m["executor.degraded"] = (float(events.get("ExecutionDegraded", 0)), "count")
    m["spec.expand_ms"] = (traced["expand_ms"], "ms")
    m["spec.jobs"] = (float(traced["jobs"]), "count")
    m["spec.baselines"] = (float(traced["baselines"]), "count")
    m["obs.trace_overhead_ratio"] = (
        lib.median([p["wall_s"] for p in traced_all]) / lib.median([p["wall_s"] for p in plain]),
        "ratio")
    return m


def sweep_table(traced: dict) -> str:
    """Per-layer busy time of one traced pass."""
    spans = traced["spans"]
    rows = layer_rows(spans)
    wall = traced["wall_s"]
    job_s = _sum_s(_named(spans, "job"))
    warm_s, busy, unattributed = _executor(traced)
    lines = [f"  per-layer, one traced pass: run_spec wall {wall:.3f} s,"
             f" job-seconds {job_s:.3f} (2 workers), serial warm {warm_s:.3f} s",
             f"  {'layer':28s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}"]
    for layer, (calls, total, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {layer:28s} {calls:7d} {total:9.3f} {self_s:9.3f}")
    lines.append(f"  {'unattributed (no warm, no job)':28s} {'':7s} {unattributed:9.3f}")
    return "\n".join(lines)
