"""Command-line interface: ``python -m repro`` / ``repro-ebcp``.

Subcommands
-----------
``experiments``      list the available experiments
``run <experiment>`` regenerate one paper table/figure and print it
``workloads``        summarise the synthetic workload traces
``simulate``         run one (workload, prefetcher) pair and print metrics
``trace``            run one pair with the observability bus attached and
                     export a Chrome trace-event epoch timeline (open in
                     ui.perfetto.dev), plus optional JSONL / manifest /
                     metrics files
``serve``            run the resident simulation service (async TCP,
                     micro-batching, result cache; drains on SIGTERM);
                     ``--workers N`` shards it over N worker processes
                     behind a consistent-hash front-end, ``--cache-dir``
                     adds the restart-surviving disk cache tier, and
                     ``--prewarm`` pre-generates traces per shard;
                     ``--metrics-out`` / ``--trace-out`` dump the merged
                     registry and the request-span trace on shutdown
``call``             send one request to a running service: a simulate
                     round-trip, or ``--ping`` / ``--stats`` /
                     ``--metrics`` / ``--telemetry`` / ``--shutdown``;
                     ``--traced`` wraps the call in a client span
                     (``--trace-out`` exports it as a Chrome trace);
                     against a sharded service the serving shard's
                     index/pid is printed
``top``              live refreshing terminal view of a running service
                     (req/s, queue depth, batches, cache hit ratio,
                     latency quantiles, per-prefetcher epoch MLP; a
                     sharded service additionally gets per-shard rows
                     and the disk cache tier)
``sweep``            declarative sweep specs (``specs/*.toml``):
                     ``validate`` checks schema + expansion and prints
                     the job grid, ``run`` executes a spec locally
                     through the parallel runner, ``submit`` streams it
                     through a running service (protocol v4) with
                     per-job results arriving as they settle.  The
                     spec's ``[execution]`` block supplies execution
                     defaults; explicit CLI flags override it.

Global flags ``-v``/``-q`` raise/lower the stdlib-logging verbosity of
the ``repro`` logger (repeatable: ``-vv`` for debug); ``--version``
prints the package version.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Sequence

from . import __version__
from .analysis.reporting import banner, format_table
from .engine.config import ProcessorConfig
from .engine.simulator import EpochSimulator
from .experiments import EXPERIMENTS
from .obs import (
    ChromeTraceExporter,
    EventBus,
    JsonlTraceWriter,
    MetricsRegistry,
    RunManifest,
    SimulationMetrics,
    configure_logging,
)
from .prefetchers.registry import PREFETCHERS, build_prefetcher
from .workloads.registry import COMMERCIAL_WORKLOADS, WORKLOADS, make_workload

__all__ = ["main"]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_experiments(_: argparse.Namespace) -> int:
    print("Available experiments (paper tables/figures):")
    for name in EXPERIMENTS:
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment '{args.experiment}'", file=sys.stderr)
        return 2
    from .experiments.from_spec import run_experiment

    started = time.time()
    result = run_experiment(
        args.experiment, records=args.records, seed=args.seed,
        policy=_policy_from_args(args),
    )
    print(banner(f"{args.experiment} ({args.records} records, seed {args.seed})"))
    print(result.render())
    print(f"\n[{time.time() - started:.1f} s]")
    if args.metrics_out:
        payload = result.to_dict()
        payload["records"] = args.records
        payload["seed"] = args.seed
        _write_json(args.metrics_out, payload)
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name in COMMERCIAL_WORKLOADS:
        trace = make_workload(name, records=args.records, seed=args.seed)
        counts = trace.kind_counts()
        rows.append(
            [
                name,
                len(trace),
                trace.instructions,
                trace.unique_lines(),
                counts[min(counts)],  # ifetch count (AccessKind.IFETCH == 0)
                f"{trace.meta.cpi_perf:.2f}",
            ]
        )
    print(
        format_table(
            ["workload", "records", "instructions", "unique lines", "ifetches", "cpi_perf"],
            rows,
            title="Synthetic commercial workloads",
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .parallel import JobSpec, run_jobs

    config = ProcessorConfig.scaled()
    registry = None
    policy = _policy_from_args(args)
    # The baseline and the candidate are independent runs; fan them out
    # unless the user asked for in-process introspection (--metrics-out
    # feeds a registry from the run, --diagnose needs the simulator object).
    if (
        policy.resolved_jobs() > 1
        and not args.metrics_out
        and not args.diagnose
        and args.prefetcher != "none"
    ):
        specs = [
            JobSpec(args.workload, args.records, args.seed, config, None, "baseline"),
            JobSpec(
                args.workload,
                args.records,
                args.seed,
                config,
                build_prefetcher(args.prefetcher),
                args.prefetcher,
            ),
        ]
        baseline, result = run_jobs(specs, policy=policy)
    else:
        trace = make_workload(args.workload, records=args.records, seed=args.seed)
        kwargs = {"cpi_perf": trace.meta.cpi_perf, "overlap": trace.meta.overlap}
        baseline = EpochSimulator(config, None, **kwargs).run(trace)
        metrics = None
        if args.metrics_out:
            registry = MetricsRegistry()
            metrics = SimulationMetrics(registry=registry)
        prefetcher = None if args.prefetcher == "none" else build_prefetcher(args.prefetcher)
        sim = EpochSimulator(config, prefetcher, metrics=metrics, **kwargs)
        result = sim.run(trace)
    print(banner(f"{args.workload} / {args.prefetcher}"))
    for key, value in result.to_dict().items():
        print(f"  {key:26s} {value}")
    if args.prefetcher != "none":
        print(f"  {'improvement':26s} {result.improvement_over(baseline) * 100:+.1f} %")
    if args.diagnose:
        from .analysis.diagnostics import render_diagnostics

        print()
        print(render_diagnostics(result, sim.bandwidth))
    if registry is not None:
        _write_json(args.metrics_out, registry.to_dict())
        print(f"\nmetrics written to {args.metrics_out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one pair fully observed and export the epoch timeline."""
    bus = EventBus()
    manifest = RunManifest(args.workload, args.prefetcher, args.records, args.seed)
    manifest.count_events(bus)
    exporter = ChromeTraceExporter(bus)
    registry = None
    if args.metrics_out:
        registry = MetricsRegistry()
        SimulationMetrics(bus, registry)
    jsonl = JsonlTraceWriter(args.jsonl, bus) if args.jsonl else None

    with manifest.phase("workload"):
        trace = make_workload(args.workload, records=args.records, seed=args.seed)
    prefetcher = None if args.prefetcher == "none" else build_prefetcher(args.prefetcher)
    sim = EpochSimulator(
        ProcessorConfig.scaled(),
        prefetcher,
        cpi_perf=trace.meta.cpi_perf,
        overlap=trace.meta.overlap,
        bus=bus,
    )
    with manifest.phase("simulate"):
        result = sim.run(trace, warmup_records=args.warmup)
    if jsonl is not None:
        jsonl.close()

    manifest.config_summary = dict(result.config_summary)
    manifest.record_result(result.to_dict())
    with manifest.phase("export"):
        out = exporter.write(args.out)
        if args.manifest:
            manifest.write(args.manifest)
        if registry is not None:
            _write_json(args.metrics_out, registry.to_dict())

    epochs = manifest.event_counts.get("EpochClosed", 0)
    print(f"traced {args.workload}/{args.prefetcher}: {epochs} epochs, "
          f"{sum(manifest.event_counts.values())} events")
    print(f"chrome trace: {out} ({len(exporter.trace_events)} trace events) "
          f"-- open in ui.perfetto.dev")
    if jsonl is not None:
        print(f"jsonl trace:  {args.jsonl} ({jsonl.events_written} events)")
    if args.manifest:
        print(f"manifest:     {args.manifest}")
    if registry is not None:
        print(f"metrics:      {args.metrics_out}")
    return 0


def _parse_prewarm(specs: "list[str] | None") -> "tuple[tuple[str, int, int], ...]":
    """Parse ``--prewarm WORKLOAD[:RECORDS[:SEED]]`` occurrences."""
    parsed = []
    for spec in specs or ():
        parts = spec.split(":")
        if len(parts) > 3 or not parts[0]:
            raise SystemExit(f"bad --prewarm spec '{spec}' (WORKLOAD[:RECORDS[:SEED]])")
        if parts[0] not in WORKLOADS:
            raise SystemExit(f"bad --prewarm spec '{spec}': unknown workload '{parts[0]}'")
        try:
            records = int(parts[1]) if len(parts) > 1 else 280_000
            seed = int(parts[2]) if len(parts) > 2 else 7
        except ValueError:
            raise SystemExit(f"bad --prewarm spec '{spec}' (WORKLOAD[:RECORDS[:SEED]])")
        parsed.append((parts[0], records, seed))
    return tuple(parsed)


def _positive_seconds(text: str) -> float:
    """argparse type: a duration that must be greater than zero."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: a count that must be at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _non_negative(kind: type) -> Callable[[str], float]:
    """argparse type: a ``kind`` value that must not be negative."""

    def parse(text: str) -> float:
        value = kind(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident simulation service until it drains."""
    import asyncio

    from .service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window_ms / 1000.0,
        cache_entries=args.cache_entries,
        cache_dir=args.cache_dir,
        max_disk_entries=args.max_disk_entries,
        prewarm=_parse_prewarm(args.prewarm),
    )
    return asyncio.run(
        serve(
            config,
            _policy_from_args(args),
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
            workers=args.workers,
            heartbeat_s=args.heartbeat_s,
            max_restarts=args.max_restarts,
        )
    )


def _cmd_call(args: argparse.Namespace) -> int:
    """One request against a running service (the smoke-test verb)."""
    from .obs import SpanRecorder, write_chrome_trace
    from .service import ServiceClient, ServiceError

    recorder = SpanRecorder("client") if (args.traced or args.trace_out) else None
    client = ServiceClient(
        host=args.host,
        port=args.port,
        timeout_s=args.timeout if args.timeout is not None else 30.0,
        retries=args.retries if args.retries is not None else 1,
        backoff_s=args.backoff if args.backoff is not None else 0.25,
        recorder=recorder,
    )
    try:
        with client:
            if args.ping:
                payload = client.ping()
                print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
            if args.stats:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            if args.metrics:
                print(client.metrics(), end="")
                return 0
            if args.telemetry:
                payload = client.telemetry()
                spans = payload.get("spans", [])
                print(json.dumps(payload, indent=2, sort_keys=True))
                print(f"# {len(spans)} spans from pid {payload.get('pid')}",
                      file=sys.stderr)
                return 0
            if args.resize is not None:
                report = client.resize(args.resize)
                print(json.dumps(report, indent=2, sort_keys=True))
                print(
                    f"# fleet resized {report.get('previous_workers')} -> "
                    f"{report.get('workers')} workers"
                    f" (added {list(report.get('added', []))},"
                    f" removed {list(report.get('removed', []))})",
                    file=sys.stderr,
                )
                return 0
            if args.shutdown:
                print(json.dumps(client.shutdown(), indent=2, sort_keys=True))
                return 0
            if not args.workload or not args.prefetcher:
                print(
                    "call requires WORKLOAD and PREFETCHER (or one of "
                    "--ping/--stats/--metrics/--telemetry/--resize/"
                    "--shutdown)",
                    file=sys.stderr,
                )
                return 2
            served = client.simulate(
                args.workload,
                args.prefetcher,
                records=args.records,
                seed=args.seed,
                use_cache=not args.no_cache,
            )
            merged = None
            if args.metrics_out:
                # The server's view: its own instruments plus the worker
                # registries it merged — the same snapshot `serve
                # --metrics-out` dumps on shutdown.
                stats = client.stats()
                merged = dict(stats.get("metrics", {}))
                merged.update(stats.get("simulation", {}))
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"cannot reach service at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    # Same rendering as `simulate`, so served and local runs diff cleanly.
    print(banner(f"{args.workload} / {args.prefetcher} (served)"))
    for key, value in served.result.to_dict().items():
        print(f"  {key:26s} {value}")
    print(f"  {'cached':26s} {served.cached}")
    print(f"  {'server_elapsed_ms':26s} {served.elapsed_ms:.1f}")
    if served.shard is not None:
        print(
            f"  {'shard':26s} {served.shard.get('index')} "
            f"(pid {served.shard.get('pid')})"
        )
    if recorder is not None and recorder.spans:
        print(f"  {'trace_id':26s} {recorder.spans[0]['trace_id']}")
    if merged is not None:
        _write_json(args.metrics_out, merged)
        print(f"merged metrics written to {args.metrics_out}")
    if args.trace_out and recorder is not None:
        write_chrome_trace(recorder.spans, args.trace_out)
        print(f"client trace written to {args.trace_out}")
    return 0


def _render_top(stats: dict, req_per_s: float) -> str:
    """One frame of the live service view, from a ``stats`` payload."""
    versions = f"model v{stats.get('model_version')}, generator v{stats.get('generator_version')}"
    lines = [banner(f"repro-ebcp top  ({versions})")]
    queue = stats.get("queue", {})
    cache = stats.get("cache", {})
    pool = stats.get("pool", {})
    latency = stats.get("latency_ms", {})
    metrics = stats.get("metrics", {})
    received = metrics.get("requests_received", {}).get("value", 0)
    completed = metrics.get("requests_completed", {}).get("value", 0)
    failed = metrics.get("requests_failed", {}).get("value", 0)
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    lookups = hits + misses
    hit_ratio = (hits / lookups) if lookups else 0.0
    batch = metrics.get("batch_size", {})
    lines.append(
        f"  uptime {stats.get('uptime_s', 0.0):8.1f} s"
        f"    requests {received} ({req_per_s:.1f}/s)"
        f"    ok {completed}  failed {failed}"
        f"    {'DRAINING' if stats.get('draining') else 'serving'}"
    )
    lines.append(
        f"  queue {queue.get('depth', 0)}/{queue.get('limit', 0)}"
        f"    pool {pool.get('workers', 0)}w gen{pool.get('generation', 0)}"
        f"    batch mean {batch.get('mean', 0.0):.1f} max {batch.get('max', 0)}"
    )
    lines.append(
        f"  cache {cache.get('entries', 0)} entries"
        f"    hit ratio {hit_ratio * 100:5.1f} % ({hits}/{lookups})"
    )
    disk = cache.get("disk")
    if disk:
        lines.append(
            f"  disk tier {disk.get('entries', 0)} entries"
            f"    hits {disk.get('hits', 0)}"
            f"    spilled {disk.get('spilled', 0)}"
            f"    quarantined {disk.get('quarantined', 0)}"
        )
    lines.append(
        f"  latency p50 {latency.get('p50', 0.0):8.1f} ms"
        f"    p90 {latency.get('p90', 0.0):8.1f} ms"
        f"    p99 {latency.get('p99', 0.0):8.1f} ms"
        f"    n={latency.get('count', 0)}"
    )
    if stats.get("sharded"):
        lines.append(
            f"  shards ({stats.get('workers', 0)} workers, consistent-hash routed):"
        )
        lines.append(
            f"    {'shard':>5s} {'pid':>8s} {'state':>10s} {'up s':>7s}"
            f" {'rst':>3s} {'requests':>9s} {'routed':>7s}"
            f" {'cache hit%':>10s} {'queue':>6s} {'p50 ms':>9s}"
        )
        for shard in stats.get("shards", []):
            if shard.get("unreachable"):
                lines.append(
                    f"    {shard.get('index', '?'):>5} {'-':>8s}"
                    f" {shard.get('state', 'unreachable'):>10s} {'-':>7s}"
                    f" {shard.get('restarts', 0):>3d} UNREACHABLE"
                )
                continue
            shard_cache = shard.get("cache", {})
            shard_hits = shard_cache.get("hits", 0)
            shard_lookups = shard_hits + shard_cache.get("misses", 0)
            shard_ratio = (shard_hits / shard_lookups * 100) if shard_lookups else 0.0
            lines.append(
                f"    {shard.get('index', 0):>5d} {shard.get('pid', 0):>8d}"
                f" {shard.get('state', 'ready'):>10s}"
                f" {shard.get('uptime_s', 0.0):>7.1f}"
                f" {shard.get('restarts', 0):>3d}"
                f" {shard.get('requests', 0):>9d} {shard.get('routed', 0):>7d}"
                f" {shard_ratio:>9.1f}%"
                f" {shard.get('queue', {}).get('depth', 0):>6d}"
                f" {shard.get('latency_ms', {}).get('p50', 0.0):>9.1f}"
            )
    sim_metrics = stats.get("simulation", {})
    fallbacks = sum(
        payload.get("value", 0)
        for name, payload in sim_metrics.items()
        if name.endswith(".kernel_fallbacks") or name == "kernel_fallbacks"
    )
    if fallbacks:
        causes = sorted(
            (name.rsplit("kernel_fallbacks.", 1)[1], payload.get("value", 0))
            for name, payload in sim_metrics.items()
            if "kernel_fallbacks." in name
        )
        detail = ", ".join(f"{cause} {count}" for cause, count in causes)
        lines.append(
            f"  kernel fallbacks {fallbacks}" + (f"  ({detail})" if detail else "")
        )
    mlp_rows = [
        (name[: -len(".epoch_mlp")], payload)
        for name, payload in sorted(stats.get("simulation", {}).items())
        if name.endswith(".epoch_mlp") and payload.get("type") == "histogram"
    ]
    if mlp_rows:
        lines.append("  epoch MLP by prefetcher:")
        for label, payload in mlp_rows:
            lines.append(
                f"    {label:16s} mean {payload.get('mean', 0.0):5.2f}"
                f"  max {payload.get('max', 0.0):5.1f}"
                f"  epochs {payload.get('total', 0)}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll ``stats`` and render a live refreshing terminal view."""
    from .service import ServiceClient, ServiceError

    client = ServiceClient(
        host=args.host, port=args.port, timeout_s=args.timeout or 10.0, retries=0
    )
    previous_received: float | None = None
    previous_at = time.monotonic()
    iterations = 0
    try:
        with client:
            while True:
                try:
                    stats = client.stats()
                except (ServiceError, OSError) as exc:
                    print(f"cannot poll service at {args.host}:{args.port}: {exc}",
                          file=sys.stderr)
                    return 1
                now = time.monotonic()
                received = stats.get("metrics", {}).get(
                    "requests_received", {}
                ).get("value", 0)
                req_per_s = 0.0
                if previous_received is not None and now > previous_at:
                    req_per_s = max(0.0, received - previous_received) / (
                        now - previous_at
                    )
                previous_received, previous_at = received, now
                frame = _render_top(stats, req_per_s)
                if not args.no_clear:
                    # ANSI clear + home keeps the view in place like top(1).
                    print("\x1b[2J\x1b[H", end="")
                print(frame, flush=True)
                iterations += 1
                if args.iterations and iterations >= args.iterations:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _render_sweep(result) -> str:
    """The per-job table both sweep execution verbs print."""
    summary = result.summary()
    streamed = result.shards is not None
    headers = ["#", "kind", "workload", "config", "prefetcher", "thr", "cpi"]
    headers.append("improvement")
    if streamed:
        headers += ["cached", "shard"]
    rows = []
    for row in summary["points"]:
        cells = [
            row["index"],
            row["kind"],
            row["workload"],
            row["config"],
            row["label"],
            row["n_threads"] or "-",
            f"{row['cpi']:.4f}",
            f"{row['improvement'] * 100:+.1f} %" if "improvement" in row else "-",
        ]
        if streamed:
            shard = row.get("shard") or {}
            cells.append("hit" if row.get("cached") else "miss")
            cells.append(shard.get("index", "-"))
        rows.append(cells)
    title = (
        f"sweep '{summary['name']}' -- {summary['jobs']} jobs "
        f"({summary['baselines']} baselines), "
        f"fingerprint {summary['fingerprint'][:12]}"
    )
    return format_table(headers, rows, title=title)


def _cmd_sweep_validate(args: argparse.Namespace) -> int:
    """Parse + expand each spec; exit non-zero if any is invalid."""
    from .spec import SpecError, expand, load_spec

    failures = 0
    for path in args.spec:
        try:
            spec = load_spec(path)
            plan = expand(spec)
        except SpecError as exc:
            print(f"{path}: INVALID -- {exc}", file=sys.stderr)
            failures += 1
            continue
        except OSError as exc:
            print(f"{path}: unreadable -- {exc}", file=sys.stderr)
            failures += 1
            continue
        print(
            f"{path}: ok -- '{spec.name}' v{spec.version}, "
            f"{len(plan.jobs)} jobs ({plan.n_baselines} baselines after "
            f"dedup), fingerprint {spec.fingerprint()[:12]}"
        )
        if args.print_plan:
            for meta in plan.meta:
                print(
                    f"  [{meta.index:3d}] {meta.kind:9s} {meta.workload:14s}"
                    f" cfg={meta.config_label} pf={meta.label}"
                    f" records={meta.records} seed={meta.seed}"
                    + (f" threads={meta.n_threads}" if meta.n_threads else "")
                )
    return 1 if failures else 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    """Expand a spec and execute it locally through the parallel runner."""
    from .spec import SpecError, load_spec, run_spec

    try:
        spec = load_spec(args.spec)
    except (SpecError, OSError) as exc:
        print(f"{args.spec}: {exc}", file=sys.stderr)
        return 2
    policy = _policy_from_args(args, execution=spec.execution)
    started = time.time()
    result = run_spec(spec, policy=policy)
    print(_render_sweep(result))
    print(f"\n[{time.time() - started:.1f} s]")
    if args.out:
        _write_json(args.out, result.summary())
        print(f"sweep summary written to {args.out}")
    return 0


def _cmd_sweep_submit(args: argparse.Namespace) -> int:
    """Submit a spec to a running service; results stream back per job."""
    from .service import ServiceError
    from .spec import SpecError, load_spec, submit_spec

    try:
        spec = load_spec(args.spec)
    except (SpecError, OSError) as exc:
        print(f"{args.spec}: {exc}", file=sys.stderr)
        return 2
    started = time.time()
    try:
        result = submit_spec(
            spec,
            host=args.host,
            port=args.port,
            use_cache=not args.no_cache,
            timeout_s=args.timeout if args.timeout is not None else 600.0,
            retries=args.retries if args.retries is not None else 1,
            backoff_s=args.backoff if args.backoff is not None else 0.25,
        )
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"cannot reach service at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    print(_render_sweep(result))
    hits = sum(result.cached or ())
    shards = sorted(
        {s["index"] for s in (result.shards or ()) if s and "index" in s}
    )
    print(
        f"\n[{time.time() - started:.1f} s client"
        + (f", {result.elapsed_ms / 1000.0:.1f} s service" if result.elapsed_ms else "")
        + f"; {hits}/{len(result)} cache hits"
        + (f"; shards {shards}" if shards else "")
        + "]"
    )
    if args.out:
        _write_json(args.out, result.summary())
        print(f"sweep summary written to {args.out}")
    return 0


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that map one-to-one onto :class:`repro.resilience.ExecutionPolicy`."""
    group = parser.add_argument_group("execution policy")
    group.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent simulator runs (0 = all "
        "cores; default: $REPRO_JOBS or 1; results are bit-identical "
        "either way)",
    )
    group.add_argument(
        "--timeout", type=_positive_seconds, default=None, metavar="SECONDS",
        help="per-job wall-clock budget, building the job's trace and "
        "planes included; a pooled job exceeding it is killed and retried "
        "(default: no timeout)",
    )
    group.add_argument(
        "--retries", type=_non_negative(int), default=None, metavar="N",
        help="retries per failed job attempt before the error propagates "
        "(default: spec [execution] block, else 1)",
    )
    group.add_argument(
        "--backoff", type=_non_negative(float), default=None, metavar="SECONDS",
        help="base delay before a retry, doubling per attempt "
        "(default: spec [execution] block, else 0.25)",
    )
    group.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="store each completed job under DIR so an interrupted run "
        "resumes from where it stopped (bit-identical results; DIR also "
        "works as a serve --cache-dir)",
    )


def _add_client_flags(
    parser: argparse.ArgumentParser, default_timeout: float = 30.0
) -> None:
    """Connection flags shared by every verb that talks to a service."""
    group = parser.add_argument_group("service connection")
    group.add_argument("--host", default="127.0.0.1")
    group.add_argument("--port", type=int, default=7421)
    group.add_argument(
        "--timeout", type=_positive_seconds, default=None, metavar="SECONDS",
        help=f"per-attempt client timeout (default: {default_timeout:g})",
    )
    group.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="transport/backpressure retries before giving up (default: 1)",
    )
    group.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help="base retry delay, doubling per attempt (default: 0.25)",
    )


def _policy_from_args(
    args: argparse.Namespace, execution: "object | None" = None
) -> "ExecutionPolicy":
    """Build the execution policy: explicit flag > spec block > default.

    ``execution`` is a spec's :class:`repro.spec.ExecutionSpec`; without
    one the built-in defaults stand in, so the merge is uniform across
    imperative and spec-driven subcommands.
    """
    from .resilience import ExecutionPolicy, FaultSpec
    from .spec.schema import ExecutionSpec

    base = execution if execution is not None else ExecutionSpec()

    def pick(flag, spec_value, fallback=None):
        if flag is not None:
            return flag
        return spec_value if spec_value is not None else fallback

    return ExecutionPolicy(
        jobs=pick(args.jobs, base.jobs),
        timeout_s=pick(args.timeout, base.timeout_s),
        retries=pick(args.retries, base.retries, 1),
        backoff_s=pick(args.backoff, base.backoff_s, 0.25),
        checkpoint_dir=pick(args.checkpoint_dir, base.checkpoint_dir),
        fault_spec=FaultSpec.from_env(),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ebcp",
        description="Epoch-Based Correlation Prefetching (MICRO 2007) reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase logging verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="decrease logging verbosity (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list available experiments").set_defaults(
        func=_cmd_experiments
    )

    p_run = sub.add_parser("run", help="regenerate one paper table/figure")
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_run.add_argument("--records", type=int, default=280_000)
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument(
        "--metrics-out", metavar="PATH",
        help="also write the table/figure data as machine-readable JSON",
    )
    _add_execution_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_wl = sub.add_parser("workloads", help="summarise the synthetic workloads")
    p_wl.add_argument("--records", type=int, default=280_000)
    p_wl.add_argument("--seed", type=int, default=7)
    p_wl.set_defaults(func=_cmd_workloads)

    p_sim = sub.add_parser("simulate", help="run one workload/prefetcher pair")
    p_sim.add_argument("workload", choices=sorted(WORKLOADS))
    p_sim.add_argument("prefetcher", choices=sorted(PREFETCHERS))
    p_sim.add_argument("--records", type=int, default=280_000)
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument(
        "--diagnose",
        action="store_true",
        help="print the full diagnostic breakdown (termination census, "
        "miss mix, prefetch lifecycle, bus traffic)",
    )
    p_sim.add_argument(
        "--metrics-out", metavar="PATH",
        help="collect a metrics registry (histograms, counters) over the "
        "run and write it as JSON",
    )
    _add_execution_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_tr = sub.add_parser(
        "trace",
        help="run one pair with observability on and export the epoch timeline",
    )
    p_tr.add_argument("workload", choices=sorted(WORKLOADS))
    p_tr.add_argument("prefetcher", choices=sorted(PREFETCHERS))
    p_tr.add_argument(
        "--out", metavar="PATH", default="trace.json",
        help="Chrome trace-event JSON output (default: trace.json)",
    )
    p_tr.add_argument(
        "--jsonl", metavar="PATH",
        help="also stream every event to a JSONL file",
    )
    p_tr.add_argument(
        "--manifest", metavar="PATH",
        help="also write a per-run manifest (config, result, event counts, "
        "wall time per phase)",
    )
    p_tr.add_argument(
        "--metrics-out", metavar="PATH",
        help="also write the metrics registry as JSON",
    )
    p_tr.add_argument("--records", type=int, default=50_000)
    p_tr.add_argument("--seed", type=int, default=7)
    p_tr.add_argument(
        "--warmup", type=int, default=0,
        help="warm-up records excluded from measured stats; the trace "
        "itself covers the whole run (default: 0, so event counts match "
        "the reported stats)",
    )
    p_tr.set_defaults(func=_cmd_trace)

    p_srv = sub.add_parser(
        "serve",
        help="run the resident simulation service (drains on SIGTERM)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7421,
                       help="TCP port (0 = ephemeral; default: 7421)")
    p_srv.add_argument(
        "--queue-size", type=_positive_int, default=64, metavar="N",
        help="request-queue capacity; a full queue answers queue_full "
        "instead of buffering (default: 64)",
    )
    p_srv.add_argument(
        "--max-batch", type=_positive_int, default=8, metavar="N",
        help="most simulate requests dispatched as one executor batch "
        "(default: 8)",
    )
    p_srv.add_argument(
        "--batch-window-ms", type=float, default=5.0, metavar="MS",
        help="how long the dispatcher waits for a micro-batch to fill "
        "(default: 5 ms)",
    )
    p_srv.add_argument(
        "--cache-entries", type=int, default=256, metavar="N",
        help="result-cache capacity; 0 disables caching (default: 256)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the service over N worker processes behind a "
        "consistent-hash front-end; each shard owns its own queue, "
        "micro-batcher, pool and result cache (default: 1 = single "
        "process, no front-end)",
    )
    p_srv.add_argument(
        "--heartbeat-s", type=_positive_seconds, default=2.0, metavar="SECONDS",
        help="sharded only: seconds between supervisor health probes of "
        "each shard; must be > 0 (default: 2.0)",
    )
    p_srv.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        help="sharded only: how many times the supervisor respawns a "
        "crashed shard before retiring it from the ring (default: 5)",
    )
    p_srv.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="spill result-cache entries to DIR as checksummed JSON so "
        "warm results survive restarts; shards share the directory "
        "(default: memory only)",
    )
    p_srv.add_argument(
        "--max-disk-entries", type=int, default=4096, metavar="N",
        help="disk-tier capacity before oldest entries are pruned "
        "(default: 4096)",
    )
    p_srv.add_argument(
        "--prewarm", action="append", metavar="WORKLOAD[:RECORDS[:SEED]]",
        help="pre-generate this trace (and its filter planes) before "
        "reporting ready; repeatable; sharded serves partition the list "
        "by routing shard (e.g. --prewarm tpcw:50000:7)",
    )
    p_srv.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the merged registry (service + aggregated worker "
        "metrics) as JSON when the service drains",
    )
    p_srv.add_argument(
        "--trace-out", metavar="PATH",
        help="write every request span the service recorded (including "
        "worker-side spans) as a Chrome trace on shutdown",
    )
    _add_execution_flags(p_srv)
    p_srv.set_defaults(func=_cmd_serve)

    p_call = sub.add_parser(
        "call",
        help="send one request to a running service",
    )
    p_call.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    p_call.add_argument("prefetcher", nargs="?", choices=sorted(PREFETCHERS))
    _add_client_flags(p_call)
    p_call.add_argument("--records", type=int, default=280_000)
    p_call.add_argument("--seed", type=int, default=7)
    p_call.add_argument(
        "--no-cache", action="store_true",
        help="bypass the service's result cache for this request",
    )
    p_call.add_argument(
        "--traced", action="store_true",
        help="wrap the call in a client span and send its trace context, "
        "so server/worker spans join the client's trace",
    )
    p_call.add_argument(
        "--trace-out", metavar="PATH",
        help="write the client-side spans as a Chrome trace (implies "
        "--traced)",
    )
    p_call.add_argument(
        "--metrics-out", metavar="PATH",
        help="after the call, fetch the service's merged registry "
        "(service + aggregated worker metrics) and write it as JSON",
    )
    group = p_call.add_mutually_exclusive_group()
    group.add_argument("--ping", action="store_true",
                       help="liveness/version check instead of a simulation")
    group.add_argument("--stats", action="store_true",
                       help="fetch the service metrics snapshot")
    group.add_argument("--metrics", action="store_true",
                       help="fetch the merged registry as Prometheus text")
    group.add_argument("--telemetry", action="store_true",
                       help="fetch the service's spans and metric registries "
                       "as JSON (a sharded service answers for the whole "
                       "fleet)")
    group.add_argument("--resize", type=int, metavar="N",
                       help="resize a sharded service to N worker shards "
                       "(grows warm from the disk tier; shrinks drain "
                       "in-flight work before retiring)")
    group.add_argument("--shutdown", action="store_true",
                       help="ask the service to drain and exit")
    p_call.set_defaults(func=_cmd_call)

    p_top = sub.add_parser(
        "top",
        help="live refreshing view of a running service (poll stats)",
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=7421)
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between polls (default: 1.0)",
    )
    p_top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N frames (default: 0 = until interrupted)",
    )
    p_top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (logs, CI)",
    )
    p_top.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-poll client timeout (default: 10)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_sweep = sub.add_parser(
        "sweep",
        help="validate / run / submit declarative sweep specs (specs/*.toml)",
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    p_sv = sweep_sub.add_parser(
        "validate", help="check spec files parse, validate and expand"
    )
    p_sv.add_argument("spec", nargs="+", metavar="SPEC",
                      help="spec file (.toml or .json)")
    p_sv.add_argument(
        "--print-plan", action="store_true",
        help="also print every expanded job (index, kind, workload, "
        "config, prefetcher)",
    )
    p_sv.set_defaults(func=_cmd_sweep_validate)

    p_sr = sweep_sub.add_parser(
        "run",
        help="expand a spec and run it locally (bit-identical at any "
        "job count)",
    )
    p_sr.add_argument("spec", metavar="SPEC", help="spec file (.toml or .json)")
    p_sr.add_argument(
        "--out", metavar="PATH",
        help="write the per-job sweep summary as JSON",
    )
    _add_execution_flags(p_sr)
    p_sr.set_defaults(func=_cmd_sweep_run)

    p_ss = sweep_sub.add_parser(
        "submit",
        help="submit a spec to a running service; per-job results stream "
        "back as they settle (a sharded service fans jobs out per shard)",
    )
    p_ss.add_argument("spec", metavar="SPEC", help="spec file (.toml or .json)")
    _add_client_flags(p_ss, default_timeout=600.0)
    p_ss.add_argument(
        "--no-cache", action="store_true",
        help="bypass the service's result cache for every job",
    )
    p_ss.add_argument(
        "--out", metavar="PATH",
        help="write the per-job sweep summary as JSON",
    )
    p_ss.set_defaults(func=_cmd_sweep_submit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
