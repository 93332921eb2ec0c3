"""One sweep pass in a fresh interpreter (spawned by ``sweeps.py``).

Modes:

``pass``       import, ``load_spec``, ``expand``, then ``run_spec`` with
               ``ExecutionPolicy(jobs=2)``; writes wall times, per-job
               clocks and per-job ``SimulationStats`` digests.
``prepare``    put every trace, filter plane and epoch-segment plane of
               the spec into the disk cache (untimed set-up).
``reference``  re-run the kernel-eligible jobs on the scalar reference
               path (``REPRO_KERNEL=off`` in the environment) and write
               their digests.

The trace cache is whatever ``REPRO_TRACE_CACHE`` names; the caller
gives every pass a private directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("pass", "prepare", "reference"), required=True)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True, help="directory for span files")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    from repro.resilience.policy import ExecutionPolicy
    from repro.spec import expand, load_spec, run_spec

    import lib
    import probes

    spec = load_spec(args.spec)
    t0 = time.perf_counter()
    plan = expand(spec)
    expand_ms = (time.perf_counter() - t0) * 1000.0
    out: dict = {"jobs": len(plan.jobs), "baselines": plan.n_baselines, "expand_ms": expand_ms}

    if args.mode == "prepare":
        from repro.parallel.jobs import warm_trace_cache

        warm_trace_cache(plan.jobs)
    elif args.mode == "reference":
        from repro.parallel import run_jobs

        picked = [
            i for i, job in enumerate(plan.jobs)
            if getattr(job.prefetcher, "supports_epoch_batch", False)
        ]
        results = run_jobs([plan.jobs[i] for i in picked], policy=ExecutionPolicy(jobs=2))
        out["digests"] = {str(i): lib.digest(r.stats.to_dict()) for i, r in zip(picked, results)}
    else:
        if args.trace:
            probes.install(args.spans)
        else:
            probes.install_job_timer(args.spans)
        from repro.obs.tracing import wall_us

        bus = None
        if args.trace:
            from repro.obs import events as ev
            from repro.obs.bus import EventBus

            bus = EventBus()
            counts = out["events"] = {}
            for kind in (ev.JobRetried, ev.JobTimedOut, ev.WorkerCrashed,
                         ev.ExecutionDegraded, ev.TraceCacheWarmed):
                bus.subscribe(kind, lambda e: counts.__setitem__(
                    type(e).__name__, counts.get(type(e).__name__, 0) + 1))
        out["call_time"] = time.time()
        out["call_us"] = wall_us()
        t1 = time.perf_counter()
        with probes.span("run_spec", jobs=len(plan.jobs)):
            result = run_spec(spec, policy=ExecutionPolicy(jobs=2), bus=bus)
        out["wall_s"] = time.perf_counter() - t1
        out["records"] = sum(job.records for job in plan.jobs)
        out["digests"] = [lib.digest(r.stats.to_dict()) for r in result.results]
        probes.flush()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
