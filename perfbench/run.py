"""The repository benchmark: sweep throughput and served hit/miss latency.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_seeds --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Workloads (``BENCHMARK.json`` says why each exists):

``sweep_seeds``    ``run_spec`` over 4 commercial workloads x 3 seeds, cold caches
``sweep_schemes``  ``run_spec`` over the figure-9 schemes, traces/planes on disk
``serve_mix``      a ``serve --workers 2 -j 1`` fleet, two closed-loop callers,
                   one request in 20 a miss (fresh seed), the rest 8 hot keys

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is a separate
run that records spans around the program's public calls (``probes.py``)
and prints a per-layer table plus every per-layer metric.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).

Metric meaning per workload.  Every run reports every end-to-end
metric (so one set of bounds covers all workloads), and the two
operation kinds map as follows:

* ``serve_mix``: an operation is a request.  ``hit_*`` is the
  client-side latency of cache hits, ``miss_*`` of misses;
  ``served_rps`` is completed requests per second;
  ``sweep_records_per_s`` is the records the fleet simulated for misses
  per second.
* sweeps: an operation is a job; a local sweep has no result cache, so
  ``hit_*`` is a job's own compute time once its trace and planes are
  warm, and ``miss_*`` is a job's time to result from the ``run_spec``
  call (it includes the serial warm that generates or loads its inputs);
  ``served_rps`` is jobs per second.

On ``serve_mix`` a percentile is only reported with at least ten samples
beyond it (``lib.supported_percentile``), and the run keeps measuring
past ``--seconds`` until it has them.  A sweep run repeats the same
22-24 jobs a few times, so there each job's value is its median over
the passes and the percentiles are over the distinct jobs; the sweeps'
``hit_p99_ms`` is the slowest job.

Every run uses a private directory under ``.perfbench-runs/`` for the
trace cache, the result-cache disk tier and ``HOME``; it is deleted at
the end.  Nothing under ``~/.cache/repro-ebcp`` is read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("sweep_seeds", "sweep_schemes", "serve_mix")


def _declared(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def _print_table(workload: str, outcome: dict, info: dict) -> None:
    print(f"== {workload} (runner: {json.dumps(info, sort_keys=True)})")
    table = outcome.get("table")
    if table:
        print(table)
    for name, (value, unit) in outcome["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {unit}")
    print(f"  attempted {outcome['attempted']}  failed {outcome['failed']}"
          f"  correct {outcome['correct']}")
    for key, value in outcome.get("detail", {}).items():
        print(f"  # {key}: {value}")
    for name, reason in outcome.get("unmeasured", {}).items():
        print(f"  # {name}: not measured ({reason})")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    import lib

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench-runs", f"{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if workload == "serve_mix":
            import serve

            outcome = serve.run(seed, seconds, trace, workdir)
        else:
            import sweeps

            outcome = sweeps.run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    declared = _declared(trace)
    missing = sorted(set(declared) - set(outcome["metrics"]))
    if missing:
        print(f"no result: metrics not produced: {missing}"
              f" (attempted {outcome['attempted']}, failed {outcome['failed']})",
              file=sys.stderr)
        return 3
    info = lib.runner_info()
    _print_table(workload, outcome, info)
    metrics = {
        name: {"value": outcome["metrics"][name][0], "unit": declared[name]}
        for name in declared
    }
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own interpreter; one table each."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so every fleet and pass this run
    # started is stopped by its ``finally`` before the process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    if args.workload == "all":
        code = run_all(args.seed, args.seconds, args.trace)
    else:
        code = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(f"# wall {time.monotonic() - started:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
