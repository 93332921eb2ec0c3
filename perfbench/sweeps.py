"""The two sweep workloads: ``sweep_seeds`` and ``sweep_schemes``.

A run repeats *passes*.  Each pass is a fresh interpreter
(``sweep_pass.py``) that imports the program, loads and expands the spec
and calls ``run_spec`` with ``ExecutionPolicy(jobs=2)``:

* ``sweep_seeds`` — 4 commercial workloads x 3 seeds x 40k records,
  ``ebcp`` plus the deduplicated ``none`` baseline (24 jobs).  Every pass
  starts with an empty trace/plane cache, so every trace is generated.
* ``sweep_schemes`` — the ten schemes of ``specs/figure9.toml`` plus the
  baseline on ``database`` and ``tpcw``, one seed, 40k records (22 jobs).
  Traces and planes are put in the disk cache before timing starts.

Outputs are checked after the timed passes: every pass must give the
same per-job ``SimulationStats`` digests, and those must equal the
committed digests (``digests.json``) for the committed seeds, or a
re-run of the kernel-eligible jobs on the scalar reference path
(``REPRO_KERNEL=off``) for any other seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers
import lib
import probes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDS = 40_000
MIN_PASSES = 3


def build_spec(workload: str, seed: int) -> dict:
    """The spec one run sweeps; the program sees only these inputs."""
    if workload == "sweep_seeds":
        return {
            "version": 1,
            "name": "perfbench_sweep_seeds",
            "workloads": list(lib.COMMERCIAL),
            "grid": {"records": RECORDS, "seeds": lib.derive_seeds(seed, "sweep_seeds", 3)},
            "prefetchers": [{"name": "ebcp"}],
        }
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        import tomli as tomllib
    with open(os.path.join(ROOT, "specs", "figure9.toml"), "rb") as fh:
        spec = tomllib.load(fh)
    spec["name"] = "perfbench_sweep_schemes"
    spec["workloads"] = ["database", "tpcw"]
    spec["grid"] = {"records": RECORDS, "seeds": lib.derive_seeds(seed, "sweep_schemes", 1)}
    return spec


def _env(cache_dir: str, home: str, scalar: bool = False) -> Dict[str, str]:
    env = lib.program_env(cache_dir, home)
    if scalar:
        env["REPRO_KERNEL"] = "off"
    return env


def _spawn(mode: str, spec_path: str, out: str, spans: str, env: dict, trace: int = 0):
    """Run one ``sweep_pass.py`` to completion.

    Returns its output, its spawn time and the peak RSS (MB) of its
    process tree."""
    cmd = [
        sys.executable, os.path.join(HERE, "sweep_pass.py"), "--mode", mode,
        "--spec", spec_path, "--out", out, "--spans", spans, "--trace", str(trace),
    ]
    os.makedirs(spans, exist_ok=True)
    spawned = time.time()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    with lib.TreeRSSSampler(proc.pid) as sampler:
        try:
            code = proc.wait(170)
        except subprocess.TimeoutExpired:
            code = -1
        finally:
            if proc.poll() is None:  # timed out, or this run is being stopped
                lib.stop_process(proc, 5.0)
    if code != 0:
        raise RuntimeError(f"sweep_pass --mode {mode} exited with {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), spawned, sampler.total_mb


class SweepRun:
    """One run's spec, private directories and passes."""

    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.home = os.path.join(workdir, "home")
        self.spec_path = os.path.join(workdir, "spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(build_spec(workload, seed), fh)
        self.shared_cache = os.path.join(workdir, "cache-shared")
        self._n = 0

    def prepare(self) -> None:
        if self.workload == "sweep_schemes":
            _spawn(
                "prepare", self.spec_path, os.path.join(self.workdir, "prepare.json"),
                os.path.join(self.workdir, "spans-prepare"), _env(self.shared_cache, self.home),
            )

    def one_pass(self, trace: int = 0) -> dict:
        """Run one pass; returns its measurements."""
        self._n += 1
        tag = f"pass{self._n}"
        if self.workload == "sweep_seeds":
            cache = os.path.join(self.workdir, f"cache-{tag}")
        else:
            cache = self.shared_cache
        spans = os.path.join(self.workdir, f"spans-{tag}")
        out, spawned, rss_mb = _spawn(
            "pass", self.spec_path, os.path.join(self.workdir, f"{tag}.json"), spans,
            _env(cache, self.home), trace=trace,
        )
        out["setup_s"] = out["call_time"] - spawned
        out["rss_mb"] = rss_mb
        out["cache"] = cache
        out["spans"] = probes.read_spans(spans)
        return out

    def reference(self, cache: str) -> Dict[str, str]:
        out, _, _ = _spawn(
            "reference", self.spec_path, os.path.join(self.workdir, "reference.json"),
            os.path.join(self.workdir, "spans-reference"), _env(cache, self.home, scalar=True),
        )
        return out["digests"]


def _committed(workload: str, seed: int) -> Optional[List[str]]:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed))


def check(run: SweepRun, passes: List[dict]) -> int:
    """Number of jobs whose digest is wrong (0 when every check passes)."""
    first = passes[0]["digests"]
    failed = 0
    for p in passes[1:]:
        failed += sum(a != b for a, b in zip(first, p["digests"]))
    expected = _committed(run.workload, run.seed)
    if expected is not None:
        failed += sum(a != b for a, b in zip(first, expected))
        failed += abs(len(first) - len(expected))
    else:
        for index, want in run.reference(passes[-1]["cache"]).items():
            failed += first[int(index)] != want
    return failed


def job_latencies(passes: List[dict]) -> "tuple[list, list]":
    """Per-job compute time and time to result from the ``run_spec`` call
    (ms), each job's value the median over the run's passes."""
    compute: Dict[tuple, List[float]] = {}
    ready: Dict[tuple, List[float]] = {}
    for p in passes:
        for s in p["spans"]:
            if s["name"] != "job":
                continue
            a = s["args"]
            key = (a["workload"], a["seed"], a["prefetcher"])
            compute.setdefault(key, []).append(s["dur_us"] / 1000.0)
            ready.setdefault(key, []).append((s["ts_us"] + s["dur_us"] - p["call_us"]) / 1000.0)
    return ([lib.median(v) for v in compute.values()],
            [lib.median(v) for v in ready.values()])


def run(workload: str, seed: int, seconds: float, trace: int, workdir: str) -> dict:
    sweep = SweepRun(workload, seed, workdir)
    sweep.prepare()
    passes: List[dict] = []
    failed_passes = 0
    started = time.monotonic()
    deadline = started + seconds
    # Traced runs alternate untraced and traced passes so the trace
    # overhead is measured inside one run.
    while True:
        want_trace = trace and len(passes) % 2 == 1
        try:
            passes.append(sweep.one_pass(trace=int(want_trace)))
        except RuntimeError:
            failed_passes += 1
            if failed_passes >= 2:
                break
            continue
        per_pass = (time.monotonic() - started) / len(passes)
        if len(passes) >= (2 if trace else MIN_PASSES) and time.monotonic() + per_pass > deadline:
            break
    jobs_per_pass = len(passes[0]["digests"]) if passes else 24
    attempted = jobs_per_pass * (len(passes) + failed_passes)
    failed = jobs_per_pass * failed_passes
    if not passes:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    failed += check(sweep, passes)

    if trace:
        plain = [p for i, p in enumerate(passes) if i % 2 == 0]
        traced = [p for i, p in enumerate(passes) if i % 2 == 1]
        if not traced:
            return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        metrics = layers.sweep_layers(traced[0], plain, traced)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics, "table": layers.sweep_table(traced[0])}

    compute, ready = job_latencies(passes)
    med = lambda key: lib.median([p[key] for p in passes])  # noqa: E731
    metrics = {
        "setup_s": (med("setup_s"), "s"),
        "sweep_records_per_s": (
            lib.median([p["records"] / p["wall_s"] for p in passes]), "records/s"),
        "peak_rss_mb": (med("rss_mb"), "MB"),
        "served_rps": (lib.median([p["jobs"] / p["wall_s"] for p in passes]), "1/s"),
        "hit_p50_ms": (lib.percentile(compute, 50), "ms"),
        "hit_p99_ms": (lib.percentile(compute, 99), "ms"),
        "miss_p50_ms": (lib.percentile(ready, 50), "ms"),
        "miss_p75_ms": (lib.percentile(ready, 75), "ms"),
    }
    detail = {
        "passes": len(passes),
        "jobs": len(compute),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "setup_s": [round(p["setup_s"], 4) for p in passes],
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}
