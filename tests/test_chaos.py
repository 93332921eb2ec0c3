"""CI chaos drill: full-stack recovery under injected faults.

Gated behind ``REPRO_CHAOS=1`` (the CI workflow runs it as a dedicated
step) because it deliberately crashes pool workers and corrupts cache
entries.  Each scenario drives the real public stack — ``run_spec``,
executor, on-disk caches — under ``REPRO_FAULT_*`` injection and asserts
the end state is bit-identical to an undisturbed run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.resilience.faults as faults_mod
from repro.engine.config import ProcessorConfig
from repro.obs.bus import global_bus, reset_global_bus
from repro.obs.events import CacheQuarantined
from repro.parallel import JobSpec, run_jobs
from repro.prefetchers.registry import build_prefetcher
from repro.resilience import ExecutionPolicy, FaultSpec, verify_checksum
from repro.spec import SPEC_VERSION, SweepSpec, run_spec

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_CHAOS") != "1",
    reason="chaos drill; opt in with REPRO_CHAOS=1",
)

RECORDS = 3_000


@pytest.fixture(autouse=True)
def _fresh_fault_claims():
    faults_mod._LOCAL_CLAIMS.clear()
    yield
    faults_mod._LOCAL_CLAIMS.clear()


def test_sweep_survives_worker_crashes(tmp_path, monkeypatch):
    """Every pool worker crashes once; the sweep result is unchanged."""
    monkeypatch.setenv("REPRO_FORCE_POOL", "1")
    spec = SweepSpec.from_dict(
        {
            "version": SPEC_VERSION,
            "name": "chaos",
            "workloads": ["tpcw"],
            "grid": {"records": RECORDS, "seeds": [7]},
            "prefetchers": [
                {"name": "ebcp", "label": label, "overrides": {"prefetch_degree": int(label)}}
                for label in ("2", "4")
            ],
        }
    )

    clean = run_spec(spec).grid()
    policy = ExecutionPolicy(
        jobs=2,
        retries=2,
        backoff_s=0.0,
        checkpoint_dir=str(tmp_path / "run"),
        fault_spec=FaultSpec(
            crash="*:1", state_dir=str(tmp_path / "fault-state")
        ),
    )
    chaotic = run_spec(spec, policy=policy).grid()
    for seq, par in zip(clean["tpcw"], chaotic["tpcw"]):
        assert seq.label == par.label
        assert seq.result.stats.to_dict() == par.result.stats.to_dict()
        assert seq.baseline.stats.to_dict() == par.baseline.stats.to_dict()


def test_runs_survive_cache_corruption(tmp_path, monkeypatch):
    """Every fresh cache entry is corrupted twice; results never waver."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_FAULT_CORRUPT", "*:2")
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
    reset_global_bus()
    quarantined = []
    global_bus().subscribe(CacheQuarantined, quarantined.append)

    def specs():
        return [
            JobSpec(
                workload="specjbb2005",
                records=21_000,
                seed=13,
                config=ProcessorConfig.scaled(),
                prefetcher=build_prefetcher("ebcp"),
                label="ebcp",
            )
        ]

    from repro.workloads.registry import _cached_commercial

    try:
        runs = []
        for _ in range(3):
            # Drop the in-process trace memo (and with it the in-memory
            # filter plane) so every run goes back to the disk cache.
            _cached_commercial.cache_clear()
            runs.append(run_jobs(specs())[0].stats.to_dict())
    finally:
        reset_global_bus()
    assert runs[0] == runs[1] == runs[2]
    assert len(quarantined) >= 2  # corrupt entries were detected, not used
    # The cache converged to intact entries once the fault budget ran out.
    cache_dir = tmp_path / "cache"
    surviving = [
        p
        for p in cache_dir.rglob("*.npz")
        if "quarantine" not in p.parts
    ]
    assert surviving
    for entry in surviving:
        assert verify_checksum(entry) is None


def test_shard_sigkill_recovery_drill(tmp_path):
    """SIGKILL one shard of a live CLI fleet under concurrent load.

    The full supervision story, end to end through the real console
    entry point: the supervisor respawns the victim under its shard id
    (new pid, ring untouched), concurrent clients ride out the window on
    retryable errors with zero permanently failed calls, the reborn
    shard answers its old keys bit-identically — warm from the shared
    disk tier — and the fleet still drains gracefully.
    """
    from repro.service import ServiceClient

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", "2", "--cache-dir", str(tmp_path / "tier"),
            "--heartbeat-s", "0.25", "-j", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert match, f"no ready sentinel in {line!r}"
        host, port = match.group(1), int(match.group(2))
        seeds = range(6)

        with ServiceClient(host, port, timeout_s=120.0, retries=0) as c:
            baseline = {}
            owners = {}
            for seed in seeds:
                served = c.simulate("pointer_chase", "none",
                                    records=RECORDS, seed=seed)
                baseline[seed] = served.result.to_dict()
                owners[seed] = served.shard
            victim = owners[0]["index"]
            victim_pid = owners[0]["pid"]

        failures = []

        def hammer(worker: int) -> None:
            try:
                with ServiceClient(
                    host, port, timeout_s=120.0, retries=15, backoff_s=0.1
                ) as hc:
                    for round_ in range(4):
                        for seed in seeds:
                            served = hc.simulate(
                                "pointer_chase", "none",
                                records=RECORDS, seed=seed,
                            )
                            if served.result.to_dict() != baseline[seed]:
                                failures.append(
                                    (worker, round_, seed, "result drift")
                                )
            except Exception as exc:  # noqa: BLE001 - drill verdict
                failures.append((worker, "exception", repr(exc)))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # let load build before pulling the trigger
        os.kill(victim_pid, signal.SIGKILL)
        for thread in threads:
            thread.join(timeout=300.0)
        assert not failures, f"client calls failed across the crash: {failures}"

        with ServiceClient(host, port, timeout_s=120.0, retries=5,
                           backoff_s=0.2) as c:
            deadline = time.monotonic() + 60.0
            row = None
            while time.monotonic() < deadline:
                row = {r["index"]: r for r in c.ping()["shards"]}[victim]
                if row["state"] == "ready" and row["pid"] != victim_pid:
                    break
                time.sleep(0.2)
            assert row is not None and row["pid"] != victim_pid
            assert row["restarts"] >= 1

            # The reborn shard serves the victim's old key range, warm
            # from the disk tier.
            served = c.simulate("pointer_chase", "none",
                                records=RECORDS, seed=0)
            assert served.shard["index"] == victim
            assert served.shard["pid"] != victim_pid
            assert served.result.to_dict() == baseline[0]
            stats_row = {r["index"]: r for r in c.stats()["shards"]}[victim]
            assert stats_row["cache"]["disk"]["hits"] >= 1

            assert c.shutdown() == {"draining": True}
        assert proc.wait(timeout=120.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)
