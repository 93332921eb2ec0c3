"""Tests for shard supervision: crash recovery, preload, live resize.

Three layers:

* **Unit** — :meth:`ResultCache.preload` warms a fresh cache's memory
  tier from a shared disk tier without touching the hit/miss counters
  (the mechanism a newcomer shard uses before it enters the ring).
* **Crash recovery** — SIGKILL a shard out from under a supervised
  fleet: the supervisor respawns it under the same shard id (new pid,
  ring untouched), clients ride out the window on retryable
  ``queue_full`` errors, and the reborn shard answers its old keys
  bit-identically — warm from the disk tier.
* **Live resize** — ``admin resize`` grows 2→4 (newcomers preloaded
  from the disk tier before entering the ring; only moved keys remap)
  and shrinks back 4→2 (victims drain, their request counts survive in
  the fleet aggregate), including a resize issued mid-sweep.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.engine.config import ProcessorConfig
from repro.parallel.jobs import JobSpec, job_identity
from repro.prefetchers.registry import build_prefetcher
from repro.resilience.policy import ExecutionPolicy
from repro.service import (
    BackgroundService,
    ServiceClient,
    ServiceConfig,
    ShardedService,
)
from repro.service.cache import ResultCache
from repro.spec import SPEC_VERSION, SweepSpec, run_spec

RECORDS = 3_000
WORKLOAD = "pointer_chase"
POLICY = ExecutionPolicy(jobs=1)
HEARTBEAT_S = 0.25


def local_run(workload: str, prefetcher: str, records: int = RECORDS, seed: int = 7):
    return JobSpec(
        workload=workload,
        records=records,
        seed=seed,
        config=ProcessorConfig.scaled(),
        prefetcher=None if prefetcher == "none" else build_prefetcher(prefetcher),
        label=prefetcher,
    ).run()


def fleet(tmp_path, workers: int = 2, **kwargs) -> ShardedService:
    config = ServiceConfig(
        port=0, cache_entries=64, cache_dir=str(tmp_path / "tier")
    )
    return ShardedService(
        config=config,
        policy=POLICY,
        workers=workers,
        heartbeat_s=kwargs.pop("heartbeat_s", HEARTBEAT_S),
        **kwargs,
    )


def shard_rows(client: ServiceClient) -> dict:
    return {row["index"]: row for row in client.ping()["shards"]}


class TestCachePreload:
    def test_preload_warms_memory_without_counting_traffic(self, tmp_path):
        result = local_run(WORKLOAD, "none", records=1_000)
        key = job_identity(WORKLOAD, 1_000, 7, 1.0, 0, None, (64, (4, 8)), "none", "")
        first = ResultCache(max_entries=8, spill_dir=tmp_path)
        first.put(key, result)

        reborn = ResultCache(max_entries=8, spill_dir=tmp_path)
        assert reborn.preload() == 1
        # Boot-time warming is not request traffic.
        assert reborn.hits == 0 and reborn.misses == 0 and reborn.disk_hits == 0
        got = reborn.get(key)
        assert got is not None and got.snapshot() == result.snapshot()
        # Answered from the memory tier, not re-read from disk.
        assert reborn.hits == 1 and reborn.disk_hits == 0

    def test_preload_honours_limit_and_quarantines_corruption(self, tmp_path):
        result = local_run(WORKLOAD, "none", records=1_000)
        cache = ResultCache(max_entries=8, spill_dir=tmp_path)
        keys = [
            job_identity(WORKLOAD, 1_000, i, 1.0, 0, None, (1,), "none", "")
            for i in range(4)
        ]
        for key in keys:
            cache.put(key, result)
        cache.entry_path(keys[0]).write_text("not json", encoding="utf-8")
        # Pin recency so the tampered entry is the oldest on disk.
        for i, key in enumerate(keys):
            os.utime(cache.entry_path(key), (1_000_000 + i,) * 2)

        reborn = ResultCache(max_entries=8, spill_dir=tmp_path)
        # The two newest entries fit the budget; the corrupt one is
        # outside the window and untouched.
        assert reborn.preload(limit=2) == 2
        assert reborn.quarantined == 0

        fresh = ResultCache(max_entries=8, spill_dir=tmp_path)
        loaded = fresh.preload()
        # The tampered entry fails its sidecar check and is quarantined.
        assert loaded == 3 and fresh.quarantined == 1
        assert (tmp_path / "quarantine").exists()

    def test_preload_without_disk_tier_is_a_noop(self):
        assert ResultCache(max_entries=8).preload() == 0


class TestCrashRecovery:
    def test_sigkill_respawn_same_shard_new_pid(self, tmp_path):
        service = fleet(tmp_path, workers=2)
        with BackgroundService(service=service, start_timeout_s=120.0) as svc:
            with ServiceClient(
                *svc.address, timeout_s=120.0, retries=12, backoff_s=0.1
            ) as client:
                ping = client.ping()
                assert ping["supervised"] is True
                assert ping["heartbeat_s"] == HEARTBEAT_S
                assert all(r["state"] == "ready" for r in ping["shards"])

                served = client.simulate(WORKLOAD, "none", records=RECORDS, seed=11)
                victim = served.shard["index"]
                victim_pid = served.shard["pid"]
                os.kill(victim_pid, signal.SIGKILL)

                deadline = time.monotonic() + 60.0
                row = None
                while time.monotonic() < deadline:
                    row = shard_rows(client)[victim]
                    if row["state"] == "ready" and row["pid"] != victim_pid:
                        break
                    time.sleep(0.1)
                assert row is not None and row["pid"] != victim_pid, (
                    f"shard {victim} was not respawned: {row}"
                )
                assert row["restarts"] == 1

                # Same key, same shard id (ring untouched), fresh pid —
                # and the answer comes warm from the shared disk tier.
                again = client.simulate(WORKLOAD, "none", records=RECORDS, seed=11)
                assert again.shard["index"] == victim
                assert again.shard["pid"] != victim_pid
                assert again.cached is True
                assert again.result.to_dict() == served.result.to_dict()

                stats_row = {
                    r["index"]: r for r in client.stats()["shards"]
                }[victim]
                assert stats_row["restarts"] == 1
                assert stats_row["cache"]["disk"]["hits"] >= 1

                text = client.metrics()
                assert "repro_router_restarts_total 1" in text
        for shard in service.shards:
            assert not shard.process.is_alive()

    def test_heartbeat_must_be_positive(self, tmp_path):
        from repro.cli import build_parser

        for heartbeat_s in (0.0, -1.0):
            with pytest.raises(ValueError, match="heartbeat_s"):
                fleet(tmp_path, workers=2, heartbeat_s=heartbeat_s)
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["serve", "--workers", "2", "--heartbeat-s", str(heartbeat_s)]
                )


class TestLiveResize:
    def test_grow_then_shrink_moves_only_resized_keys(self, tmp_path):
        service = fleet(tmp_path, workers=2)
        with BackgroundService(service=service, start_timeout_s=120.0) as svc:
            with ServiceClient(*svc.address, timeout_s=120.0, retries=2) as client:
                seeds = range(6)
                before = {}
                for seed in seeds:
                    served = client.simulate(
                        WORKLOAD, "none", records=RECORDS, seed=seed
                    )
                    before[seed] = (served.shard["index"], served.result.to_dict())

                report = client.resize(4)
                assert report["previous_workers"] == 2
                assert report["workers"] == 4
                assert report["added"] == [2, 3]
                assert report["removed"] == []
                rows = shard_rows(client)
                assert sorted(rows) == [0, 1, 2, 3]
                assert len({r["pid"] for r in rows.values()}) == 4

                moved = 0
                for seed in seeds:
                    served = client.simulate(
                        WORKLOAD, "none", records=RECORDS, seed=seed
                    )
                    owner, result = before[seed]
                    assert served.result.to_dict() == result
                    # Newcomers warmed from the disk tier pre-ring, so
                    # even moved keys answer from cache.
                    assert served.cached is True
                    if served.shard["index"] != owner:
                        assert served.shard["index"] in (2, 3)
                        moved += 1

                report = client.resize(2)
                assert report["workers"] == 2
                assert report["added"] == []
                assert report["removed"] == [2, 3]
                rows = shard_rows(client)
                assert sorted(rows) == [0, 1]

                # Keys served by the retired shards come home; results
                # are still bit-identical.
                for seed in seeds:
                    served = client.simulate(
                        WORKLOAD, "none", records=RECORDS, seed=seed
                    )
                    assert served.shard["index"] in (0, 1)
                    assert served.result.to_dict() == before[seed][1]

                # Retired shards' request counts survive in the fleet
                # aggregate: every simulate above is accounted for.
                stats = client.stats()
                assert stats["workers"] == 2
                assert stats["metrics"]["requests_received"]["value"] >= 18
                text = client.metrics()
                assert "repro_router_resizes_total 2" in text

    def test_resize_validation(self, tmp_path):
        from repro.service import ServiceError

        service = fleet(tmp_path, workers=2)
        with BackgroundService(service=service, start_timeout_s=120.0) as svc:
            with ServiceClient(*svc.address, timeout_s=120.0, retries=0) as client:
                with pytest.raises(ServiceError):
                    client.resize(0)
                with pytest.raises(ServiceError):
                    client.admin("defragment")
                # A no-op resize reports and changes nothing.
                report = client.resize(2)
                assert report["workers"] == 2
                assert report["added"] == [] and report["removed"] == []

    def test_single_process_service_rejects_admin(self):
        from repro.service import ServiceError

        with BackgroundService(
            ServiceConfig(port=0), policy=POLICY, start_timeout_s=120.0
        ) as svc:
            with ServiceClient(*svc.address, timeout_s=120.0, retries=0) as client:
                with pytest.raises(ServiceError):
                    client.resize(2)


class TestMidSweepResize:
    def sweep_spec(self) -> SweepSpec:
        return SweepSpec.from_dict(
            {
                "version": SPEC_VERSION,
                "name": "resize_identity",
                "workloads": [WORKLOAD],
                "grid": {"records": RECORDS, "seeds": [1, 2, 3]},
                "prefetchers": [
                    {"name": "ebcp", "label": "d4",
                     "overrides": {"prefetch_degree": 4}},
                    {"name": "stream", "label": "stream"},
                ],
            }
        )

    def test_sweep_bit_identical_across_resize(self, tmp_path):
        spec = self.sweep_spec()
        local = run_spec(spec, policy=POLICY)
        service = fleet(tmp_path, workers=2)
        with BackgroundService(service=service, start_timeout_s=120.0) as svc:
            with ServiceClient(*svc.address, timeout_s=120.0, retries=2) as client:
                frames = []
                resized: "list[dict]" = []

                def resize_mid_sweep():
                    with ServiceClient(
                        *svc.address, timeout_s=120.0, retries=2
                    ) as admin:
                        resized.append(admin.resize(3))

                resizer = None
                for frame in client.iter_sweep(spec):
                    if frame.done:
                        assert frame.summary["errors"] == 0
                        continue
                    frames.append(frame)
                    if resizer is None:
                        # First completed job: grow the ring while the
                        # remaining jobs are still streaming.
                        resizer = threading.Thread(target=resize_mid_sweep)
                        resizer.start()
                resizer.join(timeout=120.0)
                assert resized and resized[0]["workers"] == 3

                frames.sort(key=lambda f: f.index)
                assert len(frames) == len(local.results)
                for frame, ours in zip(frames, local.results):
                    assert frame.result.snapshot() == ours.snapshot()
