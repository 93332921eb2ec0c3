"""Tests for the tiered result cache and the client's jittered backoff.

The disk tier's contract: a spilled entry survives process death and is
served back **bit-identical** after a restart; anything corrupt — bad
sidecar, undecodable payload, entry at the wrong address — is
quarantined and transparently recomputed, never served.  The unit tests
exercise :class:`ResultCache` directly (a second instance over the same
directory *is* a restart); the service tests drive the same path
through a real :class:`SimulationService` end to end.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

import repro.parallel.jobs as jobs_mod
from repro.engine.config import ProcessorConfig
from repro.obs.bus import global_bus, reset_global_bus
from repro.obs.events import CacheQuarantined
from repro.parallel.jobs import JobSpec, job_identity
from repro.resilience.integrity import checksum_path, verify_checksum, write_checksum
from repro.resilience.policy import ExecutionPolicy
from repro.service import BackgroundService, ResultCache, ServiceClient, ServiceConfig
from repro.service.client import _ClientBase

RECORDS = 3_000
WORKLOAD = "pointer_chase"
POLICY = ExecutionPolicy(jobs=1)


@pytest.fixture(scope="module")
def result():
    return JobSpec(
        workload=WORKLOAD,
        records=RECORDS,
        seed=7,
        config=ProcessorConfig.scaled(),
        prefetcher=None,
        label="none",
    ).run()


def make_key(seed: int = 7):
    return job_identity(WORKLOAD, RECORDS, seed, 1.0, 0, None, (1, (2, 3)), "none", "")


class TestDiskTier:
    def test_round_trip_is_bit_identical(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        key = make_key()
        cache.put(key, result)
        assert cache.disk_entries() == 1
        assert cache.spilled == 1

        # A fresh instance over the same directory is a restart: the
        # memory tier is empty, the disk tier serves the entry.
        reborn = ResultCache(max_entries=4, spill_dir=tmp_path)
        served = reborn.get(key)
        assert served is not None
        assert reborn.disk_hits == 1 and reborn.hits == 0
        assert dataclasses.asdict(served.stats) == dataclasses.asdict(result.stats)
        assert served.to_dict() == result.to_dict()

    def test_disk_hit_promotes_to_memory(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        key = make_key()
        cache.put(key, result)
        reborn = ResultCache(max_entries=4, spill_dir=tmp_path)
        reborn.get(key)
        reborn.get(key)
        assert reborn.disk_hits == 1  # second get came from memory
        assert reborn.hits == 1

    def test_entry_has_checksum_sidecar(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        key = make_key()
        cache.put(key, result)
        path = cache.entry_path(key)
        assert path.exists()
        assert checksum_path(path).exists()

    def test_memoryless_cache_still_spills(self, result, tmp_path):
        # cache_entries=0 disables the memory LRU, not the disk tier.
        cache = ResultCache(max_entries=0, spill_dir=tmp_path)
        key = make_key()
        cache.put(key, result)
        assert len(cache) == 0
        assert cache.disk_entries() == 1
        assert cache.get(key) is not None

    def test_corrupt_payload_quarantines_and_misses(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        key = make_key()
        cache.put(key, result)
        path = cache.entry_path(key)
        path.write_text(path.read_text(encoding="utf-8")[:-40], encoding="utf-8")

        reborn = ResultCache(max_entries=4, spill_dir=tmp_path)
        assert reborn.get(key) is None
        assert reborn.quarantined == 1
        assert reborn.misses == 1
        assert not path.exists()  # moved aside, not left to fail again
        quarantine = tmp_path / "quarantine"
        assert quarantine.exists() and any(quarantine.iterdir())

    def test_corrupt_sidecar_quarantines(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        key = make_key()
        cache.put(key, result)
        sidecar = checksum_path(cache.entry_path(key))
        sidecar.write_text("0" * 64 + "\n", encoding="utf-8")
        assert ResultCache(max_entries=4, spill_dir=tmp_path).get(key) is None

    def test_valid_checksum_but_garbage_json_quarantines(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        key = make_key()
        cache.put(key, result)
        path = cache.entry_path(key)
        path.write_text("not json {", encoding="utf-8")
        write_checksum(path)  # integrity passes; decoding must not
        reborn = ResultCache(max_entries=4, spill_dir=tmp_path)
        assert reborn.get(key) is None
        assert reborn.quarantined == 1

    def test_entry_at_wrong_address_quarantines(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        cache.put(make_key(seed=1), result)
        src = cache.entry_path(make_key(seed=1))
        dst = cache.entry_path(make_key(seed=2))
        shutil.copy(src, dst)
        write_checksum(dst)
        reborn = ResultCache(max_entries=4, spill_dir=tmp_path)
        assert reborn.get(make_key(seed=2)) is None
        assert reborn.quarantined == 1
        assert reborn.get(make_key(seed=1)) is not None  # untouched

    def test_recompute_after_quarantine_repopulates(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        key = make_key()
        cache.put(key, result)
        cache.entry_path(key).write_text("garbage", encoding="utf-8")
        reborn = ResultCache(max_entries=4, spill_dir=tmp_path)
        assert reborn.get(key) is None  # the miss that triggers recompute
        reborn.put(key, result)  # ... the service re-simulates and re-puts
        assert reborn.get(key) is not None
        assert reborn.disk_entries() == 1

    def test_disk_pruning_drops_oldest(self, result, tmp_path):
        import os
        import time

        cache = ResultCache(max_entries=2, spill_dir=tmp_path, max_disk_entries=3)
        now = time.time()
        for seed in range(5):
            cache.put(make_key(seed=seed), result)
            path = cache.entry_path(make_key(seed=seed))
            # Back-date so early seeds are oldest and a fresh write is
            # always newest (pruning runs inside put()).
            stamp = now - (10 - seed)
            os.utime(path, (stamp, stamp))
        assert cache.disk_entries() == 3
        assert cache.get(make_key(seed=0)) is None  # oldest pruned
        assert cache.get(make_key(seed=4)) is not None

    def test_info_reports_the_disk_tier(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        cache.put(make_key(), result)
        cache.clear()  # memory only
        cache.get(make_key())
        info = cache.info()
        assert info["disk"]["entries"] == 1
        assert info["disk"]["hits"] == 1
        assert info["disk"]["spilled"] == 1
        assert info["disk"]["quarantined"] == 0

    def test_no_spill_dir_means_no_disk_fields(self, result):
        cache = ResultCache(max_entries=4)
        cache.put(make_key(), result)
        assert "disk" not in cache.info()
        assert cache.disk_entries() == 0


class TestSharedEntryProtocol:
    """The disk tier rides the protocol every persisted store shares
    (:mod:`repro.resilience.integrity`): the corrupt-fault hook and the
    temp-file naming."""

    def test_injected_corruption_is_quarantined(self, result, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_CORRUPT", "result:1")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
        spill = tmp_path / "spill"
        key = make_key()
        cache = ResultCache(max_entries=4, spill_dir=spill)
        cache.put(key, result)
        path = cache.entry_path(key)
        assert verify_checksum(path) == "checksum_mismatch"

        reset_global_bus()
        events = []
        global_bus().subscribe(CacheQuarantined, events.append)
        try:
            reborn = ResultCache(max_entries=4, spill_dir=spill)
            assert reborn.get(key) is None
        finally:
            reset_global_bus()
        assert reborn.quarantined == 1
        assert [event.kind for event in events] == ["result"]
        # The fault budget is spent: the re-put entry verifies clean.
        reborn.put(key, result)
        assert verify_checksum(path) is None
        assert ResultCache(max_entries=4, spill_dir=spill).get(key) is not None

    def test_stray_temp_file_is_not_an_entry(self, result, tmp_path):
        cache = ResultCache(max_entries=4, spill_dir=tmp_path)
        cache.put(make_key(seed=1), result)
        assert not list(tmp_path.glob("*.part"))  # a finished write leaves none
        # What a writer killed between write and rename leaves behind.
        entry = cache.entry_path(make_key(seed=2))
        stray = entry.with_name(f".{entry.name}.k3y7q0.part")
        stray.write_bytes(cache.entry_path(make_key(seed=1)).read_bytes())

        assert cache.disk_entries() == 1
        reborn = ResultCache(max_entries=4, spill_dir=tmp_path)
        assert reborn.preload() == 1
        assert len(reborn) == 1
        assert reborn.quarantined == 0
        cache.clear(disk=True)
        assert not stray.exists()
        assert cache.disk_entries() == 0


class TestServiceRestartSurvival:
    """The acceptance property: warm results outlive a full restart."""

    def _serve_once(self, tmp_path, seed=7, expect_cached=False):
        config = ServiceConfig(port=0, cache_entries=16, cache_dir=str(tmp_path))
        with BackgroundService(config=config, policy=POLICY) as svc:
            with ServiceClient(*svc.address, timeout_s=120.0, retries=0) as client:
                served = client.simulate(WORKLOAD, "ebcp", records=RECORDS, seed=seed)
                assert served.cached is expect_cached
                stats = client.stats()
                return served, stats

    def test_warm_result_survives_full_restart(self, tmp_path):
        first, _ = self._serve_once(tmp_path, expect_cached=False)
        # The service process is gone; only the spill directory remains.
        second, stats = self._serve_once(tmp_path, expect_cached=True)
        assert dataclasses.asdict(second.result.stats) == dataclasses.asdict(
            first.result.stats
        )
        assert second.result.to_dict() == first.result.to_dict()
        assert stats["cache"]["disk"]["hits"] == 1

    def test_entry_from_another_model_version_is_a_miss(self, tmp_path, monkeypatch):
        first, _ = self._serve_once(tmp_path, expect_cached=False)
        # The identity reads the constant here; a bumped model must not
        # be answered by what the previous model stored.
        monkeypatch.setattr(jobs_mod, "MODEL_VERSION", jobs_mod.MODEL_VERSION + 1)
        second, stats = self._serve_once(tmp_path, expect_cached=False)
        assert stats["cache"]["disk"]["hits"] == 0
        assert stats["cache"]["disk"]["entries"] == 2
        assert second.result.to_dict() == first.result.to_dict()

    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        first, _ = self._serve_once(tmp_path, expect_cached=False)
        [entry] = [
            p
            for p in tmp_path.glob("*.json")
            if not p.name.endswith(".sha256")
        ]
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["snapshot"]["stats"] = {}
        entry.write_text(json.dumps(payload), encoding="utf-8")
        # Sidecar now disagrees -> quarantine -> recompute, same answer.
        second, stats = self._serve_once(tmp_path, expect_cached=False)
        assert second.result.to_dict() == first.result.to_dict()
        assert stats["cache"]["disk"]["quarantined"] == 1
        assert (tmp_path / "quarantine").exists()


class TestJitteredBackoff:
    def test_exponential_shape_without_jitter(self):
        client = _ClientBase(backoff_s=0.25, jitter=False)
        assert client._backoff_for(0) == 0.0
        assert client._backoff_for(1) == 0.25
        assert client._backoff_for(2) == 0.5
        assert client._backoff_for(3) == 1.0

    def test_cap_at_max_backoff(self):
        client = _ClientBase(backoff_s=0.25, max_backoff_s=2.0, jitter=False)
        assert client._backoff_for(10) == 2.0

    def test_jitter_only_shortens_within_half(self):
        client = _ClientBase(backoff_s=0.25, max_backoff_s=10.0)
        for attempt in range(1, 8):
            full = min(0.25 * 2 ** (attempt - 1), 10.0)
            for _ in range(50):
                delay = client._backoff_for(attempt)
                assert full * 0.5 <= delay <= full

    def test_jitter_actually_varies(self):
        client = _ClientBase(backoff_s=1.0)
        delays = {client._backoff_for(3) for _ in range(50)}
        assert len(delays) > 1

    def test_zero_backoff_stays_zero(self):
        assert _ClientBase(backoff_s=0.0)._backoff_for(5) == 0.0
