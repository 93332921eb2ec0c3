"""Self-healing on-disk caches: checksums, quarantine, regeneration.

A corrupt ``.npz`` entry — truncated, bit-rotted, or injected via
``REPRO_FAULT_CORRUPT`` — must never fail a run: it is detected (by
checksum sidecar or decode failure), moved into ``quarantine/`` with a
reason note, announced as a :class:`CacheQuarantined` event, and the
entry is regenerated bit-identically.
"""

from __future__ import annotations

import logging
import multiprocessing

import numpy as np
import pytest

from repro.engine.config import ProcessorConfig
from repro.engine.filter_plane import _plane_path, get_filter_plane
from repro.engine.simulator import EpochSimulator
from repro.obs.bus import global_bus, reset_global_bus
from repro.obs.events import CacheQuarantined
from repro.prefetchers.registry import build_prefetcher
from repro.resilience.integrity import (
    checksum_path,
    quarantine_entry,
    store_entry,
    verify_checksum,
    write_checksum,
)
from repro.workloads import make_workload
from repro.workloads.cache import TraceCache

RECORDS = 2_000


@pytest.fixture()
def quarantine_events():
    reset_global_bus()
    seen = []
    global_bus().subscribe(CacheQuarantined, seen.append)
    yield seen
    reset_global_bus()


def _build():
    return make_workload("tpcw", records=RECORDS, seed=7)


def _truncate(path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class _Collect(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.messages: "list[str]" = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def _store_repeatedly(path: str, times: int, barrier, results) -> None:
    """Store one fixed entry ``times`` times once every writer is ready;
    put (failed stores, messages logged) on ``results``."""
    handler = _Collect()
    logging.getLogger("repro.resilience.integrity").addHandler(handler)
    barrier.wait(timeout=60)
    failed = sum(
        not store_entry(path, "trace", lambda fh: fh.write(b"entry" * 512))
        for _ in range(times)
    )
    results.put((failed, handler.messages))


class TestIntegrityPrimitives:
    def test_checksum_roundtrip(self, tmp_path):
        entry = tmp_path / "entry.npz"
        entry.write_bytes(b"payload")
        write_checksum(entry)
        assert checksum_path(entry).exists()
        assert verify_checksum(entry) is None

    def test_modification_is_detected(self, tmp_path):
        entry = tmp_path / "entry.npz"
        entry.write_bytes(b"payload")
        write_checksum(entry)
        entry.write_bytes(b"tampered")
        assert verify_checksum(entry) == "checksum_mismatch"

    def test_missing_sidecar_is_unverifiable_not_fatal(self, tmp_path):
        entry = tmp_path / "entry.npz"
        entry.write_bytes(b"payload")
        assert verify_checksum(entry) is None

    def test_quarantine_moves_entry_and_emits(self, tmp_path, quarantine_events):
        entry = tmp_path / "entry.npz"
        entry.write_bytes(b"payload")
        write_checksum(entry)
        moved = quarantine_entry(entry, "trace", "checksum_mismatch")
        assert not entry.exists()
        assert not checksum_path(entry).exists()
        assert moved == tmp_path / "quarantine" / "entry.npz"
        assert moved.exists()
        reason = moved.with_name(moved.name + ".reason").read_text()
        assert "checksum_mismatch" in reason
        assert [e.kind for e in quarantine_events] == ["trace"]

    def test_concurrent_stores_of_one_entry_all_succeed(self, tmp_path):
        """Two workers storing the same entry never collide on a temp file."""
        entry = tmp_path / "e.npz"
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        results = ctx.Queue()
        writers = [
            ctx.Process(target=_store_repeatedly, args=(str(entry), 300, barrier, results))
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        outcomes = [results.get(timeout=120) for _ in writers]
        for writer in writers:
            writer.join(timeout=30)
            assert not writer.is_alive()
        assert outcomes == [(0, []), (0, [])]
        assert checksum_path(entry).exists()
        assert verify_checksum(entry) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.npz", "e.npz.sha256"]


class TestTraceCacheSelfHealing:
    def test_store_writes_sidecar(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build)
        entry = cache.path_for("tpcw", RECORDS, 7, 1.0)
        assert entry.exists()
        assert verify_checksum(entry) is None

    def test_truncated_entry_quarantined_and_regenerated(
        self, tmp_path, quarantine_events
    ):
        cache = TraceCache(tmp_path)
        original = cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build)
        entry = cache.path_for("tpcw", RECORDS, 7, 1.0)
        _truncate(entry)

        healed = cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build)
        assert (healed.addr == original.addr).all()
        assert (healed.gap == original.gap).all()
        assert cache.hits == 0 and cache.misses == 2
        assert (tmp_path / "quarantine" / entry.name).exists()
        assert [e.reason for e in quarantine_events] == ["checksum_mismatch"]

        # The regenerated entry is a clean cache hit afterwards.
        cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build)
        assert cache.hits == 1

    def test_garbage_that_passes_checksum_still_quarantined(
        self, tmp_path, quarantine_events
    ):
        cache = TraceCache(tmp_path)
        cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build)
        entry = cache.path_for("tpcw", RECORDS, 7, 1.0)
        entry.write_bytes(b"not an npz archive at all")
        write_checksum(entry)  # a consistent sidecar for garbage data

        healed = cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build)
        assert healed is not None
        assert len(quarantine_events) == 1
        assert "unreadable entry" in quarantine_events[0].reason

    def test_disabled_cache_builds_every_time(self):
        cache = TraceCache(None)
        assert cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build) is not None
        assert cache.misses == 0 and cache.hits == 0


class TestFaultCorruptHook:
    def test_injected_corruption_self_heals(
        self, tmp_path, monkeypatch, quarantine_events
    ):
        monkeypatch.setenv("REPRO_FAULT_CORRUPT", "trace:1")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
        cache = TraceCache(tmp_path / "cache")
        original = cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build)
        entry = cache.path_for("tpcw", RECORDS, 7, 1.0)
        # The store hook corrupted the fresh entry (budget: exactly one).
        assert verify_checksum(entry) == "checksum_mismatch"

        healed = cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build)
        assert (healed.addr == original.addr).all()
        assert [e.kind for e in quarantine_events] == ["trace"]
        # The regenerated entry is intact: the fault budget is spent.
        assert verify_checksum(entry) is None
        cache.get_or_build("tpcw", RECORDS, 7, 1.0, _build)
        assert cache.hits == 1


class TestPlaneCacheSelfHealing:
    L1I = (4 * 1024, 4, 64)
    L1D = (4 * 1024, 4, 64)

    @pytest.fixture()
    def plane_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        # Long enough to clear the plane persistence floor (20k records).
        trace = make_workload("tpcw", records=20_000, seed=11)
        # The workload registry memoises traces per process; drop any
        # in-memory plane so each test exercises the on-disk layer.
        trace._plane_cache.clear()
        return trace

    def test_truncated_plane_quarantined_and_recomputed(
        self, tmp_path, plane_trace, quarantine_events
    ):
        plane = get_filter_plane(plane_trace, self.L1I, self.L1D)
        path = _plane_path(plane_trace, self.L1I, self.L1D)
        assert path.exists()
        assert verify_checksum(path) is None

        _truncate(path)
        plane_trace._plane_cache.clear()
        healed = get_filter_plane(plane_trace, self.L1I, self.L1D)
        assert (healed.miss_mask == plane.miss_mask).all()
        assert (path.parent / "quarantine" / path.name).exists()
        assert [e.kind for e in quarantine_events] == ["plane"]

        # And the rewritten entry loads cleanly.
        plane_trace._plane_cache.clear()
        again = get_filter_plane(plane_trace, self.L1I, self.L1D)
        assert (again.miss_mask == plane.miss_mask).all()
        assert len(quarantine_events) == 1

    def test_injected_plane_corruption_self_heals(
        self, tmp_path, plane_trace, monkeypatch, quarantine_events
    ):
        monkeypatch.setenv("REPRO_FAULT_CORRUPT", "plane:1")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
        plane = get_filter_plane(plane_trace, self.L1I, self.L1D)
        path = _plane_path(plane_trace, self.L1I, self.L1D)
        assert verify_checksum(path) == "checksum_mismatch"

        plane_trace._plane_cache.clear()
        healed = get_filter_plane(plane_trace, self.L1I, self.L1D)
        assert (healed.miss_mask == plane.miss_mask).all()
        assert verify_checksum(path) is None
        assert [e.kind for e in quarantine_events] == ["plane"]


class TestSegmentCacheSelfHealing:
    """Epoch-segment files (kind ``plane``) heal like the planes."""

    @pytest.fixture()
    def trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        # Above the persistence floor (20k records), so segments persist.
        trace = make_workload("tpcw", records=20_000, seed=11)
        trace._plane_cache.clear()  # planes hold their segments
        return trace

    @staticmethod
    def _ebcp_stats(trace) -> dict:
        sim = EpochSimulator(
            ProcessorConfig.scaled(),
            build_prefetcher("ebcp"),
            cpi_perf=trace.meta.cpi_perf,
            overlap=trace.meta.overlap,
        )
        return sim.run(trace).stats.to_dict()

    @staticmethod
    def _segment_file(tmp_path):
        [path] = (tmp_path / "filter-planes").glob("*-seg-*.npz")
        return path

    def test_stored_segments_have_valid_sidecar(self, tmp_path, trace):
        self._ebcp_stats(trace)
        path = self._segment_file(tmp_path)
        assert checksum_path(path).exists()
        assert verify_checksum(path) is None

    def test_truncated_segments_quarantined_and_recomputed(
        self, tmp_path, trace, quarantine_events
    ):
        clean = self._ebcp_stats(trace)
        path = self._segment_file(tmp_path)
        _truncate(path)

        trace._plane_cache.clear()
        assert self._ebcp_stats(trace) == clean
        assert (path.parent / "quarantine" / path.name).exists()
        assert [e.kind for e in quarantine_events] == ["plane"]
        assert [e.reason for e in quarantine_events] == ["checksum_mismatch"]
        assert verify_checksum(path) is None

    def test_injected_segment_corruption_self_heals(
        self, tmp_path, trace, monkeypatch, quarantine_events
    ):
        monkeypatch.setenv("REPRO_FAULT_CORRUPT", "plane:1")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
        clean = self._ebcp_stats(trace)
        path = self._segment_file(tmp_path)
        assert verify_checksum(path) == "checksum_mismatch"

        trace._plane_cache.clear()
        assert self._ebcp_stats(trace) == clean
        assert verify_checksum(path) is None
        # The plane and its segments were both corrupted, both healed.
        assert [e.kind for e in quarantine_events] == ["plane", "plane"]
        assert any(e.path == str(path) for e in quarantine_events)
