"""Tests for the precomputed filter planes and the walks built on them.

The load-bearing claims verified here:

* the NumPy grouped-LRU mask kernel is *exactly* the simulator's L1
  filter (lookup-then-insert over ``SetAssociativeCache``) for arbitrary
  geometries and access streams,
* the NumPy L2 evolution kernel is exactly the hierarchy's L2 protocol
  (lookup, install, dirty marking, victim write-back), and
* ``EpochSimulator.run`` — the epoch kernel and the scalar filter-plane
  walk alike — produces field-for-field identical ``SimulationStats``
  (and CPI) to the record-by-record oracle
  :func:`tests.helpers.walk_every_record`, cold and on a warm re-run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.config import ProcessorConfig
from repro.engine.filter_plane import (
    compute_filter_plane,
    get_filter_plane,
    kernel_enabled,
    l1_hit_mask,
    l1_hit_mask_reference,
    l2_evolution,
    l2_evolution_reference,
)
from repro.engine.simulator import EpochSimulator
from repro.memory.cache import SetAssociativeCache
from repro.prefetchers.registry import build_prefetcher
from repro.workloads.registry import WORKLOADS, make_workload

from tests.helpers import walk_every_record

LINE = 64


def geometry(n_sets: int, ways: int) -> tuple[int, int, int]:
    """Geometry key for an ``n_sets``-set, ``ways``-way cache of 64 B lines."""
    return (n_sets * ways * LINE, ways, LINE)


# ----------------------------------------------------------------------
# Mask kernel vs the simulator's actual L1 filter
# ----------------------------------------------------------------------
small_geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16]),  # n_sets (powers of two)
    st.integers(min_value=1, max_value=8),  # ways
)


class TestMaskProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        i_geom=small_geometries,
        d_geom=small_geometries,
        records=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 63)),  # (kind, line)
            min_size=0,
            max_size=300,
        ),
    )
    def test_mask_matches_reference_cache_replay(self, i_geom, d_geom, records):
        """Kernel mask == lookup/insert replay for random small geometries.

        Line numbers are drawn from a tiny space so sets conflict hard —
        the regime where an LRU-order bug would actually show.
        """
        kinds = np.array([k for k, _ in records], dtype=np.uint8)
        addrs = np.array([line * LINE for _, line in records], dtype=np.int64)
        l1i_key = geometry(*i_geom)
        l1d_key = geometry(*d_geom)

        expected = np.empty(len(records), dtype=bool)
        l1i = SetAssociativeCache(*l1i_key, name="ref-L1I")
        l1d = SetAssociativeCache(*l1d_key, name="ref-L1D")
        for n, (kind, line) in enumerate(records):
            cache = l1i if kind == 0 else l1d
            if cache.lookup(line):
                expected[n] = True
            else:
                cache.insert(line)
                expected[n] = False

        assert np.array_equal(
            l1_hit_mask_reference(kinds, addrs, l1i_key, l1d_key), expected
        )
        # The NumPy kernel requires >= 1 set; degenerate geometries are
        # covered by the reference fallback inside compute_filter_plane.
        assert np.array_equal(l1_hit_mask(kinds, addrs, l1i_key, l1d_key), expected)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_mask_matches_reference_on_every_registry_workload(self, workload):
        trace = make_workload(workload, records=4_000, seed=13)
        config = ProcessorConfig.scaled()
        l1i_key = (config.l1i.size_bytes, config.l1i.ways, config.line_size)
        l1d_key = (config.l1d.size_bytes, config.l1d.ways, config.line_size)
        assert np.array_equal(
            l1_hit_mask(trace.kind, trace.addr, l1i_key, l1d_key),
            l1_hit_mask_reference(trace.kind, trace.addr, l1i_key, l1d_key),
        )

    def test_mismatched_line_sizes_rejected(self):
        with pytest.raises(ValueError):
            l1_hit_mask(np.zeros(1, np.uint8), np.zeros(1, np.int64), geometry(4, 2), (512, 2, 32))


# ----------------------------------------------------------------------
# L2 evolution kernel vs the hierarchy's L2 protocol
# ----------------------------------------------------------------------
class TestL2EvolutionProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        geom=small_geometries,
        records=st.lists(
            st.tuples(st.integers(0, 63), st.booleans()),  # (line, is_store)
            min_size=0,
            max_size=300,
        ),
    )
    def test_kernel_matches_reference(self, geom, records):
        """Hit mask, victims, victim dirty bits and the final
        (line, stamp, dirty) contents agree at 1-16 sets."""
        n_sets, ways = geom
        lines = np.array([line for line, _ in records], dtype=np.int64)
        stores = np.array([store for _, store in records], dtype=bool)
        hit, victims, dirty, final = l2_evolution(lines, stores, n_sets, ways)
        ref_hit, ref_victims, ref_dirty, ref_final = l2_evolution_reference(
            lines, stores, geometry(n_sets, ways)
        )
        assert np.array_equal(hit, ref_hit)
        assert np.array_equal(victims, ref_victims)
        assert np.array_equal(dirty, ref_dirty)
        assert set(zip(*(col.tolist() for col in final))) == set(
            zip(*(col.tolist() for col in ref_final))
        )


# ----------------------------------------------------------------------
# Plane prefix sums
# ----------------------------------------------------------------------
class TestPlane:
    def test_prefix_sums_and_miss_indices(self):
        trace = make_workload("tpcw", records=3_000, seed=5)
        config = ProcessorConfig.scaled()
        l1i_key = (config.l1i.size_bytes, config.l1i.ways, config.line_size)
        l1d_key = (config.l1d.size_bytes, config.l1d.ways, config.line_size)
        plane = compute_filter_plane(trace, l1i_key, l1d_key)

        hits = ~plane.miss_mask
        is_ifetch = trace.kind == 0
        n = len(trace)
        assert plane.n_records == n
        assert plane.n_misses == int(plane.miss_mask.sum())
        assert np.array_equal(plane.miss_indices, np.flatnonzero(plane.miss_mask))
        assert plane.l1i_hit_prefix[n] == int((hits & is_ifetch).sum())
        assert plane.l1d_hit_prefix[n] == int((hits & ~is_ifetch).sum())
        # inst_prefix[i] == instructions retired once record i-1 completed.
        assert plane.inst_prefix[0] == 0
        assert plane.inst_prefix[n] == trace.instructions
        for cut in (0, 1, n // 2, n):
            assert plane.miss_count_before(cut) == int(plane.miss_mask[:cut].sum())

    def test_in_memory_memoisation(self):
        trace = make_workload("database", records=2_000, seed=5)
        key = (16 * 1024, 4, 64)
        assert get_filter_plane(trace, key, key) is get_filter_plane(trace, key, key)

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        # Above the persistence floor so the .npz layer engages.
        trace = make_workload("streaming", records=25_000, seed=5)
        trace._plane_cache.clear()
        key = (16 * 1024, 4, 64)
        first = get_filter_plane(trace, key, key)
        cached = list(tmp_path.glob("filter-planes/*.npz"))
        assert len(cached) == 1
        trace._plane_cache.clear()
        second = get_filter_plane(trace, key, key)
        assert second is not first
        assert np.array_equal(first.miss_mask, second.miss_mask)


# ----------------------------------------------------------------------
# Production run() == the record-by-record oracle
# ----------------------------------------------------------------------
RECORDS = 6_000
#: The warm matrix also covers two prefetchers that have no kernel.
WARM_SCHEMES = ["none", "ebcp", "ghb_small", "sms"]


def make_sim(trace, scheme: str) -> EpochSimulator:
    prefetcher = None if scheme == "none" else build_prefetcher(scheme)
    return EpochSimulator(
        ProcessorConfig.scaled(),
        prefetcher,
        cpi_perf=trace.meta.cpi_perf,
        overlap=trace.meta.overlap,
    )


def assert_same_result(result, expected) -> None:
    assert result.stats.to_dict() == expected.stats.to_dict()
    assert result.cpi == expected.cpi
    assert result.cycles == expected.cycles


class TestCompressedIdentity:
    """``run()`` equals the oracle with the kernel on and with it off.

    With the defaults an ``ebcp`` run takes the epoch kernel; with
    ``REPRO_KERNEL=off`` it takes the scalar filter-plane walk, so both
    production walks are checked against the same reference.
    """

    def check(self, monkeypatch, workload: str, scheme: str, warmup) -> None:
        trace = make_workload(workload, records=RECORDS, seed=7)
        expected = walk_every_record(make_sim(trace, scheme), trace, warmup)
        for kernel, path in ((None, "epoch_kernel"), ("off", "compressed")):
            if kernel is None:
                monkeypatch.delenv("REPRO_KERNEL", raising=False)
            else:
                monkeypatch.setenv("REPRO_KERNEL", kernel)
            sim = make_sim(trace, scheme)
            assert_same_result(sim.run(trace, warmup_records=warmup), expected)
            if scheme == "ebcp":
                assert sim.last_run_path == path

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("scheme", ["none", "ebcp"])
    def test_stats_field_for_field_identical(self, monkeypatch, workload, scheme):
        self.check(monkeypatch, workload, scheme, None)

    @pytest.mark.parametrize("warmup", [0, 1, 1_200, 5_999, 6_000])
    def test_warmup_split_identical(self, monkeypatch, warmup):
        self.check(monkeypatch, "tpcw", "ebcp", warmup)

    @pytest.mark.parametrize("workload", ["tpcw", "database", "pointer_chase", "streaming"])
    @pytest.mark.parametrize("scheme", WARM_SCHEMES)
    def test_warm_rerun_identical(self, monkeypatch, workload, scheme):
        """A second run() filters through cold L1s; everything else
        (L2, buffer, table, epoch state) carries over.  The oracle
        therefore flushes its L1s between its two walks."""
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        trace = make_workload(workload, records=RECORDS, seed=7)
        oracle = make_sim(trace, scheme)
        first_expected = walk_every_record(oracle, trace)
        oracle.hierarchy.l1i.flush()
        oracle.hierarchy.l1d.flush()
        second_expected = walk_every_record(oracle, trace)

        sim = make_sim(trace, scheme)
        assert_same_result(sim.run(trace), first_expected)
        if scheme == "ebcp":
            assert sim.last_run_path == "epoch_kernel"
        assert_same_result(sim.run(trace), second_expected)
        assert sim.last_run_path == "compressed"

    def test_env_var_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_enabled()  # on by default
        for value in ("0", "off", "OFF", "false", "no", " none "):
            monkeypatch.setenv("REPRO_KERNEL", value)
            assert not kernel_enabled()
        monkeypatch.setenv("REPRO_KERNEL", "1")
        assert kernel_enabled()
