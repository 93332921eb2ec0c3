"""Tests for the epoch-batched execution kernel.

The load-bearing claims verified here:

* the kernel produces field-for-field identical ``SimulationStats`` to
  the scalar reference path (``REPRO_KERNEL=off``) on every workload
  family, every EBCP variant, every Figure 9 scheme (GHB, TCP, stream,
  SMS and Solihin through their own hooks) and the no-prefetch baseline,
* identity holds on *adversarial* randomized miss streams — tiny cache
  geometries that conflict hard, EMAB overflow, correlation-table
  aliasing, MSHR exhaustion, dirty writebacks, dropped transfers and
  warm-up boundaries in arbitrary places — and extends to the post-run
  state of every simulator object and of the scheme itself (so a
  subsequent scalar run continues identically),
* the default (goldens) configuration, the no-prefetch baseline and a
  job that collects worker metrics (every served job) actually exercise
  the kernel — a silent fallback would leave the fast path untested, and
* every fallback is observable: the simulator emits a ``KernelFallback``
  event naming the cause, and a scheme outside the kernel's contract is
  refused.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prefetcher import EBCPConfig, EpochBasedCorrelationPrefetcher
from repro.engine.config import CacheConfig, ProcessorConfig
from repro.engine.ebcp_kernel import kernel_fallback_cause
from repro.engine.simulator import EpochSimulator
from repro.obs.bus import EventBus
from repro.obs.events import KernelFallback
from repro.obs.metrics import MetricsRegistry, SimulationMetrics
from repro.obs.tracing import TelemetrySink
from repro.parallel.jobs import JobSpec
from repro.prefetchers import (
    GHBPrefetcher,
    SolihinPrefetcher,
    SpatialMemoryStreaming,
    StreamPrefetcher,
    TagCorrelatingPrefetcher,
)
from repro.prefetchers.registry import build_prefetcher
from repro.resilience.executor import execute
from repro.resilience.policy import ExecutionPolicy
from repro.spec import load_spec
from repro.workloads.registry import COMMERCIAL_WORKLOADS, make_workload
from repro.workloads.trace import Trace, TraceMeta

from tests.helpers import without_bus_fallback

LINE = 64

VARIANT_CONFIGS = {
    "ebcp": EBCPConfig(),
    "ebcp_minus": EBCPConfig(skip_epochs=1),
    "ebcp_onchip": EBCPConfig(table_in_memory=False),
}

#: Figure 9's ten schemes, each with the overrides the figure runs it at.
FIGURE9 = {
    entry.effective_label: entry
    for entry in load_spec(
        Path(__file__).resolve().parents[1] / "specs" / "figure9.toml"
    ).prefetchers
}


@pytest.fixture(autouse=True)
def _kernel_env():
    """Each test starts from the default (kernel-enabled) environment."""
    saved = os.environ.pop("REPRO_KERNEL", None)
    yield
    if saved is None:
        os.environ.pop("REPRO_KERNEL", None)
    else:
        os.environ["REPRO_KERNEL"] = saved


def run_pair(trace, config, make_prefetcher, warmup_records=None):
    """Run (kernel, scalar) sims on the same trace; return both sims."""
    os.environ.pop("REPRO_KERNEL", None)
    kernel_sim = EpochSimulator(
        config, make_prefetcher(),
        cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
    )
    kernel_sim.run(trace, warmup_records=warmup_records)

    os.environ["REPRO_KERNEL"] = "off"
    scalar_sim = EpochSimulator(
        config, make_prefetcher(),
        cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
    )
    scalar_sim.run(trace, warmup_records=warmup_records)
    os.environ.pop("REPRO_KERNEL", None)
    return kernel_sim, scalar_sim


def state_fingerprint(sim: EpochSimulator) -> dict:
    """Every piece of post-run state a later scalar run would consult."""
    pf = sim.prefetcher
    l2 = sim.hierarchy.l2
    buf = sim.hierarchy.prefetch_buffer
    open_epoch = sim.tracker.open_epoch
    fingerprint = {
        "stats": sim.stats.to_dict(),
        "penalty_accum": sim._penalty_accum,
        "interval": (sim._interval_trigger_inst, sim._interval_sealed),
        "store_bytes": (sim._store_read_bytes, sim._store_write_bytes),
        "epoch_count": sim.tracker.epoch_count,
        "open_epoch": None if open_epoch is None else (
            open_epoch.index,
            open_epoch.trigger_line,
            open_epoch.trigger_kind,
            open_epoch.trigger_inst,
            tuple(open_epoch.miss_lines),
            tuple(open_epoch.miss_kinds),
            open_epoch.sealed,
        ),
        "termination": dict(sim.tracker.termination_reasons),
        "mshrs": (sorted(sim.mshrs._lines), vars(sim.mshrs.stats)),
        "l2": (
            sorted((t, s) for bucket in l2._sets for t, s in bucket.items()),
            l2._stamp,
            sorted(l2._dirty),
            vars(l2.stats),
        ),
        "buffer": (
            sorted(
                (e.line, e.ready_cycle, e.table_index, e.last_use, e.issue_epoch)
                for bucket in buf._sets for e in bucket.values()
            ),
            buf._stamp,
            vars(buf.stats),
        ),
        "pending": [
            (p.issue_epoch, p.line, dataclasses.astuple(p.request)) for p in sim._pending
        ],
        "bandwidth": (
            sim.bandwidth._ema_read_utilization,
            sim.bandwidth._last_read_utilization,
            vars(sim.bandwidth.read_stats),
            vars(sim.bandwidth.write_stats),
        ),
    }
    if pf is not None:
        fingerprint.update(traffic=vars(pf.traffic), issued=pf.issued_requests)
    if isinstance(pf, EpochBasedCorrelationPrefetcher):
        # The kernel restores the EMAB by content, not slot for slot.
        fingerprint.update(
            table=(
                dict(pf.table._tags),
                {index: dict(addrs) for index, addrs in pf.table._addrs.items()},
                pf.table._stamp,
                vars(pf.table.stats),
            ),
            emab=(pf.emab.snapshot(), pf.emab.overflow_drops),
            suppressed=pf.lookups_suppressed,
        )
    elif pf is not None:
        # A hooked scheme's own state, byte for byte.
        fingerprint["scheme"] = pickle.dumps(pf)
    return fingerprint


# ----------------------------------------------------------------------
# Identity on every workload family x variant
# ----------------------------------------------------------------------
class TestKernelIdentity:
    @pytest.mark.parametrize("workload", COMMERCIAL_WORKLOADS)
    @pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
    def test_stats_and_state_identical(self, workload, variant):
        trace = make_workload(workload, records=8_000, seed=7)
        cfg = VARIANT_CONFIGS[variant]
        kernel_sim, scalar_sim = run_pair(
            trace, ProcessorConfig.scaled(),
            lambda: EpochBasedCorrelationPrefetcher(cfg),
        )
        assert kernel_sim.last_run_path == "epoch_kernel"
        assert scalar_sim.last_run_path == "compressed"
        assert kernel_sim.stats.to_dict() == scalar_sim.stats.to_dict()
        assert state_fingerprint(kernel_sim) == state_fingerprint(scalar_sim)

    @pytest.mark.parametrize("workload", COMMERCIAL_WORKLOADS)
    @pytest.mark.parametrize("label", sorted(FIGURE9))
    def test_figure9_scheme_identical(self, workload, label):
        """Every Figure 9 scheme, at the figure's overrides, leaves the
        scalar walk's stats and state, pending requests and the scheme's
        own state included."""
        trace = make_workload(workload, records=8_000, seed=7)
        kernel_sim, scalar_sim = run_pair(
            trace, ProcessorConfig.scaled(), FIGURE9[label].build
        )
        assert kernel_sim.last_run_path == "epoch_kernel"
        assert scalar_sim.last_run_path == "compressed"
        assert kernel_sim.stats.to_dict() == scalar_sim.stats.to_dict()
        assert state_fingerprint(kernel_sim) == state_fingerprint(scalar_sim)

    @pytest.mark.parametrize("workload", COMMERCIAL_WORKLOADS)
    @pytest.mark.parametrize("warmup_records", [None, 0], ids=["default_warmup", "no_warmup"])
    def test_no_prefetcher_state_identical(self, workload, warmup_records):
        """The no-prefetch baseline leaves the state the scalar walk leaves,
        interval tracking included."""
        trace = make_workload(workload, records=8_000, seed=7)
        kernel_sim, scalar_sim = run_pair(
            trace, ProcessorConfig.scaled(), lambda: None, warmup_records
        )
        assert kernel_sim.last_run_path == "epoch_kernel"
        assert scalar_sim.last_run_path == "compressed"
        assert kernel_sim.stats.to_dict() == scalar_sim.stats.to_dict()
        assert state_fingerprint(kernel_sim) == state_fingerprint(scalar_sim)

    def test_warm_second_run_continues_identically(self):
        """After a kernel run, a scalar run on the same simulator matches
        the all-scalar double run — the synced-back state is complete."""
        trace = make_workload("tpcw", records=6_000, seed=7)
        kernel_sim, scalar_sim = run_pair(
            trace, ProcessorConfig.scaled(), EpochBasedCorrelationPrefetcher
        )
        second_kernel = kernel_sim.run(trace)
        second_scalar = scalar_sim.run(trace)
        # The warm simulator must take the scalar path (precomputed
        # segmentation assumes a cold start) ...
        assert kernel_sim.last_run_path == "compressed"
        # ... and still agree with the never-kernel control, run for run.
        assert second_kernel.stats.to_dict() == second_scalar.stats.to_dict()
        assert state_fingerprint(kernel_sim) == state_fingerprint(scalar_sim)


# ----------------------------------------------------------------------
# Default configuration exercises the kernel (goldens cover it)
# ----------------------------------------------------------------------
class TestKernelIsExercised:
    def test_goldens_configuration_takes_kernel_path(self):
        """The golden-file runs must go through the kernel, not around it."""
        trace = make_workload("tpcw", records=2_000, seed=7)
        sim = EpochSimulator(
            ProcessorConfig.scaled(), EpochBasedCorrelationPrefetcher(),
            cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
        )
        sim.run(trace)
        assert sim.last_run_path == "epoch_kernel"

    def test_cold_no_prefetcher_run_takes_kernel_path(self):
        """The baseline every figure divides by runs on the kernel too."""
        trace = make_workload("tpcw", records=2_000, seed=7)
        sim = EpochSimulator(
            ProcessorConfig.scaled(), None,
            cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
        )
        sim.run(trace)
        assert sim.last_run_path == "epoch_kernel"

    def test_registry_none_prefetcher_takes_kernel_path(self):
        """The registry's ``none`` instance is the baseline too: it takes
        the kernel and counts what a ``prefetcher=None`` run counts."""
        trace = make_workload("tpcw", records=2_000, seed=7)
        sims, metrics = [], []
        for prefetcher in (build_prefetcher("none"), None):
            collected = SimulationMetrics()
            sim = EpochSimulator(
                ProcessorConfig.scaled(), prefetcher,
                cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
                metrics=collected,
            )
            sim.run(trace)
            sims.append(sim)
            metrics.append(collected.to_dict())
        assert [sim.last_run_path for sim in sims] == ["epoch_kernel", "epoch_kernel"]
        assert sims[0].stats.to_dict() == sims[1].stats.to_dict()
        assert metrics[0] == metrics[1]

    @pytest.mark.parametrize("name", ["ebcp", "none", "ghb_small", "tcp_small"])
    def test_job_collecting_worker_metrics_takes_kernel_path(self, name, monkeypatch):
        """A served job collects worker metrics; the run feeds them
        itself, so it keeps the kernel."""
        sims = []
        run = EpochSimulator.run

        def spy(sim, *args, **kwargs):
            sims.append(sim)
            return run(sim, *args, **kwargs)

        monkeypatch.setattr(EpochSimulator, "run", spy)
        prefetcher = None if name == "none" else build_prefetcher(name)
        job = JobSpec("tpcw", 2_000, 7, ProcessorConfig.scaled(), prefetcher, name)
        sink = TelemetrySink(registry=MetricsRegistry())
        execute([job], ExecutionPolicy(jobs=1), telemetry=sink)
        assert [sim.last_run_path for sim in sims] == ["epoch_kernel"]
        assert sink.registry[f"{name}.kernel_fallbacks"].value == 0
        assert sink.registry[f"{name}.epochs_closed"].value > 0


# ----------------------------------------------------------------------
# Property: identity on adversarial randomized miss streams
# ----------------------------------------------------------------------
#: Tiny geometries so sets conflict hard: 256 B 2-way L1s, a 512 B 2-way
#: L2 (8 lines), an 8-entry buffer, 2 MSHRs and an 8-entry ROB window.
_TINY = ProcessorConfig.scaled(
    rob_size=8,
    l1i=CacheConfig(256, 2, LINE, 3),
    l1d=CacheConfig(256, 2, LINE, 3),
    l2=CacheConfig(512, 2, LINE, 20),
    l2_mshrs=2,
    prefetch_buffer_entries=8,
    prefetch_buffer_ways=2,
)

#: Prime table size -> aliasing; tiny EMAB -> overflow; small degree.
_TINY_EBCP = EBCPConfig(
    prefetch_degree=4,
    table_entries=37,
    addrs_per_entry=4,
    emab_capacity_per_epoch=2,
)


#: Random miss streams over a tiny line space (hard conflicts):
#: (kind, line, serial dependence, instruction gap) per record.
_RECORDS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 31),
        st.booleans(),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=250,
)


#: Loop bodies repeated a few times: the repeats train the table, so
#: prefetches get issued and hit.
_LOOPED_RECORDS = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 31), st.booleans(), st.integers(0, 3)),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 8),
).map(lambda body_repeats: body_repeats[0] * body_repeats[1])

#: ``_TINY`` on a bus narrow enough to refuse droppable charges.
_STARVED = dataclasses.replace(_TINY, read_bw_gbps=0.4, write_bw_gbps=0.2)

#: The hooked schemes with tables small enough to alias and evict.
_TINY_SCHEMES = {
    "ghb": lambda: GHBPrefetcher(index_entries=4, buffer_entries=16, degree=4),
    "solihin_2_2": lambda: SolihinPrefetcher(depth=2, width=2, table_entries=37, degree=4),
    "solihin_4_1": lambda: SolihinPrefetcher(depth=4, width=1, table_entries=37, degree=4),
    "tcp": lambda: TagCorrelatingPrefetcher(pht_sets=4, pht_ways=2, l1_sets=4, degree=4),
    "stream": lambda: StreamPrefetcher(n_streams=4, degree=4, ahead=4),
    "sms": lambda: SpatialMemoryStreaming(
        region_bytes=4 * LINE, line_bytes=LINE, agt_entries=4, pht_entries=8, pht_ways=2
    ),
}


#: Loop bodies for the hooked schemes: single records plus strided load
#: runs (stream, SMS), each from one of four PCs (GHB's per-PC chains),
#: as (kind, line, serial, gap, pc) records.
_RUN = st.tuples(
    st.integers(0, 31), st.integers(-3, 3), st.integers(2, 6), st.integers(0, 3)
).map(
    lambda run: [(1, (run[0] + k * run[1]) % 64, False, 1, run[3]) for k in range(run[2])]
)
_SINGLE = st.tuples(
    st.integers(0, 2), st.integers(0, 31), st.booleans(), st.integers(0, 3), st.integers(0, 3)
).map(lambda record: [record])
_SCHEME_RECORDS = st.tuples(
    st.lists(st.one_of(_SINGLE, _RUN), min_size=2, max_size=10),
    st.integers(2, 6),
).map(lambda body_repeats: [r for part in body_repeats[0] for r in part] * body_repeats[1])


def _trace_of(records) -> Trace:
    """A trace of (kind, line, serial, gap) records, with an optional
    fifth field for the PC (else the line picks it)."""
    return Trace(
        gap=np.array([r[3] for r in records], dtype=np.int64),
        kind=np.array([r[0] for r in records], dtype=np.uint8),
        pc=np.array([r[4] if len(r) > 4 else r[1] * 4 for r in records], dtype=np.int64),
        addr=np.array([r[1] * LINE for r in records], dtype=np.int64),
        serial=np.array([r[2] for r in records], dtype=np.uint8),
        meta=TraceMeta(name="prop", cpi_perf=1.0, overlap=0.10),
    )


class TestKernelProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        records=_RECORDS,
        warmup_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        skip_epochs=st.sampled_from([1, 2]),
        in_memory=st.booleans(),
    )
    def test_random_streams_identical(
        self, records, warmup_fraction, skip_epochs, in_memory
    ):
        n = len(records)
        cfg = EBCPConfig(
            prefetch_degree=_TINY_EBCP.prefetch_degree,
            table_entries=_TINY_EBCP.table_entries,
            addrs_per_entry=_TINY_EBCP.addrs_per_entry,
            emab_capacity_per_epoch=_TINY_EBCP.emab_capacity_per_epoch,
            skip_epochs=skip_epochs,
            table_in_memory=in_memory,
        )
        kernel_sim, scalar_sim = run_pair(
            _trace_of(records), _TINY,
            lambda: EpochBasedCorrelationPrefetcher(cfg),
            warmup_records=int(n * warmup_fraction),
        )
        assert kernel_sim.last_run_path == "epoch_kernel"
        assert kernel_sim.stats.to_dict() == scalar_sim.stats.to_dict()
        assert state_fingerprint(kernel_sim) == state_fingerprint(scalar_sim)

    @settings(max_examples=80, deadline=None)
    @given(
        records=_LOOPED_RECORDS,
        starved=st.booleans(),
        warmup_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        skip_epochs=st.sampled_from([1, 2]),
        in_memory=st.booleans(),
        with_prefetcher=st.booleans(),
    )
    def test_random_streams_feed_metrics_like_the_bus(
        self, records, starved, warmup_fraction, skip_epochs, in_memory, with_prefetcher
    ):
        """The kernel's run-fed metrics equal a bus-driven oracle's under
        EMAB overflow, prefetch hits, buffer evictions and (on a starved
        bus) budget refusals and dropped transfers."""
        config = _STARVED if starved else _TINY
        cfg = dataclasses.replace(
            _TINY_EBCP, skip_epochs=skip_epochs, table_in_memory=in_memory
        )
        trace = _trace_of(records)
        warmup = int(len(records) * warmup_fraction)
        snapshots = []
        for bus in (None, EventBus()):
            metrics = SimulationMetrics(bus)
            sim = EpochSimulator(
                config,
                EpochBasedCorrelationPrefetcher(cfg) if with_prefetcher else None,
                cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
                bus=bus, metrics=None if bus is not None else metrics,
            )
            sim.run(trace, warmup_records=warmup)
            snapshots.append(metrics.to_dict())
            if bus is None:
                assert sim.last_run_path == "epoch_kernel"
        assert snapshots[0] == without_bus_fallback(snapshots[1])

    @pytest.mark.parametrize("scheme", sorted(_TINY_SCHEMES))
    @settings(max_examples=25, deadline=None)
    @given(
        records=_SCHEME_RECORDS,
        starved=st.booleans(),
        warmup_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    )
    def test_hooked_schemes_identical(self, scheme, records, starved, warmup_fraction):
        """GHB, Solihin, TCP, stream and SMS run their own hooks in the
        kernel: stats and state match the scalar walk's through dirty
        writebacks, dropped transfers and the warm-up boundary, a second
        (warm, scalar) run continues identically, and the run-fed
        metrics equal a bus-driven oracle's."""
        config = _STARVED if starved else _TINY
        make = _TINY_SCHEMES[scheme]
        trace = _trace_of(records)
        warmup = int(len(records) * warmup_fraction)
        kernel_sim, scalar_sim = run_pair(trace, config, make, warmup_records=warmup)
        assert kernel_sim.last_run_path == "epoch_kernel"
        assert state_fingerprint(kernel_sim) == state_fingerprint(scalar_sim)
        kernel_sim.run(trace, warmup_records=warmup)
        scalar_sim.run(trace, warmup_records=warmup)
        assert kernel_sim.last_run_path == "compressed"
        assert state_fingerprint(kernel_sim) == state_fingerprint(scalar_sim)

        snapshots = []
        for bus in (None, EventBus()):
            metrics = SimulationMetrics(bus)
            sim = EpochSimulator(
                config, make(),
                cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
                bus=bus, metrics=None if bus is not None else metrics,
            )
            sim.run(trace, warmup_records=warmup)
            snapshots.append(metrics.to_dict())
        assert snapshots[0] == without_bus_fallback(snapshots[1])

    @settings(max_examples=25, deadline=None)
    @given(records=_RECORDS, warmup_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_random_streams_identical_without_prefetcher(self, records, warmup_fraction):
        kernel_sim, scalar_sim = run_pair(
            _trace_of(records), _TINY, lambda: None,
            warmup_records=int(len(records) * warmup_fraction),
        )
        assert kernel_sim.last_run_path == "epoch_kernel"
        assert state_fingerprint(kernel_sim) == state_fingerprint(scalar_sim)


# ----------------------------------------------------------------------
# Fallbacks are observable
# ----------------------------------------------------------------------
def _collect_fallbacks(bus: EventBus) -> list:
    events: list = []
    bus.subscribe(KernelFallback, events.append)
    return events


class _BoundaryGHB(GHBPrefetcher):
    """A flagged scheme that trains at epoch boundaries."""

    def on_epoch_boundary(self, closed):
        return []


class _SubclassedEBCP(EpochBasedCorrelationPrefetcher):
    """EBCP with a hook of its own (flag inherited)."""

    def observe_prefetch_hit(self, access, line, table_index, epoch_index, first_in_epoch):
        return super().observe_prefetch_hit(access, line, table_index, epoch_index, False)


class TestKernelFallback:
    def test_disabled_by_env(self):
        os.environ["REPRO_KERNEL"] = "off"
        trace = make_workload("tpcw", records=2_000, seed=7)
        sim = EpochSimulator(
            ProcessorConfig.scaled(), EpochBasedCorrelationPrefetcher(),
            cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
        )
        sim.run(trace)
        assert sim.last_run_path == "compressed"

    def test_bus_attached_emits_event_with_cause(self):
        trace = make_workload("tpcw", records=2_000, seed=7)
        bus = EventBus()
        events = _collect_fallbacks(bus)
        sim = EpochSimulator(
            ProcessorConfig.scaled(), EpochBasedCorrelationPrefetcher(),
            cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
            bus=bus,
        )
        sim.run(trace)
        assert sim.last_run_path != "epoch_kernel"
        assert [e.cause for e in events] == ["bus_attached"]
        assert events[0].prefetcher == "ebcp"

    def test_no_prefetcher_with_bus_emits_one_fallback(self):
        trace = make_workload("tpcw", records=2_000, seed=7)
        bus = EventBus()
        events = _collect_fallbacks(bus)
        sim = EpochSimulator(
            ProcessorConfig.scaled(), None,
            cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
            bus=bus,
        )
        sim.run(trace)
        assert sim.last_run_path == "compressed"
        assert [(e.prefetcher, e.cause) for e in events] == [("none", "bus_attached")]

    def test_unsupported_prefetcher_no_kernel(self):
        trace = make_workload("tpcw", records=2_000, seed=7)
        sim = EpochSimulator(
            ProcessorConfig.scaled(), build_prefetcher("ebcp_cmp"),
            cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
        )
        assert kernel_fallback_cause(sim) == "unsupported_prefetcher"
        sim.run(trace)
        assert sim.last_run_path == "compressed"

    @pytest.mark.parametrize(
        "scheme, cause",
        [
            (_BoundaryGHB, "unsupported_prefetcher"),
            (_SubclassedEBCP, "subclassed_prefetcher"),
        ],
        ids=["boundary_hook", "ebcp_subclass"],
    )
    def test_scheme_outside_the_contract_is_refused(self, scheme, cause):
        """The kernel never calls on_epoch_boundary, and replays EBCP
        inline for the stock class only: a flagged scheme that overrides
        the one or subclasses the other takes the scalar walk."""
        trace = make_workload("tpcw", records=2_000, seed=7)
        bus = EventBus()
        events = _collect_fallbacks(bus)
        sim = EpochSimulator(
            ProcessorConfig.scaled(), scheme(),
            cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
            bus=bus,
        )
        assert kernel_fallback_cause(sim) == cause
        sim.run(trace)
        assert sim.last_run_path == "compressed"
        assert [e.cause for e in events] == [cause]

    def test_warm_state_falls_back(self):
        trace = make_workload("tpcw", records=2_000, seed=7)
        sim = EpochSimulator(
            ProcessorConfig.scaled(), EpochBasedCorrelationPrefetcher(),
            cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
        )
        sim.run(trace)
        assert sim.last_run_path == "epoch_kernel"
        assert kernel_fallback_cause(sim) == "warm_state"
        sim.run(trace)
        assert sim.last_run_path == "compressed"
