"""The epoch-model trace-driven timing simulator.

This is the reproduction's substitute for the paper's proprietary
cycle-accurate SPARC simulator (DESIGN.md Section 2).  It is built
directly on the paper's epoch MLP performance model:

``cycles = instructions * CPI_perf * (1 - Overlap) + sum(epoch penalties)``

The simulator walks an L1-level access trace, filters it through the
functional cache hierarchy, partitions off-chip misses into epochs using
the window-termination rules of :mod:`repro.engine.epoch`, drives the
configured prefetcher, and accounts bandwidth per epoch window with
demand-first priorities.

Prefetch lifecycle
------------------
A request generated during epoch ``e`` with ``epochs_until_ready = r`` is
staged into the prefetch buffer immediately with ``ready_epoch = e + r``
(the buffer's readiness check enforces epoch-granular timeliness), and its
bus transfer is charged to the window of epoch ``e + r - 1`` when that
window closes.  If the read-bus budget of that window is exhausted the
transfer is dropped and the staged line is invalidated — it never became
usable, matching the paper's "prefetches may sometimes be dropped when
the available memory bandwidth is saturated".
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any, Iterable

from ..memory.bandwidth import BandwidthModel, BusStats, EpochBudget
from ..memory.hierarchy import AccessOutcome, CacheHierarchy
from ..memory.mshr import MSHRFile
from ..memory.request import Access, AccessKind, PrefetchRequest, Priority
from ..obs.bus import EventBus
from ..obs.events import (
    EpochClosed,
    KernelFallback,
    PrefetchDropped,
    PrefetchFilled,
    PrefetchHit,
)
from ..prefetchers.base import Prefetcher
from .config import ProcessorConfig
from .epoch import Epoch, EpochTracker
from .filter_plane import get_filter_plane
from .stats import SimulationResult, SimulationStats

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import SimulationMetrics

__all__ = ["EpochSimulator", "MODEL_VERSION"]

log = logging.getLogger(__name__)

#: Version of the simulation model: bump it with any change that alters a
#: result for unchanged inputs.  Stored results and planes are keyed on
#: it, so a bump retires them; ``tests/test_versions.py`` pins its digests.
MODEL_VERSION = 1

#: Trace kind-code -> AccessKind, avoiding the enum-constructor call (a
#: surprisingly large share of per-record time) on the hot path.
_KIND_TABLE: tuple[AccessKind, ...] = (AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE)


@dataclass
class _PendingTransfer:
    """A staged prefetch whose bus transfer is awaiting its window."""

    request: PrefetchRequest
    issue_epoch: int
    line: int


class EpochSimulator:
    """Runs one trace against one configuration and prefetcher."""

    def __init__(
        self,
        config: ProcessorConfig | None = None,
        prefetcher: Prefetcher | None = None,
        cpi_perf: float | None = None,
        overlap: float | None = None,
        bus: EventBus | None = None,
        metrics: "SimulationMetrics | None" = None,
    ) -> None:
        self.config = config or ProcessorConfig.scaled()
        self.config.validate()
        self.cpi_perf = cpi_perf if cpi_perf is not None else self.config.cpi_perf
        self.overlap = overlap if overlap is not None else self.config.overlap
        self.prefetcher = prefetcher
        self.hierarchy = CacheHierarchy(self.config)
        self.mshrs = MSHRFile(self.config.l2_mshrs)
        self.tracker = EpochTracker(self.config.rob_size)
        self.bandwidth = BandwidthModel(
            read_bytes_per_cycle=self.config.read_bytes_per_cycle,
            write_bytes_per_cycle=self.config.write_bytes_per_cycle,
        )
        self.stats = SimulationStats()
        self._pending: list[_PendingTransfer] = []
        self._store_read_bytes = 0
        self._store_write_bytes = 0
        # Would-be epoch (interval) tracking for the prefetcher.
        self._interval_trigger_inst: int | None = None
        self._interval_sealed = False
        self._measuring = False
        self._cpi_onchip = self.cpi_perf * (1.0 - self.overlap)
        # Hot-path scalars hoisted off the config (attribute chains are a
        # measurable share of per-miss time); the config is never mutated
        # after construction.
        self._memory_latency = self.config.memory_latency
        self._base_penalty = float(self.config.memory_latency)
        self._line_bytes = self.config.line_size
        self._rob_size = self.config.rob_size
        #: Whether the prefetcher actually overrides observe_access; most
        #: (including EBCP) train on the off-chip miss stream only, and
        #: the per-miss no-op call is measurable.
        self._wants_access_stream = prefetcher is not None and (
            type(prefetcher).observe_access is not Prefetcher.observe_access
        )
        #: Wall-clock cycle accumulator: retired instructions contribute
        #: ``cpi_onchip`` cycles each, and every closed epoch adds its
        #: effective miss penalty.  Prefetch readiness is judged on this
        #: clock (see PrefetchBuffer's docstring).
        self._penalty_accum = 0.0
        #: Which execution path the most recent ``run`` took:
        #: ``"epoch_kernel"`` or ``"compressed"``.
        self.last_run_path: str | None = None
        #: The observability event bus; None keeps the null-sink fast path
        #: (a single ``is None`` check per emission site).  An attached bus
        #: keeps the run off the epoch kernel, which emits no events.
        self.bus = bus
        #: Run-fed :class:`~repro.obs.metrics.SimulationMetrics`: both
        #: walks report to it directly, so it costs neither the kernel nor
        #: the L2-hit fast path (a single ``is None`` check per site).  It
        #: must not also listen to ``bus``, or every update counts twice.
        self.metrics = metrics
        self.bandwidth.metrics = metrics
        self._wire_bus()
        if self.prefetcher is not None:
            self.prefetcher.bind(self.hierarchy)  # type: ignore[attr-defined]

    def _wire_bus(self) -> None:
        """Propagate the current bus to every emitting component."""
        self.hierarchy.bus = self.bus
        self.hierarchy.prefetch_buffer.bus = self.bus
        self.bandwidth.bus = self.bus
        if self.prefetcher is not None:
            self.prefetcher.attach_bus(self.bus)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, trace: Any, warmup_records: int | None = None) -> SimulationResult:
        """Simulate ``trace`` and return the measured-region result.

        ``trace`` is a :class:`repro.workloads.trace.Trace`.  The first
        ``warmup_records`` records warm the caches, the prefetcher and the
        correlation table without collecting statistics — mirroring the
        paper's 150 M-instruction warm-up before the 100 M-instruction
        measurement window.  The default warm-up is 30 % of the trace.

        The L1 hit/miss outcome of every record is resolved ahead of time
        from the trace's filter plane (:mod:`repro.engine.filter_plane`),
        so the walk visits only the L1 misses and folds each run of L1
        hits into O(1) prefix-sum updates.  Runs with no prefetcher or a
        scheme that sets ``supports_epoch_batch`` (EBCP and every other
        Figure 9 scheme) take the epoch-batched kernel
        (:mod:`repro.engine.ebcp_kernel`) whenever
        :func:`~repro.engine.ebcp_kernel.kernel_fallback_cause` allows it
        and the filter-plane walk otherwise.  Both are bit-identical to
        stepping every record through the L1s one at a time (the test
        suite's ``walk_every_record`` oracle).  Both feed the run-fed
        ``metrics``, if any, exactly as a bus-driven
        :class:`~repro.obs.metrics.SimulationMetrics` would have counted.

        Each run filters its trace through *cold* L1s: the plane is a
        function of the trace and the L1 geometries alone.  Everything
        else — L2, prefetch buffer, correlation table, epoch and bandwidth
        state — carries over when the same simulator runs again.
        """
        n = len(trace.gap)
        if warmup_records is None:
            warmup_records = int(0.3 * n)
        warmup_records = max(0, min(warmup_records, n))
        log.info(
            "run: %s records (%s warm-up), prefetcher=%s, observability=%s",
            n,
            warmup_records,
            self.prefetcher.name if self.prefetcher is not None else "none",
            "on" if self.bus is not None else "off",
        )
        before = self._lifetime_counts() if self.metrics is not None else None
        result = None
        if self.prefetcher is None or self.prefetcher.supports_epoch_batch:
            result = self._try_epoch_kernel(trace, warmup_records, n)
        if result is None:
            result = self._run_compressed(trace, warmup_records, n)
        if before is not None:
            self._report_run_totals(before)
        return result

    def _lifetime_counts(self) -> tuple[int, ...]:
        """The never-reset counters behind the run-level metrics: L2
        accesses, never-used buffer evictions, issued prefetches and the
        table's (reads, read bytes, writes, write bytes)."""
        l2 = self.hierarchy.l2.stats
        counts = (l2.hits + l2.misses, self.hierarchy.prefetch_buffer.stats.evicted_unused)
        prefetcher = self.prefetcher
        if prefetcher is None:
            return counts + (0, 0, 0, 0, 0)
        traffic = prefetcher.traffic
        return counts + (
            prefetcher.issued_requests,
            traffic.total_reads,
            traffic.total_read_bytes,
            traffic.total_writes,
            traffic.total_write_bytes,
        )

    def _report_run_totals(self, before: tuple[int, ...]) -> None:
        """Feed the metrics this run's share of the lifetime counters:
        the counts a bus would have delivered one event at a time."""
        accesses, evicted_unused, issued, reads, read_bytes, writes, write_bytes = (
            after - start for after, start in zip(self._lifetime_counts(), before)
        )
        metrics = self.metrics
        metrics.accesses_resolved(accesses)
        metrics.prefetches_issued(issued)
        metrics.prefetches_dropped(evicted_unused)
        metrics.table_read(read_bytes, reads)
        metrics.table_write(write_bytes, writes)

    # ------------------------------------------------------------------
    # Compressed execution (precomputed L1 filter plane)
    # ------------------------------------------------------------------
    def _try_epoch_kernel(
        self, trace: Any, warmup_records: int, n: int
    ) -> SimulationResult | None:
        """Dispatch to the epoch-batched kernel when its preconditions
        hold; otherwise report the fallback cause and return None."""
        from .ebcp_kernel import kernel_fallback_cause, run_epoch_batched

        cause = kernel_fallback_cause(self)
        if cause is not None:
            self._note_kernel_fallback(cause)
            return None
        return run_epoch_batched(self, trace, warmup_records, n)

    def _note_kernel_fallback(self, cause: str) -> None:
        name = self.prefetcher.name if self.prefetcher is not None else "none"
        log.debug("epoch kernel fallback (%s): %s", name, cause)
        if self.metrics is not None:
            self.metrics.kernel_fallback(cause)
        if self.bus is not None:
            self.bus.emit(KernelFallback(prefetcher=name, cause=cause))

    def _run_compressed(self, trace: Any, warmup_records: int, n: int) -> SimulationResult:
        """Run only the L1-miss records; L1-hit runs collapse to O(1).

        The plane supplies the miss mask and the prefix sums needed to
        reconstruct every bulk statistic (accesses, per-class L1 hits, the
        instruction clock at each miss) exactly as a walk of every record
        would have accumulated them.
        """
        self.last_run_path = "compressed"
        hierarchy = self.hierarchy
        plane = get_filter_plane(
            trace, hierarchy.l1i.geometry_key(), hierarchy.l1d.geometry_key()
        )
        kinds, pcs, addrs, serials, insts, tids, lines = plane.miss_columns(trace)
        split = plane.miss_count_before(warmup_records)
        inst_prefix = plane.inst_prefix
        total_inst = int(inst_prefix[n])
        measure_start_inst = int(inst_prefix[warmup_records])

        self._measuring = False
        step_miss = self._step_miss
        # One iterator consumed across the warm-up boundary: the measured
        # loop picks up exactly where the warm-up loop stopped.
        miss_args = zip(kinds, pcs, addrs, serials, insts, tids, lines)
        for args in islice(miss_args, split):
            step_miss(*args)
        if warmup_records < n:
            self._begin_measurement()
            stats = self.stats
            stats.accesses = n - warmup_records
            stats.l1i_hits = int(
                plane.l1i_hit_prefix[n] - plane.l1i_hit_prefix[warmup_records]
            )
            stats.l1d_hits = int(
                plane.l1d_hit_prefix[n] - plane.l1d_hit_prefix[warmup_records]
            )
        for args in miss_args:
            step_miss(*args)
        return self._finish_run(trace, total_inst, measure_start_inst)

    def _finish_run(self, trace: Any, inst: int, measure_start_inst: int) -> SimulationResult:
        """Close the final epoch, flush transfers, assemble the result."""
        closed = self.tracker.close(inst)
        if closed is not None:
            self._process_epoch_close(closed, inst)
        if self._pending:
            self._flush_pending(inst)

        if self._measuring:
            self.stats.instructions = inst - measure_start_inst
        workload_name = getattr(getattr(trace, "meta", None), "name", "trace")
        pf_name = self.prefetcher.name if self.prefetcher is not None else "none"
        log.info(
            "run done: %s instructions measured, %s epochs, %s off-chip misses",
            self.stats.instructions,
            self.stats.epochs,
            self.stats.total_offchip_misses,
        )
        return SimulationResult(
            workload=workload_name,
            prefetcher=pf_name,
            stats=self.stats,
            cpi_perf=self.cpi_perf,
            overlap=self.overlap,
            config_summary={
                "l2_bytes": self.config.l2.size_bytes,
                "read_bw_gbps": self.config.read_bw_gbps,
                "prefetch_buffer_entries": self.config.prefetch_buffer_entries,
            },
        )

    # ------------------------------------------------------------------
    # Measurement control
    # ------------------------------------------------------------------
    def _begin_measurement(self) -> None:
        """Reset statistics at the warm-up / measurement boundary."""
        self.stats = SimulationStats()
        self.bandwidth.read_stats = BusStats()
        self.bandwidth.write_stats = BusStats()
        self._measuring = True

    # ------------------------------------------------------------------
    # Per-miss step
    # ------------------------------------------------------------------
    def _step_miss(
        self, kind_code: int, pc: int, addr: int, serial: bool, inst: int, tid: int, line: int
    ) -> None:
        """An L1 miss (== L2 access): epochs, prefetcher, hierarchy, timing.

        The caller has already resolved the L1 filter and counted the
        access; the simulator never fills the L1s itself (the filter
        plane stands in for them).
        """
        stats = self.stats
        measuring = self._measuring
        hierarchy = self.hierarchy
        # L2-hit fast path: when no prefetcher observes the access stream
        # and no bus listens, a hit has no observer — the only effects are
        # the L2 LRU touch and two counters, so the Access and
        # HierarchyResult objects need never exist.  (The epoch
        # bookkeeping skipped here is pure computation on the miss path.)
        if not self._wants_access_stream and hierarchy.bus is None:
            if hierarchy.l2.lookup(line):
                if measuring:
                    stats.l2_accesses += 1
                    stats.l2_hits += 1
                return
            l2_known_miss = True
        else:
            l2_known_miss = False
        kind = _KIND_TABLE[kind_code]
        tracker = self.tracker
        prefetcher = self.prefetcher

        access = Access(kind, pc, addr, serial, inst, tid)
        requests: list[PrefetchRequest] = []

        # Prospective epoch membership: would this access overlap the
        # open epoch, or does it logically execute after its stall?
        # (EpochTracker.can_join, inlined — innermost branch of the path.)
        open_epoch = tracker.open_epoch
        if open_epoch is None:
            prospective = tracker.epoch_count
            joins = False
            reason = "first_miss"
        else:
            if serial:
                joins, reason = False, "serial_dependence"
            elif open_epoch.sealed:
                joins, reason = False, "instruction_miss_seal"
            elif inst - open_epoch.trigger_inst > tracker.rob_size:
                joins, reason = False, "rob_window"
            elif self.mshrs.has(line) or not self.mshrs.is_full:
                joins, reason = True, ""
            else:
                joins, reason = False, "mshr_full"
            prospective = open_epoch.index if joins else tracker.epoch_count
        # Wall-clock time of this access: instructions retired so far plus
        # all resolved stalls, plus the still-open epoch's stall if the
        # access can only execute after it resolves.
        cycle = inst * self._cpi_onchip + self._penalty_accum
        if open_epoch is not None and not joins:
            cycle += self._memory_latency

        # Every L1 miss is an L2 access the prefetcher control can see.
        if self._wants_access_stream:
            requests.extend(prefetcher.observe_access(access, line, prospective))

        result = hierarchy.access_after_l1_miss(access, line, None, cycle, l2_known_miss)
        if result.writeback_line is not None:
            # Dirty L2 victim: a memory write, visible to memory-side
            # prefetchers as part of the raw request stream.
            self._store_write_bytes += self._line_bytes
            if prefetcher is not None and prefetcher.observes_stores:
                wb_access = Access(
                    kind=AccessKind.STORE,
                    pc=0,
                    addr=result.writeback_line << self.hierarchy.line_shift,
                    inst_index=inst,
                )
                requests.extend(
                    prefetcher.observe_offchip_miss(
                        wb_access, result.writeback_line, None, False
                    )
                )
        if measuring:
            stats.l2_accesses += 1

        if result.outcome is AccessOutcome.L2_HIT:
            if measuring:
                stats.l2_hits += 1
            if requests:
                self._register_requests(requests, prospective, cycle)
            return

        if result.outcome is AccessOutcome.PREFETCH_HIT:
            if measuring:
                stats.prefetch_hits[kind] += 1
            if self.metrics is not None:
                issue = result.prefetch_issue_epoch
                self.metrics.prefetch_hit(prospective - issue if issue >= 0 else -1)
            if self.bus is not None and self.bus.wants(PrefetchHit):
                self.bus.emit(
                    PrefetchHit(
                        line=line,
                        epoch_index=prospective,
                        issue_epoch=result.prefetch_issue_epoch,
                        source=result.prefetch_source,
                        measured=measuring,
                        table_index=result.table_index,
                    )
                )
            if kind is not AccessKind.STORE:
                # An averted miss still marks the would-be epoch structure
                # the prefetcher tracks (paper Section 3.4.3: a prefetch
                # buffer hit substitutes for the first miss of a new epoch).
                first = self._interval_event(kind, serial, inst)
                if prefetcher is not None:
                    requests.extend(
                        prefetcher.observe_prefetch_hit(
                            access, line, result.table_index, prospective, first
                        )
                    )
            if requests:
                self._register_requests(requests, prospective, cycle)
            return

        # Genuine off-chip miss.
        if measuring:
            stats.offchip_misses[kind] += 1
            if result.late_prefetch:
                stats.late_prefetches += 1

        if kind is AccessKind.STORE:
            # Weak consistency: store misses never stall the window and
            # never create epochs; they only consume bandwidth.
            self._store_read_bytes += self._line_bytes
            self._store_write_bytes += self._line_bytes
            if requests:
                self._register_requests(requests, prospective, cycle)
            return

        if joins:
            self.mshrs.allocate(line)
            epoch = tracker.join(access, line)
        else:
            closed, epoch = tracker.open_new(access, line, reason)
            if closed is not None:
                self._process_epoch_close(closed, inst)
            if measuring:
                stats.epochs += 1
                if serial:
                    stats.serial_epochs += 1
            self.mshrs.allocate(line)

        is_trigger = self._interval_event(kind, serial, inst)
        if prefetcher is not None:
            requests.extend(
                prefetcher.observe_offchip_miss(access, line, epoch, is_trigger)
            )
        if requests:
            self._register_requests(requests, epoch.index if not joins else prospective, cycle)

    # ------------------------------------------------------------------
    # Would-be epoch (interval) tracking for the prefetcher
    # ------------------------------------------------------------------
    def _interval_event(self, kind: AccessKind, serial: bool, inst: int) -> bool:
        """Advance the would-be epoch structure on an off-chip-class event.

        Real misses *and* prefetch-buffer hits advance this structure: it
        is the epoch partitioning the program would exhibit without
        prefetching, which is what the prefetcher keys its correlation
        table on.  (With no prefetcher it coincides with the real epoch
        sequence.)  Returns True when the event opens a new interval —
        i.e. it is the (would-be) epoch trigger.
        """
        new_interval = (
            self._interval_trigger_inst is None
            or serial
            or self._interval_sealed
            or inst - self._interval_trigger_inst > self._rob_size
        )
        if new_interval:
            if self.prefetcher is not None and self._interval_trigger_inst is not None:
                boundary_requests = self.prefetcher.on_epoch_boundary(self.tracker.open_epoch)
                if boundary_requests:
                    self._register_requests(
                        boundary_requests,
                        self.tracker.epoch_count,
                        inst * self._cpi_onchip + self._penalty_accum,
                    )
            self._interval_trigger_inst = inst
            self._interval_sealed = False
        if kind is AccessKind.IFETCH:
            # An off-chip instruction miss terminates the window: nothing
            # after it can overlap into the same (would-be) epoch.
            self._interval_sealed = True
        return new_interval

    # ------------------------------------------------------------------
    # Prefetch registration
    # ------------------------------------------------------------------
    def _register_requests(
        self, requests: Iterable[PrefetchRequest], epoch_index: int, cycle: float
    ) -> None:
        for req in requests:
            if self._measuring:
                self.stats.prefetches_generated += 1
            # One miss penalty per pipeline step: the table read occupies
            # the first, the prefetch transfer the last (Section 3.2).
            ready_cycle = cycle + req.epochs_until_ready * self._memory_latency
            # Bandwidth is charged to the epoch window the request was
            # created in: that window's duration spans the wall time in
            # which the transfer occupies the bus.
            issue_epoch = epoch_index
            line = req.line_addr
            if not self.hierarchy.fill_prefetch(
                line, ready_cycle, req.table_index, req.source, issue_epoch
            ):
                if self._measuring:
                    self.stats.prefetches_redundant += 1
                continue
            req.issue_epoch = issue_epoch
            self._pending.append(_PendingTransfer(req, issue_epoch, line))

    # ------------------------------------------------------------------
    # Epoch close: timing + bandwidth accounting
    # ------------------------------------------------------------------
    def _process_epoch_close(self, closed: Epoch, now_inst: int) -> None:
        self.mshrs.drain()
        base_penalty = self._base_penalty
        bandwidth = self.bandwidth
        measuring = self._measuring
        span_insts = max(0, now_inst - closed.trigger_inst)
        duration = span_insts * self._cpi_onchip + base_penalty
        # Wall-clock position of the window, for the epoch timeline.
        start_cycle = closed.trigger_inst * self._cpi_onchip + self._penalty_accum
        budget = bandwidth.open_epoch(duration)
        line_bytes = self._line_bytes

        # 1. Demand fills (never droppable).
        budget.charge_read(Priority.DEMAND, closed.n_misses * line_bytes, droppable=False)
        if self._store_read_bytes:
            budget.charge_read(Priority.DEMAND, self._store_read_bytes, droppable=False)
            self._store_read_bytes = 0
        if self._store_write_bytes:
            budget.charge_write(Priority.DEMAND, self._store_write_bytes, droppable=False)
            self._store_write_bytes = 0

        # 2. Correlation-table traffic.
        if self.prefetcher is not None:
            lookup_r, update_r, update_w, lru_w = self.prefetcher.traffic.drain()
            if lookup_r:
                budget.charge_read(Priority.TABLE_LOOKUP, lookup_r, droppable=False)
            if update_r:
                budget.charge_read(Priority.TABLE_UPDATE, update_r, droppable=True)
            if update_w:
                budget.charge_write(Priority.TABLE_UPDATE, update_w)
            if lru_w:
                budget.charge_write(Priority.LRU_WRITEBACK, lru_w)
            if measuring:
                self.stats.table_read_bytes += lookup_r + update_r
                self.stats.table_write_bytes += update_w + lru_w

        # 3. Prefetch transfers whose window this is.
        if self._pending:
            still_pending: list[_PendingTransfer] = []
            for transfer in self._pending:
                if transfer.issue_epoch > closed.index:
                    still_pending.append(transfer)
                    continue
                self._charge_transfer(transfer, budget, line_bytes, closed.index)
            self._pending = still_pending

        bandwidth.close_epoch(budget)

        # 4. Effective penalty: queueing from this window's utilisation.
        queueing = bandwidth.queueing_delay(base_penalty)
        self._penalty_accum += base_penalty + queueing
        metrics = self.metrics
        emit = self.bus is not None and self.bus.wants(EpochClosed)
        if metrics is not None or emit:
            emab = getattr(self.prefetcher, "emab", None)
            emab_occupancy = emab.occupancy if emab is not None else -1
            buffer_occupancy = self.hierarchy.prefetch_buffer.occupancy
            if metrics is not None:
                metrics.epoch_closed(
                    closed.n_misses, duration, budget.read_utilization,
                    emab_occupancy, buffer_occupancy,
                )
            if emit:
                self.bus.emit(
                    EpochClosed(
                        epoch=closed,
                        index=closed.index,
                        n_misses=closed.n_misses,
                        start_cycle=start_cycle,
                        duration_cycles=duration,
                        read_utilization=budget.read_utilization,
                        queueing_cycles=queueing,
                        measured=measuring,
                        emab_occupancy=emab_occupancy,
                        buffer_occupancy=buffer_occupancy,
                    )
                )
        if measuring:
            stats = self.stats
            stats.offchip_cycles += base_penalty + queueing
            stats.queueing_cycles += queueing
            stats.read_bytes += int(budget.read_used)
            stats.write_bytes += int(budget.write_used)
            stats.read_budget_bytes += int(budget.read_budget)
            merged = stats.termination_reasons
            for reason, count in self.tracker.termination_reasons.items():
                merged[reason] = merged.get(reason, 0) + count
            self.tracker.termination_reasons.clear()
        else:
            self.tracker.termination_reasons.clear()

    def _charge_transfer(
        self,
        transfer: _PendingTransfer,
        budget: EpochBudget,
        line_bytes: int,
        window_epoch: int,
    ) -> None:
        bus = self.bus
        entry = self.hierarchy.prefetch_buffer.peek(transfer.line)
        # Consumed or already evicted: the transfer physically happened,
        # so it is charged unconditionally (never dropped).
        droppable = entry is not None and not entry.used
        if budget.charge_read(Priority.PREFETCH, line_bytes, droppable=droppable):
            if self._measuring:
                self.stats.prefetches_filled += 1
            if self.metrics is not None:
                self.metrics.prefetches_filled()
            if bus is not None and bus.wants(PrefetchFilled):
                bus.emit(
                    PrefetchFilled(
                        line=transfer.line,
                        issue_epoch=transfer.issue_epoch,
                        window_epoch=window_epoch,
                    )
                )
        else:
            self.hierarchy.prefetch_buffer.invalidate(transfer.line)
            if self._measuring:
                self.stats.prefetches_dropped += 1
            if self.metrics is not None:
                self.metrics.prefetches_dropped()
            if bus is not None and bus.wants(PrefetchDropped):
                bus.emit(
                    PrefetchDropped(
                        line=transfer.line,
                        reason="bandwidth",
                        source=transfer.request.source,
                    )
                )

    def _flush_pending(self, now_inst: int) -> None:
        """Charge transfers still pending at end of trace."""
        duration = self._base_penalty
        budget = self.bandwidth.open_epoch(duration)
        for transfer in self._pending:
            self._charge_transfer(
                transfer, budget, self._line_bytes, self.tracker.epoch_count
            )
        self._pending.clear()
        self.bandwidth.close_epoch(budget)
