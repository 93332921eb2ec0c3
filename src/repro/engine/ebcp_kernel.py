"""Epoch-batched execution kernel for the no-prefetch baseline, EBCP and
every other scheme that sets ``supports_epoch_batch``.

The scalar simulator spends most of a run re-deriving facts that are
pure functions of the trace and the cache geometry: the L2 outcome of
every L1 miss, the victim each install evicts, the would-be epoch
(interval) boundaries, and the EMAB's entire contents (the buffer records
every non-store off-chip-class event in stream order, so its state at any
boundary — and therefore every training view it will ever emit — is known
before the run starts).  :mod:`repro.engine.filter_plane` precomputes all
of that once per (trace, geometry) as an :class:`EpochSegmentPlane`.

What remains genuinely dynamic is the feedback loop through the
correlation table and the prefetch buffer: a table lookup issues
prefetches, a later demand access may hit the staged line, the hit
refreshes the producing table entry's LRU stamp (``touch``), which
changes what later training steps evict — so table and buffer state
cannot be precomputed.  This kernel walks only the L2-*missing* records
(the L2-hit majority of the miss stream collapses into the precomputed
plane) and replays the exact operation sequence of
``EpochSimulator._step_miss`` with every piece of mutable state held in
plain locals: the correlation table's dicts, the bandwidth model's
budget arithmetic and the traffic meter are inlined against the same
data the real objects own, performing the identical Python float and
dict operations in the identical order — bit-identical results, enforced
by kernel-vs-scalar identity tests across every workload family.

With no prefetcher the walk leaves out the table, buffer and traffic
work and keeps epochs, MSHRs, bandwidth and the interval triggers.

Any other flagged scheme (GHB, Solihin, TCP, stream, SMS) runs its own
``observe_access``, ``observe_offchip_miss`` and ``observe_prefetch_hit``
at the sites where ``_step_miss`` calls them, in the same order, and its
requests go through the same buffer shadow, pending transfers and
epoch-close budget code as EBCP's candidates.  This is sound because the
:class:`~repro.prefetchers.base.Prefetcher` contract has such hooks read
only their arguments and their own state, and every scheme stages its
prefetches in the prefetch buffer, never in the L2: L2 contents, victims
and interval triggers stay the ones the segment plane precomputed.  A
scheme that overrides ``observe_access`` sees every L1 miss, so its walk
also visits the plane's L2 hits (:meth:`EpochSegmentPlane.hook_columns`).

At the end of the run the simulator's objects (L2 contents, prefetch
buffer, MSHRs, EMAB, epoch tracker, correlation-table stats, bus stats,
pending transfers) are restored to exactly the state the scalar walk
would have left, so ``_finish_run`` — and any later scalar run on the
same simulator — behaves identically.  A hooked scheme's own state, its
issued-request count and its traffic meter are live throughout, so only
the buffer and the pending transfers are restored for it.

Run-fed metrics (``EpochSimulator(metrics=...)``) are reported from the
kernel's locals at the same points the scalar walk reports them: each
epoch close, prefetch hit, transfer fill or drop and budget refusal.
The run-level counts come from the lifetime counters synced back below.

``REPRO_KERNEL=0/off`` forces the scalar filter-plane walk;
:func:`kernel_fallback_cause` names why a run cannot use the kernel, and
the simulator reports it to its metrics and as a ``KernelFallback``
observability event.
"""

from __future__ import annotations

import logging
from itertools import repeat
from typing import TYPE_CHECKING, Any, Optional

from ..core.correlation_table import _HASH_MASK, _HASH_MULT
from ..core.prefetcher import EpochBasedCorrelationPrefetcher
from ..memory.prefetch_buffer import BufferEntry
from ..memory.request import Access, AccessKind, PrefetchRequest, Priority
from ..prefetchers.base import Prefetcher
from .epoch import Epoch
from .filter_plane import get_epoch_segments, get_filter_plane, kernel_enabled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import EpochSimulator

__all__ = ["kernel_enabled", "kernel_fallback_cause", "run_epoch_batched"]

log = logging.getLogger(__name__)

_KIND_OBJS = (AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE)


def kernel_fallback_cause(sim: "EpochSimulator") -> Optional[str]:
    """Why the epoch-batched kernel cannot run this simulation.

    Returns ``None`` when the kernel is usable.  The checks mirror the
    kernel's assumptions: the scheme sets ``supports_epoch_batch`` and
    keeps ``on_epoch_boundary`` a no-op, the kernel never calls it
    (``unsupported_prefetcher``); EBCP's inlined replay is exact for the
    unmodified class only (``subclassed_prefetcher``); the kernel emits
    no events (an attached bus wants every one, so ``bus_attached``;
    run-fed metrics need no bus and keep the kernel); and it precomputes
    the epoch segmentation, and EBCP's training views, from a cold start
    (a warm simulator takes the scalar path).
    """
    prefetcher = sim.prefetcher
    ebcp = None
    if prefetcher is not None:
        if not prefetcher.supports_epoch_batch:
            return "unsupported_prefetcher"
        if isinstance(prefetcher, EpochBasedCorrelationPrefetcher):
            if type(prefetcher) is not EpochBasedCorrelationPrefetcher:
                return "subclassed_prefetcher"
            ebcp = prefetcher
        elif type(prefetcher).on_epoch_boundary is not Prefetcher.on_epoch_boundary:
            return "unsupported_prefetcher"
    if not kernel_enabled():
        return "disabled"
    if sim.bus is not None:
        return "bus_attached"
    if ebcp is not None and not ebcp.is_active:
        return "prefetcher_inactive"
    emab = ebcp.emab if ebcp is not None else None
    if (
        sim.tracker.open_epoch is not None
        or sim.tracker.epoch_count != 0
        or sim._interval_trigger_inst is not None
        or sim._pending
        or sim._penalty_accum != 0.0
        or sim._store_read_bytes
        or sim._store_write_bytes
        or sim.mshrs.outstanding
        or sim.hierarchy.l2.occupancy
        or sim.hierarchy.prefetch_buffer.occupancy
        or (emab is not None and (emab.occupancy != 0 or emab.filled_entries != 1))
    ):
        return "warm_state"
    return None


def run_epoch_batched(
    sim: "EpochSimulator", trace: Any, warmup_records: int, n: int
):
    """Run the trace through the epoch-batched kernel.

    The caller (``EpochSimulator.run``) has validated the preconditions
    via :func:`kernel_fallback_cause`.  The stock EBCP class takes the
    inlined table walk; any other scheme runs its own hooks.
    """
    hierarchy = sim.hierarchy
    prefetcher = sim.prefetcher
    plane = get_filter_plane(
        trace, hierarchy.l1i.geometry_key(), hierarchy.l1d.geometry_key()
    )
    seg = get_epoch_segments(trace, plane, hierarchy.l2.geometry_key(), sim._rob_size)
    ebcp = type(prefetcher) is EpochBasedCorrelationPrefetcher
    hooked = prefetcher is not None and not ebcp
    # A hooked scheme's overridden hooks; the base no-ops are never called.
    access_hook = miss_hook = hit_hook = None
    observes_stores = False
    if hooked:
        scheme = type(prefetcher)
        if scheme.observe_access is not Prefetcher.observe_access:
            access_hook = prefetcher.observe_access
        if scheme.observe_offchip_miss is not Prefetcher.observe_offchip_miss:
            miss_hook = prefetcher.observe_offchip_miss
        if scheme.observe_prefetch_hit is not Prefetcher.observe_prefetch_hit:
            hit_hook = prefetcher.observe_prefetch_hit
        observes_stores = prefetcher.observes_stores and miss_hook is not None
        line_shift = hierarchy.line_shift
        store_kind = AccessKind.STORE
        traffic_drain = prefetcher.traffic.drain

    n_misses = plane.n_misses
    n_walk = seg.n_walk
    split = plane.miss_count_before(warmup_records)
    boundary = seg.walk_count_before(split)
    if hooked:
        # A scheme that observes every L2 access walks the L2 hits too,
        # and its warm-up boundary is an L1-miss index.
        columns, h_addrs, h_tids, l2_hits = seg.hook_columns(
            trace, plane, access_hook is not None
        )
        if access_hook is not None:
            boundary = split
    else:
        columns = seg.walk_columns(trace, plane)
    inst_prefix = plane.inst_prefix
    total_inst = int(inst_prefix[n])
    measure_start_inst = int(inst_prefix[warmup_records])

    # ------------------------------------------------------------------
    # Hot-loop locals.  Everything below mirrors a field of a simulator
    # object; the sync-back section at the end is the single place where
    # local state flows back into those objects.
    # ------------------------------------------------------------------
    sim._measuring = False
    measuring = False
    # Run-fed metrics (None: a single check per reporting site).
    metrics = sim.metrics

    cpi = sim._cpi_onchip
    mem_lat = sim._memory_latency
    base_penalty = sim._base_penalty
    line_bytes = sim._line_bytes
    rob_size = sim._rob_size
    pacc = sim._penalty_accum

    # Epoch tracker state as plain scalars; the open Epoch object is
    # reconstructed at the end of the run.
    ep_open = False
    ep_index = 0
    ep_trigger_line = 0
    ep_trigger_kind = 0
    ep_trigger_pc = 0
    ep_trigger_inst = 0
    ep_sealed = False
    ep_lines: list = []
    ep_kind_codes: list = []
    epoch_count = sim.tracker.epoch_count
    term = sim.tracker.termination_reasons  # mutated in place, like the scalar path

    # Interval state (final values synced back; the per-event trigger
    # decision itself comes precomputed from the segment plane).
    itrig: Optional[int] = None
    isealed = False
    boundary_ordinal = 0

    # MSHR file as a plain set plus counters.
    mshr_cap = sim.mshrs.capacity
    ms: set = set()
    ms_add = ms.add
    n_mshr_alloc = 0
    n_mshr_merge = 0

    # L2 residency: the real cache object stays untouched during the walk
    # (its exact final contents come from the segment plane); the kernel
    # only needs membership for prefetch redundancy filtering.
    resident: set = set()
    res_add = resident.add
    res_discard = resident.discard

    # Prefetch buffer shadow: per-set dicts of line -> mutable
    # [ready_cycle, table_index, last_use, issue_epoch] entries.
    buffer = hierarchy.prefetch_buffer
    bways = buffer.ways
    bmask = buffer._set_mask
    bsets: list = [dict() for _ in range(buffer.n_sets)]
    bstamp = buffer._stamp
    b_fills = b_hits = b_late = b_evictions = b_evicted_unused = b_drops = 0

    # Pending bus transfers as (issue_epoch, line, table_index, request)
    # tuples; the request is a hooked scheme's own, None for EBCP.
    pending: list = []
    pending_append = pending.append

    store_read = sim._store_read_bytes
    store_write = sim._store_write_bytes

    # Bandwidth model: the per-close budget arithmetic of
    # EpochBudget/BandwidthModel.close_epoch/queueing_delay, inlined with
    # the identical float-operation sequence.  Per-priority byte accounts
    # mirror BusStats and are merged into the live objects at the end.
    bandwidth = sim.bandwidth
    read_bpc = bandwidth.read_bytes_per_cycle
    write_bpc = bandwidth.write_bytes_per_cycle
    q_threshold = bandwidth.queue_threshold
    q_factor = bandwidth.queue_penalty_factor
    ema_alpha = bandwidth.EMA_ALPHA
    ema = bandwidth._ema_read_utilization
    last_util = bandwidth._last_read_utilization
    r_by: dict = {}
    r_drop: dict = {}
    w_by: dict = {}
    w_drop: dict = {}
    r_used_total = 0
    w_used_total = 0
    r_budget_total = 0
    w_budget_total = 0
    iD = int(Priority.DEMAND)
    iL = int(Priority.TABLE_LOOKUP)
    iP = int(Priority.PREFETCH)
    iU = int(Priority.TABLE_UPDATE)
    iW = int(Priority.LRU_WRITEBACK)

    # Only EBCP has training views and an inlined table; otherwise these
    # stay zero (a hooked scheme's own traffic meter is drained live).
    n_lookups = n_lookup_hits = n_touches = 0
    tm_lookup_r = tm_update_r = tm_update_w = tm_lru_w = 0
    tm_total_r = tm_total_w = 0
    tm_reads = tm_writes = 0
    n_issued = n_suppressed = 0
    emab_occupancy = None
    # A hooked scheme's requests for the current record (empty otherwise).
    reqs: list = []
    l2_hit = False
    if ebcp:
        cfg = prefetcher.config
        emab_key = (cfg.skip_epochs, cfg.stored_epochs, cfg.emab_capacity_per_epoch)
        views, view_entries, emab_overflow = seg.training_views(trace, plane, *emab_key)
        if metrics is not None:
            emab_occupancy = seg.emab_occupancy(trace, plane, *emab_key)

        # Correlation table: lookup and touch inlined against its own
        # dicts (CorrelationTable semantics, including the shared LRU
        # stamp); train is the table's own method, which counts its own
        # stats.
        table = prefetcher.table
        tbl_tags = table._tags
        tbl_addrs = table._addrs
        tbl_n = table.n_entries
        tbl_stamp = table._stamp
        table_train = table.train

        # Traffic meter (TrafficMeter add_*/drain), as pending + total locals.
        traffic = prefetcher.traffic
        tm_lookup_r = traffic.lookup_read_bytes
        tm_update_r = traffic.update_read_bytes
        tm_update_w = traffic.update_write_bytes
        tm_lru_w = traffic.lru_write_bytes

        in_memory = cfg.table_in_memory
        entry_bytes = cfg.entry_bytes
        degree = cfg.prefetch_degree
        ready_mul = (2 if in_memory else 1) * mem_lat

    # Measured-region statistics as plain locals, reset at the warm-up
    # boundary and folded into the fresh SimulationStats at the end.
    of_counts = [0, 0, 0]  # offchip_misses by kind code
    ph_counts = [0, 0, 0]  # prefetch_hits by kind code
    s_late = 0
    s_epochs = 0
    s_serial_epochs = 0
    s_generated = 0
    s_filled = 0
    s_redundant = 0
    s_dropped = 0
    s_offchip_cycles = 0.0
    s_queueing_cycles = 0.0
    s_read_bytes = 0
    s_write_bytes = 0
    s_read_budget = 0
    s_table_r = 0
    s_table_w = 0
    term_merged: dict = {}

    for i, (kc, pc, serial, inst, line, victim, vdirty, trig) in enumerate(zip(*columns)):
        if i == boundary and not measuring and warmup_records < n:
            # Warm-up / measurement boundary: the scalar path swaps in
            # fresh stats objects; here the locals reset instead.
            sim._begin_measurement()
            measuring = True
            of_counts = [0, 0, 0]
            ph_counts = [0, 0, 0]
            s_late = s_epochs = s_serial_epochs = 0
            s_generated = s_filled = s_redundant = s_dropped = 0
            s_offchip_cycles = s_queueing_cycles = 0.0
            s_read_bytes = s_write_bytes = s_read_budget = 0
            s_table_r = s_table_w = 0
            term_merged = {}
            r_by = {}
            r_drop = {}
            w_by = {}
            w_drop = {}
            r_used_total = w_used_total = 0
            r_budget_total = w_budget_total = 0

        # Prospective epoch membership (EpochTracker.can_join, inlined).
        if not ep_open:
            prospective = epoch_count
            joins = False
            reason = "first_miss"
        else:
            if serial:
                joins, reason = False, "serial_dependence"
            elif ep_sealed:
                joins, reason = False, "instruction_miss_seal"
            elif inst - ep_trigger_inst > rob_size:
                joins, reason = False, "rob_window"
            elif line in ms or len(ms) < mshr_cap:
                joins, reason = True, ""
            else:
                joins, reason = False, "mshr_full"
            prospective = ep_index if joins else epoch_count
        cycle = inst * cpi + pacc
        if ep_open and not joins:
            cycle += mem_lat

        if hooked:
            # The record's Access, as _step_miss builds it; a scheme that
            # observes every L2 access sees it before the buffer probe.
            access = Access(_KIND_OBJS[kc], pc, h_addrs[i], serial, inst, h_tids[i])
            reqs = []
            if access_hook is not None:
                reqs += access_hook(access, line, prospective)
                l2_hit = l2_hits[i]

        # Prefetch-buffer probe (PrefetchBuffer.lookup, inlined) and the
        # L2 install, whose outcome the segment plane precomputed.  An L2
        # hit probes nothing, and its line is resident with no victim.
        bucket = bsets[line & bmask]
        hit_entry = None if l2_hit else bucket.get(line)
        late = False
        if hit_entry is not None:
            if hit_entry[0] <= cycle:
                del bucket[line]
                b_hits += 1
                if metrics is not None:
                    metrics.prefetch_hit(prospective - hit_entry[3])
            else:
                hit_entry = None
                late = True
                b_late += 1
        res_add(line)
        if victim >= 0:
            res_discard(victim)
            if vdirty:
                store_write += line_bytes
                if observes_stores:
                    # A memory-side scheme sees the dirty writeback.
                    wb_access = Access(store_kind, 0, victim << line_shift, inst_index=inst)
                    reqs += miss_hook(wb_access, victim, None, False)

        cand = None
        if hit_entry is not None:
            # ---------------- PREFETCH_HIT ----------------
            ph_counts[kc] += 1
            if kc != 2:
                if trig:
                    if ebcp and boundary_ordinal:
                        view = views[boundary_ordinal]
                        if view is not None:
                            # The table mutates its dicts in place; only
                            # the shared LRU stamp lives in a local.
                            table._stamp = tbl_stamp
                            table_train(view[0], view[1])
                            tbl_stamp = table._stamp
                            if in_memory:
                                tm_update_r += entry_bytes
                                tm_update_w += entry_bytes
                                tm_total_r += entry_bytes
                                tm_total_w += entry_bytes
                                tm_reads += 1
                                tm_writes += 1
                    boundary_ordinal += 1
                    itrig = inst
                    isealed = False
                if kc == 0:
                    isealed = True
                if hooked:
                    if hit_hook is not None:
                        reqs += hit_hook(access, line, hit_entry[1], prospective, trig)
                else:
                    # observe_prefetch_hit: the EMAB record is precomputed;
                    # table.touch refreshes the producing entry's LRU stamp.
                    ti = hit_entry[1]
                    if ti is not None:
                        n_touches += 1
                        addrs = tbl_addrs.get(ti)
                        if addrs is not None and line in addrs:
                            tbl_stamp += 1
                            addrs[line] = tbl_stamp
                            if in_memory:
                                tm_lru_w += entry_bytes
                                tm_total_w += entry_bytes
                                tm_writes += 1
                    if trig:
                        # _lookup_and_issue: table.lookup(line), inlined.
                        if in_memory:
                            tm_lookup_r += entry_bytes
                            tm_total_r += entry_bytes
                            tm_reads += 1
                        n_lookups += 1
                        ti = ((line * _HASH_MULT) & _HASH_MASK) % tbl_n
                        if tbl_tags.get(ti) == line:
                            n_lookup_hits += 1
                            addrs = tbl_addrs[ti]
                            cand = sorted(addrs, key=addrs.__getitem__, reverse=True)
        elif l2_hit:
            # An L2 hit (only a walk of every L2 access has them): only
            # the requests observe_access returned register.
            pass
        elif kc == 2:
            # ---------------- genuine store miss ----------------
            # Weak consistency: stores only consume bandwidth.
            of_counts[2] += 1
            if late:
                s_late += 1
            store_read += line_bytes
            store_write += line_bytes
        else:
            # ---------------- genuine off-chip miss ----------------
            of_counts[kc] += 1
            if late:
                s_late += 1
            if joins:
                if line in ms:
                    n_mshr_merge += 1
                else:
                    ms_add(line)
                    n_mshr_alloc += 1
                ep_lines.append(line)
                ep_kind_codes.append(kc)
                if kc == 0:
                    ep_sealed = True
            else:
                term[reason] = term.get(reason, 0) + 1
                if ep_open:
                    # ---- close the open epoch (_process_epoch_close +
                    # EpochBudget charges, inlined) ----
                    ms.clear()
                    span = inst - ep_trigger_inst
                    if span < 0:
                        span = 0
                    duration = span * cpi + base_penalty
                    rb = duration * read_bpc
                    wb = duration * write_bpc
                    r_budget_total += int(rb)
                    w_budget_total += int(wb)
                    r_used = 0.0
                    w_used = 0.0
                    nb = len(ep_lines) * line_bytes
                    r_used += nb
                    r_by[iD] = r_by.get(iD, 0) + nb
                    r_used_total += nb
                    if store_read:
                        r_used += store_read
                        r_by[iD] = r_by.get(iD, 0) + store_read
                        r_used_total += store_read
                        store_read = 0
                    if store_write:
                        w_used += store_write
                        w_by[iD] = w_by.get(iD, 0) + store_write
                        w_used_total += store_write
                        store_write = 0
                    if hooked:
                        lookup_r, update_r, update_w, lru_w = traffic_drain()
                    else:
                        # TrafficMeter.drain()
                        lookup_r, update_r = tm_lookup_r, tm_update_r
                        update_w, lru_w = tm_update_w, tm_lru_w
                        tm_lookup_r = tm_update_r = tm_update_w = tm_lru_w = 0
                    if lookup_r:
                        r_used += lookup_r
                        r_by[iL] = r_by.get(iL, 0) + lookup_r
                        r_used_total += lookup_r
                    if update_r:
                        if r_used + update_r > rb:
                            r_drop[iU] = r_drop.get(iU, 0) + update_r
                            if metrics is not None:
                                metrics.budget_refused(r_used / rb if rb else 0.0)
                        else:
                            r_used += update_r
                            r_by[iU] = r_by.get(iU, 0) + update_r
                            r_used_total += update_r
                    if update_w:
                        if w_used + update_w > wb:
                            w_drop[iU] = w_drop.get(iU, 0) + update_w
                            if metrics is not None:
                                metrics.budget_refused(w_used / wb if wb else 0.0)
                        else:
                            w_used += update_w
                            w_by[iU] = w_by.get(iU, 0) + update_w
                            w_used_total += update_w
                    if lru_w:
                        if w_used + lru_w > wb:
                            w_drop[iW] = w_drop.get(iW, 0) + lru_w
                            if metrics is not None:
                                metrics.budget_refused(w_used / wb if wb else 0.0)
                        else:
                            w_used += lru_w
                            w_by[iW] = w_by.get(iW, 0) + lru_w
                            w_used_total += lru_w
                    s_table_r += lookup_r + update_r
                    s_table_w += update_w + lru_w
                    if pending:
                        still: list = []
                        still_append = still.append
                        for tr in pending:
                            if tr[0] > ep_index:
                                still_append(tr)
                                continue
                            tline = tr[1]
                            tb = bsets[tline & bmask]
                            if tline in tb and r_used + line_bytes > rb:
                                # Still staged and over budget: dropped.
                                r_drop[iP] = r_drop.get(iP, 0) + line_bytes
                                del tb[tline]
                                s_dropped += 1
                                b_drops += 1
                                if metrics is not None:
                                    metrics.budget_refused(r_used / rb if rb else 0.0)
                                    metrics.prefetches_dropped()
                            else:
                                # Within budget, or consumed / evicted
                                # (the transfer physically happened).
                                r_used += line_bytes
                                r_by[iP] = r_by.get(iP, 0) + line_bytes
                                r_used_total += line_bytes
                                s_filled += 1
                                if metrics is not None:
                                    metrics.prefetches_filled()
                        pending = still
                        pending_append = pending.append
                    # close_epoch + queueing_delay
                    last_util = r_used / rb if rb else 0.0
                    ema += ema_alpha * (last_util - ema)
                    over = ema - q_threshold
                    if over <= 0:
                        queueing = 0.0
                    else:
                        q_span = 1.0 - q_threshold
                        if q_span < 1e-9:
                            q_span = 1e-9
                        q_ratio = over / q_span
                        if q_ratio > 2.0:
                            q_ratio = 2.0
                        queueing = base_penalty * q_factor * q_ratio
                    pacc += base_penalty + queueing
                    if metrics is not None:
                        metrics.epoch_closed(
                            len(ep_lines), duration, last_util,
                            -1 if emab_occupancy is None else emab_occupancy[i],
                            b_fills - b_hits - b_evictions - b_drops,
                        )
                    s_offchip_cycles += base_penalty + queueing
                    s_queueing_cycles += queueing
                    s_read_bytes += int(r_used)
                    s_write_bytes += int(w_used)
                    s_read_budget += int(rb)
                    for r, c in term.items():
                        term_merged[r] = term_merged.get(r, 0) + c
                    term.clear()
                # ---- open the new epoch ----
                ep_open = True
                ep_index = epoch_count
                ep_trigger_line = line
                ep_trigger_kind = kc
                ep_trigger_pc = pc
                ep_trigger_inst = inst
                ep_lines = [line]
                ep_kind_codes = [kc]
                ep_sealed = kc == 0
                epoch_count += 1
                s_epochs += 1
                if serial:
                    s_serial_epochs += 1
                # MSHR allocation happens after the close drained the file.
                if line in ms:
                    n_mshr_merge += 1
                else:
                    ms_add(line)
                    n_mshr_alloc += 1
            # _interval_event + observe_offchip_miss (EMAB precomputed).
            if trig:
                if ebcp:
                    if boundary_ordinal:
                        view = views[boundary_ordinal]
                        if view is not None:
                            # The table mutates its dicts in place; only
                            # the shared LRU stamp lives in a local.
                            table._stamp = tbl_stamp
                            table_train(view[0], view[1])
                            tbl_stamp = table._stamp
                            if in_memory:
                                tm_update_r += entry_bytes
                                tm_update_w += entry_bytes
                                tm_total_r += entry_bytes
                                tm_total_w += entry_bytes
                                tm_reads += 1
                                tm_writes += 1
                    # _lookup_and_issue: table.lookup(line), inlined.
                    if in_memory:
                        tm_lookup_r += entry_bytes
                        tm_total_r += entry_bytes
                        tm_reads += 1
                    n_lookups += 1
                    ti = ((line * _HASH_MULT) & _HASH_MASK) % tbl_n
                    if tbl_tags.get(ti) == line:
                        n_lookup_hits += 1
                        addrs = tbl_addrs[ti]
                        cand = sorted(addrs, key=addrs.__getitem__, reverse=True)
                boundary_ordinal += 1
                itrig = inst
                isealed = False
            else:
                n_suppressed += 1
            if kc == 0:
                isealed = True
            if miss_hook is not None:
                reqs += miss_hook(access, line, None, trig)

        # make_request + _register_requests, inlined against the buffer
        # shadow.  Every request of a record registers with the same epoch
        # index: the prospective epoch (== the new epoch's index when one
        # was just opened).  EBCP's candidates share one table index and
        # readiness; a hooked scheme's requests carry their own.
        if cand is not None:
            cand = cand[:degree]
            n_issued += len(cand)
            fills = zip(cand, repeat(cycle + ready_mul), repeat(ti), repeat(None))
        elif reqs:
            fills = [
                (req.line_addr, cycle + req.epochs_until_ready * mem_lat, req.table_index, req)
                for req in reqs
            ]
        else:
            continue
        for pline, rc, pti, req in fills:
            s_generated += 1
            if pline in resident:
                s_redundant += 1
                continue
            b = bsets[pline & bmask]
            bstamp += 1
            existing = b.get(pline)
            if existing is not None:
                # Refresh: earliest readiness wins, LRU stamp updates.
                if rc < existing[0]:
                    existing[0] = rc
                existing[2] = bstamp
            else:
                if len(b) >= bways:
                    vmin = -1
                    vline = -1
                    for bl, be in b.items():
                        lu = be[2]
                        if vmin < 0 or lu < vmin:
                            vmin = lu
                            vline = bl
                    del b[vline]
                    b_evictions += 1
                    b_evicted_unused += 1
                b[pline] = [rc, pti, bstamp, prospective]
                b_fills += 1
            if req is not None:
                req.issue_epoch = prospective
            pending_append((prospective, pline, pti, req))

    if not measuring and warmup_records < n:
        # Boundary past the last walk item: reset for the measured region.
        sim._begin_measurement()
        measuring = True
        of_counts = [0, 0, 0]
        ph_counts = [0, 0, 0]
        s_late = s_epochs = s_serial_epochs = 0
        s_generated = s_filled = s_redundant = s_dropped = 0
        s_offchip_cycles = s_queueing_cycles = 0.0
        s_read_bytes = s_write_bytes = s_read_budget = 0
        s_table_r = s_table_w = 0
        term_merged = {}
        r_by = {}
        r_drop = {}
        w_by = {}
        w_drop = {}
        r_used_total = w_used_total = 0
        r_budget_total = w_budget_total = 0

    # ------------------------------------------------------------------
    # Sync every piece of state back to the simulator's real objects so
    # _finish_run — and any subsequent scalar use of this simulator —
    # observes exactly what the scalar walk would have left behind.
    # ------------------------------------------------------------------
    if measuring:
        stats = sim.stats
        stats.accesses = n - warmup_records
        stats.l1i_hits = int(
            plane.l1i_hit_prefix[n] - plane.l1i_hit_prefix[warmup_records]
        )
        stats.l1d_hits = int(
            plane.l1d_hit_prefix[n] - plane.l1d_hit_prefix[warmup_records]
        )
        stats.l2_accesses = n_misses - split
        stats.l2_hits = seg.l2_hits_in(split, n_misses)
        offchip = stats.offchip_misses
        phits = stats.prefetch_hits
        for code, kind in enumerate(_KIND_OBJS):
            offchip[kind] += of_counts[code]
            phits[kind] += ph_counts[code]
        stats.late_prefetches += s_late
        stats.epochs += s_epochs
        stats.serial_epochs += s_serial_epochs
        stats.prefetches_generated += s_generated
        stats.prefetches_filled += s_filled
        stats.prefetches_redundant += s_redundant
        stats.prefetches_dropped += s_dropped
        stats.offchip_cycles += s_offchip_cycles
        stats.queueing_cycles += s_queueing_cycles
        stats.read_bytes += s_read_bytes
        stats.write_bytes += s_write_bytes
        stats.read_budget_bytes += s_read_budget
        stats.table_read_bytes += s_table_r
        stats.table_write_bytes += s_table_w
        merged = stats.termination_reasons
        for r, c in term_merged.items():
            merged[r] = merged.get(r, 0) + c

    sim._penalty_accum = pacc
    sim._store_read_bytes = store_read
    sim._store_write_bytes = store_write
    sim._interval_trigger_inst = itrig
    sim._interval_sealed = isealed

    # Bandwidth model: EMA feedback plus the (post-boundary) bus stats.
    bandwidth._last_read_utilization = last_util
    bandwidth._ema_read_utilization = ema
    for shadow_by, shadow_drop, bus_stats, used, budget in (
        (r_by, r_drop, bandwidth.read_stats, r_used_total, r_budget_total),
        (w_by, w_drop, bandwidth.write_stats, w_used_total, w_budget_total),
    ):
        bus_stats.used_bytes += used
        bus_stats.budget_bytes += budget
        by = bus_stats.bytes_by_priority
        for k, v in shadow_by.items():
            by[k] = by.get(k, 0) + v
        dropped = bus_stats.dropped_by_priority
        for k, v in shadow_drop.items():
            dropped[k] = dropped.get(k, 0) + v

    mshrs = sim.mshrs
    mshrs._lines.clear()
    mshrs._lines.update(ms)
    mshrs.stats.allocations += n_mshr_alloc
    mshrs.stats.merges += n_mshr_merge

    # L2: adopt the precomputed final contents (stamps are stream
    # positions + 1, shifted by whatever the global stamp already was).
    l2 = hierarchy.l2
    final_lines, final_stamps, final_dirty = seg.final_state
    l2_sets = l2._sets
    l2_tshift = l2._tag_shift
    l2_smask = l2._set_mask
    stamp_base = l2._stamp
    for fline, fstamp in zip(final_lines.tolist(), final_stamps.tolist()):
        l2_sets[fline & l2_smask][fline >> l2_tshift] = stamp_base + fstamp
    l2._stamp = stamp_base + n_misses  # each miss record bumps it exactly once
    l2._dirty.update(final_lines[final_dirty].tolist())
    l2.stats.hits += int(seg.l2_hit_prefix[n_misses])
    l2.stats.misses += n_walk
    l2.stats.insertions += n_walk
    l2.stats.evictions += seg.n_evictions

    if ebcp:
        # A hooked scheme's own state, issued-request count and traffic
        # meter were live throughout; EBCP's inlined copies sync here.
        prefetcher.issued_requests += n_issued
        prefetcher.lookups_suppressed += n_suppressed

        # Correlation table: stamp + stats (the dicts were mutated in place).
        table._stamp = tbl_stamp
        tstats = table.stats
        tstats.lookups += n_lookups
        tstats.lookup_hits += n_lookup_hits
        tstats.touches += n_touches

        # Traffic meter: pending (undrained) bytes + lifetime totals.
        traffic.lookup_read_bytes = tm_lookup_r
        traffic.update_read_bytes = tm_update_r
        traffic.update_write_bytes = tm_update_w
        traffic.lru_write_bytes = tm_lru_w
        traffic.total_read_bytes += tm_total_r
        traffic.total_write_bytes += tm_total_w
        traffic.total_reads += tm_reads
        traffic.total_writes += tm_writes

        # EMAB end-of-run state: the capped entries of the trailing intervals.
        if boundary_ordinal:
            emab = prefetcher.emab
            tail = view_entries[max(0, boundary_ordinal - emab.depth) : boundary_ordinal]
            emab.restore(
                [list(entry) for entry in tail], emab.overflow_drops + emab_overflow
            )

        # The requests EBCP's candidates stand for.
        epochs_until_ready = 2 if in_memory else 1
        pending = [
            (
                tie,
                tline,
                tindex,
                PrefetchRequest(
                    line_addr=tline,
                    epochs_until_ready=epochs_until_ready,
                    priority=Priority.PREFETCH,
                    table_index=tindex,
                    source=prefetcher.name,
                    issue_epoch=tie,
                ),
            )
            for tie, tline, tindex, _ in pending
        ]

    if prefetcher is not None:
        # Without a prefetcher the prefetch buffer and the pending
        # transfers were never touched.
        buffer._stamp = bstamp
        bstats = buffer.stats
        bstats.fills += b_fills
        bstats.hits += b_hits
        bstats.late_hits += b_late
        bstats.evictions += b_evictions
        bstats.evicted_unused += b_evicted_unused
        pf_name = prefetcher.name
        real_sets = buffer._sets
        for set_index, shadow in enumerate(bsets):
            if shadow:
                real_set = real_sets[set_index]
                for bl, be in shadow.items():
                    real_set[bl] = BufferEntry(
                        line=bl,
                        ready_cycle=be[0],
                        table_index=be[1],
                        source=pf_name,
                        last_use=be[2],
                        issue_epoch=be[3],
                    )

        from .simulator import _PendingTransfer

        sim._pending = [_PendingTransfer(req, tie, tline) for tie, tline, _, req in pending]

    tracker = sim.tracker
    tracker.epoch_count = epoch_count
    if ep_open:
        epoch = Epoch(
            index=ep_index,
            trigger_line=ep_trigger_line,
            trigger_kind=_KIND_OBJS[ep_trigger_kind],
            trigger_pc=ep_trigger_pc,
            trigger_inst=ep_trigger_inst,
        )
        epoch.miss_lines = ep_lines
        epoch.miss_kinds = [_KIND_OBJS[k] for k in ep_kind_codes]
        epoch.sealed = ep_sealed
        tracker.open_epoch = epoch
    else:
        tracker.open_epoch = None

    sim.last_run_path = "epoch_kernel"
    return sim._finish_run(trace, total_inst, measure_start_inst)
