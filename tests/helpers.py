"""Plain helper functions shared across test modules."""

from __future__ import annotations

from repro.memory.request import Access, AccessKind


def make_access(
    addr: int,
    kind: AccessKind = AccessKind.LOAD,
    pc: int = 0x1000,
    serial: bool = False,
    inst_index: int = 0,
) -> Access:
    return Access(kind=kind, pc=pc, addr=addr, serial=serial, inst_index=inst_index)


def line_addr(line: int, line_size: int = 64) -> int:
    """Byte address of a line number."""
    return line * line_size


def walk_every_record(sim, trace, warmup_records=None):
    """Reference walk: step every trace record through the live L1s.

    The oracle for ``EpochSimulator.run``.  Each record probes its L1
    (``l1i`` for instruction fetches, ``l1d`` otherwise); a hit is only
    counted, a miss fills that L1 and goes to ``sim._step_miss``.  No
    filter plane, no kernel: the L1 filter is computed the slow way, one
    record at a time, so production's precomputed planes have something
    independent to agree with.  Warm-up and result assembly use the
    simulator's own ``_begin_measurement`` and ``_finish_run``.

    The L1s are whatever the simulator holds: flush them first to match
    a production re-run, which always filters through cold L1s.
    """
    n = len(trace.gap)
    if warmup_records is None:
        warmup_records = int(0.3 * n)
    warmup_records = max(0, min(warmup_records, n))
    hierarchy = sim.hierarchy
    line_shift = hierarchy.line_shift
    l1_by_kind = (hierarchy.l1i, hierarchy.l1d, hierarchy.l1d)
    gaps = trace.gap.tolist()
    kinds = trace.kind.tolist()
    pcs = trace.pc.tolist()
    addrs = trace.addr.tolist()
    serials = trace.serial.tolist()
    tids = trace.tid.tolist()

    sim._measuring = False
    stats = sim.stats
    measuring = False
    inst = 0
    measure_start_inst = 0
    for i in range(n):
        if i == warmup_records:
            measure_start_inst = inst
            sim._begin_measurement()
            stats = sim.stats
            measuring = True
        inst += gaps[i]
        kind = kinds[i]
        line = addrs[i] >> line_shift
        l1 = l1_by_kind[kind]
        if measuring:
            stats.accesses += 1
        if l1.lookup(line):
            if measuring:
                if kind == 0:
                    stats.l1i_hits += 1
                else:
                    stats.l1d_hits += 1
            continue
        l1.insert(line)
        sim._step_miss(kind, pcs[i], addrs[i], bool(serials[i]), inst, tids[i], line)
    return sim._finish_run(trace, inst, measure_start_inst)


def without_bus_fallback(snapshot: dict) -> dict:
    """A bus-driven ``SimulationMetrics`` snapshot minus the oracle's own
    fallback: its bus keeps an EBCP or no-prefetch run off the epoch
    kernel (cause ``bus_attached``), which run-fed metrics never cost."""
    out = dict(snapshot)
    taken = out.pop("kernel_fallbacks.bus_attached", {"value": 0})["value"]
    for name in ("kernel_fallbacks", "events.KernelFallback", "events_total"):
        if name in out:
            out[name] = dict(out[name], value=out[name]["value"] - taken)
    if out.get("events.KernelFallback", {}).get("value") == 0:
        del out["events.KernelFallback"]
    return out
