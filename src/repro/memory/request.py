"""Request and access types shared across the memory hierarchy.

The simulator operates on two kinds of objects:

* :class:`Access` — a demand access from the processor core (an L1-level
  trace record after decoding).  Accesses flow *down* the hierarchy.
* :class:`PrefetchRequest` — a request emitted by a prefetcher.  Prefetch
  requests flow into the bandwidth model and, if not dropped, fill the
  prefetch buffer.

Addresses everywhere in this package are *byte* addresses held in Python
ints.  Helper functions convert to line addresses (the unit tracked by
caches, prefetch buffers and correlation tables).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "AccessKind",
    "Priority",
    "Access",
    "PrefetchRequest",
    "line_address",
    "line_number",
]


class AccessKind(enum.IntEnum):
    """The three access kinds carried by a workload trace.

    The integer values match the encoding used in the packed numpy trace
    representation (:mod:`repro.workloads.trace`).
    """

    IFETCH = 0
    LOAD = 1
    STORE = 2

    @property
    def is_instruction(self) -> bool:
        return self is AccessKind.IFETCH

    @property
    def is_data(self) -> bool:
        return self is not AccessKind.IFETCH


class Priority(enum.IntEnum):
    """Memory-request service priority, highest first.

    The paper requires that prefetches and correlation-table traffic are
    *always* lower priority than demand accesses so that they never delay
    demand misses (Section 3.4.4).  Within the low-priority traffic, the
    timing-critical table lookup read outranks the prefetch fills, which
    outrank training (update) traffic.
    """

    DEMAND = 0
    TABLE_LOOKUP = 1
    PREFETCH = 2
    TABLE_UPDATE = 3
    LRU_WRITEBACK = 4


@dataclass(frozen=True, slots=True)
class Access:
    """A single demand access from the core.

    Attributes
    ----------
    kind:
        Instruction fetch, load or store.
    pc:
        Program counter of the access (byte address).  Used by PC-indexed
        prefetchers (GHB PC/DC, SMS).
    addr:
        Byte address touched.
    serial:
        True when the access is data-dependent on the previous off-chip
        miss (e.g. the next hop of a pointer chase) and therefore cannot
        overlap with it.  Serial misses always open a new epoch.
    inst_index:
        Cumulative retired-instruction count at this access; used for the
        ROB-window epoch-membership rule.
    tid:
        Hardware thread that issued the access (0 on single-threaded
        traces).  Prefetchers that track per-thread streams — the CMP
        extension of the paper's Section 6 — key their state on it.
    """

    kind: AccessKind
    pc: int
    addr: int
    serial: bool = False
    inst_index: int = 0
    tid: int = 0


@dataclass
class PrefetchRequest:
    """A prefetch emitted by a prefetcher.

    Attributes
    ----------
    line_addr:
        Line number to fetch (byte address >> line shift); the prefetch
        buffer and both walks key on it.
    kind:
        Whether the prefetch targets instruction or data lines; only used
        for statistics (the prefetch buffer is unified).
    epochs_until_ready:
        Number of epoch boundaries after the *triggering* epoch before the
        prefetched line can satisfy a demand access.  1 for on-chip
        correlation tables (prefetch issues in the triggering epoch and
        completes under it), 2 when the table lives in main memory (one
        epoch to read the table, one for the prefetch itself) — the
        paper's Section 3.2 timing.
    priority:
        Service priority on the memory read bus.
    table_index:
        For correlation prefetchers, the correlation-table entry that
        generated this prefetch.  Stored in the prefetch buffer so a hit
        can update that entry's internal LRU (Section 3.4.3).
    source:
        Short name of the emitting prefetcher, for statistics.
    """

    line_addr: int
    kind: AccessKind = AccessKind.LOAD
    epochs_until_ready: int = 1
    priority: Priority = Priority.PREFETCH
    table_index: int | None = None
    source: str = ""
    # Filled in by the simulator when the request is accepted.
    issue_epoch: int = field(default=-1, compare=False)


def line_address(addr: int, line_shift: int) -> int:
    """Return the line-aligned byte address containing ``addr``."""
    return (addr >> line_shift) << line_shift


def line_number(addr: int, line_shift: int) -> int:
    """Return the line index (byte address divided by line size)."""
    return addr >> line_shift
