"""Cache hierarchy composition.

``CacheHierarchy`` wires together the split L1 caches, the shared L2, the
prefetch buffer and the main-memory model, and classifies each demand
access into one of the :class:`AccessOutcome` levels.  The epoch engine
consumes these outcomes; prefetchers observe the L1-miss (== L2-access)
stream, matching Figure 2's placement of the prefetcher control in front
of the core-to-L2 crossbar.

A demand miss that hits a *ready* line in the prefetch buffer promotes the
line into the L2 and the appropriate L1 (the paper copies prefetched lines
into the regular caches only when used) and counts as an averted off-chip
access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.events import AccessResolved
from .cache import SetAssociativeCache
from .main_memory import MainMemory
from .prefetch_buffer import PrefetchBuffer
from .request import Access, AccessKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.config import ProcessorConfig
    from ..obs.bus import EventBus

__all__ = ["AccessOutcome", "HierarchyResult", "CacheHierarchy"]


class AccessOutcome(enum.Enum):
    """Where a demand access was satisfied."""

    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"
    PREFETCH_HIT = "prefetch_hit"
    OFFCHIP_MISS = "offchip_miss"


@dataclass(frozen=True, slots=True)
class HierarchyResult:
    outcome: AccessOutcome
    line: int
    #: True when the prefetch buffer held the line but it was not ready yet.
    late_prefetch: bool = False
    #: Correlation-table entry index recorded in the hitting buffer entry.
    table_index: int | None = None
    #: Name of the prefetcher that staged the hitting line.
    prefetch_source: str = ""
    #: Line number of a dirty L2 victim written back to memory, if any.
    writeback_line: int | None = None
    #: Epoch in which the hitting prefetch was issued (-1 if unknown or
    #: not a prefetch hit); used for lead-time observability.
    prefetch_issue_epoch: int = -1


class CacheHierarchy:
    """L1I + L1D + shared L2 + prefetch buffer + DRAM."""

    def __init__(self, config: "ProcessorConfig") -> None:
        config.validate()
        self.config = config
        ls = config.line_size
        self.l1i = SetAssociativeCache(config.l1i.size_bytes, config.l1i.ways, ls, "L1I")
        self.l1d = SetAssociativeCache(config.l1d.size_bytes, config.l1d.ways, ls, "L1D")
        self.l2 = SetAssociativeCache(config.l2.size_bytes, config.l2.ways, ls, "L2")
        self.prefetch_buffer = PrefetchBuffer(
            config.prefetch_buffer_entries, config.prefetch_buffer_ways
        )
        self.memory = MainMemory(latency_cycles=config.memory_latency)
        self.line_shift = ls.bit_length() - 1
        #: Optional observability bus (attached by the simulator).
        self.bus: "EventBus | None" = None

    # ------------------------------------------------------------------
    def l1_for(self, kind: AccessKind) -> SetAssociativeCache:
        return self.l1i if kind is AccessKind.IFETCH else self.l1d

    def access(self, access: Access, current_cycle: float) -> HierarchyResult:
        """Run one demand access through the hierarchy.

        Fill policy is inclusive-on-demand: a miss that is ultimately
        satisfied off-chip (or from the prefetch buffer) installs the line
        in both the L2 and the requesting L1.
        """
        line = access.addr >> self.line_shift
        l1 = self.l1_for(access.kind)
        if l1.lookup(line):
            return HierarchyResult(AccessOutcome.L1_HIT, line)
        return self.access_after_l1_miss(access, line, l1, current_cycle)

    def access_after_l1_miss(
        self,
        access: Access,
        line: int,
        l1: SetAssociativeCache | None,
        current_cycle: float,
        l2_missed: bool = False,
    ) -> HierarchyResult:
        """As :meth:`access`, for a caller that already probed ``l1``.

        Re-probing here would only burn time and double the L1 miss
        counters.  ``l1`` is ``None`` when the caller resolved the L1
        filter ahead of time, as the epoch simulator always does (a
        precomputed filter plane, :mod:`repro.engine.filter_plane`): the
        L1 fill is then skipped entirely, which is safe because nothing
        downstream ever reads L1 contents the filter plane did not
        already account for.  ``l2_missed=True`` means the caller already
        probed the L2 too (its inline L2-hit fast path) and saw a miss —
        re-probing would double the L2 miss counter.
        """
        # L1 miss -> L2 access (this is the stream prefetchers observe).
        if not l2_missed and self.l2.lookup(line):
            if l1 is not None:
                l1.insert(line)
            result = HierarchyResult(AccessOutcome.L2_HIT, line)
        else:
            # L2 miss -> probe the prefetch buffer (searched in parallel).
            probe = self.prefetch_buffer.lookup(line, current_cycle)
            if probe.hit:
                entry = probe.entry
                assert entry is not None
                writeback = self._install_l2(line, access)
                if l1 is not None:
                    l1.insert(line)
                result = HierarchyResult(
                    AccessOutcome.PREFETCH_HIT,
                    line,
                    table_index=entry.table_index,
                    prefetch_source=entry.source,
                    writeback_line=writeback,
                    prefetch_issue_epoch=entry.issue_epoch,
                )
            else:
                # Genuine off-chip access.
                writeback = self._install_l2(line, access)
                if l1 is not None:
                    l1.insert(line)
                result = HierarchyResult(
                    AccessOutcome.OFFCHIP_MISS,
                    line,
                    late_prefetch=probe.late,
                    writeback_line=writeback,
                )
        # Every non-L1 outcome is an L2 access — the observable stream.
        if self.bus is not None and self.bus.wants(AccessResolved):
            self.bus.emit(
                AccessResolved(access=access, line=line, result=result, cycle=current_cycle)
            )
        return result

    def _install_l2(self, line: int, access: Access) -> int | None:
        """Fill the L2, tracking dirtiness; returns a dirty victim line."""
        victim = self.l2.insert(line)
        if access.kind is AccessKind.STORE:
            self.l2.mark_dirty(line)
        if victim is not None and self.l2.pop_dirty(victim):
            return victim
        return None

    # ------------------------------------------------------------------
    def fill_prefetch(
        self,
        line: int,
        ready_cycle: float,
        table_index: int | None = None,
        source: str = "",
        issue_epoch: int = -1,
    ) -> bool:
        """Stage a prefetched line unless it is already on-chip.

        Returns True if the buffer accepted the fill (i.e. the prefetch
        actually consumed bandwidth usefully); redundant prefetches to
        lines already in the L2 or buffer are filtered here.
        """
        if self.l2.contains(line):
            return False
        self.prefetch_buffer.fill(line, ready_cycle, table_index, source, issue_epoch)
        return True

    def flush(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.prefetch_buffer.flush()
