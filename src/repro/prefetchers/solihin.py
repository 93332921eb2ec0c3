"""Solihin's memory-side correlation prefetcher (ISCA 2002).

The scheme conceptually closest to EBCP: the correlation table also lives
in main memory, but the prefetching engine sits *near memory* (a
user-level thread on a core in the North Bridge or DRAM chip) and the
table records plain miss *successors*: for a miss M, the next misses at
each level (depth) after M, with ``width`` alternatives per level kept in
LRU order.

On every off-chip miss the table entry for the miss address is read and
all recorded successors (up to ``depth x width``, capped at ``degree``)
are prefetched.  Because the table read occupies the triggering epoch and
the prefetch transfer the next one, the prefetched data arrives two
epochs after the trigger — while the recorded successor misses mostly
belong to the *same or next* epoch.  This timeliness gap is exactly the
paper's Section 3.3.1 argument, and this model reproduces its worked
example miss-for-miss.

Two configurations from the comparison: *Solihin 3,2* (depth 3, width 2 —
the original paper's tuning) and *Solihin 6,1* (depth 6, width 1 — the
depth-enhanced variant).  Both use the same number of main-memory table
entries as EBCP.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..engine.epoch import Epoch
from ..memory.hierarchy import CacheHierarchy
from ..memory.main_memory import OutOfMemoryError
from ..memory.request import Access, PrefetchRequest
from .base import Prefetcher

__all__ = ["SolihinPrefetcher", "make_solihin_3_2", "make_solihin_6_1"]

_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


@dataclass
class _Entry:
    tag: int
    #: levels[d] holds up to ``width`` successor lines, MRU first.
    levels: list[list[int]] = field(default_factory=list)


class SolihinPrefetcher(Prefetcher):
    """Memory-side successor-correlation prefetching."""

    name = "solihin"
    targets_instructions = True
    # The near-memory engine trains on the raw memory request stream:
    # store misses are interleaved into it and dilute the successor
    # correlations — one of the placement penalties Section 3.3.1 argues.
    observes_stores = True
    supports_epoch_batch = True

    def __init__(
        self,
        depth: int = 3,
        width: int = 2,
        table_entries: int = 128 * 1024,
        degree: int | None = None,
        entry_bytes: int = 64,
        label: str | None = None,
    ) -> None:
        super().__init__()
        if depth <= 0 or width <= 0:
            raise ValueError("depth and width must be positive")
        self.depth = depth
        self.width = width
        self.table_entries = table_entries
        self.degree = degree if degree is not None else depth * width
        self.entry_bytes = entry_bytes
        if label:
            self.name = label
        else:
            self.name = f"solihin_{depth}_{width}"
        self._table: list[_Entry | None] = [None] * table_entries
        #: The last ``depth`` miss lines, newest last.
        self._recent: deque[int] = deque(maxlen=depth)
        self._resident = False

    # ------------------------------------------------------------------
    def bind(self, hierarchy: CacheHierarchy) -> None:
        try:
            hierarchy.memory.allocate(self.memory_table_bytes)
        except OutOfMemoryError:
            self._resident = False
        else:
            self._resident = True

    # ------------------------------------------------------------------
    def _index(self, line: int) -> int:
        return ((line * _HASH_MULT) & _HASH_MASK) % self.table_entries

    def observe_offchip_miss(
        self,
        access: Access,
        line: int,
        epoch: Epoch,
        is_trigger: bool,
    ) -> list[PrefetchRequest]:
        if not self._resident:
            return []
        return self._miss(line)

    # NOTE: no ``observe_prefetch_hit`` override.  The engine lives near
    # memory; a prefetch-buffer hit is an on-chip event that generates no
    # memory request, so averted misses vanish from the stream the engine
    # can observe — they neither train the table nor key lookups.  This
    # self-limiting feedback is one of the structural disadvantages of
    # memory-side prefetching that Section 3.3.1 argues (alongside
    # interleaved per-thread streams on multicores), and it is part of
    # why EBCP — whose control sits in front of the core-to-L2 crossbar
    # and explicitly substitutes prefetch-buffer hits for misses
    # (Section 3.4.3) — outperforms it.

    # ------------------------------------------------------------------
    def _miss(self, line: int) -> list[PrefetchRequest]:
        # Train: ``line`` is the d-th successor of the d-th previous miss.
        for d, predecessor in enumerate(reversed(self._recent)):
            self._train(predecessor, level=d, successor=line)
        self._recent.append(line)
        # One table read + one write per miss for training, plus the
        # prediction read below.
        self.traffic.add_update_read(self.entry_bytes)
        self.traffic.add_update_write(self.entry_bytes)

        # Predict: read the entry for this miss and prefetch successors.
        self.traffic.add_lookup_read(self.entry_bytes)
        index = self._index(line)
        entry = self._table[index]
        if entry is None or entry.tag != line:
            return []
        requests = []
        for level in entry.levels:
            for successor in level:
                if len(requests) >= self.degree:
                    return requests
                requests.append(
                    self.make_request(
                        successor, epochs_until_ready=2, table_index=index
                    )
                )
        return requests

    def _train(self, predecessor: int, level: int, successor: int) -> None:
        index = self._index(predecessor)
        entry = self._table[index]
        if entry is None or entry.tag != predecessor:
            entry = _Entry(tag=predecessor)
            self._table[index] = entry
        while len(entry.levels) <= level:
            entry.levels.append([])
        slot = entry.levels[level]
        if successor in slot:
            slot.remove(successor)
        slot.insert(0, successor)  # MRU first
        del slot[self.width :]

    # ------------------------------------------------------------------
    @property
    def memory_table_bytes(self) -> int:
        return self.table_entries * self.entry_bytes

    @property
    def onchip_storage_bytes(self) -> int:
        # The engine itself is a processor near memory; the on-chip cost
        # to the main CPU is essentially zero.
        return 0


def make_solihin_3_2(table_entries: int = 128 * 1024, degree: int = 6) -> SolihinPrefetcher:
    """The original tuning: depth 3, width 2."""
    return SolihinPrefetcher(depth=3, width=2, table_entries=table_entries, degree=degree)


def make_solihin_6_1(table_entries: int = 128 * 1024, degree: int = 6) -> SolihinPrefetcher:
    """The depth-enhanced variant: depth 6, width 1."""
    return SolihinPrefetcher(depth=6, width=1, table_entries=table_entries, degree=degree)
