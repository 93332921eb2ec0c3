"""Global History Buffer PC/DC prefetcher (Nesbit & Smith, HPCA 2004).

The GHB decouples table indexing from history storage: an *index table*
maps a load PC to the head of that PC's chain inside a circular *global
history buffer* of recent miss addresses; each buffer entry links to the
previous miss by the same PC.  The PC/DC (program counter / delta
correlation) variant — the best performer in Perez et al's comparison,
hence the paper's chosen on-chip baseline — works on the *delta* stream
of each PC:

1. the PC's chain is walked to recover its recent miss addresses,
2. the two most recent deltas form a correlation key,
3. the most recent earlier occurrence of that delta pair is located in
   the PC's delta history, and
4. the deltas that *followed* it are replayed from the current address to
   generate up to ``degree`` prefetches (depth prefetching).

Both tables are on-chip SRAM, so prefetches are ready one epoch after the
trigger.  Two configurations from the paper: *GHB small* (16 K-entry
index table + 16 K-entry buffer, ~256 KB) and *GHB large* (256 K + 256 K,
~4 MB).  Instruction misses are prefetched too (keyed by fetch PC).
"""

from __future__ import annotations

from collections import OrderedDict

from ..engine.epoch import Epoch
from ..memory.request import Access, PrefetchRequest
from .base import Prefetcher

__all__ = ["GHBPrefetcher", "make_ghb_small", "make_ghb_large"]


class GHBPrefetcher(Prefetcher):
    """GHB PC/DC with depth prefetching."""

    name = "ghb"
    targets_instructions = True
    supports_epoch_batch = True

    #: Maximum chain length walked when reconstructing a PC's history.
    MAX_HISTORY = 64

    def __init__(
        self,
        index_entries: int = 16 * 1024,
        buffer_entries: int = 16 * 1024,
        degree: int = 6,
        label: str | None = None,
    ) -> None:
        super().__init__()
        if index_entries <= 0 or buffer_entries <= 0:
            raise ValueError("table sizes must be positive")
        self.index_entries = index_entries
        self.buffer_entries = buffer_entries
        self.degree = degree
        if label:
            self.name = label
        # Index table: PC -> absolute position of its newest GHB entry.
        self._index: OrderedDict[int, int] = OrderedDict()
        # Circular GHB: position % buffer_entries -> (line, prev_abs_pos).
        self._ghb: list[tuple[int, int]] = [(-1, -1)] * buffer_entries
        self._head = 0  # absolute position of the next insert

    # ------------------------------------------------------------------
    def observe_offchip_miss(
        self,
        access: Access,
        line: int,
        epoch: Epoch,
        is_trigger: bool,
    ) -> list[PrefetchRequest]:
        return self._miss(access.pc, line)

    def observe_prefetch_hit(
        self,
        access: Access,
        line: int,
        table_index: int | None,
        epoch_index: int,
        first_in_epoch: bool,
    ) -> list[PrefetchRequest]:
        # Averted misses keep training the history (the GHB sees the
        # prefetch-buffer hit stream just like the L2 miss stream).
        return self._miss(access.pc, line)

    # ------------------------------------------------------------------
    def _miss(self, pc: int, line: int) -> list[PrefetchRequest]:
        prev = self._index.get(pc, -1)
        self._ghb[self._head % self.buffer_entries] = (line, prev)
        self._index[pc] = self._head
        self._index.move_to_end(pc)
        self._head += 1
        if len(self._index) > self.index_entries:
            self._index.popitem(last=False)
        history = self._walk_chain(pc)
        if len(history) < 4:
            return []
        return self._delta_correlate(history)

    def _walk_chain(self, pc: int) -> list[int]:
        """Recent miss lines of ``pc``, newest first."""
        history: list[int] = []
        pos = self._index.get(pc, -1)
        oldest_valid = self._head - self.buffer_entries
        while pos >= 0 and pos >= oldest_valid and len(history) < self.MAX_HISTORY:
            entry_line, prev = self._ghb[pos % self.buffer_entries]
            history.append(entry_line)
            if prev >= pos:  # corrupted link after wrap-around
                break
            pos = prev
        return history

    def _delta_correlate(self, history: list[int]) -> list[PrefetchRequest]:
        # history is newest-first; build the delta stream oldest-first.
        addrs = history[::-1]
        deltas = [addrs[i + 1] - addrs[i] for i in range(len(addrs) - 1)]
        if len(deltas) < 3:
            return []
        key = (deltas[-2], deltas[-1])
        # Find the most recent earlier occurrence of the delta pair.
        match = -1
        for i in range(len(deltas) - 3, 0, -1):
            if (deltas[i - 1], deltas[i]) == key:
                match = i
                break
        if match < 0:
            return []
        requests = []
        current = addrs[-1]
        for delta in deltas[match + 1 : match + 1 + self.degree]:
            current += delta
            if current < 0:
                break
            requests.append(self.make_request(current, epochs_until_ready=1))
        return requests

    # ------------------------------------------------------------------
    @property
    def onchip_storage_bytes(self) -> int:
        # ~8 B per index-table entry (PC tag + pointer) and ~8 B per GHB
        # entry (compressed address + link) — the paper's 256 KB / 4 MB
        # estimates for the small and large configurations.
        return 8 * (self.index_entries + self.buffer_entries)


def make_ghb_small(degree: int = 6, scale: int = 8) -> GHBPrefetcher:
    """GHB small: the paper's 16 K + 16 K entries (~256 KB of SRAM),
    divided by the evaluation's capacity scale factor (DESIGN.md Sec 2)."""
    n = 16 * 1024 // scale
    return GHBPrefetcher(n, n, degree=degree, label="ghb_small")


def make_ghb_large(degree: int = 6, scale: int = 8) -> GHBPrefetcher:
    """GHB large: the paper's 256 K + 256 K entries (~4 MB of SRAM),
    divided by the evaluation's capacity scale factor."""
    n = 256 * 1024 // scale
    return GHBPrefetcher(n, n, degree=degree, label="ghb_large")
