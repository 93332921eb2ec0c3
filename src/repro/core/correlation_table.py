"""The main-memory correlation table — paper Sections 3.4.1-3.4.3.

The table is a direct-mapped array of fixed-size entries living in a
contiguous physical-memory region handed out by the OS.  Each entry packs,
within one memory transfer unit (a 64 B cache line), a tag, per-address
LRU information and up to N compressed prefetch addresses (the paper notes
eight addresses fit easily in 64 B once the upper address bytes are shared
with the tag).

Semantics implemented:

* **lookup(key)** — one low-priority memory read; returns the entry's
  prefetch addresses on a tag match.
* **train(key, payload)** — the EMAB-driven update: one read (to fetch the
  entry) and one write.  On a tag match, payload addresses refresh
  matching resident addresses or replace the least-recently-used ones; on
  a mismatch the entry is reallocated wholesale.  Older-epoch addresses
  come first in the payload and are therefore guaranteed slots.  Addresses
  inserted by one training step never evict each other, which preserves
  the old-epoch priority rule.
* **touch(index, line)** — the prefetch-buffer-hit LRU refresh: one
  lowest-priority memory write.  This is the mechanism that lets an entry
  "dynamically select between prefetch depth and width": addresses that
  keep producing useful prefetches stay most-recently-used and survive
  later training replacements.

The table object also *owns* its physical allocation via
:class:`~repro.memory.main_memory.MainMemory`, so the prefetcher's
active/inactive state machine (Section 3.4.1) can be exercised.

State holds live entries only: a tag dict and a parallel address-map
dict, both keyed by entry index (a missing index is a free entry), so a
fresh table costs nothing to build, copy or pickle however many entries
it models.  The hot lookup path is one hash, one dict probe and — only
on a hit — one sort, with no per-entry objects allocated on the train
path.  :class:`TableEntry` survives as the diagnostic *view* type
constructed on demand by :meth:`CorrelationTable.entry_at`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memory.main_memory import Allocation, MainMemory, OutOfMemoryError

__all__ = ["TableStats", "TableEntry", "CorrelationTable"]

#: Multiplicative hash constant (Knuth) used to spread structured line
#: addresses across the direct-mapped table.
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


@dataclass
class TableStats:
    lookups: int = 0
    lookup_hits: int = 0
    trains: int = 0
    allocations: int = 0
    tag_conflicts: int = 0
    address_replacements: int = 0
    touches: int = 0

    @property
    def lookup_hit_ratio(self) -> float:
        return self.lookup_hits / self.lookups if self.lookups else 0.0


@dataclass
class TableEntry:
    """One direct-mapped entry: tag + recency-stamped prefetch addresses."""

    tag: int
    #: line -> last-use stamp; insertion bumps the shared stamp counter.
    addrs: dict[int, int] = field(default_factory=dict)

    def ordered_addresses(self) -> list[int]:
        """Prefetch addresses, most recently used first."""
        return sorted(self.addrs, key=self.addrs.__getitem__, reverse=True)


class CorrelationTable:
    """Direct-mapped, main-memory-resident correlation table."""

    def __init__(
        self,
        n_entries: int,
        addrs_per_entry: int = 8,
        entry_bytes: int = 64,
        memory: MainMemory | None = None,
    ) -> None:
        if n_entries <= 0:
            raise ValueError("table needs at least one entry")
        if addrs_per_entry <= 0:
            raise ValueError("addrs_per_entry must be positive")
        self.n_entries = n_entries
        self.addrs_per_entry = addrs_per_entry
        self.entry_bytes = entry_bytes
        #: index -> tag line and index -> address map, live entries only.
        self._tags: dict[int, int] = {}
        self._addrs: dict[int, dict[int, int]] = {}
        self._stamp = 0
        self.stats = TableStats()
        self.allocation: Allocation | None = None
        if memory is not None:
            self.attach_memory(memory)

    # ------------------------------------------------------------------
    # Physical residency (Section 3.4.1)
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return self.n_entries * self.entry_bytes

    def attach_memory(self, memory: MainMemory) -> Allocation:
        """Request the OS for the table's physical region."""
        self.allocation = memory.allocate(self.size_bytes)
        return self.allocation

    def detach_memory(self) -> None:
        """The OS reclaimed the region: all learned state is lost."""
        self.allocation = None
        self._tags = {}
        self._addrs = {}

    @property
    def is_resident(self) -> bool:
        return self.allocation is not None

    def entry_physical_address(self, index: int) -> int:
        """Physical address of entry ``index`` (base + index * size)."""
        if self.allocation is None:
            raise OutOfMemoryError("correlation table has no physical backing")
        return self.allocation.base + index * self.entry_bytes

    # ------------------------------------------------------------------
    def index_of(self, key_line: int) -> int:
        """Direct-mapped index for a key line address."""
        return ((key_line * _HASH_MULT) & _HASH_MASK) % self.n_entries

    # ------------------------------------------------------------------
    def lookup(self, key_line: int) -> tuple[int, list[int]] | None:
        """Read the entry for ``key_line``.

        Returns ``(index, prefetch_lines_mru_first)`` on a tag match,
        None otherwise.  The caller charges one entry-sized memory read.
        """
        self.stats.lookups += 1
        index = ((key_line * _HASH_MULT) & _HASH_MASK) % self.n_entries
        if self._tags.get(index) != key_line:
            return None
        self.stats.lookup_hits += 1
        addrs = self._addrs[index]
        return index, sorted(addrs, key=addrs.__getitem__, reverse=True)

    def train(self, key_line: int, payload: tuple[int, ...] | list[int]) -> int:
        """Insert/update the entry for ``key_line`` with EMAB payload.

        Returns the entry index.  The caller charges one read + one write.
        """
        self.stats.trains += 1
        index = self.index_of(key_line)
        capped = list(payload[: self.addrs_per_entry])
        tag = self._tags.get(index)
        if tag != key_line:
            if tag is not None:
                self.stats.tag_conflicts += 1
            self.stats.allocations += 1
            addrs = {}
            stamp = self._stamp
            for line in capped:
                stamp += 1
                addrs[line] = stamp
            self._stamp = stamp
            self._tags[index] = key_line
            self._addrs[index] = addrs
            return index
        # Tag match: refresh or LRU-replace.  Addresses inserted by this
        # training step are protected from evicting one another.
        addrs = self._addrs[index]
        inserted: set[int] = set()
        for line in capped:
            self._stamp += 1
            if line in addrs:
                addrs[line] = self._stamp
                inserted.add(line)
                continue
            if len(addrs) >= self.addrs_per_entry:
                candidates = [a for a in addrs if a not in inserted]
                if not candidates:
                    break  # entry entirely filled by this payload already
                victim = min(candidates, key=addrs.__getitem__)
                del addrs[victim]
                self.stats.address_replacements += 1
            addrs[line] = self._stamp
            inserted.add(line)
        return index

    def touch(self, index: int, line: int) -> bool:
        """Refresh the LRU stamp of ``line`` in entry ``index``.

        Called on a prefetch-buffer hit; the caller charges one
        lowest-priority memory write.  Returns True if the address was
        still present.
        """
        self.stats.touches += 1
        addrs = self._addrs.get(index)
        if addrs is None or line not in addrs:
            return False
        self._stamp += 1
        addrs[line] = self._stamp
        return True

    # ------------------------------------------------------------------
    def entry_at(self, index: int) -> TableEntry | None:
        """Entry view at ``index`` (tests and diagnostics); the address
        map is shared with the live table, not copied."""
        tag = self._tags.get(index)
        if tag is None:
            return None
        return TableEntry(tag=tag, addrs=self._addrs[index])

    @property
    def live_entries(self) -> int:
        return len(self._tags)
