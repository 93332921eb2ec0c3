"""The Epoch-Based Correlation Prefetcher (EBCP) — paper Section 3.

Operation summary (Sections 3.1, 3.2, 3.4):

* The on-chip control watches the entire L2 miss stream (it sits in front
  of the core-to-L2 crossbar) and records instruction/load miss addresses
  of the current epoch into the EMAB.
* At every epoch boundary the EMAB yields a training view: the first miss
  of the oldest buffered epoch (epoch ``i``) keys a correlation-table
  entry that is updated with the misses of epochs ``i+2`` and ``i+3``
  (one table read + one table write, lowest priority).
* When the first L2 instruction/load miss — or prefetch-buffer hit — of a
  new epoch is encountered, its address keys a table lookup (one
  low-priority memory read).  All prefetch addresses of a matching entry
  are issued, up to the configured prefetch degree.  Because the table
  lives in main memory, the data arrives two epochs after the trigger:
  the lookup is hidden under the current epoch's stall and the prefetches
  complete under the next one — precisely why only epochs ``i+2``/``i+3``
  addresses are stored.
* A prefetch-buffer hit refreshes the LRU stamp of the producing address
  in its correlation-table entry (one lowest-priority write), letting the
  entry adapt between prefetch depth and width at run time.

The prefetcher follows the active/inactive protocol of Section 3.4.1: it
requests a physical region from the OS at start-up and suspends itself if
the region is reclaimed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.epoch import Epoch
from ..memory.hierarchy import CacheHierarchy
from ..memory.main_memory import OutOfMemoryError
from ..memory.request import Access, AccessKind, PrefetchRequest, Priority
from ..prefetchers.base import Prefetcher
from .correlation_table import CorrelationTable
from .emab import EpochMissAddressBuffer

__all__ = ["EBCPConfig", "EpochBasedCorrelationPrefetcher"]


@dataclass(frozen=True)
class EBCPConfig:
    """Tunable parameters of the EBCP (defaults = the paper's tuned design).

    ``table_entries`` defaults to 128 K — the paper's one-million-entry
    table scaled by the same 8x factor as the L2 and workload footprints
    (DESIGN.md Section 2).  Use :meth:`idealized` for the design-space
    starting point (Section 5.2): an 8 M-entry-scaled table, 32 addresses
    per entry, degree 32, 1024-entry prefetch buffer (the buffer itself is
    configured on :class:`~repro.engine.config.ProcessorConfig`).
    """

    prefetch_degree: int = 8
    table_entries: int = 128 * 1024
    addrs_per_entry: int | None = None  # defaults to max(8, degree)
    entry_bytes: int = 64
    #: Epochs between the key epoch and the first stored epoch; 2 for
    #: EBCP, 1 for the handicapped EBCP-minus variant (Section 5.3).
    skip_epochs: int = 2
    #: Number of future epochs whose misses are stored (X in the paper).
    stored_epochs: int = 2
    emab_capacity_per_epoch: int = 32
    #: When False, models an on-chip table ablation: prefetches are ready
    #: one epoch after the trigger and no table memory traffic occurs.
    table_in_memory: bool = True

    @property
    def effective_addrs_per_entry(self) -> int:
        if self.addrs_per_entry is not None:
            return self.addrs_per_entry
        return max(8, self.prefetch_degree)

    @classmethod
    def idealized(cls, **overrides: object) -> "EBCPConfig":
        base = dict(
            prefetch_degree=32,
            table_entries=1024 * 1024,
            addrs_per_entry=32,
            entry_bytes=256,
        )
        base.update(overrides)  # type: ignore[arg-type]
        return cls(**base)  # type: ignore[arg-type]


class EpochBasedCorrelationPrefetcher(Prefetcher):
    """EBCP control logic implementing the engine's prefetcher interface."""

    name = "ebcp"
    targets_instructions = True
    #: The epoch-batched execution kernel (``engine/ebcp_kernel.py``)
    #: replays this prefetcher's exact semantics inline, with its training
    #: views precomputed from the epoch segmentation.  The replay is exact
    #: for this class only: the kernel refuses subclasses.
    supports_epoch_batch = True

    def __init__(self, config: EBCPConfig | None = None) -> None:
        super().__init__()
        self.config = config or EBCPConfig()
        if self.config.skip_epochs == 1:
            self.name = "ebcp_minus"
        elif not self.config.table_in_memory:
            self.name = "ebcp_onchip"
        self.table = CorrelationTable(
            n_entries=self.config.table_entries,
            addrs_per_entry=self.config.effective_addrs_per_entry,
            entry_bytes=self.config.entry_bytes,
        )
        self.emab = EpochMissAddressBuffer(
            skip_epochs=self.config.skip_epochs,
            stored_epochs=self.config.stored_epochs,
            capacity_per_epoch=self.config.emab_capacity_per_epoch,
        )
        self._active = not self.config.table_in_memory
        self.lookups_suppressed = 0

    # ------------------------------------------------------------------
    # Residency / state machine (Section 3.4.1)
    # ------------------------------------------------------------------
    def bind(self, hierarchy: CacheHierarchy) -> None:
        """Request the table's physical region from the simulated OS."""
        if not self.config.table_in_memory:
            self._active = True
            return
        try:
            self.table.attach_memory(hierarchy.memory)
        except OutOfMemoryError:
            self._active = False
        else:
            self._active = True

    def deactivate(self) -> None:
        """The OS reclaimed the table region (memory pressure)."""
        self.table.detach_memory()
        self._active = False

    def reactivate(self, hierarchy: CacheHierarchy) -> None:
        """Periodic re-request after deactivation."""
        self.bind(hierarchy)

    @property
    def is_active(self) -> bool:
        return self._active

    # ------------------------------------------------------------------
    # Timeliness
    # ------------------------------------------------------------------
    @property
    def _epochs_until_ready(self) -> int:
        # Main-memory table: one epoch to read the table, one for the
        # prefetches themselves (Section 3.2).  On-chip table: prefetches
        # issue in the triggering epoch and are ready the next.
        return 2 if self.config.table_in_memory else 1

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def observe_offchip_miss(
        self,
        access: Access,
        line: int,
        epoch: Epoch,
        is_trigger: bool,
    ) -> list[PrefetchRequest]:
        if not self._active:
            return []
        if access.kind is not AccessKind.STORE:
            self.emab.record_miss(line)
        if is_trigger:
            # First miss of a (would-be) epoch: key the table lookup.
            return self._lookup_and_issue(line)
        # Subsequent misses of the epoch do not look up the table
        # (Section 3.4.3).
        self.lookups_suppressed += 1
        return []

    def observe_prefetch_hit(
        self,
        access: Access,
        line: int,
        table_index: int | None,
        epoch_index: int,
        first_in_epoch: bool,
    ) -> list[PrefetchRequest]:
        if not self._active:
            return []
        # The averted miss still belongs to the would-be epoch structure
        # the correlation table encodes: record it so training keeps the
        # learned sequences alive at high coverage.
        self.emab.record_miss(line)
        # LRU refresh of the producing table entry: one low-priority write.
        if table_index is not None:
            if self.table.touch(table_index, line) and self.config.table_in_memory:
                self.traffic.add_lru_write(self.config.entry_bytes)
        if first_in_epoch:
            # A prefetch-buffer hit substitutes for the first miss of a
            # new epoch as the lookup key (Section 3.4.3).
            return self._lookup_and_issue(line)
        return []

    def on_epoch_boundary(self, closed: Epoch | None) -> list[PrefetchRequest]:
        if not self._active:
            return []
        view = self.emab.epoch_boundary()
        if view is not None:
            self.table.train(view.key_line, view.payload)
            if self.config.table_in_memory:
                self.traffic.add_update_read(self.config.entry_bytes)
                self.traffic.add_update_write(self.config.entry_bytes)
        return []

    # ------------------------------------------------------------------
    def _lookup_and_issue(self, key_line: int) -> list[PrefetchRequest]:
        if self.config.table_in_memory:
            self.traffic.add_lookup_read(self.config.entry_bytes)
        hit = self.table.lookup(key_line)
        if hit is None:
            return []
        index, lines = hit
        ready = self._epochs_until_ready
        requests = []
        for line in lines[: self.config.prefetch_degree]:
            requests.append(
                self.make_request(
                    line,
                    epochs_until_ready=ready,
                    priority=Priority.PREFETCH,
                    table_index=index,
                )
            )
        return requests

    # ------------------------------------------------------------------
    # Cost reporting
    # ------------------------------------------------------------------
    @property
    def onchip_storage_bytes(self) -> int:
        # EMAB: depth x capacity 6-byte addresses; plus control state.
        emab = self.emab.depth * self.emab.capacity_per_epoch * 6
        if self.config.table_in_memory:
            return emab
        return emab + self.table.size_bytes

    @property
    def memory_table_bytes(self) -> int:
        return self.table.size_bytes if self.config.table_in_memory else 0
