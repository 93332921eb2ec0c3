"""Prefetcher interface shared by EBCP and every baseline.

The epoch engine drives prefetchers through a small set of callbacks and
collects :class:`~repro.memory.request.PrefetchRequest` objects from them.
The engine owns timeliness (epoch-granular readiness) and bandwidth
(issue, drop); prefetchers own prediction state and training.

Callback contract
-----------------
``observe_access``
    Called for every L1 miss (== L2 access), hit or miss, *before* the
    outcome is known to the prefetcher.  Used by prefetchers that train on
    the L2-access stream (SMS accumulates spatial patterns here).
``observe_offchip_miss``
    Called for every genuine off-chip miss with its epoch context.
``observe_prefetch_hit``
    Called when a demand access hits a ready line in the prefetch buffer.
    EBCP updates its correlation-entry LRU here; it also substitutes for a
    miss as an epoch-lookup key (Section 3.4.3).
``on_epoch_boundary``
    Called when an epoch closes (outstanding misses drained).  EBCP does
    its EMAB-driven training here.

Epoch-batched execution
-----------------------
A scheme that sets :attr:`Prefetcher.supports_epoch_batch` runs inside
the epoch kernel (:mod:`repro.engine.ebcp_kernel`), which calls its
``observe_*`` hooks at the sites and in the order the scalar walk does.
The flag is a promise that:

* the hooks read only their arguments and the scheme's own state (never
  the hierarchy: ``bind`` may touch it only to allocate table memory);
* every request is staged through the engine, so the L2 evolves as a
  function of the trace alone;
* the hooks ignore ``epoch``: the kernel passes ``None``, as the scalar
  walk already does for writebacks;
* ``on_epoch_boundary`` stays the base no-op.  The kernel never calls
  it, so a flagged class other than EBCP that overrides it falls back
  to the scalar walk as ``unsupported_prefetcher``.

Traffic accounting
------------------
Prefetchers whose tables live in main memory report the table reads and
writes they generate through :class:`TrafficMeter`; the engine charges
them against the epoch's bus budgets at the appropriate priorities.
On-chip prefetchers leave the meter untouched and instead report their
SRAM cost via :attr:`Prefetcher.onchip_storage_bytes`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..engine.epoch import Epoch
from ..memory.request import Access, PrefetchRequest
from ..obs.events import PrefetchIssued, TableRead, TableWrite

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.bus import EventBus

__all__ = ["TrafficMeter", "Prefetcher"]


@dataclass
class TrafficMeter:
    """Main-memory table traffic generated since the last drain."""

    lookup_read_bytes: int = 0
    update_read_bytes: int = 0
    update_write_bytes: int = 0
    lru_write_bytes: int = 0
    # Lifetime totals (never reset), for reporting.
    total_read_bytes: int = 0
    total_write_bytes: int = 0
    #: Lifetime read / write transactions (one per add_* call).
    total_reads: int = 0
    total_writes: int = 0
    #: Optional observability bus; every add_* publishes a table event.
    bus: "EventBus | None" = field(default=None, repr=False, compare=False)

    def _read(self, nbytes: int, purpose: str) -> None:
        self.total_read_bytes += nbytes
        self.total_reads += 1
        if self.bus is not None and self.bus.wants(TableRead):
            self.bus.emit(TableRead(nbytes=nbytes, purpose=purpose))

    def _write(self, nbytes: int, purpose: str) -> None:
        self.total_write_bytes += nbytes
        self.total_writes += 1
        if self.bus is not None and self.bus.wants(TableWrite):
            self.bus.emit(TableWrite(nbytes=nbytes, purpose=purpose))

    def add_lookup_read(self, nbytes: int) -> None:
        self.lookup_read_bytes += nbytes
        self._read(nbytes, "lookup")

    def add_update_read(self, nbytes: int) -> None:
        self.update_read_bytes += nbytes
        self._read(nbytes, "update")

    def add_update_write(self, nbytes: int) -> None:
        self.update_write_bytes += nbytes
        self._write(nbytes, "update")

    def add_lru_write(self, nbytes: int) -> None:
        self.lru_write_bytes += nbytes
        self._write(nbytes, "lru")

    def drain(self) -> tuple[int, int, int, int]:
        """Return and clear (lookup_r, update_r, update_w, lru_w) bytes."""
        out = (
            self.lookup_read_bytes,
            self.update_read_bytes,
            self.update_write_bytes,
            self.lru_write_bytes,
        )
        self.lookup_read_bytes = 0
        self.update_read_bytes = 0
        self.update_write_bytes = 0
        self.lru_write_bytes = 0
        return out


class Prefetcher(abc.ABC):
    """Base class for all prefetching schemes."""

    #: Short identifier used in reports ("ebcp", "ghb_large", ...).
    name: str = "base"
    #: Whether the scheme prefetches instruction misses too.  TCP, the
    #: stream prefetcher and SMS only target load misses (Section 5.3).
    targets_instructions: bool = True
    #: Whether the scheme observes store misses.  EBCP's control sits in
    #: front of the core-to-L2 crossbar and deliberately excludes stores
    #: (weak consistency, Section 3.4.2); a memory-side engine (Solihin)
    #: sees every request that reaches memory, stores included.
    observes_stores: bool = False
    #: Whether the epoch kernel may run this scheme (see "Epoch-batched
    #: execution" above); unflagged schemes take the scalar walk.
    supports_epoch_batch: bool = False
    #: ``(registry name, canonical overrides)`` when built by
    #: ``build_prefetcher`` (job identities hash it); ``None`` by hand.
    built_as: tuple[str, str] | None = None

    def __init__(self) -> None:
        self.traffic = TrafficMeter()
        self.issued_requests = 0
        #: Optional observability bus (see :meth:`attach_bus`).
        self.bus: "EventBus | None" = None

    def attach_bus(self, bus: "EventBus | None") -> None:
        """Attach an observability bus to this prefetcher and its meter."""
        self.bus = bus
        self.traffic.bus = bus

    # ------------------------------------------------------------------
    # Engine callbacks (default: no-ops returning no requests)
    # ------------------------------------------------------------------
    def bind(self, hierarchy: object) -> None:
        """Called once before simulation starts.

        Prefetchers with main-memory tables use this to request their
        physical region from the simulated OS (Section 3.4.1).
        """


    def observe_access(self, access: Access, line: int, epoch_index: int) -> list[PrefetchRequest]:
        return []

    def observe_offchip_miss(
        self,
        access: Access,
        line: int,
        epoch: Epoch,
        is_trigger: bool,
    ) -> list[PrefetchRequest]:
        return []

    def observe_prefetch_hit(
        self,
        access: Access,
        line: int,
        table_index: int | None,
        epoch_index: int,
        first_in_epoch: bool,
    ) -> list[PrefetchRequest]:
        return []

    def on_epoch_boundary(self, closed: Epoch | None) -> list[PrefetchRequest]:
        """Called at each (would-be) epoch boundary.

        ``closed`` is the real epoch still open at the boundary, if any —
        at high coverage, boundaries are driven by prefetch-buffer hits
        and no real epoch may exist.
        """
        return []

    # ------------------------------------------------------------------
    # Cost reporting
    # ------------------------------------------------------------------
    @property
    def onchip_storage_bytes(self) -> int:
        """SRAM the scheme needs on chip (tables, buffers it owns)."""
        return 0

    @property
    def memory_table_bytes(self) -> int:
        """Main-memory footprint of an off-chip correlation table."""
        return 0

    # ------------------------------------------------------------------
    def make_request(self, line: int, **kwargs: object) -> PrefetchRequest:
        """Helper stamping the request with this prefetcher's name."""
        req = PrefetchRequest(line_addr=line, source=self.name, **kwargs)  # type: ignore[arg-type]
        self.issued_requests += 1
        if self.bus is not None and self.bus.wants(PrefetchIssued):
            self.bus.emit(
                PrefetchIssued(
                    line=req.line_addr,
                    source=req.source,
                    priority=int(req.priority),
                    epochs_until_ready=req.epochs_until_ready,
                    table_index=req.table_index,
                )
            )
        return req
