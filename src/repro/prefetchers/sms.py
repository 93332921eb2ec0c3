"""Spatial Memory Streaming (Somogyi et al, ISCA 2006).

SMS predicts which lines of a fixed-size *spatial region* (2 KB in the
paper's comparison) a code path will touch, keyed by the PC+offset of the
first access to the region (the *trigger*).  Structures:

* an **active generation table** (the paper's combined Accumulation +
  Filter table, 128 entries): while a region's generation is live, it
  accumulates a bit vector of the lines accessed;
* a **pattern history table** (PHT, 16 K entries, 16-way): when a
  generation ends, the accumulated pattern is stored under the
  generation's (trigger PC, trigger offset) key.  Unlike the
  capacity-class address tables (GHB, TCP, the correlation tables), the
  PHT is NOT scaled down with the footprint scale factor: its key count
  tracks static code-site diversity, which the scaled workloads preserve.

On a trigger access (first access of a new generation) the PHT is probed
and every line set in the recorded pattern is prefetched — up to 32
prefetches per match, the one scheme in the comparison allowed more than
degree 6.  SMS trains on the L2-access (L1-miss) stream, targets load
misses only, and does not prefetch instructions — which is exactly why
the paper finds it weak on TPC-W and SPECjAppServer2004.
"""

from __future__ import annotations

from collections import OrderedDict

from ..memory.request import Access, AccessKind, PrefetchRequest
from .base import Prefetcher

__all__ = ["SpatialMemoryStreaming"]

_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


def _mix(key: int) -> int:
    """Spread structured trigger keys across the PHT sets."""
    return ((key * _HASH_MULT) & _HASH_MASK) >> 16


class SpatialMemoryStreaming(Prefetcher):
    """SMS with a combined accumulation/filter table and on-chip PHT."""

    name = "sms"
    targets_instructions = False
    supports_epoch_batch = True

    def __init__(
        self,
        region_bytes: int = 2048,
        line_bytes: int = 64,
        agt_entries: int = 128,
        pht_entries: int = 16 * 1024,
        pht_ways: int = 16,
    ) -> None:
        super().__init__()
        if region_bytes % line_bytes:
            raise ValueError("region size must be a multiple of the line size")
        self.region_bytes = region_bytes
        self.line_bytes = line_bytes
        self.lines_per_region = region_bytes // line_bytes
        self._region_shift = (self.lines_per_region).bit_length() - 1
        self.agt_entries = agt_entries
        self.pht_sets = pht_entries // pht_ways
        self.pht_ways = pht_ways
        # Active generations: region_id -> (trigger_key, pattern_bits).
        self._agt: OrderedDict[int, tuple[int, int]] = OrderedDict()
        # PHT: per set, LRU dict trigger_key -> (pattern_bits, stamp).
        self._pht: list[dict[int, tuple[int, int]]] = [dict() for _ in range(self.pht_sets)]
        self._stamp = 0

    # ------------------------------------------------------------------
    def observe_access(self, access: Access, line: int, epoch_index: int) -> list[PrefetchRequest]:
        """Train on every L2 access (the L1-miss stream)."""
        if access.kind is not AccessKind.LOAD:
            return []
        region = line >> self._region_shift
        offset = line & (self.lines_per_region - 1)
        live = self._agt.get(region)
        if live is not None:
            key, pattern = live
            self._agt[region] = (key, pattern | (1 << offset))
            self._agt.move_to_end(region)
            return []
        # First access to the region: a new generation begins.
        trigger_key = (access.pc << self._region_shift) | offset
        if len(self._agt) >= self.agt_entries:
            self._end_generation(*self._agt.popitem(last=False))
        self._agt[region] = (trigger_key, 1 << offset)
        # Probe the PHT with the trigger and stream the learned pattern.
        pattern = self._pht_lookup(trigger_key)
        if pattern is None:
            return []
        requests = []
        region_base_line = region << self._region_shift
        for bit in range(self.lines_per_region):
            if bit == offset or not (pattern >> bit) & 1:
                continue
            requests.append(
                self.make_request(region_base_line + bit, epochs_until_ready=1)
            )
        return requests

    # ------------------------------------------------------------------
    def _end_generation(self, region: int, state: tuple[int, int]) -> None:
        key, pattern = state
        bucket = self._pht[_mix(key) % self.pht_sets]
        self._stamp += 1
        if key not in bucket and len(bucket) >= self.pht_ways:
            victim = min(bucket, key=lambda k: bucket[k][1])
            del bucket[victim]
        bucket[key] = (pattern, self._stamp)

    def _pht_lookup(self, key: int) -> int | None:
        bucket = self._pht[_mix(key) % self.pht_sets]
        hit = bucket.get(key)
        if hit is None:
            return None
        self._stamp += 1
        bucket[key] = (hit[0], self._stamp)
        return hit[0]

    def flush_generations(self) -> None:
        """End all live generations (used by tests)."""
        while self._agt:
            self._end_generation(*self._agt.popitem(last=False))

    # ------------------------------------------------------------------
    @property
    def onchip_storage_bytes(self) -> int:
        # 4 B pattern + ~4 B compressed tag per PHT entry (the paper's
        # 128 KB estimate), plus the small AGT.
        return self.pht_sets * self.pht_ways * 8 + self.agt_entries * 12
