"""Tag Correlating Prefetcher (Hu, Martonosi & Kaxiras, HPCA 2003).

TCP exploits correlation among cache *tags* instead of full addresses,
betting that tag sequences repeat across different sets and thus need a
smaller table.  Two levels:

* **THT** (Tag History Table) — one entry per L1 cache set holding the
  last two miss tags of that set.
* **PHT** (Pattern History Table) — set-associative table mapping a
  (tag₁, tag₂) history pair to the predicted next tag.

On a load miss to set ``s`` with tag ``t``: the PHT entry for the set's
previous tag pair is updated to predict ``t``; then the updated history
``(t_prev, t)`` probes the PHT and the predicted tag chain is followed to
issue up to ``degree`` prefetches to ``(predicted_tag, s)``.

Both levels are on-chip (ready one epoch after the trigger); only load
misses are observed.  Paper configurations: *TCP small* — 2048 PHT sets x
16 ways (~256 KB); *TCP large* — 32 K PHT sets x 16 ways (~4 MB); THT of
128 entries matching the L1 sets.
"""

from __future__ import annotations

from ..memory.request import Access, AccessKind, PrefetchRequest
from .base import Prefetcher

__all__ = ["TagCorrelatingPrefetcher", "make_tcp_small", "make_tcp_large"]

_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


class TagCorrelatingPrefetcher(Prefetcher):
    """Two-level tag-correlation prefetcher."""

    name = "tcp"
    targets_instructions = False
    supports_epoch_batch = True

    def __init__(
        self,
        pht_sets: int = 2048,
        pht_ways: int = 16,
        l1_sets: int = 128,
        degree: int = 6,
        label: str | None = None,
    ) -> None:
        super().__init__()
        if pht_sets <= 0 or pht_ways <= 0 or l1_sets <= 0:
            raise ValueError("table geometry must be positive")
        if l1_sets & (l1_sets - 1):
            raise ValueError("l1_sets must be a power of two")
        self.pht_sets = pht_sets
        self.pht_ways = pht_ways
        self.l1_sets = l1_sets
        self._set_bits = l1_sets.bit_length() - 1
        self.degree = degree
        if label:
            self.name = label
        # THT: per L1 set, the last two miss tags (older, newer).
        self._tht: list[tuple[int, int]] = [(-1, -1)] * l1_sets
        # PHT: per set, an LRU dict (tag1, tag2) -> predicted next tag.
        self._pht: list[dict[tuple[int, int], tuple[int, int]]] = [
            dict() for _ in range(pht_sets)
        ]
        self._stamp = 0

    # ------------------------------------------------------------------
    def observe_access(self, access: Access, line: int, epoch_index: int) -> list[PrefetchRequest]:
        # TCP is an L1-side scheme: it observes the L1 load-miss stream
        # (i.e. every L2 load access), not just L2 misses.
        if access.kind is not AccessKind.LOAD:
            return []
        return self._miss(line)

    # ------------------------------------------------------------------
    def _split(self, line: int) -> tuple[int, int]:
        return line & (self.l1_sets - 1), line >> self._set_bits

    def _pht_index(self, history: tuple[int, int]) -> int:
        mixed = ((history[0] * _HASH_MULT) ^ (history[1] * 0x2545F4914F6CDD1D)) & _HASH_MASK
        return mixed % self.pht_sets

    def _pht_update(self, history: tuple[int, int], next_tag: int) -> None:
        bucket = self._pht[self._pht_index(history)]
        self._stamp += 1
        if history in bucket:
            bucket[history] = (next_tag, self._stamp)
            return
        if len(bucket) >= self.pht_ways:
            victim = min(bucket, key=lambda k: bucket[k][1])
            del bucket[victim]
        bucket[history] = (next_tag, self._stamp)

    def _pht_lookup(self, history: tuple[int, int]) -> int | None:
        bucket = self._pht[self._pht_index(history)]
        hit = bucket.get(history)
        if hit is None:
            return None
        self._stamp += 1
        bucket[history] = (hit[0], self._stamp)
        return hit[0]

    def _miss(self, line: int) -> list[PrefetchRequest]:
        cache_set, tag = self._split(line)
        older, newer = self._tht[cache_set]
        if older >= 0 and newer >= 0:
            self._pht_update((older, newer), tag)
        self._tht[cache_set] = (newer, tag)
        if newer < 0:
            return []
        # Follow the predicted tag chain from the fresh history.
        requests = []
        history = (newer, tag)
        seen: set[int] = set()
        for _ in range(self.degree):
            predicted = self._pht_lookup(history)
            if predicted is None or predicted in seen:
                break
            seen.add(predicted)
            requests.append(
                self.make_request(
                    (predicted << self._set_bits) | cache_set, epochs_until_ready=1
                )
            )
            history = (history[1], predicted)
        return requests

    # ------------------------------------------------------------------
    @property
    def onchip_storage_bytes(self) -> int:
        # ~8 B per PHT way (two-tag key compressed + predicted tag),
        # giving ~256 KB for the small and ~4 MB for the large config.
        return self.pht_sets * self.pht_ways * 8 + self.l1_sets * 12


def make_tcp_small(degree: int = 6, l1_sets: int = 128, scale: int = 8) -> TagCorrelatingPrefetcher:
    """TCP small: the paper's 2048 PHT sets x 16 ways (~256 KB), divided
    by the evaluation's capacity scale factor (DESIGN.md Sec 2)."""
    return TagCorrelatingPrefetcher(2048 // scale, 16, l1_sets, degree, label="tcp_small")


def make_tcp_large(degree: int = 6, l1_sets: int = 128, scale: int = 8) -> TagCorrelatingPrefetcher:
    """TCP large: the paper's 32 K PHT sets x 16 ways (~4 MB), divided by
    the evaluation's capacity scale factor."""
    return TagCorrelatingPrefetcher(32 * 1024 // scale, 16, l1_sets, degree, label="tcp_large")
