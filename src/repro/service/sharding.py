"""Consistent-hash routing for the sharded service tier.

The front-end (:mod:`repro.service.router`) routes every simulate
request to one of N shard processes, each owning its own persistent
pool, micro-batcher and result cache.  The routing goal is *locality*:
the same logical run must always land on the same shard, so that
shard's trace memo, filter planes and result cache stay hot — the
server-prefetching argument (keep correlation state close to the
requests that reuse it) applied to the service tier itself.

Two pieces deliver that:

* :func:`routing_key` — the deterministic string placement of a request:
  ``(workload, records, seed)`` plus the processor-config fingerprint,
  part of what the job identity hashes.  The prefetcher is deliberately
  excluded, so every prefetcher variant of one trace shares a shard and
  therefore one warmed trace/filter-plane memo.
* :class:`HashRing` — classic consistent hashing with virtual nodes.
  Each shard owns ``replicas`` pseudo-random points on a 64-bit ring;
  a key routes to the first point clockwise from its own hash.  Adding
  or removing a shard remaps only the keys adjacent to that shard's
  points (~1/N of the keyspace), so a resize keeps most caches warm —
  the property the Hypothesis suite in ``tests/test_sharding.py`` pins.

Hashes are :func:`hashlib.blake2b` digests, not Python ``hash()`` —
stable across processes and ``PYTHONHASHSEED``, which is what makes the
routing reproducible enough to assert on in CI.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from typing import Any, Iterable, List, Tuple

__all__ = ["HashRing", "routing_key"]

#: Virtual nodes per shard.  64 keeps the per-shard keyspace share
#: within a few percent of 1/N for small N while the ring stays tiny
#: (N * 64 points, bisected in ~log2(256) steps for 4 shards).
DEFAULT_REPLICAS = 64


def _hash64(data: str) -> int:
    """Stable 64-bit position on the ring (process-independent)."""
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


def routing_key(
    workload: str, records: int, seed: int, config_fingerprint: Any
) -> str:
    """The shard-routing key of one simulate request.

    It is the job identity's generation params ``(workload, records,
    seed)`` plus its config fingerprint, and leaves out the rest of the
    identity (scale, threads, prefetcher, overrides, warm-up): it is
    deliberately coarser, so one shard keeps every variant of a trace
    warm.  Nothing is generated to compute it.
    """
    return json.dumps(
        [workload, records, seed, config_fingerprint],
        separators=(",", ":"),
        sort_keys=True,
        default=list,  # fingerprints are (nested) tuples
    )


class HashRing:
    """Consistent-hash ring with virtual nodes over string shard names."""

    def __init__(
        self, shards: Iterable[str] = (), replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []  # sorted (position, shard)
        self._shards: set = set()
        for shard in shards:
            self.add(shard)

    # ------------------------------------------------------------------
    def add(self, shard: str) -> None:
        """Insert ``shard``'s virtual nodes (idempotent)."""
        if not shard:
            raise ValueError("shard name must be non-empty")
        if shard in self._shards:
            return
        self._shards.add(shard)
        for replica in range(self.replicas):
            point = (_hash64(f"{shard}#{replica}"), shard)
            bisect.insort(self._points, point)

    def remove(self, shard: str) -> None:
        """Remove ``shard``'s virtual nodes (idempotent)."""
        if shard not in self._shards:
            return
        self._shards.discard(shard)
        self._points = [p for p in self._points if p[1] != shard]

    # ------------------------------------------------------------------
    def route(self, key: str) -> str:
        """The shard owning ``key``: first ring point clockwise."""
        if not self._points:
            raise LookupError("hash ring has no shards")
        position = _hash64(key)
        index = bisect.bisect_right(self._points, (position, "￿"))
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._points[index][1]

    # ------------------------------------------------------------------
    def shards(self) -> Tuple[str, ...]:
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards
