"""Identity-keyed result cache for served simulations — now tiered.

A resident service sees the same request many times — dashboards poll,
sweeps overlap, users rerun.  Simulation is deterministic in its inputs,
so a repeat request need not re-simulate: the cache keys a completed
:class:`~repro.engine.stats.SimulationResult` by the job's
:func:`~repro.parallel.jobs.job_identity` — a sha256 over the generation
parameters, the warm-up split, the processor-config fingerprint, the
prefetcher's registry name and canonical overrides, and the model and
generator versions.  A plain request and its spelling with explicit
default fields share one key, no key needs the trace built, and an
entry written by another model or generator version is never found.

The execution path is deliberately **not** part of the key: the epoch
kernel and the scalar filter-plane walk (``REPRO_KERNEL=off``) are
bit-identical by construction, so a cache entry is valid whichever path
computed it.

Tiers
-----
The in-memory tier is a bounded LRU of
:meth:`~repro.engine.stats.SimulationResult.snapshot` dictionaries —
every hit rehydrates a fresh ``SimulationResult`` so callers can never
mutate the cached copy.

With ``spill_dir`` set, every ``put`` also writes the snapshot through
to disk as a content-addressed entry in the one result format of
:mod:`repro.resilience.checkpoint` (``<identity>.json``, checksummed),
the same entry a checkpointed batch stores, so a checkpoint directory
is a warm ``spill_dir``.  A memory miss then falls through to the disk
tier, where a bad entry is quarantined and treated as a miss, and a
good entry is promoted back into memory.  Because entries are
content-addressed and written atomically, several shard processes can
safely share one ``spill_dir`` (concurrent writers of the same key write
identical bytes), and a warm result survives worker crashes, full
restarts and ring resizes.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path
from threading import Lock
from typing import Optional, Union

from ..engine.stats import SimulationResult
from ..resilience.checkpoint import load_result, result_entries, result_path, store_result
from ..resilience.integrity import checksum_path

__all__ = ["ResultCache"]

PathLike = Union[str, "os.PathLike[str]"]


def _mtime(path: Path) -> float:
    """A disk entry's recency (``get`` refreshes it on every disk hit)."""
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0


class ResultCache:
    """LRU of simulation results with an optional write-through disk tier."""

    def __init__(
        self,
        max_entries: int = 256,
        spill_dir: Optional[PathLike] = None,
        max_disk_entries: int = 4096,
    ) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_disk_entries < 1:
            raise ValueError(f"max_disk_entries must be >= 1, got {max_disk_entries}")
        self.max_entries = max_entries
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.max_disk_entries = max_disk_entries
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        #: Memory misses answered from the disk tier (and promoted).
        self.disk_hits = 0
        #: Snapshots written through to the disk tier.
        self.spilled = 0
        #: Disk entries quarantined (bad sidecar, undecodable, key clash).
        self.quarantined = 0
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key`` (a fresh object), or None.

        Checks the memory tier first, then — when spilling is enabled —
        the disk tier, promoting a verified disk entry back into memory.
        """
        with self._lock:
            snapshot = self._entries.get(key)
            if snapshot is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return SimulationResult.from_snapshot(snapshot)
        snapshot = self._disk_get(key)
        if snapshot is not None:
            with self._lock:
                self.disk_hits += 1
                self._remember(key, snapshot)
            return SimulationResult.from_snapshot(snapshot)
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: str, result: SimulationResult) -> None:
        if self.max_entries == 0 and self.spill_dir is None:
            return
        snapshot = result.snapshot()
        if self.max_entries:
            with self._lock:
                self._remember(key, snapshot)
        self._disk_put(key, snapshot)

    def _remember(self, key: str, snapshot: dict) -> None:
        """Insert into the memory LRU (caller holds the lock)."""
        self._entries[key] = snapshot
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        """The content-addressed disk path of ``key``'s entry."""
        assert self.spill_dir is not None
        return result_path(self.spill_dir, key)

    def _disk_put(self, key: str, snapshot: dict) -> None:
        if self.spill_dir is None:
            return
        if store_result(self.entry_path(key), snapshot):
            self.spilled += 1
            self._prune_disk()

    def _disk_get(self, key: str) -> Optional[dict]:
        if self.spill_dir is None:
            return None
        path = self.entry_path(key)
        if not path.exists():
            return None
        snapshot = self._read_entry(path)
        if snapshot is not None:
            # Touch the entry so disk pruning tracks recency, not write age.
            try:
                os.utime(path)
            except OSError:
                pass
        return snapshot

    def _read_entry(self, path: Path) -> Optional[dict]:
        """An existing entry's snapshot, or None after quarantining it."""
        snapshot = load_result(path)
        if snapshot is None:  # the entry existed, so: quarantined
            self.quarantined += 1
        return snapshot

    def _prune_disk(self) -> None:
        """Drop the oldest disk entries beyond ``max_disk_entries``."""
        assert self.spill_dir is not None
        entries = result_entries(self.spill_dir)
        excess = len(entries) - self.max_disk_entries
        if excess <= 0:
            return
        for victim in sorted(entries, key=_mtime)[:excess]:
            for path in (victim, checksum_path(victim)):
                try:
                    path.unlink()
                except OSError:
                    pass

    def preload(self, limit: Optional[int] = None) -> int:
        """Warm the memory tier from the disk tier; returns entries loaded.

        Reads the newest disk entries (recency = mtime, which ``get``
        refreshes on every disk hit) into the memory LRU without
        counting hits or misses — this is boot-time warming for a shard
        that just joined (or rejoined) the ring over a shared
        ``spill_dir``, not request traffic.  Corrupt entries are
        quarantined exactly as a ``get`` would.
        """
        if self.spill_dir is None or self.max_entries == 0:
            return 0
        budget = self.max_entries if limit is None else min(limit, self.max_entries)
        loaded = 0
        # Take the newest ``budget`` entries, but insert oldest-first so
        # the LRU's eviction order matches disk recency.
        newest = sorted(result_entries(self.spill_dir), key=_mtime, reverse=True)[:budget]
        for path in reversed(newest):
            snapshot = self._read_entry(path)
            if snapshot is None:
                continue
            with self._lock:
                if path.stem not in self._entries:
                    self._remember(path.stem, snapshot)
                    loaded += 1
        return loaded

    def disk_entries(self) -> int:
        """How many entries the disk tier currently holds."""
        if self.spill_dir is None:
            return 0
        return len(result_entries(self.spill_dir))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self, disk: bool = False) -> None:
        """Empty the memory tier; with ``disk=True`` the disk tier too."""
        with self._lock:
            self._entries.clear()
        if disk and self.spill_dir is not None:
            for path in self.spill_dir.glob("*.json*"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def info(self) -> dict:
        """JSON-safe occupancy/effectiveness summary (stats responses)."""
        info = {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.spill_dir is not None:
            info["disk"] = {
                "dir": str(self.spill_dir),
                "entries": self.disk_entries(),
                "max_entries": self.max_disk_entries,
                "hits": self.disk_hits,
                "spilled": self.spilled,
                "quarantined": self.quarantined,
            }
        return info
