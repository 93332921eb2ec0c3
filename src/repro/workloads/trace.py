"""Trace container and builder.

A trace is the unit of input to the epoch simulator: a packed sequence of
L1-level access records, each ``(gap, kind, pc, addr, serial, tid)`` where

* ``gap`` — retired instructions since the previous record,
* ``kind`` — :class:`~repro.memory.request.AccessKind` code
  (0 = instruction fetch, 1 = load, 2 = store),
* ``pc`` — program counter of the access,
* ``addr`` — byte address touched,
* ``serial`` — True when the access is data-dependent on the previous
  off-chip miss (it can never overlap with it; pointer chasing),
* ``tid`` — issuing hardware thread (0 unless the trace was composed by
  :mod:`repro.workloads.multithread`).

Records are held in parallel numpy arrays for compactness; traces are
deterministic functions of (workload, scale, seed) and can be saved to and
loaded from ``.npz`` files.

This is the reproduction's stand-in for the paper's proprietary SPARC
full-system traces; see DESIGN.md Section 2 for the substitution argument.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from ..memory.request import AccessKind

__all__ = ["TraceMeta", "Trace", "TraceBuilder"]


@dataclass
class TraceMeta:
    """Descriptive and timing metadata attached to a trace."""

    name: str = "trace"
    seed: int = 0
    description: str = ""
    #: Epoch-model timing parameters calibrated for this workload
    #: (CPI with a perfect L2, and the on-/off-chip overlap fraction).
    cpi_perf: float = 1.0
    overlap: float = 0.10
    #: Footprint scale factor relative to the scaled default config.
    scale: float = 1.0
    extra: dict = field(default_factory=dict)


class Trace:
    """Immutable packed access trace."""

    def __init__(
        self,
        gap: np.ndarray,
        kind: np.ndarray,
        pc: np.ndarray,
        addr: np.ndarray,
        serial: np.ndarray,
        meta: TraceMeta | None = None,
        tid: np.ndarray | None = None,
    ) -> None:
        n = len(gap)
        for arr, label in ((kind, "kind"), (pc, "pc"), (addr, "addr"), (serial, "serial")):
            if len(arr) != n:
                raise ValueError(f"array '{label}' has length {len(arr)}, expected {n}")
        self.gap = np.ascontiguousarray(gap, dtype=np.int64)
        self.kind = np.ascontiguousarray(kind, dtype=np.uint8)
        self.pc = np.ascontiguousarray(pc, dtype=np.int64)
        self.addr = np.ascontiguousarray(addr, dtype=np.int64)
        self.serial = np.ascontiguousarray(serial, dtype=np.uint8)
        if tid is None:
            tid = np.zeros(n, dtype=np.uint16)
        elif len(tid) != n:
            raise ValueError(f"array 'tid' has length {len(tid)}, expected {n}")
        self.tid = np.ascontiguousarray(tid, dtype=np.uint16)
        self.meta = meta or TraceMeta()
        # Lazy derived state, all keyed to the immutable record arrays:
        # content fingerprint, instruction prefix sums, and the per-L1-
        # geometry filter planes (:mod:`repro.engine.filter_plane`).
        self._fingerprint: str | None = None
        self._inst_prefix: np.ndarray | None = None
        self._store_count_prefix: np.ndarray | None = None
        self._plane_cache: dict = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.gap)

    @property
    def instructions(self) -> int:
        """Total retired instructions spanned by the trace."""
        return int(self.gap.sum())

    def records(self) -> Iterator[tuple[int, AccessKind, int, int, bool]]:
        """Iterate records as Python tuples (slow path, for tests)."""
        for i in range(len(self)):
            yield (
                int(self.gap[i]),
                AccessKind(int(self.kind[i])),
                int(self.pc[i]),
                int(self.addr[i]),
                bool(self.serial[i]),
            )

    def fingerprint(self) -> str:
        """Content hash over all six record columns (hex, 32 chars).

        Stable across processes and save/load round-trips; keys the
        on-disk filter-plane cache the same way the generation parameters
        key the trace cache.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(len(self.gap).to_bytes(8, "little"))
            for arr in (self.gap, self.kind, self.pc, self.addr, self.serial, self.tid):
                digest.update(arr.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def inst_prefix(self) -> np.ndarray:
        """Prefix sums of ``gap``: retired instructions *after* record ``i``
        is ``inst_prefix()[i + 1]`` (length ``n + 1``, ``[0]`` is 0).

        The compressed-execution path reconstructs the per-miss
        instruction clock from this instead of accumulating gaps record by
        record.
        """
        if self._inst_prefix is None:
            prefix = np.zeros(len(self.gap) + 1, dtype=np.int64)
            np.cumsum(self.gap, out=prefix[1:])
            self._inst_prefix = prefix
        return self._inst_prefix

    def store_count_prefix(self) -> np.ndarray:
        """Prefix sums of store records (``kind == STORE``), length ``n + 1``.

        Multiplying differences by the line size yields the store bytes of
        any record range in O(1) (exported on the filter plane as
        ``store_bytes_prefix``).
        """
        if self._store_count_prefix is None:
            prefix = np.zeros(len(self.kind) + 1, dtype=np.int64)
            np.cumsum(self.kind == int(AccessKind.STORE), out=prefix[1:])
            self._store_count_prefix = prefix
        return self._store_count_prefix

    @property
    def n_threads(self) -> int:
        return int(self.tid.max()) + 1 if len(self.tid) else 1

    def slice(self, start: int, stop: int) -> "Trace":
        return Trace(
            self.gap[start:stop],
            self.kind[start:stop],
            self.pc[start:stop],
            self.addr[start:stop],
            self.serial[start:stop],
            self.meta,
            tid=self.tid[start:stop],
        )

    def concat(self, other: "Trace") -> "Trace":
        return Trace(
            np.concatenate([self.gap, other.gap]),
            np.concatenate([self.kind, other.kind]),
            np.concatenate([self.pc, other.pc]),
            np.concatenate([self.addr, other.addr]),
            np.concatenate([self.serial, other.serial]),
            self.meta,
            tid=np.concatenate([self.tid, other.tid]),
        )

    # ------------------------------------------------------------------
    # Quick summaries (used by tests and the CLI)
    # ------------------------------------------------------------------
    def kind_counts(self) -> dict[AccessKind, int]:
        counts = np.bincount(self.kind, minlength=3)
        return {k: int(counts[int(k)]) for k in AccessKind}

    def unique_lines(self, line_shift: int = 6) -> int:
        return int(np.unique(self.addr >> line_shift).size)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path | BinaryIO) -> None:
        """Write the trace as ``.npz`` to a path or an open binary file."""
        np.savez_compressed(
            path,
            gap=self.gap,
            kind=self.kind,
            pc=self.pc,
            addr=self.addr,
            serial=self.serial,
            tid=self.tid,
            meta=np.frombuffer(json.dumps(asdict(self.meta)).encode(), dtype=np.uint8),
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        with np.load(Path(path)) as data:
            meta_dict = json.loads(bytes(data["meta"].tobytes()).decode())
            meta = TraceMeta(**meta_dict)
            return cls(
                data["gap"],
                data["kind"],
                data["pc"],
                data["addr"],
                data["serial"],
                meta,
                tid=data["tid"] if "tid" in data else None,
            )


class TraceBuilder:
    """Incremental trace construction with plain Python lists."""

    def __init__(self, meta: TraceMeta | None = None) -> None:
        self.meta = meta or TraceMeta()
        self._gap: list[int] = []
        self._kind: list[int] = []
        self._pc: list[int] = []
        self._addr: list[int] = []
        self._serial: list[int] = []
        #: Instruction gap accumulated before the next record.
        self._pending_gap = 0

    def __len__(self) -> int:
        return len(self._gap)

    # ------------------------------------------------------------------
    def pad(self, instructions: int) -> None:
        """Add pure-computation instructions before the next record."""
        if instructions < 0:
            raise ValueError("padding must be non-negative")
        self._pending_gap += instructions

    def add(self, kind: AccessKind | int, pc: int, addr: int, gap: int = 0, serial: bool = False) -> None:
        """Append one record (``gap`` instructions after the previous)."""
        if gap < 0:
            raise ValueError("gap must be non-negative")
        self._gap.append(gap + self._pending_gap)
        self._pending_gap = 0
        self._kind.append(int(kind))
        self._pc.append(pc)
        self._addr.append(addr)
        self._serial.append(1 if serial else 0)

    def extend_loads(
        self,
        pc,
        addr,
        gap=0,
        serial=False,
    ) -> None:
        """Bulk-append load records from array-likes (vectorized generators).

        ``pc``, ``gap`` and ``serial`` may be scalars (broadcast over every
        record) or arrays of the same length as ``addr``.  Equivalent to
        calling :meth:`load` once per element, including the pending-gap
        handling of :meth:`pad`, but without the per-record Python loop.
        """
        addr = np.asarray(addr, dtype=np.int64)
        n = addr.size
        if n == 0:
            return
        gap = np.broadcast_to(np.asarray(gap, dtype=np.int64), (n,))
        if gap.min() < 0:
            raise ValueError("gap must be non-negative")
        gaps = gap.tolist()
        if self._pending_gap:
            gaps[0] += self._pending_gap
            self._pending_gap = 0
        self._gap.extend(gaps)
        self._kind.extend([int(AccessKind.LOAD)] * n)
        pc = np.broadcast_to(np.asarray(pc, dtype=np.int64), (n,))
        self._pc.extend(pc.tolist())
        self._addr.extend(addr.tolist())
        serial = np.broadcast_to(np.asarray(serial, dtype=np.uint8), (n,))
        self._serial.extend(serial.tolist())

    def ifetch(self, addr: int, gap: int = 0) -> None:
        self.add(AccessKind.IFETCH, addr, addr, gap)

    def load(self, pc: int, addr: int, gap: int = 0, serial: bool = False) -> None:
        self.add(AccessKind.LOAD, pc, addr, gap, serial)

    def store(self, pc: int, addr: int, gap: int = 0) -> None:
        self.add(AccessKind.STORE, pc, addr, gap)

    # ------------------------------------------------------------------
    def build(self) -> Trace:
        return Trace(
            np.asarray(self._gap, dtype=np.int64),
            np.asarray(self._kind, dtype=np.uint8),
            np.asarray(self._pc, dtype=np.int64),
            np.asarray(self._addr, dtype=np.int64),
            np.asarray(self._serial, dtype=np.uint8),
            self.meta,
        )
