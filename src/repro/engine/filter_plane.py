"""Precomputed L1 filter plane.

The L1 caches are *pure filters* of the demand stream: ``CacheHierarchy``
installs the line into the requesting L1 on every non-L1-hit access no
matter where it was serviced, and nothing else mutates L1 state.  The L1
hit/miss outcome of every trace record is therefore a function of the
trace and the two L1 geometries alone — identical across prefetchers and
across every L2/buffer/bandwidth configuration that shares L1 geometry.

This module computes that outcome once per ``(trace fingerprint, L1I
geometry, L1D geometry)`` as a boolean *miss mask* plus prefix-sum
columns (instructions, per-class L1 hits, store bytes), and caches it

* **in memory** on the :class:`~repro.workloads.trace.Trace` object
  itself (the workload registry memoises traces per process, so every
  simulator run of the same trace shares one plane), and
* **on disk** as ``.npz`` beside the trace cache
  (:func:`repro.workloads.cache.plane_cache_root`), through the shared
  persisted-entry protocol of :mod:`repro.resilience.integrity`, so
  parallel sweep workers and later processes load instead of
  recomputing; file names carry ``MODEL_VERSION``.

The mask kernel is a NumPy per-set grouped LRU (sets advance in lockstep,
so the per-record Python loop disappears); a pure-Python reference
implementation over :class:`~repro.memory.cache.SetAssociativeCache`
exists for verification and serves geometries with fewer than four sets.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, BinaryIO, Optional, Tuple

import numpy as np

from ..resilience.integrity import load_entry, store_entry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.trace import Trace

__all__ = [
    "FilterPlane",
    "EpochSegmentPlane",
    "compute_filter_plane",
    "compute_epoch_segments",
    "get_filter_plane",
    "get_epoch_segments",
    "l1_hit_mask",
    "l1_hit_mask_reference",
    "l2_evolution",
    "l2_evolution_reference",
    "kernel_enabled",
]

#: Geometry key: (size_bytes, ways, line_size) — see
#: :meth:`repro.memory.cache.SetAssociativeCache.geometry_key`.
GeometryKey = Tuple[int, int, int]

#: Values of ``REPRO_KERNEL`` that turn the epoch-batched kernel off.
_DISABLED_VALUES = {"0", "off", "none", "false", "no"}

#: Traces shorter than this are not persisted to disk (the plane is
#: cheaper to recompute than to load, and tests would litter the cache).
_MIN_PERSIST_RECORDS = 20_000

_PLANE_FORMAT_VERSION = 1

_SEGMENT_FORMAT_VERSION = 1


def kernel_enabled() -> bool:
    """Default for the epoch-batched kernel: on unless ``REPRO_KERNEL``
    is set to a disabled value (``0``/``off``/``false``/...)."""
    value = os.environ.get("REPRO_KERNEL")
    if value is None:
        return True
    return value.strip().lower() not in _DISABLED_VALUES


# ----------------------------------------------------------------------
# Mask kernels
# ----------------------------------------------------------------------
def _geometry_sets(key: GeometryKey) -> tuple[int, int]:
    """(n_sets, ways) for a geometry key; validates like the cache does."""
    size_bytes, ways, line_size = key
    n_sets = size_bytes // line_size // ways
    if n_sets <= 0 or n_sets & (n_sets - 1):
        raise ValueError(f"number of sets ({n_sets}) must be a power of two")
    return n_sets, ways


def _grouped_lru_hit_mask(lines: np.ndarray, n_sets: int, ways: int) -> np.ndarray:
    """True-LRU hit mask for one cache over a line-number stream.

    Accesses are grouped by set (stable order within each set) and all
    sets advance in lockstep: each round consumes at most one access per
    still-active set with a handful of vectorized operations, so the
    Python iteration count is the *deepest* set's access count, not the
    stream length.  Stamps are the global round number — unique per set
    because a set sees at most one access per round — which reproduces
    the reference cache's strict-LRU victim order exactly.
    """
    n = lines.size
    hit_mask = np.empty(n, dtype=bool)
    if n == 0:
        return hit_mask
    set_mask = n_sets - 1
    tag_shift = n_sets.bit_length() - 1
    set_idx = (lines & set_mask).astype(np.int64)
    tags = lines >> tag_shift
    order = np.argsort(set_idx, kind="stable")
    sorted_tags = tags[order]
    counts = np.bincount(set_idx, minlength=n_sets)
    offsets = np.zeros(n_sets, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    hit_sorted = np.empty(n, dtype=bool)

    state_tags = np.full((n_sets, ways), -1, dtype=np.int64)
    state_stamp = np.full((n_sets, ways), -1, dtype=np.int64)
    ptr = np.zeros(n_sets, dtype=np.int64)
    active = np.flatnonzero(counts)
    round_no = 0
    while active.size:
        pos = offsets[active] + ptr[active]
        t = sorted_tags[pos]
        st = state_tags[active]
        eq = st == t[:, None]
        hit = eq.any(axis=1)
        hit_sorted[pos] = hit
        way = np.where(hit, eq.argmax(axis=1), state_stamp[active].argmin(axis=1))
        state_tags[active, way] = t
        state_stamp[active, way] = round_no
        ptr[active] += 1
        round_no += 1
        active = active[ptr[active] < counts[active]]

    hit_mask[order] = hit_sorted
    return hit_mask


def l1_hit_mask(
    kinds: np.ndarray,
    addrs: np.ndarray,
    l1i_key: GeometryKey,
    l1d_key: GeometryKey,
) -> np.ndarray:
    """Boolean L1 *hit* mask of the record stream (NumPy kernel).

    Instruction fetches (``kind == 0``) filter through the L1I, loads and
    stores through the L1D — exactly the split the simulator applies.
    """
    if l1i_key[2] != l1d_key[2]:
        raise ValueError("L1I and L1D must share one line size")
    line_shift = int(l1i_key[2]).bit_length() - 1
    lines = np.asarray(addrs, dtype=np.int64) >> line_shift
    kinds = np.asarray(kinds)
    is_ifetch = kinds == 0
    mask = np.empty(lines.size, dtype=bool)
    for selector, key in ((is_ifetch, l1i_key), (~is_ifetch, l1d_key)):
        n_sets, ways = _geometry_sets(key)
        mask[selector] = _grouped_lru_hit_mask(lines[selector], n_sets, ways)
    return mask


def l1_hit_mask_reference(
    kinds: np.ndarray,
    addrs: np.ndarray,
    l1i_key: GeometryKey,
    l1d_key: GeometryKey,
) -> np.ndarray:
    """Pure-Python reference mask: literally the simulator's L1 filter.

    Replays every record through two :class:`SetAssociativeCache`
    instances with the simulator's exact lookup-then-insert protocol.
    Used to verify the NumPy kernel and as the fallback for degenerate
    geometries.
    """
    from ..memory.cache import SetAssociativeCache

    if l1i_key[2] != l1d_key[2]:
        raise ValueError("L1I and L1D must share one line size")
    l1i = SetAssociativeCache(*l1i_key, name="plane-L1I")
    l1d = SetAssociativeCache(*l1d_key, name="plane-L1D")
    line_shift = l1i.line_shift
    mask = np.empty(len(addrs), dtype=bool)
    kind_list = np.asarray(kinds).tolist()
    addr_list = np.asarray(addrs).tolist()
    for i, (kind, addr) in enumerate(zip(kind_list, addr_list)):
        line = addr >> line_shift
        cache = l1i if kind == 0 else l1d
        if cache.lookup(line):
            mask[i] = True
        else:
            cache.insert(line)
            mask[i] = False
    return mask


# ----------------------------------------------------------------------
# The plane object
# ----------------------------------------------------------------------
class FilterPlane:
    """Precomputed L1 outcomes and prefix sums for one (trace, geometry).

    ``miss_mask[i]`` is True when record ``i`` misses its L1.  The prefix
    arrays all have length ``n + 1`` with a leading 0, so any record
    range ``[a, b)`` aggregates in O(1):

    * ``inst_prefix`` — retired instructions,
    * ``l1i_hit_prefix`` / ``l1d_hit_prefix`` — L1 hits by class,
    * ``store_bytes_prefix`` — store traffic in bytes
      (count × line size; the timing model keeps L1-hit stores free, the
      column exists for analysis and alternative bandwidth models).
    """

    def __init__(
        self,
        miss_mask: np.ndarray,
        trace: "Trace",
        l1i_key: GeometryKey,
        l1d_key: GeometryKey,
    ) -> None:
        n = len(trace.gap)
        if miss_mask.shape != (n,):
            raise ValueError(f"mask length {miss_mask.shape} != trace length {n}")
        self.miss_mask = miss_mask
        self.l1i_key = l1i_key
        self.l1d_key = l1d_key
        self.trace_fingerprint = trace.fingerprint()
        self.line_shift = int(l1i_key[2]).bit_length() - 1
        self.inst_prefix = trace.inst_prefix()
        hits = ~miss_mask
        is_ifetch = trace.kind == 0
        self.l1i_hit_prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(hits & is_ifetch, out=self.l1i_hit_prefix[1:])
        self.l1d_hit_prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(hits & ~is_ifetch, out=self.l1d_hit_prefix[1:])
        self.store_bytes_prefix = trace.store_count_prefix() * int(l1i_key[2])
        self.miss_indices = np.flatnonzero(miss_mask)
        self._miss_columns: tuple | None = None
        self._segment_cache: dict = {}

    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return int(self.miss_mask.size)

    @property
    def n_misses(self) -> int:
        return int(self.miss_indices.size)

    def miss_count_before(self, record_index: int) -> int:
        """Number of L1 misses among records ``[0, record_index)``."""
        return int(np.searchsorted(self.miss_indices, record_index))

    def miss_columns(self, trace: "Trace") -> tuple:
        """Packed per-miss record columns as plain Python lists.

        ``(kind, pc, addr, serial, inst, tid, line)`` — ``inst`` is the
        retired-instruction clock *after* the record's gap, ``line`` is
        the L1 line number.  Built once and reused across every run of
        the same trace (sweeps run a trace dozens of times).
        """
        if self._miss_columns is None:
            idx = self.miss_indices
            self._miss_columns = (
                trace.kind[idx].tolist(),
                trace.pc[idx].tolist(),
                trace.addr[idx].tolist(),
                (trace.serial[idx] != 0).tolist(),
                self.inst_prefix[idx + 1].tolist(),
                trace.tid[idx].tolist(),
                (trace.addr[idx] >> self.line_shift).tolist(),
            )
        return self._miss_columns


# ----------------------------------------------------------------------
# Computation + caching
# ----------------------------------------------------------------------
def compute_filter_plane(
    trace: "Trace", l1i_key: GeometryKey, l1d_key: GeometryKey
) -> FilterPlane:
    """Compute a plane directly (no caching)."""
    # Tiny set counts make the lockstep kernel degenerate to one set per
    # round; the reference loop is faster and trivially correct there.
    if _geometry_sets(l1i_key)[0] < 4 or _geometry_sets(l1d_key)[0] < 4:
        hit = l1_hit_mask_reference(trace.kind, trace.addr, l1i_key, l1d_key)
    else:
        hit = l1_hit_mask(trace.kind, trace.addr, l1i_key, l1d_key)
    return FilterPlane(~hit, trace, l1i_key, l1d_key)


def _plane_path(
    trace: "Trace", l1i_key: GeometryKey, l1d_key: GeometryKey, extra: str = ""
):
    """The plane's ``.npz`` path; ``extra`` names an entry derived from it."""
    from ..workloads.cache import plane_cache_root
    from .simulator import MODEL_VERSION

    root = plane_cache_root()
    if root is None:
        return None
    geom = (
        f"i{l1i_key[0]}x{l1i_key[1]}-d{l1d_key[0]}x{l1d_key[1]}-l{l1i_key[2]}{extra}"
    )
    return root / f"{trace.fingerprint()}-{geom}-m{MODEL_VERSION}.npz"


def _load_plane(path, trace, l1i_key, l1d_key) -> Optional[FilterPlane]:
    def read(entry) -> Optional[FilterPlane]:
        with np.load(entry) as data:
            if int(data["version"][0]) != _PLANE_FORMAT_VERSION:
                return None
            miss_mask = np.unpackbits(data["miss_mask"], count=len(trace.gap)).astype(bool)
        return FilterPlane(miss_mask, trace, l1i_key, l1d_key)

    return load_entry(path, "plane", read)


def _store_plane(path, plane: FilterPlane) -> None:
    def write(fh: BinaryIO) -> None:
        np.savez_compressed(
            fh,
            version=np.array([_PLANE_FORMAT_VERSION], dtype=np.int64),
            miss_mask=np.packbits(plane.miss_mask),
        )

    store_entry(path, "plane", write)


def get_filter_plane(
    trace: "Trace", l1i_key: GeometryKey, l1d_key: GeometryKey
) -> FilterPlane:
    """The plane for ``(trace, L1 geometries)``, through both cache layers."""
    memo = trace._plane_cache
    memo_key = (l1i_key, l1d_key)
    plane = memo.get(memo_key)
    if plane is not None:
        return plane
    path = None
    if len(trace.gap) >= _MIN_PERSIST_RECORDS:
        path = _plane_path(trace, l1i_key, l1d_key)
    if path is not None and path.exists():
        plane = _load_plane(path, trace, l1i_key, l1d_key)
    if plane is None:
        plane = compute_filter_plane(trace, l1i_key, l1d_key)
        if path is not None:
            _store_plane(path, plane)
    memo[memo_key] = plane
    return plane


# ----------------------------------------------------------------------
# Epoch segmentation over the compressed miss stream
# ----------------------------------------------------------------------
# Just as the L1s are pure filters of the demand stream, the *L2* is a
# pure filter of the L1-miss stream: ``CacheHierarchy`` looks every miss
# up in the L2 and installs it on an L2 miss regardless of prefetcher
# outcome, and nothing else mutates L2 state.  The L2 hit/miss outcome,
# the evicted victim line, and the victim's dirty bit are therefore
# functions of (trace, L1 geometries, L2 geometry) alone.
#
# Epoch *triggers* go one step further.  ``EpochSimulator._interval_event``
# is fed every non-store record that reaches off-chip decision logic —
# prefetch hit or genuine miss alike — and its new-interval rule (first
# event, serial instruction, sealed by an instruction fetch, or ROB-range
# overflow) reads only the event stream itself.  The "first miss of each
# would-be epoch" mask is therefore precomputable per (trace, L1 geoms,
# L2 geom, ROB size) and shared by every EBCP variant and every run.


def l2_evolution(
    lines: np.ndarray, store_mask: np.ndarray, n_sets: int, ways: int
) -> tuple:
    """L2 outcomes over the L1-miss line stream (NumPy lockstep kernel).

    Extends :func:`_grouped_lru_hit_mask` with the write-allocate dirty
    protocol the hierarchy applies per miss record: lookup, then on a
    miss insert the line (marking it dirty when the record is a store)
    and evict the strict-LRU victim, reporting the victim's dirty bit.

    Returns ``(hit_mask, victims, victim_dirty, final_state)`` where the
    per-record ``victims`` entry is the evicted line number or ``-1``,
    and ``final_state = (lines, stamps, dirty)`` reconstructs the cache
    contents after the full stream — stamps equal the reference cache's
    global LRU counter (each miss-stream record bumps it exactly once),
    so a simulator can adopt the state mid-flight.
    """
    n = lines.size
    hit_mask = np.empty(n, dtype=bool)
    victims = np.full(n, -1, dtype=np.int64)
    victim_dirty = np.zeros(n, dtype=bool)
    if n == 0:
        empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, bool))
        return hit_mask, victims, victim_dirty, empty
    set_mask = n_sets - 1
    tag_shift = n_sets.bit_length() - 1
    set_idx = (lines & set_mask).astype(np.int64)
    tags = lines >> tag_shift
    order = np.argsort(set_idx, kind="stable")
    sorted_tags = tags[order]
    sorted_store = np.asarray(store_mask, dtype=bool)[order]
    counts = np.bincount(set_idx, minlength=n_sets)
    offsets = np.zeros(n_sets, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])

    state_tags = np.full((n_sets, ways), -1, dtype=np.int64)
    state_stamp = np.full((n_sets, ways), -1, dtype=np.int64)
    state_dirty = np.zeros((n_sets, ways), dtype=bool)
    state_pos = np.full((n_sets, ways), -1, dtype=np.int64)
    ptr = np.zeros(n_sets, dtype=np.int64)
    active = np.flatnonzero(counts)
    round_no = 0
    while active.size:
        pos = offsets[active] + ptr[active]
        opos = order[pos]
        t = sorted_tags[pos]
        eq = state_tags[active] == t[:, None]
        hit = eq.any(axis=1)
        hit_mask[opos] = hit
        way = np.where(hit, eq.argmax(axis=1), state_stamp[active].argmin(axis=1))
        vtag = state_tags[active, way]
        vdirty = state_dirty[active, way]
        evict = ~hit & (vtag >= 0)
        victims[opos[evict]] = (vtag[evict] << tag_shift) | active[evict]
        victim_dirty[opos[evict]] = vdirty[evict]
        state_tags[active, way] = t
        state_dirty[active, way] = np.where(hit, vdirty, sorted_store[pos])
        state_stamp[active, way] = round_no
        state_pos[active, way] = opos
        ptr[active] += 1
        round_no += 1
        active = active[ptr[active] < counts[active]]

    valid = state_tags >= 0
    set_ids = np.nonzero(valid)[0]
    final_lines = (state_tags[valid] << tag_shift) | set_ids
    final_stamps = state_pos[valid] + 1
    final_dirty = state_dirty[valid]
    return hit_mask, victims, victim_dirty, (final_lines, final_stamps, final_dirty)


def l2_evolution_reference(
    lines: np.ndarray, store_mask: np.ndarray, l2_key: GeometryKey
) -> tuple:
    """Pure-Python reference: replays the hierarchy's exact L2 protocol
    through :class:`SetAssociativeCache` (lookup → insert → mark dirty on
    store → pop the victim's dirty bit).  Verifies the NumPy kernel and
    serves degenerate geometries."""
    from ..memory.cache import SetAssociativeCache

    l2 = SetAssociativeCache(*l2_key, name="plane-L2")
    n = len(lines)
    hit_mask = np.empty(n, dtype=bool)
    victims = np.full(n, -1, dtype=np.int64)
    victim_dirty = np.zeros(n, dtype=bool)
    line_list = np.asarray(lines).tolist()
    store_list = np.asarray(store_mask, dtype=bool).tolist()
    for i, (line, is_store) in enumerate(zip(line_list, store_list)):
        if l2.lookup(line):
            hit_mask[i] = True
            continue
        hit_mask[i] = False
        victim = l2.insert(line)
        if is_store:
            l2.mark_dirty(line)
        if victim is not None:
            victims[i] = victim
            victim_dirty[i] = l2.pop_dirty(victim)
    final_lines, final_stamps, final_dirty = [], [], []
    tag_shift = l2._tag_shift
    for index, cache_set in enumerate(l2._sets):
        for tag, stamp in cache_set.items():
            line = (tag << tag_shift) | index
            final_lines.append(line)
            final_stamps.append(stamp)
            final_dirty.append(l2.is_dirty(line))
    final = (
        np.asarray(final_lines, dtype=np.int64),
        np.asarray(final_stamps, dtype=np.int64),
        np.asarray(final_dirty, dtype=bool),
    )
    return hit_mask, victims, victim_dirty, final


def _trigger_mask(kinds, serials, insts, rob_size: int) -> np.ndarray:
    """First-event-of-interval mask over the walk stream.

    Mirrors ``EpochSimulator._interval_event``: stores never participate;
    a non-store event opens a new interval when it is the first ever, is
    marked serializing, follows an instruction fetch (sealed), or retired
    more than ``rob_size`` instructions after the current trigger."""
    n = len(kinds)
    out = np.zeros(n, dtype=bool)
    trigger_inst = None
    sealed = False
    for i in range(n):
        kind = kinds[i]
        if kind == 2:  # store — bypasses interval logic entirely
            continue
        inst = insts[i]
        if (
            trigger_inst is None
            or serials[i]
            or sealed
            or inst - trigger_inst > rob_size
        ):
            out[i] = True
            trigger_inst = inst
            sealed = False
        if kind == 0:  # IFETCH seals the interval
            sealed = True
    return out


class EpochSegmentPlane:
    """Precomputed epoch segmentation for one (plane, L2 geometry, ROB).

    Everything here is shared by every run of the same configuration:

    * ``l2_hit_mask[j]`` — L2 outcome of miss-stream record ``j`` (with a
      leading-zero prefix for O(1) range stats),
    * ``walk_sel`` — positions of L2-*missing* records inside the miss
      stream (the only records the epoch kernel must walk),
    * ``victims`` / ``victim_dirty`` — per walk item, the L2 line evicted
      by the install (−1 when the set had a free way) and its dirty bit,
    * ``trigger`` — per walk item, True when the record is the first
      miss of a (would-be) epoch interval; always False for stores,
    * ``final_state`` — L2 contents after the whole stream, so a kernel
      run can leave the simulator's real L2 object in the exact state the
      scalar walk would have produced.

    Derived, lazily-built batch views (walk columns, per-epoch training
    views) are memoised on the instance and shared across runs.
    """

    def __init__(
        self,
        l2_hit_mask: np.ndarray,
        victims: np.ndarray,
        victim_dirty: np.ndarray,
        trigger: np.ndarray,
        final_state: tuple,
        l2_key: GeometryKey,
        rob_size: int,
    ) -> None:
        self.l2_hit_mask = l2_hit_mask
        self.l2_key = l2_key
        self.rob_size = rob_size
        m = l2_hit_mask.size
        self.l2_hit_prefix = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(l2_hit_mask, out=self.l2_hit_prefix[1:])
        self.walk_sel = np.flatnonzero(~l2_hit_mask)
        self.victims = victims
        self.victim_dirty = victim_dirty
        self.trigger = trigger
        self.final_state = final_state
        self.n_evictions = int(np.count_nonzero(victims >= 0))
        if victims.shape != self.walk_sel.shape or trigger.shape != self.walk_sel.shape:
            raise ValueError("segment columns must be walk-stream length")
        self._walk_columns: tuple | None = None
        self._views_memo: dict = {}

    # ------------------------------------------------------------------
    @property
    def n_walk(self) -> int:
        return int(self.walk_sel.size)

    def l2_hits_in(self, lo: int, hi: int) -> int:
        """L2 hits among miss-stream records ``[lo, hi)``."""
        return int(self.l2_hit_prefix[hi] - self.l2_hit_prefix[lo])

    def walk_count_before(self, miss_index: int) -> int:
        """Walk items among miss-stream records ``[0, miss_index)``."""
        return int(np.searchsorted(self.walk_sel, miss_index))

    def walk_columns(self, trace: "Trace", plane: FilterPlane) -> tuple:
        """Packed per-walk-item columns as plain Python lists.

        ``(kind, pc, serial, inst, line, victim, victim_dirty, trigger)``
        — built once and reused by every kernel run of this plane.
        """
        if self._walk_columns is None:
            idx = plane.miss_indices[self.walk_sel]
            self._walk_columns = (
                trace.kind[idx].tolist(),
                trace.pc[idx].tolist(),
                (trace.serial[idx] != 0).tolist(),
                plane.inst_prefix[idx + 1].tolist(),
                (trace.addr[idx] >> plane.line_shift).tolist(),
                self.victims.tolist(),
                self.victim_dirty.tolist(),
                self.trigger.tolist(),
            )
        return self._walk_columns

    def hook_columns(self, trace: "Trace", plane: FilterPlane, every_access: bool) -> tuple:
        """Columns for a kernel walk that runs a scheme's own hooks.

        Returns ``(columns, addr, tid, l2_hit)``: ``columns`` has the
        shape of :meth:`walk_columns`, and ``addr``/``tid`` complete each
        record's ``Access``.  With ``every_access`` the walk covers the
        whole miss stream, L2 hits included, for a scheme that observes
        every L2 access: ``l2_hit`` marks the hits, whose ``victim`` is −1
        and ``trigger`` False.  Otherwise it is the walk stream and
        ``l2_hit`` is None.
        """
        if not every_access:
            idx = plane.miss_indices[self.walk_sel]
            columns = self.walk_columns(trace, plane)
            return columns, trace.addr[idx].tolist(), trace.tid[idx].tolist(), None
        kinds, pcs, addrs, serials, insts, tids, lines = plane.miss_columns(trace)
        m = self.l2_hit_mask.size
        victims = np.full(m, -1, dtype=np.int64)
        victims[self.walk_sel] = self.victims
        dirty = np.zeros(m, dtype=bool)
        dirty[self.walk_sel] = self.victim_dirty
        trigger = np.zeros(m, dtype=bool)
        trigger[self.walk_sel] = self.trigger
        columns = (
            kinds, pcs, serials, insts, lines,
            victims.tolist(), dirty.tolist(), trigger.tolist(),
        )
        return columns, addrs, tids, self.l2_hit_mask.tolist()

    def training_views(
        self, trace: "Trace", plane: FilterPlane, skip: int, stored: int, cap: int
    ) -> tuple:
        """Per-trigger EMAB training views for one (skip, stored, cap).

        The EMAB's contents are a pure function of the event stream: the
        buffer rotates at every interval boundary *before* recording the
        boundary's own miss, so interval ``k`` spans the events from
        trigger ``k`` (inclusive) to trigger ``k+1`` (exclusive), capped
        at ``cap`` lines.  Returns ``(views, entries, overflow)``:

        * ``views[k]`` — ``(key_line, payload_lines)`` emitted at the
          boundary that *opens* interval ``k``, or ``None`` when the
          buffer was not yet full or produced an empty payload,
        * ``entries[k]`` — interval ``k``'s capped line list (the tail of
          this list rebuilds the EMAB's end-of-run state),
        * ``overflow`` — total lines dropped past the per-entry cap.
        """
        key = (skip, stored, cap)
        cached = self._views_memo.get(key)
        if cached is not None:
            return cached
        kinds, _pcs, _serials, _insts, lines, _v, _vd, triggers = self.walk_columns(
            trace, plane
        )
        ev_lines = [ln for ln, k in zip(lines, kinds) if k != 2]
        ev_trigger = [tr for tr, k in zip(triggers, kinds) if k != 2]
        starts = [i for i, tr in enumerate(ev_trigger) if tr]
        bounds = starts + [len(ev_lines)]
        depth = skip + stored
        n_triggers = len(starts)
        entries = []
        overflow = 0
        for k in range(n_triggers):
            lo, hi = bounds[k], bounds[k + 1]
            if hi - lo > cap:
                overflow += (hi - lo) - cap
                hi = lo + cap
            entries.append(ev_lines[lo:hi])
        views: list = [None] * n_triggers
        for k in range(depth, n_triggers):
            oldest = entries[k - depth]
            if not oldest:
                continue
            payload = []
            seen = set()
            for entry in entries[k - depth + skip : k]:
                for line in entry:
                    if line not in seen:
                        seen.add(line)
                        payload.append(line)
            if payload:
                views[k] = (oldest[0], payload)
        cached = (views, entries, overflow)
        self._views_memo[key] = cached
        return cached

    def emab_occupancy(
        self, trace: "Trace", plane: FilterPlane, skip: int, stored: int, cap: int
    ) -> list:
        """Per walk item, the EMAB's occupancy just before the item's own
        event — what an epoch closed at that item reports.

        After ``k`` triggers the buffer holds intervals
        ``max(0, k - depth) .. k - 1``: the completed ones capped at
        ``cap`` lines each, and the open one's events so far, capped.
        Only runs that collect metrics ask, so nothing is memoised.
        """
        kinds, _pcs, _serials, _insts, _lines, _v, _vd, triggers = self.walk_columns(
            trace, plane
        )
        _views, entries, _overflow = self.training_views(trace, plane, skip, stored, cap)
        is_event = np.asarray(kinds) != 2
        trigger = np.asarray(triggers, dtype=bool)
        events_before = np.cumsum(is_event) - is_event
        k = np.cumsum(trigger) - trigger  # triggers before each item
        if not entries:
            occupancy = np.zeros(len(kinds), dtype=np.int64)
        else:
            sizes = np.zeros(len(entries) + 1, dtype=np.int64)
            np.cumsum([len(entry) for entry in entries], out=sizes[1:])
            open_k = np.maximum(k - 1, 0)
            completed = sizes[open_k] - sizes[np.maximum(k - skip - stored, 0)]
            open_events = events_before - events_before[trigger][open_k]
            occupancy = completed + np.where(k > 0, np.minimum(open_events, cap), 0)
        return occupancy.tolist()


def compute_epoch_segments(
    trace: "Trace",
    plane: FilterPlane,
    l2_key: GeometryKey,
    rob_size: int,
) -> EpochSegmentPlane:
    """Compute the segmentation directly (no caching)."""
    idx = plane.miss_indices
    lines = (np.asarray(trace.addr, dtype=np.int64)[idx]) >> plane.line_shift
    kinds = np.asarray(trace.kind)[idx]
    store_mask = kinds == 2
    n_sets, ways = _geometry_sets(l2_key)
    if n_sets < 4:
        hit, victims, victim_dirty, final = l2_evolution_reference(
            lines, store_mask, l2_key
        )
    else:
        hit, victims, victim_dirty, final = l2_evolution(
            lines, store_mask, n_sets, ways
        )
    walk_sel = np.flatnonzero(~hit)
    widx = idx[walk_sel]
    trigger = _trigger_mask(
        kinds[walk_sel].tolist(),
        (np.asarray(trace.serial)[widx] != 0).tolist(),
        plane.inst_prefix[widx + 1].tolist(),
        rob_size,
    )
    return EpochSegmentPlane(
        hit, victims[walk_sel], victim_dirty[walk_sel], trigger, final, l2_key, rob_size
    )


def _segment_path(trace: "Trace", plane: FilterPlane, l2_key: GeometryKey, rob_size: int):
    segments = f"-seg-l2{l2_key[0]}x{l2_key[1]}-r{rob_size}"
    return _plane_path(trace, plane.l1i_key, plane.l1d_key, segments)


def _load_segments(path, plane, l2_key, rob_size) -> Optional[EpochSegmentPlane]:
    def read(entry) -> Optional[EpochSegmentPlane]:
        with np.load(entry) as data:
            if int(data["version"][0]) != _SEGMENT_FORMAT_VERSION:
                return None
            n_misses = int(data["n_misses"][0])
            if n_misses != plane.n_misses:
                return None
            l2_hit = np.unpackbits(data["l2_hit"], count=n_misses).astype(bool)
            n_walk = int(n_misses - l2_hit.sum())
            victims = data["victims"]
            victim_dirty = np.unpackbits(data["victim_dirty"], count=n_walk).astype(bool)
            trigger = np.unpackbits(data["trigger"], count=n_walk).astype(bool)
            final = (
                data["final_lines"],
                data["final_stamps"],
                np.unpackbits(
                    data["final_dirty"], count=int(data["final_lines"].size)
                ).astype(bool),
            )
        return EpochSegmentPlane(
            l2_hit, victims, victim_dirty, trigger, final, l2_key, rob_size
        )

    return load_entry(path, "plane", read)


def _store_segments(path, seg: EpochSegmentPlane) -> None:
    def write(fh: BinaryIO) -> None:
        np.savez_compressed(
            fh,
            version=np.array([_SEGMENT_FORMAT_VERSION], dtype=np.int64),
            n_misses=np.array([seg.l2_hit_mask.size], dtype=np.int64),
            l2_hit=np.packbits(seg.l2_hit_mask),
            victims=seg.victims,
            victim_dirty=np.packbits(seg.victim_dirty),
            trigger=np.packbits(seg.trigger),
            final_lines=seg.final_state[0],
            final_stamps=seg.final_state[1],
            final_dirty=np.packbits(seg.final_state[2]),
        )

    store_entry(path, "plane", write)


def get_epoch_segments(
    trace: "Trace", plane: FilterPlane, l2_key: GeometryKey, rob_size: int
) -> EpochSegmentPlane:
    """The segmentation for ``(plane, L2 geometry, ROB)``, cached twice:
    in memory on the plane object, on disk beside the plane's ``.npz``."""
    memo = plane._segment_cache
    memo_key = (l2_key, rob_size)
    seg = memo.get(memo_key)
    if seg is not None:
        return seg
    path = None
    if plane.n_records >= _MIN_PERSIST_RECORDS:
        path = _segment_path(trace, plane, l2_key, rob_size)
    if path is not None and path.exists():
        seg = _load_segments(path, plane, l2_key, rob_size)
    if seg is None:
        seg = compute_epoch_segments(trace, plane, l2_key, rob_size)
        if path is not None:
            _store_segments(path, seg)
    memo[memo_key] = seg
    return seg
