"""On-disk ``.npz`` trace cache.

Commercial traces are deterministic functions of ``(workload, records,
seed, scale)`` but cost real time to generate — regenerating them is the
dominant startup cost of every simulator run, and with the parallel sweep
runner (:mod:`repro.parallel`) each worker process would otherwise pay it
again.  This module persists generated traces to disk via the existing
:meth:`Trace.save`/:meth:`Trace.load` ``.npz`` round-trip, which is
lossless: a cache hit yields bit-identical columns and metadata, so cached
and regenerated runs produce identical results.

Layout and control
------------------
* Location: ``$REPRO_TRACE_CACHE`` if set to a path, else
  ``~/.cache/repro-ebcp/traces``.
* Disable: ``REPRO_TRACE_CACHE=0`` (or ``off``/``none``/empty).
* Invalidation: keys encode every generation parameter and
  :data:`~repro.workloads.commercial.GENERATOR_VERSION`, so stale entries
  cannot be returned; delete the directory to reclaim space.
* Robustness: entries are written and read through the shared
  persisted-entry protocol of :mod:`repro.resilience.integrity` (atomic
  write, ``.sha256`` sidecar, quarantine and regenerate).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional, Tuple

from ..resilience.integrity import load_entry, store_entry
from .commercial import GENERATOR_VERSION
from .trace import Trace

__all__ = ["TraceCache", "trace_cache", "cache_key", "plane_cache_root"]

_DISABLED_VALUES = {"", "0", "off", "none", "false"}


def cache_key(name: str, records: int, seed: int, scale: float) -> str:
    """Filename stem encoding every trace-generation parameter and the
    generator version."""
    return f"{name}-r{records}-s{seed}-x{scale:g}-g{GENERATOR_VERSION}"


class TraceCache:
    """A directory of ``.npz`` traces keyed by generation parameters."""

    def __init__(self, root: Path | str | None) -> None:
        #: ``None`` disables the cache entirely (every get regenerates).
        self.root = Path(root) if root is not None else None
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path_for(self, name: str, records: int, seed: int, scale: float) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / f"{cache_key(name, records, seed, scale)}.npz"

    # ------------------------------------------------------------------
    def get_or_build(
        self,
        name: str,
        records: int,
        seed: int,
        scale: float,
        build: Callable[[], Trace],
    ) -> Trace:
        """Load the trace from disk, or build and persist it.

        Any filesystem or decode failure degrades to ``build()`` — the
        cache is a pure accelerator and never affects results.
        """
        path = self.path_for(name, records, seed, scale)
        if path is None:
            return build()
        trace = load_entry(path, "trace", Trace.load)
        if trace is not None:
            self.hits += 1
            return trace
        self.misses += 1
        trace = build()
        store_entry(path, "trace", trace.save)
        return trace


def _cache_roots() -> Optional[Tuple[Path, Path]]:
    """``(trace root, filter-plane root)`` from ``$REPRO_TRACE_CACHE``.

    A custom path holds the traces and gains a ``filter-planes/``
    subdirectory; unset means ``~/.cache/repro-ebcp/{traces,filter-planes}``;
    the disabled values return ``None`` (in-memory planes still work).
    """
    value = os.environ.get("REPRO_TRACE_CACHE")
    if value is None:
        base = Path.home() / ".cache" / "repro-ebcp"
        return base / "traces", base / "filter-planes"
    if value.strip().lower() in _DISABLED_VALUES:
        return None
    root = Path(value).expanduser()
    return root, root / "filter-planes"


def plane_cache_root() -> Optional[Path]:
    """Directory for cached L1 filter planes and epoch segments."""
    roots = _cache_roots()
    return roots[1] if roots is not None else None


def trace_cache() -> TraceCache:
    """The process-wide cache, honouring ``REPRO_TRACE_CACHE`` at call time.

    Re-resolving the environment on every call keeps tests (and CLI users)
    able to re-point or disable the cache mid-process; the ``TraceCache``
    object itself is cheap.
    """
    roots = _cache_roots()
    return TraceCache(roots[0] if roots is not None else None)
