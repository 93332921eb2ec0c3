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
* Robustness: writes go through a temp file + atomic rename (concurrent
  workers may race to fill the same key) and gain a ``.sha256`` sidecar;
  readers verify the checksum before decoding, and a corrupted or
  unreadable entry is quarantined (``quarantine/`` beside the cache, via
  :mod:`repro.resilience.integrity`) and regenerated instead of failing
  the run.
"""

from __future__ import annotations

import logging
import os
import tempfile
from pathlib import Path
from typing import Callable, Optional

from .commercial import GENERATOR_VERSION
from .trace import Trace

__all__ = ["TraceCache", "trace_cache", "cache_key", "plane_cache_root"]

log = logging.getLogger(__name__)

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
        from ..resilience.integrity import quarantine_entry, verify_checksum

        path = self.path_for(name, records, seed, scale)
        if path is None:
            return build()
        if path.exists():
            reason = verify_checksum(path)
            if reason is not None:
                quarantine_entry(path, "trace", reason)
            else:
                try:
                    trace = Trace.load(path)
                    self.hits += 1
                    return trace
                except Exception as exc:  # corrupt/truncated/incompatible file
                    quarantine_entry(path, "trace", f"unreadable entry ({exc})")
        self.misses += 1
        trace = build()
        self._store(path, trace)
        return trace

    def _store(self, path: Path, trace: Trace) -> None:
        """Atomically persist a trace; failures only cost the speedup."""
        from ..resilience.faults import FaultSpec
        from ..resilience.integrity import write_checksum

        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=path.stem, suffix=".tmp.npz"
            )
            os.close(fd)
            try:
                trace.save(tmp_name)
                os.replace(tmp_name, path)
            finally:
                if os.path.exists(tmp_name):
                    os.unlink(tmp_name)
            write_checksum(path)
            FaultSpec.from_env().maybe_corrupt(path, "trace")
        except OSError as exc:
            log.warning("could not write trace cache entry %s (%s)", path, exc)


def _default_root() -> Optional[Path]:
    value = os.environ.get("REPRO_TRACE_CACHE")
    if value is not None:
        if value.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(value).expanduser()
    return Path.home() / ".cache" / "repro-ebcp" / "traces"


def plane_cache_root() -> Optional[Path]:
    """Directory for cached L1 filter planes, beside the trace cache.

    Follows ``$REPRO_TRACE_CACHE`` exactly like the trace cache itself: a
    custom path gains a ``filter-planes/`` subdirectory, the default is
    ``~/.cache/repro-ebcp/filter-planes``, and the disabled values disable
    plane persistence too (in-memory planes still work).
    """
    value = os.environ.get("REPRO_TRACE_CACHE")
    if value is not None:
        if value.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(value).expanduser() / "filter-planes"
    return Path.home() / ".cache" / "repro-ebcp" / "filter-planes"


def trace_cache() -> TraceCache:
    """The process-wide cache, honouring ``REPRO_TRACE_CACHE`` at call time.

    Re-resolving the environment on every call keeps tests (and CLI users)
    able to re-point or disable the cache mid-process; the ``TraceCache``
    object itself is cheap.
    """
    return TraceCache(_default_root())
