"""The persisted-entry protocol shared by every on-disk cache.

The trace cache, the filter-plane and epoch-segment stores and the
result entries (the result cache's disk tier and checkpoint directories,
one format in :mod:`repro.resilience.checkpoint`) each own only an
entry's path and format; :func:`store_entry` and :func:`load_entry` own
everything else:

* a write goes to a unique temp file beside the entry (``.<name>.*.part``,
  which no store's entry glob matches), is fsynced and renamed into
  place, so racing workers never expose half an entry and a finished
  write survives a crash; the temp file never survives;
* after the rename a ``<name>.sha256`` sidecar is written the same way,
  and readers verify it *before* decoding, catching corruption that
  still decodes (an entry without a sidecar is unverifiable, not bad);
* a bad sidecar or a decoder that raises moves the entry, its sidecar
  and a ``.reason`` note into a ``quarantine/`` sibling (so a recurring
  corruption source stays diagnosable), publishes a
  :class:`~repro.obs.events.CacheQuarantined` event, and reads as a miss
  that the store regenerates — corruption is never fatal;
* a write that fails with ``OSError`` logs one warning and costs only
  the speedup;
* every fresh entry passes the ``REPRO_FAULT_CORRUPT`` hook under its
  kind (``trace``, ``plane`` or ``result``).
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Optional, TypeVar, Union

from .faults import FaultSpec

__all__ = [
    "checksum_path",
    "write_checksum",
    "verify_checksum",
    "quarantine_entry",
    "load_entry",
    "store_entry",
]

log = logging.getLogger(__name__)

_CHUNK = 1 << 20

PathLike = Union[str, "os.PathLike[str]"]

T = TypeVar("T")


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def checksum_path(path: PathLike) -> Path:
    """The sidecar path for a cache entry (``<entry>.sha256``)."""
    p = Path(path)
    return p.with_name(p.name + ".sha256")


def _replace(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` through a unique temp file beside it, fsynced and
    renamed into place, so concurrent writers of one path never share a
    temp file; the temp file never survives."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_checksum(path: PathLike) -> Path:
    """Write/refresh the sidecar checksum for ``path``; returns the sidecar."""
    p = Path(path)
    sidecar = checksum_path(p)
    line = (_digest(p) + "\n").encode("ascii")
    _replace(sidecar, lambda fh: fh.write(line))
    return sidecar


def verify_checksum(path: PathLike) -> Optional[str]:
    """Check ``path`` against its sidecar.

    Returns ``None`` when the entry is good *or* unverifiable (no sidecar
    — e.g. an entry written by an older version; decode-time validation
    still applies).  Returns a human-readable reason string on mismatch.
    """
    p = Path(path)
    sidecar = checksum_path(p)
    try:
        expected = sidecar.read_text(encoding="ascii").strip()
    except (OSError, UnicodeDecodeError):
        return None
    if not expected:
        return None
    try:
        actual = _digest(p)
    except OSError as exc:
        return f"unreadable entry ({exc})"
    if actual != expected:
        return "checksum_mismatch"
    return None


def quarantine_entry(path: PathLike, kind: str, reason: str) -> Optional[Path]:
    """Move a corrupt cache entry (and sidecar) into ``quarantine/``.

    ``kind`` is ``"trace"``, ``"plane"`` or ``"result"``.  Returns the
    quarantined path, or ``None`` when the entry had already vanished.
    Emits :class:`~repro.obs.events.CacheQuarantined` on the process-wide
    bus when one exists.
    """
    p = Path(path)
    qdir = p.parent / "quarantine"
    quarantined: Optional[Path] = None
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / p.name
        if p.exists():
            os.replace(p, target)
            quarantined = target
            note = target.with_name(target.name + ".reason")
            try:
                note.write_text(f"{kind}: {reason}\n", encoding="utf-8")
            except OSError:
                pass
        sidecar = checksum_path(p)
        if sidecar.exists():
            os.replace(sidecar, qdir / sidecar.name)
    except OSError as exc:
        # Quarantine is best-effort: fall back to deletion so the corrupt
        # entry cannot be picked up again.
        log.warning("could not quarantine %s (%s); deleting instead", p, exc)
        for victim in (p, checksum_path(p)):
            try:
                victim.unlink()
            except OSError:
                pass
    log.warning(
        "quarantined corrupt %s cache entry %s (%s); it will be regenerated",
        kind,
        p.name,
        reason,
    )
    _emit_quarantined(str(p), kind, reason)
    return quarantined


def _emit_quarantined(path: str, kind: str, reason: str) -> None:
    from ..obs.bus import peek_global_bus
    from ..obs.events import CacheQuarantined

    bus = peek_global_bus()
    if bus is not None and bus.wants(CacheQuarantined):
        bus.emit(CacheQuarantined(path=path, kind=kind, reason=reason))


def load_entry(
    path: PathLike, kind: str, read: Callable[[Path], Optional[T]]
) -> Optional[T]:
    """Verify and decode the entry at ``path``; ``None`` means a miss.

    A missing file is a miss.  Otherwise the sidecar is checked, then
    ``read(path)`` decodes the entry; a ``None`` from ``read`` is a stale
    entry and a plain miss.  A bad sidecar, or a ``read`` that raises,
    quarantines the entry under ``kind`` and is a miss too.
    """
    p = Path(path)
    if not p.exists():
        return None
    reason = verify_checksum(p)
    if reason is None:
        try:
            return read(p)
        except Exception as exc:  # corrupt/truncated/incompatible entry
            reason = f"unreadable entry ({exc})"
    quarantine_entry(p, kind, reason)
    return None


def store_entry(path: PathLike, kind: str, write: Callable[[BinaryIO], object]) -> bool:
    """Atomically persist an entry; ``write`` fills an open binary file.

    Writes and fsyncs a temp file beside ``path``, renames it into place,
    writes the sidecar and runs the corrupt-fault hook.  Returns False
    (after one warning) when the filesystem refuses; the temp file never
    survives.
    """
    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        _replace(p, write)
        write_checksum(p)
        FaultSpec.from_env().maybe_corrupt(p, kind)
    except OSError as exc:
        log.warning("could not write %s cache entry %s (%s)", kind, p, exc)
        return False
    return True
