"""One on-disk entry format for finished simulation results.

Two stores keep a finished :class:`~repro.engine.stats.SimulationResult`
on disk, and both write the entry this module defines:

* a **checkpoint directory** (``ExecutionPolicy(checkpoint_dir=...)``,
  ``--checkpoint-dir``, a spec's ``[execution] checkpoint_dir``): the
  executor looks every job up when it starts and stores each result as
  it settles, so a sweep that dies at job 180 of 200 resumes there;
* the **result cache's disk tier** (``ResultCache(spill_dir=...)``,
  ``serve --cache-dir``), which serves repeat requests across restarts.

An entry is ``<dir>/<identity>.json`` holding ``{"key": identity,
"snapshot": snapshot}``.  The identity is
:meth:`~repro.parallel.jobs.JobSpec.identity` (generation parameters,
warm-up, configuration fingerprint, prefetcher name and canonical
overrides, model and generator versions), so a cell re-run with other
overrides or after a version bump finds nothing, and equal jobs share
one entry.  The execution path is deliberately excluded: the epoch
kernel and the scalar walk are bit-identical by construction, so an
entry is valid whichever path computed it.  The snapshot is
:meth:`~repro.engine.stats.SimulationResult.snapshot`, which keeps raw
counters and exact IEEE floats, so a restored result is field-for-field
identical to a fresh run.

Entries are written and read by the persisted-entry protocol of
:mod:`repro.resilience.integrity` under kind ``result``: an fsynced temp
file renamed into place, a checksum sidecar verified before decoding,
and quarantine of anything that fails it.  A stored key that differs
from its address, or a snapshot that does not restore, is quarantined
too.  Because both stores share the format, a checkpoint directory is a
warm ``serve --cache-dir`` and the other way round.  The executor never
prunes a checkpoint directory; a result cache prunes its ``spill_dir``
to ``max_disk_entries`` (``--max-disk-entries``), whichever store wrote
the entries.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Union

from ..engine.stats import SimulationResult
from .integrity import load_entry, store_entry

__all__ = ["load_result", "result_entries", "result_path", "store_result"]

PathLike = Union[str, "os.PathLike[str]"]


def result_path(directory: PathLike, key: str) -> Path:
    """The entry path of identity ``key`` under ``directory``."""
    return Path(directory) / f"{key}.json"


def result_entries(directory: PathLike) -> List[Path]:
    """The entry files under ``directory`` (never a sidecar or temp file)."""
    try:
        return [p for p in Path(directory).glob("*.json") if p.is_file()]
    except OSError:
        return []


def load_result(path: Path) -> Optional[dict]:
    """The snapshot stored at ``path``; None when missing or quarantined."""

    def read(entry: Path) -> dict:
        payload = json.loads(entry.read_text(encoding="utf-8"))
        if payload["key"] != entry.stem:
            # The address is the key, so a mismatch means the entry was
            # copied, tampered with or mis-written.
            raise ValueError("stored key does not match its address")
        snapshot = payload["snapshot"]
        SimulationResult.from_snapshot(snapshot)  # restorable, or quarantined
        return snapshot

    return load_entry(path, "result", read)


def store_result(path: Path, snapshot: dict) -> bool:
    """Persist ``snapshot`` at ``path``, whose stem is its key.

    Returns False (after one warning) when the filesystem refuses.
    """
    payload = json.dumps(
        {"key": path.stem, "snapshot": snapshot}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return store_entry(path, "result", lambda fh: fh.write(payload))
