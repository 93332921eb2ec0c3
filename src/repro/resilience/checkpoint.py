"""JSONL checkpoint journal for interruptible sweeps.

A sweep of several hundred simulations that dies at job 180 of 200 used
to restart from zero.  With ``ExecutionPolicy(checkpoint_dir=...)`` the
executor journals every completed job to ``<dir>/journal.jsonl`` — one
line per result, written with flush + fsync so a SIGKILL loses at most
the job in flight — and a re-run of the *same* batch loads completed
jobs from disk instead of re-simulating them.

Identity and bit-identical resume
---------------------------------
Each journal line is keyed by :func:`job_key`: a SHA-256 over the job's
batch position and its :meth:`~repro.parallel.jobs.JobSpec.identity`
(generation parameters, configuration fingerprint, prefetcher name and
overrides, model and generator versions).  A cell re-run with other
overrides, or after a version bump, therefore resumes nothing.  The
execution path is deliberately excluded — the epoch kernel and the
scalar walk are bit-identical by construction, so a resume may switch
``REPRO_KERNEL``.  Results round-trip through
:meth:`~repro.engine.stats.SimulationResult.snapshot`, which preserves
raw counters (and exact IEEE floats via JSON ``repr``), so a resumed
sweep's merged result list is field-for-field identical to an
uninterrupted run.

A journal written for one batch is harmless to another: unknown keys are
simply never looked up, and a corrupt trailing line (the half-written
record of a crash) is skipped with a warning.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from ..engine.stats import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - cycle: parallel.jobs imports us
    from ..parallel.jobs import JobSpec

__all__ = ["CheckpointJournal", "job_key"]

log = logging.getLogger(__name__)

PathLike = Union[str, "os.PathLike[str]"]


def job_key(spec: "JobSpec", index: int) -> str:
    """Stable identity of one job within a batch (hex SHA-256 prefix).

    Covers the batch position, because the journal's contract is a
    re-run of the same batch (two equal jobs at different positions
    resume separately), and the job's versioned
    :meth:`~repro.parallel.jobs.JobSpec.identity`.
    """
    digest = hashlib.sha256(f"{index}:{spec.identity()}".encode("utf-8"))
    return digest.hexdigest()[:32]


class CheckpointJournal:
    """Append-only JSONL journal of completed jobs under a run directory."""

    FILENAME = "journal.jsonl"

    def __init__(self, run_dir: PathLike) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / self.FILENAME
        self._completed: Dict[str, dict] = {}
        self._fh = None

    # ------------------------------------------------------------------
    # Loading (resume)
    # ------------------------------------------------------------------
    def load(self) -> int:
        """Read the journal from disk; returns the number of usable entries.

        Tolerates a missing file (fresh run) and a corrupt trailing line
        (the half-written record of whatever killed the previous run).
        """
        self._completed.clear()
        try:
            raw = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return 0
        except OSError as exc:
            log.warning("checkpoint journal %s unreadable (%s)", self.path, exc)
            return 0
        dropped = 0
        for lineno, line in enumerate(raw.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                snapshot = entry["result"]
                # Validate eagerly: a restorable snapshot or no entry at all.
                SimulationResult.from_snapshot(snapshot)
            except (ValueError, KeyError, TypeError) as exc:
                dropped += 1
                log.warning(
                    "skipping corrupt checkpoint line %d in %s (%s)",
                    lineno,
                    self.path,
                    exc,
                )
                continue
            self._completed[key] = snapshot
        if dropped:
            log.warning(
                "checkpoint journal %s: %d corrupt line(s) ignored, "
                "%d job(s) resumable",
                self.path,
                dropped,
                len(self._completed),
            )
        return len(self._completed)

    def lookup(self, key: str) -> Optional[SimulationResult]:
        """The journalled result for ``key``, or None if not completed."""
        snapshot = self._completed.get(key)
        if snapshot is None:
            return None
        return SimulationResult.from_snapshot(snapshot)

    def __len__(self) -> int:
        return len(self._completed)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, key: str, result: SimulationResult) -> None:
        """Journal one completed job durably (flush + fsync)."""
        entry = {"key": key, "result": result.snapshot()}
        if self._fh is None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(entry) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._completed[key] = entry["result"]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
