"""Deterministic fault injection for the execution harness.

Fault tolerance that is only exercised by real outages is fault tolerance
that has never been tested.  :class:`FaultSpec` describes a small,
reproducible set of injectable failures — worker crashes, job hangs and
cache-entry corruption — that the resilient executor and the on-disk
caches consult at well-defined points.  Tests and the CI chaos drill turn
them on; production runs leave them off (the spec is empty and every
check is a couple of string comparisons).

Determinism
-----------
Each fault fires for the first ``count`` *attempts* of each matching
site, then never again.  Attempt claims are recorded as marker files
under ``state_dir`` (created with ``O_CREAT | O_EXCL``, so concurrent
workers race safely), which makes the schedule deterministic **across
processes**: a job whose worker crashed claims attempt 0 before dying,
so its in-process replay claims attempt 1 and — with ``count=1`` —
succeeds.  With no ``state_dir`` the claims live in a per-process dict,
which is enough for in-process execution and unit tests.

Environment knobs
-----------------
``REPRO_FAULT_CRASH=<match>:<count>``
    Kill the worker process (``os._exit``) at the start of the first
    ``count`` attempts of every job whose key contains ``match``
    (``*`` matches every job).  A job's key is its label (else its
    workload), ``#``, then its batch index, e.g. ``alpha#1``.
    In-process execution raises :class:`WorkerCrashError` instead of
    exiting.
``REPRO_FAULT_HANG=<match>:<count>:<seconds>``
    Sleep ``seconds`` at the start of matching attempts — long enough to
    trip a per-job timeout.
``REPRO_FAULT_CORRUPT=<kind>:<count>``
    Corrupt the first ``count`` fresh writes of each cache entry whose
    kind (``trace``, ``plane`` for filter planes and epoch segments,
    ``result`` for result entries, whether a checkpointed job or the
    result cache's disk tier stored them, or ``*``) matches, by
    truncating the file — the next read must detect, quarantine and
    regenerate.
``REPRO_FAULT_STATE=<dir>``
    Marker directory for cross-process attempt claims (required for
    deterministic pool-mode injection).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import re
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple

__all__ = ["FaultSpec", "WorkerCrashError"]

log = logging.getLogger(__name__)


class WorkerCrashError(RuntimeError):
    """An injected worker crash, surfaced as an exception in-process."""


#: Per-process fallback claim store (used when state_dir is empty).
_LOCAL_CLAIMS: dict = {}
_LOCAL_LOCK = threading.Lock()


def _sanitize(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key)


def _parse(spec: str, kind: str, n_fields: int) -> Optional[Tuple[str, ...]]:
    """Split ``spec`` on ``:`` into exactly ``n_fields`` fields, or None."""
    if not spec:
        return None
    parts = spec.split(":")
    if len(parts) != n_fields:
        log.warning("ignoring malformed %s fault spec %r", kind, spec)
        return None
    return tuple(parts)


@dataclass(frozen=True)
class FaultSpec:
    """Injectable faults: ``<match>:<count>``-style strings, all optional."""

    crash: str = ""
    hang: str = ""
    corrupt: str = ""
    state_dir: str = ""

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "FaultSpec":
        return cls(
            crash=os.environ.get("REPRO_FAULT_CRASH", ""),
            hang=os.environ.get("REPRO_FAULT_HANG", ""),
            corrupt=os.environ.get("REPRO_FAULT_CORRUPT", ""),
            state_dir=os.environ.get("REPRO_FAULT_STATE", ""),
        )

    def replace(self, **overrides: object) -> "FaultSpec":
        return replace(self, **overrides)  # type: ignore[arg-type]

    @property
    def active(self) -> bool:
        return bool(self.crash or self.hang or self.corrupt)

    # ------------------------------------------------------------------
    # Claim bookkeeping
    # ------------------------------------------------------------------
    def _claim(self, kind: str, key: str, count: int) -> bool:
        """Atomically claim one of ``count`` attempts for ``(kind, key)``.

        Returns True while fewer than ``count`` attempts have been
        claimed — i.e. the fault should fire for this attempt.
        """
        if count <= 0:
            return False
        if self.state_dir:
            root = Path(self.state_dir)
            try:
                root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                log.warning("fault state dir %s unusable (%s)", root, exc)
                return False
            stem = f"{kind}-{_sanitize(key)}"
            for attempt in range(count):
                marker = root / f"{stem}-{attempt}"
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                os.close(fd)
                return True
            return False
        with _LOCAL_LOCK:
            claimed = _LOCAL_CLAIMS.get((kind, key), 0)
            if claimed >= count:
                return False
            _LOCAL_CLAIMS[(kind, key)] = claimed + 1
            return True

    @staticmethod
    def _matches(match: str, key: str) -> bool:
        return match == "*" or match in key

    # ------------------------------------------------------------------
    # Job faults (consulted by the executor at attempt start)
    # ------------------------------------------------------------------
    def maybe_crash(self, key: str) -> None:
        """Crash this attempt if the crash fault matches and has budget.

        Inside a pool worker the process dies outright: the executor
        sees ``BrokenProcessPool``, charges every in-flight job one
        attempt and raises :class:`WorkerCrashError` for a job with no
        attempt left.  In-process a :class:`WorkerCrashError` is raised
        directly (an ordinary, retryable job failure).  So a crash that
        outlives the retry budget surfaces as one type in either mode.
        """
        parsed = _parse(self.crash, "crash", 2)
        if parsed is None or not self._matches(parsed[0], key):
            return
        try:
            count = int(parsed[1])
        except ValueError:
            log.warning("ignoring non-integer crash fault count %r", parsed[1])
            return
        if not self._claim("crash", key, count):
            return
        if multiprocessing.parent_process() is not None:
            log.warning("fault injection: crashing worker on job %s", key)
            os._exit(17)
        raise WorkerCrashError(f"injected crash on job {key}")

    def maybe_hang(self, key: str) -> float:
        """Seconds this attempt should sleep (0.0 when the fault is idle)."""
        parsed = _parse(self.hang, "hang", 3)
        if parsed is None or not self._matches(parsed[0], key):
            return 0.0
        try:
            count, seconds = int(parsed[1]), float(parsed[2])
        except ValueError:
            log.warning("ignoring malformed hang fault %r", self.hang)
            return 0.0
        if seconds <= 0 or not self._claim("hang", key, count):
            return 0.0
        log.warning("fault injection: hanging job %s for %.1fs", key, seconds)
        return seconds

    # ------------------------------------------------------------------
    # Cache faults (consulted by the caches right after a store)
    # ------------------------------------------------------------------
    def maybe_corrupt(self, path: "os.PathLike | str", kind: str) -> bool:
        """Truncate a freshly written cache entry if the fault matches.

        ``kind`` is ``"trace"``, ``"plane"`` or ``"result"``.  Returns
        True when the file was corrupted.
        """
        parsed = _parse(self.corrupt, "corrupt", 2)
        if parsed is None or not (parsed[0] == "*" or parsed[0] == kind):
            return False
        try:
            count = int(parsed[1])
        except ValueError:
            log.warning("ignoring non-integer corrupt fault count %r", parsed[1])
            return False
        if not self._claim("corrupt", f"{kind}-{Path(path).name}", count):
            return False
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(max(1, size // 2))
            log.warning("fault injection: corrupted %s cache entry %s", kind, path)
            return True
        except OSError as exc:
            log.warning("fault injection could not corrupt %s (%s)", path, exc)
            return False
