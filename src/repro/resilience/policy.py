"""The unified execution policy.

Before this module existed, execution behaviour was threaded through the
codebase one keyword at a time: ``jobs=`` on every experiment ``run()``,
env knobs read ad hoc.  Adding per-job timeouts, retries and
checkpointing the same way would have meant five more kwargs on a dozen
signatures.

:class:`ExecutionPolicy` collapses all of it into one frozen, picklable
value object that rides from the CLI through the sweep runners down to
the executor.  Every field has a conservative default, so
``ExecutionPolicy()`` behaves exactly like the bare ``run_jobs`` of old
(minus the silent failure modes), and callers that never cared keep a
one-argument surface: ``run(policy=policy)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .faults import FaultSpec

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a batch of simulation jobs should be executed.

    Parameters
    ----------
    jobs:
        Worker-process count: ``None`` defers to ``$REPRO_JOBS`` (default
        1), ``0`` means one per core, ``1`` runs in-process, ``n > 1``
        fans out over a process pool.
    timeout_s:
        Per-job wall-clock budget, which includes building the job's
        inputs (trace, filter plane, epoch segments) when no earlier job
        in the same process built them.  In pool mode a job that exceeds
        it is killed with its pool and retried; in-process it is
        detected after the fact (a running Python function cannot be
        preempted safely).  ``None`` disables the timeout.
    retries:
        How many times a *failed* attempt may be retried — a job gets at
        most ``retries + 1`` attempts before its error propagates.
    backoff_s:
        Sleep before retry ``k`` (1-based) is ``backoff_s * 2**(k-1)``.
    checkpoint_dir:
        Directory of checkpoint entries.  When set, every completed job
        is stored there under its identity (the result cache's entry
        format, :mod:`repro.resilience.checkpoint`) and a re-run loads
        completed jobs from disk instead of re-simulating them.
        ``None`` disables checkpointing.
    fault_spec:
        Deterministic fault injection (tests / chaos drills); ``None``
        reads the ``REPRO_FAULT_*`` environment.
    """

    jobs: Optional[int] = None
    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_s: float = 0.25
    checkpoint_dir: Optional[str] = None
    fault_spec: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "ExecutionPolicy":
        """A policy built entirely from ``REPRO_*`` environment knobs."""
        return cls(fault_spec=FaultSpec.from_env())

    def replace(self, **overrides: object) -> "ExecutionPolicy":
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def resolved_jobs(self) -> int:
        """The effective worker count (env defaults applied, >= 1)."""
        from ..parallel.jobs import resolve_jobs

        return resolve_jobs(self.jobs)

    def faults(self) -> FaultSpec:
        """The effective fault spec (explicit, else from the environment)."""
        if self.fault_spec is not None:
            return self.fault_spec
        return FaultSpec.from_env()

    def backoff_for(self, retry: int) -> float:
        """Exponential backoff before 1-based retry number ``retry``."""
        if retry <= 0 or self.backoff_s <= 0:
            return 0.0
        return self.backoff_s * (2.0 ** (retry - 1))

    def describe(self) -> str:
        """One-line human summary (logs and run manifests)."""
        parts = [f"jobs={self.resolved_jobs()}"]
        if self.timeout_s is not None:
            parts.append(f"timeout={self.timeout_s:g}s")
        parts.append(f"retries={self.retries}")
        if self.checkpoint_dir:
            parts.append(f"checkpoint={self.checkpoint_dir}")
        if self.faults().active:
            parts.append("faults=on")
        return " ".join(parts)
