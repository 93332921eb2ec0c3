"""Fault-tolerant execution: policy, retries, checkpoints, integrity.

The paper's evaluation is a long parade of sweeps — hundreds of
simulations per figure.  This package makes those batches survive the
failures long batch jobs actually hit (dying workers, hung jobs, corrupt
cache files, a SIGKILL at hour three) behind one value object:

>>> from repro.resilience import ExecutionPolicy
>>> policy = ExecutionPolicy(jobs=4, timeout_s=600, retries=2,
...                          checkpoint_dir="runs/fig4")

Modules
-------
``policy``
    :class:`ExecutionPolicy` — the one frozen dataclass every runner and
    experiment accepts instead of loose ``jobs=``/``timeout=`` kwargs.
``executor``
    :func:`execute` — the retry/timeout/checkpoint-aware engine behind
    :func:`repro.parallel.jobs.run_jobs` and both sweep runners.
``checkpoint``
    The one on-disk format of a finished result (``<identity>.json``),
    shared by checkpoint directories and the result cache's disk tier;
    interrupted sweeps resume bit-identically.
``faults``
    :class:`FaultSpec` — deterministic injection of worker crashes, job
    hangs and cache corruption (``REPRO_FAULT_*``), used by the tests
    and the CI chaos drill.
``integrity``
    The persisted-entry protocol (atomic write, checksum sidecar,
    quarantine) shared by the trace, filter-plane, epoch-segment and
    result stores.
"""

from .executor import PersistentPool, execute
from .faults import FaultSpec, WorkerCrashError
from .integrity import (
    checksum_path,
    quarantine_entry,
    verify_checksum,
    write_checksum,
)
from .policy import ExecutionPolicy

__all__ = [
    "ExecutionPolicy",
    "FaultSpec",
    "PersistentPool",
    "WorkerCrashError",
    "checksum_path",
    "execute",
    "quarantine_entry",
    "verify_checksum",
    "write_checksum",
]
