"""Declarative sweep specs: one schema drives every execution path.

The sweep spec (:class:`SweepSpec`) is the single declarative
description of a simulation sweep — workloads × records/seed grid ×
processor-config variants × prefetchers, plus an execution-policy block
and output hints.  One spec runs three ways with bit-identical results:

* :func:`run_spec` — locally, through ``resilience.execute``;
* :func:`submit_spec` — against a running service (protocol v4
  ``sweep``), with per-job results streamed back as they settle;
* the committed ``specs/*.toml`` files — the paper experiments
  (``table1``, ``figure4``–``figure9``, ``extension_cmp``) are loaded
  from these by :func:`repro.experiments.from_spec.run_experiment`.

Schema versioning and the wire format are documented in DESIGN.md.
"""

from .errors import SpecError, SpecVersionError
from .expand import PlannedJob, SweepPlan, expand
from .loader import dump_spec, dumps_spec, load_spec, loads_spec
from .runner import SweepResult, run_spec
from .schema import (
    SPEC_VERSION,
    ConfigSpec,
    ExecutionSpec,
    GridSpec,
    OutputSpec,
    PrefetcherSpec,
    SweepSpec,
    ThreadPoint,
)
from .submit import submit_spec

__all__ = [
    "SPEC_VERSION",
    "ConfigSpec",
    "ExecutionSpec",
    "GridSpec",
    "OutputSpec",
    "PlannedJob",
    "PrefetcherSpec",
    "SpecError",
    "SpecVersionError",
    "SweepPlan",
    "SweepResult",
    "SweepSpec",
    "ThreadPoint",
    "dump_spec",
    "dumps_spec",
    "expand",
    "load_spec",
    "loads_spec",
    "run_spec",
    "submit_spec",
]
