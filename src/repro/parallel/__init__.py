"""Process-level parallel execution for sweeps and benches.

The paper's evaluation is a pile of embarrassingly parallel
(workload x configuration) grid points; this package fans them out over a
``ProcessPoolExecutor`` while guaranteeing results bit-identical to
sequential execution.  Worker count comes from the ``-j/--jobs`` CLI
flag, the ``jobs`` field of the :class:`~repro.resilience.ExecutionPolicy`
passed to :func:`repro.spec.run_spec` or
:func:`repro.experiments.from_spec.run_experiment`, or the ``REPRO_JOBS``
environment variable (``0`` = all cores; default 1).  Execution itself —
retries, timeouts, checkpoints, fault injection — lives in
:mod:`repro.resilience`; ``run_jobs`` is a thin policy-applying wrapper
over its executor.  Whole grids are declared as sweep specs and lowered
to ``JobSpec`` lists by :func:`repro.spec.expand`.

>>> from repro.engine.config import ProcessorConfig
>>> from repro.parallel import JobSpec, run_jobs
>>> specs = [
...     JobSpec(workload=w, records=40_000, seed=7,
...             config=ProcessorConfig.scaled(), prefetcher=None,
...             label="baseline")
...     for w in ("tpcw", "database")
... ]
>>> results = run_jobs(specs, jobs=2)  # doctest: +SKIP
"""

from .jobs import JobSpec, resolve_jobs, run_jobs, warm_trace_cache

__all__ = [
    "JobSpec",
    "resolve_jobs",
    "run_jobs",
    "warm_trace_cache",
]
