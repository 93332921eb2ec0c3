"""Local execution of sweep specs (and the shared result container).

``run_spec`` is the local path of the tentpole: expand → warm → execute
through :func:`repro.resilience.executor.execute` (via
:func:`repro.parallel.run_jobs`), returning a :class:`SweepResult`.
``submit_spec`` (:mod:`repro.spec.submit`) produces the *same* container
from a service's streamed frames, so downstream assembly code never
cares which path ran the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..analysis.sweep import SweepPoint
from ..engine.stats import SimulationResult
from ..parallel.jobs import run_jobs
from ..resilience.policy import ExecutionPolicy
from .expand import PlannedJob, SweepPlan, expand
from .schema import SweepSpec

__all__ = ["SweepResult", "run_spec"]


@dataclass
class SweepResult:
    """The outcome of one sweep: plan plus per-job results in plan order.

    ``cached`` and ``shards`` are populated by the submitted path only
    (which jobs were answered from a service cache, and by which shard);
    local runs leave them ``None``.
    """

    spec: SweepSpec
    plan: SweepPlan
    results: Tuple[SimulationResult, ...]
    cached: Optional[Tuple[bool, ...]] = None
    shards: Optional[Tuple[Optional[dict], ...]] = None
    elapsed_ms: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.results) != len(self.plan.jobs):
            raise ValueError(
                f"{len(self.results)} results for {len(self.plan.jobs)} planned jobs"
            )

    def __len__(self) -> int:
        return len(self.results)

    # -- generic access -------------------------------------------------

    def iter_points(self) -> Iterator[Tuple[PlannedJob, SimulationResult]]:
        """Every job — baselines included — with its metadata, in plan order."""
        return iter(zip(self.plan.meta, self.results))

    def baseline_result(self, meta: PlannedJob) -> Optional[SimulationResult]:
        if meta.baseline_index is None:
            return None
        return self.results[meta.baseline_index]

    def candidates(self) -> Iterator[Tuple[PlannedJob, SimulationResult]]:
        for meta, result in self.iter_points():
            if meta.kind == "candidate":
                yield meta, result

    def baselines(self) -> Iterator[Tuple[PlannedJob, SimulationResult]]:
        for meta, result in self.iter_points():
            if meta.kind == "baseline":
                yield meta, result

    # -- the sweep-grid shape the figure assembly steps consume --------

    def grid(
        self,
        config_label: Optional[str] = None,
        n_threads: Optional[int] = None,
    ) -> Dict[str, List[SweepPoint]]:
        """``{workload: [SweepPoint, ...]}`` — the shape the figure
        assembly helpers consume.

        Selects one config variant (default: the only one) and one
        thread point (default: the only one); a grid over several seeds
        is rejected because the grid shape cannot carry it.
        """
        if len(self.spec.grid.seeds) != 1:
            raise ValueError("grid() needs a single-seed spec")
        if config_label is None:
            if len(self.spec.configs) != 1:
                raise ValueError(
                    "spec has several config variants; pass config_label"
                )
            config_label = self.spec.configs[0].label
        if n_threads is None:
            if len(self.spec.grid.threads) != 1:
                raise ValueError(
                    "spec has several thread points; pass n_threads"
                )
            n_threads = self.spec.grid.threads[0].n_threads
        out: Dict[str, List[SweepPoint]] = {w: [] for w in self.spec.workloads}
        for meta, result in self.candidates():
            if meta.config_label != config_label or meta.n_threads != n_threads:
                continue
            out[meta.workload].append(
                SweepPoint(
                    workload=meta.workload,
                    label=meta.label,
                    result=result,
                    baseline=self.baseline_result(meta),
                )
            )
        return out

    def summary(self) -> dict:
        """A light JSON-safe digest (the CLI's default output)."""
        points = []
        for meta, result in self.iter_points():
            row = {
                "index": meta.index,
                "kind": meta.kind,
                "workload": meta.workload,
                "seed": meta.seed,
                "n_threads": meta.n_threads,
                "config": meta.config_label,
                "label": meta.label,
                "cpi": result.cpi,
            }
            baseline = self.baseline_result(meta)
            if baseline is not None and meta.kind == "candidate":
                row["improvement"] = (baseline.cpi - result.cpi) / baseline.cpi
            if self.cached is not None:
                row["cached"] = self.cached[meta.index]
            if self.shards is not None and self.shards[meta.index] is not None:
                row["shard"] = self.shards[meta.index]
            points.append(row)
        return {
            "name": self.spec.name,
            "fingerprint": self.spec.fingerprint(),
            "jobs": len(self),
            "baselines": self.plan.n_baselines,
            "points": points,
        }


def run_spec(
    spec: SweepSpec,
    policy: Optional[ExecutionPolicy] = None,
    bus: Optional[object] = None,
) -> SweepResult:
    """Execute ``spec`` locally and return its :class:`SweepResult`.

    ``policy`` overrides the spec's ``[execution]`` block wholesale when
    given (the CLI builds it by merging explicit flags over the block);
    otherwise the block's values apply.  Execution goes through
    :func:`repro.parallel.run_jobs` — pool management, retries and
    checkpointing, with each attempt building its own job's inputs — so
    results are bit-identical at any worker count.
    """
    plan = expand(spec)
    if policy is None:
        policy = spec.execution.to_policy()
    results = run_jobs(plan.jobs, policy=policy, bus=bus)
    return SweepResult(spec=spec, plan=plan, results=tuple(results))
