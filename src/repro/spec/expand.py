"""Lowering a :class:`SweepSpec` into the executable ``JobSpec`` grid.

The expander is the single point where declarative sweeps meet the
execution machinery: every path — ``run_spec`` locally, the service's
``sweep`` handler, the router's per-shard fan-out — expands the *same*
spec into the *same* plan, which is what makes local and submitted
sweeps bit-identical.

Baseline dedup
--------------
A baseline (no-prefetching) run depends only on the grid cell —
``(workload, seed, records, n_threads, scale, config fingerprint)`` —
never on the candidate list, so one baseline job serves every candidate
in its cell.  Cells are keyed by the built config's *fingerprint* —
exact and stable across processes, unlike ``hash()`` — so two config
variants that resolve to the same processor share one baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..parallel.jobs import JobSpec
from .schema import ConfigSpec, SweepSpec

__all__ = ["PlannedJob", "SweepPlan", "expand"]


@dataclass(frozen=True)
class PlannedJob:
    """Metadata for one expanded job (parallel to ``SweepPlan.jobs``).

    Carries everything needed to rebuild the job remotely: the wire
    ``sweep`` fan-out constructs extended ``simulate`` params from this
    record alone, and result streams are keyed by ``index``.
    """

    index: int
    kind: str  # "baseline" | "candidate"
    workload: str
    seed: int
    records: int
    n_threads: int
    scale: float
    warmup_records: Optional[int]
    config_label: str
    config_base: str
    config_overrides: Tuple[Tuple[str, Any], ...]
    prefetcher: str  # registry name; "none" for baselines
    prefetcher_overrides: Tuple[Tuple[str, Any], ...]
    label: str
    #: Index of this candidate's baseline job, or ``None`` (baselines
    #: themselves, and sweeps with ``output.baseline = false``).
    baseline_index: Optional[int] = None


@dataclass(frozen=True)
class SweepPlan:
    """An expanded spec: jobs ready to execute plus per-job metadata."""

    spec: SweepSpec
    jobs: Tuple[JobSpec, ...]
    meta: Tuple[PlannedJob, ...]

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def n_baselines(self) -> int:
        return sum(1 for m in self.meta if m.kind == "baseline")


def _cell_key(
    workload: str, seed: int, records: int, n_threads: int, scale: float,
    config_fp: tuple,
) -> tuple:
    return (workload, seed, records, n_threads, scale, config_fp)


def expand(spec: SweepSpec) -> SweepPlan:
    """Lower ``spec`` into its job grid (baselines first, then candidates).

    Expansion order is deterministic: configs × workloads × thread
    points × seeds, with the spec's prefetcher order preserved inside
    each cell — so a plan is a pure function of its spec.
    """
    jobs: List[JobSpec] = []
    meta: List[PlannedJob] = []
    baseline_at: Dict[tuple, int] = {}

    built_configs: Dict[str, Any] = {}
    config_fps: Dict[str, tuple] = {}
    for cfg in spec.configs:
        built_configs[cfg.label] = cfg.build()
        config_fps[cfg.label] = built_configs[cfg.label].fingerprint()

    def cells():
        for cfg in spec.configs:
            for workload in spec.workloads:
                for tp in spec.grid.threads:
                    records = tp.records if tp.records is not None else spec.grid.records
                    for seed in spec.grid.seeds:
                        yield cfg, workload, tp.n_threads, records, seed

    def planned(
        kind: str,
        cfg: ConfigSpec,
        workload: str,
        n_threads: int,
        records: int,
        seed: int,
        prefetcher: str,
        prefetcher_overrides: Tuple[Tuple[str, Any], ...],
        label: str,
        baseline_index: Optional[int],
    ) -> PlannedJob:
        return PlannedJob(
            index=len(jobs),
            kind=kind,
            workload=workload,
            seed=seed,
            records=records,
            n_threads=n_threads,
            scale=spec.grid.scale,
            warmup_records=spec.grid.warmup_records,
            config_label=cfg.label,
            config_base=cfg.base,
            config_overrides=cfg.overrides,
            prefetcher=prefetcher,
            prefetcher_overrides=prefetcher_overrides,
            label=label,
            baseline_index=baseline_index,
        )

    if spec.output.baseline:
        for cfg, workload, n_threads, records, seed in cells():
            key = _cell_key(
                workload, seed, records, n_threads, spec.grid.scale,
                config_fps[cfg.label],
            )
            if key in baseline_at:
                continue
            baseline_at[key] = len(jobs)
            meta.append(
                planned(
                    "baseline", cfg, workload, n_threads, records, seed,
                    "none", (), "baseline", None,
                )
            )
            jobs.append(
                JobSpec(
                    workload=workload,
                    records=records,
                    seed=seed,
                    config=built_configs[cfg.label],
                    prefetcher=None,
                    label="baseline",
                    scale=spec.grid.scale,
                    n_threads=n_threads,
                    warmup_records=spec.grid.warmup_records,
                )
            )

    for cfg, workload, n_threads, records, seed in cells():
        key = _cell_key(
            workload, seed, records, n_threads, spec.grid.scale,
            config_fps[cfg.label],
        )
        for pf in spec.prefetchers:
            meta.append(
                planned(
                    "candidate", cfg, workload, n_threads, records, seed,
                    pf.name, pf.overrides, pf.effective_label,
                    baseline_at.get(key),
                )
            )
            jobs.append(
                JobSpec(
                    workload=workload,
                    records=records,
                    seed=seed,
                    config=built_configs[cfg.label],
                    prefetcher=pf.build(),
                    label=pf.effective_label,
                    scale=spec.grid.scale,
                    n_threads=n_threads,
                    warmup_records=spec.grid.warmup_records,
                )
            )

    return SweepPlan(spec=spec, jobs=tuple(jobs), meta=tuple(meta))
