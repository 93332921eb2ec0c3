"""Bench: Figure 7 — improvement vs prefetch-buffer entries."""

from __future__ import annotations

from repro.experiments.from_spec import run_experiment
from repro.workloads.registry import COMMERCIAL_WORKLOADS

from conftest import publish


def test_figure7(benchmark, bench_records, bench_seed, bench_policy):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "figure7", records=bench_records, seed=bench_seed, policy=bench_policy
        ),
        rounds=1,
        iterations=1,
    )
    publish("figure7", result.render(), data=result.to_dict())
    for workload in COMMERCIAL_WORKLOADS:
        small = result.value(workload, 16)
        tuned = result.value(workload, 64)
        huge = result.value(workload, 1024)
        # The paper's conclusion: 64 entries (512 B) are adequate.
        assert tuned > small, workload
        assert huge - tuned < 0.08, workload
