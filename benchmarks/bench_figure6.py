"""Bench: Figure 6 — improvement vs correlation-table entries."""

from __future__ import annotations

from repro.experiments.from_spec import run_experiment
from repro.workloads.registry import COMMERCIAL_WORKLOADS

from conftest import publish


def test_figure6(benchmark, bench_records, bench_seed, bench_policy):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "figure6", records=bench_records, seed=bench_seed, policy=bench_policy
        ),
        rounds=1,
        iterations=1,
    )
    publish("figure6", result.render(), data=result.to_dict())
    for workload in COMMERCIAL_WORKLOADS:
        tiny = result.value(workload, 1024)
        knee = result.value(workload, 128 * 1024)
        plateau = result.value(workload, 512 * 1024)
        # Too few entries erode performance; the scaled equivalent of the
        # paper's one-million-entry knee is sufficient.
        assert knee > tiny, workload
        assert abs(plateau - knee) < 0.05, workload
