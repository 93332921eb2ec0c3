"""Bench: Figure 4 — overall improvement vs prefetch degree."""

from __future__ import annotations

from repro.experiments.from_spec import run_experiment
from repro.workloads.registry import COMMERCIAL_WORKLOADS

from conftest import publish


def test_figure4(benchmark, bench_records, bench_seed, bench_policy):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "figure4", records=bench_records, seed=bench_seed, policy=bench_policy
        ),
        rounds=1,
        iterations=1,
    )
    publish("figure4", result.render(), data=result.to_dict())
    # Paper shape: at the default 9.6 GB/s read bandwidth, performance
    # improves (weakly) monotonically with degree for every workload.
    for workload in COMMERCIAL_WORKLOADS:
        series = result.series[workload]
        assert series[-1] > series[0], workload
        assert max(series) == series[-1] or max(series) - series[-1] < 0.02, workload
