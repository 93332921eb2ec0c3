"""Bench: Figure 5 — EPI reduction, miss rates, coverage, accuracy."""

from __future__ import annotations

from repro.experiments.from_spec import run_experiment
from repro.workloads.registry import COMMERCIAL_WORKLOADS

from conftest import publish


def test_figure5(benchmark, bench_records, bench_seed, bench_policy):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "figure5", records=bench_records, seed=bench_seed, policy=bench_policy
        ),
        rounds=1,
        iterations=1,
    )
    publish("figure5", result.render(), data=result.to_dict())
    for workload in COMMERCIAL_WORKLOADS:
        coverage = result.coverage.series[workload]
        accuracy = result.accuracy.series[workload]
        epi = result.epi_reduction.series[workload]
        # Coverage rises with degree; accuracy falls (paper Section 5.2.1).
        assert coverage[-1] > coverage[0], workload
        assert accuracy[-1] < accuracy[0], workload
        # EPI reduction tracks coverage: the prefetcher removes whole
        # epochs with the misses it eliminates.
        assert epi[-1] > 0, workload
