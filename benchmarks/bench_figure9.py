"""Bench: Figure 9 — EBCP vs the other prefetchers."""

from __future__ import annotations

from repro.experiments.from_spec import run_experiment
from repro.workloads.registry import COMMERCIAL_WORKLOADS

from conftest import publish


def test_figure9(benchmark, bench_records, bench_seed, bench_policy):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "figure9", records=bench_records, seed=bench_seed, policy=bench_policy
        ),
        rounds=1,
        iterations=1,
    )
    publish("figure9", result.render(), data=result.to_dict())
    for workload in COMMERCIAL_WORKLOADS:
        ebcp = result.value(workload, "ebcp")
        # The headline: EBCP significantly outperforms every other scheme.
        for scheme in result.x_values:
            if scheme != "ebcp":
                assert ebcp >= result.value(workload, scheme), (workload, scheme)
        # Skipping the un-prefetchable next epoch matters.
        assert ebcp > result.value(workload, "ebcp_minus"), workload
        # Depth beats width for these workloads (Wenisch et al's point).
        assert result.value(workload, "solihin_6_1") >= result.value(
            workload, "solihin_3_2"
        ), workload
