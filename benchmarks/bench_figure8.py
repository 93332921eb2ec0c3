"""Bench: Figure 8 — bandwidth sensitivity of the degree sweep."""

from __future__ import annotations

from repro.experiments.from_spec import run_experiment

from conftest import publish


def test_figure8(benchmark, bench_records, bench_seed, bench_policy):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "figure8", records=bench_records, seed=bench_seed, policy=bench_policy
        ),
        rounds=1,
        iterations=1,
    )
    publish("figure8", result.render(), data=result.to_dict())

    def peak_degree(read_gbps: float, workload: str) -> int:
        panel = result.panels[f"{read_gbps:g}"]
        series = panel.series[workload]
        best = max(range(len(series)), key=lambda i: series[i])
        return list(panel.x_values)[best]

    # Paper shape: at 9.6 GB/s the database keeps improving to high
    # degrees; at 3.2 GB/s the optimum shifts to a much lower degree.
    assert peak_degree(9.6, "database") >= 16
    assert peak_degree(3.2, "database") <= 8
    # Constrained bandwidth costs performance at the aggressive end for
    # every workload.
    for workload, series_96 in result.panels["9.6"].series.items():
        series_32 = result.panels["3.2"].series[workload]
        assert series_32[-1] < series_96[-1], workload
