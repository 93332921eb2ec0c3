"""Tests for the analysis layer: metrics, reporting, sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import (
    compare_to_baseline,
    epi_reduction,
    geometric_mean,
    improvement,
    miss_rate_split,
)
from repro.analysis.reporting import banner, format_percent, format_series, format_table
from repro.engine.stats import SimulationResult, SimulationStats
from repro.memory.request import AccessKind
from repro.resilience import ExecutionPolicy
from repro.spec import SPEC_VERSION, SweepSpec, run_spec


def result_with(cpi_offchip_cycles: float, epochs=100, workload="w", prefetcher="p"):
    stats = SimulationStats(
        instructions=100_000, epochs=epochs, offchip_cycles=cpi_offchip_cycles
    )
    return SimulationResult(workload, prefetcher, stats, cpi_perf=1.0, overlap=0.0)


class TestMetrics:
    def test_improvement_and_epi_reduction(self):
        base = result_with(300_000.0, epochs=600)
        cand = result_with(200_000.0, epochs=400)
        assert improvement(base, cand) == pytest.approx(4.0 / 3.0 - 1.0)
        assert epi_reduction(base, cand) == pytest.approx(1 / 3)

    def test_miss_rate_split(self):
        res = result_with(0.0)
        res.stats.offchip_misses[AccessKind.IFETCH] = 200
        res.stats.offchip_misses[AccessKind.LOAD] = 400
        split = miss_rate_split(res)
        assert split["inst"] == pytest.approx(2.0)
        assert split["load"] == pytest.approx(4.0)
        assert split["store"] == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_compare_to_baseline(self):
        base = result_with(300_000.0)
        cand = result_with(150_000.0)
        rows = compare_to_baseline({"w": base}, [cand])
        assert len(rows) == 1
        assert rows[0].improvement == pytest.approx(4.0 / 2.5 - 1.0)
        assert rows[0].workload == "w" and rows[0].prefetcher == "p"


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.234) == "+23.4 %"
        assert format_percent(-0.05) == "-5.0 %"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.5], ["yy", 2.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_format_series(self):
        text = format_series("deg", [1, 2], {"db": [0.1, 0.2]}, value_format="+.1%")
        assert "+10.0%" in text and "+20.0%" in text

    def test_format_series_rejects_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], {"s": [0.1]})

    def test_banner(self):
        text = banner("hello")
        assert text.splitlines()[1] == "hello"


def grid_spec(**overrides) -> SweepSpec:
    payload = {
        "version": SPEC_VERSION,
        "name": "grid",
        "workloads": ["pointer_chase", "random_uniform"],
        "grid": {"records": 3000, "seeds": [7]},
        "prefetchers": [
            {"name": "ebcp", "label": "x", "overrides": {"prefetch_degree": 2}},
            {"name": "stream", "label": "y"},
        ],
    }
    payload.update(overrides)
    return SweepSpec.from_dict(payload)


class TestSweepGrid:
    """``SweepResult.grid()``: the per-workload SweepPoint view of a run."""

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({}, None),
            ({"grid": {"records": 3000, "seeds": [7, 8]}}, "single-seed"),
            (
                {
                    "configs": [
                        {"label": "a"},
                        {"label": "b", "overrides": {"prefetch_buffer_entries": 128}},
                    ]
                },
                "config_label",
            ),
            (
                {
                    "grid": {
                        "records": 3000,
                        "seeds": [7],
                        "threads": [{"n_threads": 0}, {"n_threads": 2}],
                    }
                },
                "n_threads",
            ),
        ],
        ids=["shape", "several_seeds", "several_configs", "several_threads"],
    )
    def test_grid(self, overrides, error):
        result = run_spec(grid_spec(**overrides), policy=ExecutionPolicy(jobs=1))
        if error is not None:
            with pytest.raises(ValueError, match=error):
                result.grid()
            return
        grid = result.grid()
        assert list(grid) == ["pointer_chase", "random_uniform"]
        baselines = {meta.workload: res for meta, res in result.baselines()}
        for workload, points in grid.items():
            assert [p.label for p in points] == ["x", "y"]
            for point in points:
                assert point.workload == workload
                assert point.baseline is baselines[workload]
                assert point.improvement == point.result.improvement_over(
                    baselines[workload]
                )
