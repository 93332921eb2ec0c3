"""Unit tests for the experiment result containers and helpers."""

from __future__ import annotations

import pytest

from repro.core.prefetcher import EpochBasedCorrelationPrefetcher
from repro.engine.config import ProcessorConfig
from repro.experiments import figure4, figure7, figure8
from repro.experiments.common import FigureResult, TableResult, memoized
from repro.experiments.from_spec import load_experiment_spec
from repro.spec import expand

SCALED = ProcessorConfig.scaled()


def planned(name: str, kind: str = "candidate"):
    """``(meta, job)`` pairs of one kind from an experiment's expanded spec.

    Expansion builds configs and prefetchers without simulating, so
    these tests pin the Section 5.2 settings at no run-time cost.
    """
    plan = expand(load_experiment_spec(name))
    return [(m, j) for m, j in zip(plan.meta, plan.jobs) if m.kind == kind]


class TestFigureResult:
    def make(self):
        return FigureResult(
            figure_id="Fig X",
            title="demo",
            x_label="degree",
            x_values=(1, 2, 4),
            series={"db": [0.1, 0.2, 0.3], "web": [0.0, 0.05, 0.1]},
        )

    def test_value_lookup(self):
        fig = self.make()
        assert fig.value("db", 2) == 0.2
        assert fig.value("web", 4) == 0.1

    def test_value_unknown_x(self):
        with pytest.raises(ValueError):
            self.make().value("db", 99)

    def test_render_contains_series(self):
        text = self.make().render()
        assert "Fig X" in text
        assert "db" in text and "web" in text
        assert "+20.0%" in text


class TestTableResult:
    def test_render(self):
        table = TableResult("Table T", "demo", ["a", "b"], [["x", "1"], ["y", "2"]])
        text = table.render()
        assert "Table T" in text and "x" in text and "2" in text


class TestConfigs:
    """The processor configurations the committed specs expand to."""

    def test_default_is_scaled(self):
        for name in ("table1", "figure6", "figure9"):
            for kind in ("baseline", "candidate"):
                for _, job in planned(name, kind):
                    assert job.config.fingerprint() == SCALED.fingerprint(), name

    def test_default_with_overrides(self):
        """Figure 7: the scaled default with only the buffer size swept."""
        candidates = planned("figure7")
        for workload in {meta.workload for meta, _ in candidates}:
            configs = [job.config for meta, job in candidates if meta.workload == workload]
            sizes = tuple(config.prefetch_buffer_entries for config in configs)
            assert sizes == figure7.BUFFER_ENTRIES
            for config in configs:
                reset = config.replace(prefetch_buffer_entries=SCALED.prefetch_buffer_entries)
                assert reset.fingerprint() == SCALED.fingerprint()

    def test_idealized_buffer(self):
        for name in ("figure4", "figure8"):
            for kind in ("baseline", "candidate"):
                for _, job in planned(name, kind):
                    assert job.config.prefetch_buffer_entries == 1024, name

    def test_bandwidth_config(self):
        spec = load_experiment_spec("figure8")
        configs = [cfg.build() for cfg in spec.configs]
        points = [(config.read_bw_gbps, config.write_bw_gbps) for config in configs]
        assert points == list(figure8.BANDWIDTH_POINTS)
        assert [cfg.label for cfg in spec.configs] == [
            f"{read:g}" for read, _ in figure8.BANDWIDTH_POINTS
        ]
        for config in configs:
            reset = config.replace(
                prefetch_buffer_entries=SCALED.prefetch_buffer_entries,
                read_bw_gbps=SCALED.read_bw_gbps,
                write_bw_gbps=SCALED.write_bw_gbps,
            )
            assert reset.fingerprint() == SCALED.fingerprint()


class TestSweepEBCP:
    """The EBCP settings the committed specs expand to."""

    def test_idealized_defaults(self):
        for name, degrees in (("figure4", figure4.DEGREES), ("figure8", figure8.DEGREES)):
            candidates = planned(name)
            assert {int(meta.label) for meta, _ in candidates} == set(degrees)
            for meta, job in candidates:
                pf = job.prefetcher
                assert type(pf) is EpochBasedCorrelationPrefetcher
                assert pf.config.prefetch_degree == int(meta.label)
                assert pf.config.table_entries == 1024 * 1024
                assert pf.config.effective_addrs_per_entry == 32
                assert pf.config.entry_bytes == 256

    def test_small_entry_keeps_64b(self):
        """Figure 9's EBCP and EBCP-minus store 6 addresses in 64 B entries."""
        candidates = planned("figure9")
        ebcps = [job for meta, job in candidates if meta.label in ("ebcp", "ebcp_minus")]
        assert len(ebcps) == 2 * len({meta.workload for meta, _ in candidates})
        for job in ebcps:
            assert job.prefetcher.config.effective_addrs_per_entry == 6
            assert job.prefetcher.config.entry_bytes == 64


class TestMemo:
    def test_memoized_computes_once(self):
        calls = []

        def compute():
            calls.append(1)
            return "value"

        key = ("test_memo_unique_key", 1)
        assert memoized(key, compute) == "value"
        assert memoized(key, compute) == "value"
        assert len(calls) == 1
