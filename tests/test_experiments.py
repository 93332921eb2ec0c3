"""Shape tests over the paper-figure experiments.

These run the real experiment harness at a reduced trace length and
assert the paper's *qualitative* findings — orderings, knees and
crossovers — rather than absolute numbers.  The full-length runs live in
``benchmarks/`` and are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.experiments import figure9
from repro.experiments.common import DEFAULT_RECORDS
from repro.experiments.from_spec import run_experiment
from repro.workloads.registry import COMMERCIAL_WORKLOADS

RECORDS = 140_000  # reduced but still several passes over each workload
SEED = 7


@pytest.fixture(scope="module")
def fig9():
    return run_experiment("figure9", records=RECORDS, seed=SEED)


class TestTable1:
    def test_renders_all_workloads(self):
        result = run_experiment("table1", records=RECORDS, seed=SEED)
        text = result.render()
        for workload in COMMERCIAL_WORKLOADS:
            assert workload in text
        assert len(result.rows) == 4

    def test_measured_tracks_paper_loosely(self):
        """At reduced length the baseline should still be within ~35 % of
        every Table 1 cell (the full-length bench is much tighter).
        Tiny-magnitude cells (< 0.5 events/kinst) get an absolute bound
        instead: relative error on 0.1-ish rates is dominated by noise."""
        result = run_experiment("table1", records=RECORDS, seed=SEED)
        for row in result.rows:
            for measured_col, paper_col in ((1, 2), (3, 4), (5, 6), (7, 8)):
                measured = float(row[measured_col])
                paper = float(row[paper_col])
                if paper < 0.5:
                    assert measured == pytest.approx(paper, abs=0.08), row[0]
                else:
                    assert measured == pytest.approx(paper, rel=0.35), row[0]


class TestFigure9Shape:
    def test_ebcp_wins_everywhere(self, fig9):
        for workload in COMMERCIAL_WORKLOADS:
            ebcp = fig9.value(workload, "ebcp")
            for scheme in figure9.SCHEMES:
                if scheme == "ebcp":
                    continue
                assert ebcp >= fig9.value(workload, scheme), (workload, scheme)

    def test_ebcp_beats_ebcp_minus(self, fig9):
        for workload in COMMERCIAL_WORKLOADS:
            assert fig9.value(workload, "ebcp") > fig9.value(workload, "ebcp_minus")

    def test_depth_beats_width(self, fig9):
        """Solihin 6,1 > Solihin 3,2 on all four benchmarks."""
        for workload in COMMERCIAL_WORKLOADS:
            assert fig9.value(workload, "solihin_6_1") >= fig9.value(
                workload, "solihin_3_2"
            ), workload

    def test_capacity_matters(self, fig9):
        for workload in COMMERCIAL_WORKLOADS:
            assert fig9.value(workload, "ghb_large") >= fig9.value(workload, "ghb_small")
            assert fig9.value(workload, "tcp_large") >= fig9.value(workload, "tcp_small")

    def test_small_onchip_schemes_ineffective(self, fig9):
        """GHB small / TCP small / stream gain little on these workloads."""
        for workload in COMMERCIAL_WORKLOADS:
            for scheme in ("ghb_small", "tcp_small", "stream"):
                assert fig9.value(workload, scheme) < 0.10, (workload, scheme)

    def test_sms_split_personality(self, fig9):
        """SMS does relatively well on the data-dominated workloads but
        poorly where instruction misses matter (no I-prefetching)."""
        data_side = min(
            fig9.value("database", "sms"), fig9.value("specjbb2005", "sms")
        )
        inst_side = max(fig9.value("tpcw", "sms"), fig9.value("jappserver2004", "sms"))
        assert data_side > inst_side

    def test_ebcp_headline_magnitudes(self, fig9):
        """Degree-6 EBCP should land within a few points of the paper's
        20/12/28/24 (reduced-length tolerance)."""
        paper = {
            "database": 0.20,
            "tpcw": 0.12,
            "specjbb2005": 0.28,
            "jappserver2004": 0.24,
        }
        for workload, expected in paper.items():
            measured = fig9.value(workload, "ebcp")
            assert measured == pytest.approx(expected, abs=0.10), workload


class TestFigure6Shape:
    def test_table_size_knee(self):
        result = run_experiment("figure6", records=RECORDS, seed=SEED)
        for workload in COMMERCIAL_WORKLOADS:
            tiny = result.value(workload, 1024)
            big = result.value(workload, 128 * 1024)
            biggest = result.value(workload, 512 * 1024)
            # Erosion below the knee, plateau above it.
            assert big > tiny, workload
            assert biggest == pytest.approx(big, abs=0.06), workload


class TestFigure7Shape:
    def test_buffer_size_knee(self):
        result = run_experiment("figure7", records=RECORDS, seed=SEED)
        for workload in COMMERCIAL_WORKLOADS:
            small = result.value(workload, 16)
            tuned = result.value(workload, 64)
            huge = result.value(workload, 1024)
            assert tuned > small, workload
            # 64 entries is "adequate": within a few points of 1024.
            assert huge - tuned < 0.08, workload


class TestDefaults:
    def test_default_records_constant(self):
        assert DEFAULT_RECORDS >= 200_000
