"""Table 1: baseline statistics without prefetching.

Reproduces the paper's Table 1 — overall CPI, epochs per 1000
instructions and L2 instruction/load miss rates for the four commercial
workloads on the default processor with no prefetcher — and reports the
paper's published values alongside for comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.calibration import TABLE1_TARGETS
from .common import TableResult

if TYPE_CHECKING:
    from ..spec import SweepResult, SweepSpec

__all__ = ["SPEC_FILE", "assemble"]

SPEC_FILE = "table1.toml"


def assemble(spec: "SweepSpec", result: "SweepResult") -> TableResult:
    """Tabulate the sweep's baselines in the paper's Table 1 layout."""
    headers = [
        "workload",
        "CPI",
        "CPI(paper)",
        "epochs/1k",
        "epochs/1k(paper)",
        "I-miss/1k",
        "I-miss/1k(paper)",
        "L-miss/1k",
        "L-miss/1k(paper)",
    ]
    rows = []
    for meta, m in result.baselines():
        targets = TABLE1_TARGETS[meta.workload]
        rows.append(
            [
                meta.workload,
                f"{m.cpi:.2f}",
                f"{targets.cpi_overall:.2f}",
                f"{m.epochs_per_kilo_inst:.2f}",
                f"{targets.epochs_per_kilo_inst:.2f}",
                f"{m.l2_inst_miss_rate:.2f}",
                f"{targets.l2_inst_miss_rate:.2f}",
                f"{m.l2_load_miss_rate:.2f}",
                f"{targets.l2_load_miss_rate:.2f}",
            ]
        )
    return TableResult(
        table_id="Table 1",
        title="Baseline processor statistics without correlation prefetching",
        headers=headers,
        rows=rows,
    )
