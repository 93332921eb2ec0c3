"""Extension E1: EBCP on a chip multiprocessor (paper Section 6).

Not a figure from the paper — its named future work, built to quantify
the Section 3.3.1 placement argument: on a CMP, the request stream
reaching memory is an interleaving of the threads' streams, which "do
not exhibit sufficient correlation to enable effective prefetching",
while EBCP's in-front-of-the-crossbar control can track each thread's
stream separately.

For each workload and thread count, four schemes run on the interleaved
trace:

* ``ebcp_cmp``         — per-thread EMABs + shared main-memory table;
* ``ebcp_interleaved`` — identical logic, thread-blind (one EMAB over
                         the union stream);
* ``solihin_6_1``      — the memory-side baseline (inherently
                         thread-blind);
* ``ghb_large``        — on-chip PC/DC: PC indexing gives it *implicit*
                         per-thread separation (thread PCs are disjoint),
                         an interesting middle point.

Expected shape: per-thread tracking retains most of the single-thread
gain as threads are added; the thread-blind variants decay toward zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .common import FigureResult

if TYPE_CHECKING:
    from ..spec import SweepResult, SweepSpec

__all__ = ["SPEC_FILE", "ExtensionCMPResult", "assemble"]

SPEC_FILE = "extension_cmp.toml"


@dataclass
class ExtensionCMPResult:
    """One improvement-vs-thread-count panel per workload."""

    panels: Mapping[str, FigureResult]  # keyed by workload

    def render(self) -> str:
        return "\n\n".join(panel.render() for panel in self.panels.values())

    def improvement(self, workload: str, scheme: str, n_threads: int) -> float:
        panel = self.panels[workload]
        return panel.series[scheme][list(panel.x_values).index(n_threads)]

    def to_dict(self) -> dict:
        return {
            "kind": "figure_panels",
            "id": "Extension E1",
            "panels": {key: panel.to_dict() for key, panel in self.panels.items()},
        }


def assemble(spec: "SweepSpec", result: "SweepResult") -> ExtensionCMPResult:
    """Build one improvement-vs-threads panel per workload."""
    thread_counts = tuple(tp.n_threads for tp in spec.grid.threads)
    series_by_workload: dict = {
        w: {pf.effective_label: [] for pf in spec.prefetchers} for w in spec.workloads
    }
    for meta, res in result.candidates():
        series_by_workload[meta.workload][meta.label].append(
            res.improvement_over(result.baseline_result(meta))
        )
    return ExtensionCMPResult(
        panels={
            workload: FigureResult(
                figure_id=f"Extension E1 ({workload})",
                title="CMP interleaving: per-thread vs thread-blind prefetching",
                x_label="threads",
                x_values=thread_counts,
                series=series,
            )
            for workload, series in series_by_workload.items()
        }
    )
