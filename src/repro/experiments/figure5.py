"""Figure 5: secondary metrics of the prefetch-degree sweep.

The same sweep as Figure 4, viewed through the paper's secondary metrics:
reduction in epochs per instruction, remaining L2 instruction/load miss
rates, prefetch coverage and prefetch accuracy.  The paper's headline
observations, which the tests assert on this module's output:

* EPI reduction tracks coverage (the prefetcher removes whole epochs
  with the misses it eliminates);
* coverage rises with degree while accuracy falls;
* load misses dominate for the database and SPECjbb2005, while
  instruction misses are a significant fraction for TPC-W and
  SPECjAppServer2004.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..memory.request import AccessKind
from .common import FigureResult
# Figure 5 reads Figure 4's spec: its panels are views of that sweep.
from .figure4 import DEGREES, SPEC_FILE

if TYPE_CHECKING:
    from ..spec import SweepResult, SweepSpec

__all__ = ["Figure5Result", "SPEC_FILE", "assemble"]


@dataclass
class Figure5Result:
    """Four linked panels over the shared degree sweep."""

    epi_reduction: FigureResult
    inst_miss_rate: FigureResult
    load_miss_rate: FigureResult
    coverage: FigureResult
    accuracy: FigureResult

    def panels(self) -> Sequence[FigureResult]:
        return (
            self.epi_reduction,
            self.inst_miss_rate,
            self.load_miss_rate,
            self.coverage,
            self.accuracy,
        )

    def render(self) -> str:
        return "\n\n".join(panel.render() for panel in self.panels())

    def to_dict(self) -> dict:
        return {
            "kind": "figure_panels",
            "id": "Figure 5",
            "panels": {panel.figure_id: panel.to_dict() for panel in self.panels()},
        }


def _panel(
    grid: Mapping[str, Sequence],
    figure_id: str,
    title: str,
    metric,
    value_format: str = "+.1%",
) -> FigureResult:
    series = {w: [metric(p) for p in points] for w, points in grid.items()}
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="degree",
        x_values=DEGREES,
        series=series,
        points=grid,
        value_format=value_format,
    )


def assemble(spec: "SweepSpec", result: "SweepResult") -> Figure5Result:
    """Build the five Figure 5 panels from the degree sweep."""
    grid = result.grid()
    return Figure5Result(
        epi_reduction=_panel(
            grid, "Figure 5a", "Reduction in epochs per instruction", lambda p: p.epi_reduction
        ),
        inst_miss_rate=_panel(
            grid,
            "Figure 5b",
            "Remaining L2 instruction misses per 1000 instructions",
            lambda p: p.result.stats.per_kilo_inst(
                p.result.stats.offchip_misses[AccessKind.IFETCH]
            ),
            value_format=".2f",
        ),
        load_miss_rate=_panel(
            grid,
            "Figure 5c",
            "Remaining L2 load misses per 1000 instructions",
            lambda p: p.result.stats.per_kilo_inst(
                p.result.stats.offchip_misses[AccessKind.LOAD]
            ),
            value_format=".2f",
        ),
        coverage=_panel(
            grid, "Figure 5d", "Prefetch coverage", lambda p: p.result.coverage, ".1%"
        ),
        accuracy=_panel(
            grid, "Figure 5e", "Prefetch accuracy", lambda p: p.result.accuracy, ".1%"
        ),
    )
