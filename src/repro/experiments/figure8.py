"""Figure 8: sensitivity to available memory bandwidth.

The paper re-runs the prefetch-degree sweep at three bandwidth points —
9.6/4.8 GB/s (default), 6.4/3.2 GB/s and 3.2/1.6 GB/s read/write — and
finds that the optimal degree depends on bandwidth:

* at 9.6 GB/s performance keeps improving through degree 32;
* at 6.4 GB/s the database and SPECjbb2005 peak around degree 16;
* at 3.2 GB/s performance declines beyond degree ~8 (and for the
  database declines with degree throughout).

Prefetches past the bus budget are dropped and sustained saturation adds
queueing delay to the effective miss penalty — both modelled in
:mod:`repro.memory.bandwidth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .common import FigureResult

if TYPE_CHECKING:
    from ..spec import SweepResult, SweepSpec

__all__ = ["BANDWIDTH_POINTS", "DEGREES", "SPEC_FILE", "Figure8Result", "assemble"]

SPEC_FILE = "figure8.toml"
#: (read GB/s, write GB/s) points from Section 5.2.4.
BANDWIDTH_POINTS: tuple[tuple[float, float], ...] = ((9.6, 4.8), (6.4, 3.2), (3.2, 1.6))
DEGREES: tuple[int, ...] = (2, 4, 8, 16, 32)


@dataclass
class Figure8Result:
    """One degree-sweep panel per bandwidth point."""

    panels: Mapping[str, FigureResult]  # keyed by "9.6", "6.4", "3.2"

    def render(self) -> str:
        return "\n\n".join(panel.render() for panel in self.panels.values())

    def improvement(self, read_gbps: float, workload: str, degree: int) -> float:
        return self.panels[f"{read_gbps:g}"].value(workload, degree)

    def to_dict(self) -> dict:
        return {
            "kind": "figure_panels",
            "id": "Figure 8",
            "panels": {key: panel.to_dict() for key, panel in self.panels.items()},
        }


def assemble(spec: "SweepSpec", result: "SweepResult") -> Figure8Result:
    """Build one Figure 8 panel per bandwidth config variant."""
    panels: dict[str, FigureResult] = {}
    for cfg in spec.configs:
        grid = result.grid(config_label=cfg.label)
        series = {w: [p.improvement for p in points] for w, points in grid.items()}
        panels[cfg.label] = FigureResult(
            figure_id=f"Figure 8 ({cfg.label} GB/s read)",
            title="Effect of available memory bandwidth on EBCP performance",
            x_label="degree",
            x_values=DEGREES,
            series=series,
            points=grid,
        )
    return Figure8Result(panels=panels)
