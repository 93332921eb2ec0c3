"""Figure 4: effect of prefetch degree on overall performance.

The paper starts from an idealized predictor (8 M-entry table, 32
addresses per entry, 1024-entry prefetch buffer) and sweeps the maximum
number of prefetches issued per correlation-table match from 1 to 32,
reporting the overall performance improvement over the no-prefetching
baseline.  Performance keeps improving with degree at the default
9.6 GB/s read bandwidth.

This module assembles the same sweep (table scaled with the rest of the
configuration, DESIGN.md Section 2) from ``specs/figure4.toml`` and keeps
the full sweep points; Figure 5 reads the same spec, so it presents its
secondary metrics without re-simulating.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .common import FigureResult

if TYPE_CHECKING:
    from ..spec import SweepResult, SweepSpec

__all__ = ["DEGREES", "SPEC_FILE", "assemble"]

SPEC_FILE = "figure4.toml"
DEGREES: tuple[int, ...] = (1, 2, 4, 8, 16, 32)


def assemble(spec: "SweepSpec", result: "SweepResult") -> FigureResult:
    """Build the Figure 4 result from the degree sweep."""
    grid = result.grid()
    series = {
        workload: [point.improvement for point in points]
        for workload, points in grid.items()
    }
    return FigureResult(
        figure_id="Figure 4",
        title="Effect of limiting number of prefetches on overall performance improvement",
        x_label="degree",
        x_values=DEGREES,
        series=series,
        points=grid,
    )
