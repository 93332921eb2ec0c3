"""Figure 7: effect of prefetch-buffer size.

The paper sweeps the number of prefetch-buffer entries (4-way
set-associative) and finds 64 entries — 512 B of on-chip storage —
adequate.  Together with degree 8 and the million-entry main-memory
table, this completes the tuned configuration whose improvements the
paper headlines (+23 % database, +13 % TPC-W, +31 % SPECjbb2005,
+26 % SPECjAppServer2004).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.sweep import SweepPoint
from .common import FigureResult

if TYPE_CHECKING:
    from ..spec import SweepResult, SweepSpec

__all__ = ["BUFFER_ENTRIES", "SPEC_FILE", "assemble"]

SPEC_FILE = "figure7.toml"
BUFFER_ENTRIES: tuple[int, ...] = (16, 32, 64, 128, 256, 1024)


def assemble(spec: "SweepSpec", result: "SweepResult") -> FigureResult:
    """Build the Figure 7 result from the buffer-entries sweep.

    A config-axis sweep: one point per config variant, labelled by it.
    """
    grid: dict = {w: [] for w in spec.workloads}
    for meta, res in result.candidates():
        grid[meta.workload].append(
            SweepPoint(
                workload=meta.workload,
                label=meta.config_label,
                result=res,
                baseline=result.baseline_result(meta),
            )
        )
    series = {w: [p.improvement for p in points] for w, points in grid.items()}
    return FigureResult(
        figure_id="Figure 7",
        title="Effect of limiting number of prefetch buffer entries on overall "
        "performance improvement",
        x_label="pb_entries",
        x_values=BUFFER_ENTRIES,
        series=series,
        points=grid,
    )
