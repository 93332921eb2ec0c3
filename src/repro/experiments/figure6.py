"""Figure 6: effect of correlation-table size.

The paper sweeps the number of main-memory correlation-table entries and
finds that one million entries (64 MB of main memory) suffices to avoid
significant performance erosion.  At our 8x-scaled footprints the
equivalent knee sits around 128 K entries; the sweep spans 1 K to 512 K
to expose both the erosion below the knee and the plateau above it.

Degree is fixed at eight (the tuned choice of Section 5.2.1) and the
prefetch buffer at its tuned 64 entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .common import FigureResult

if TYPE_CHECKING:
    from ..spec import SweepResult, SweepSpec

__all__ = ["SPEC_FILE", "TABLE_ENTRIES", "assemble"]

SPEC_FILE = "figure6.toml"
TABLE_ENTRIES: tuple[int, ...] = (
    1024,
    4 * 1024,
    16 * 1024,
    64 * 1024,
    128 * 1024,
    512 * 1024,
)


def assemble(spec: "SweepSpec", result: "SweepResult") -> FigureResult:
    """Build the Figure 6 result from the table-entries sweep."""
    grid = result.grid()
    series = {w: [p.improvement for p in points] for w, points in grid.items()}
    return FigureResult(
        figure_id="Figure 6",
        title="Effect of limiting number of predictor table entries on overall "
        "performance improvement",
        x_label="entries",
        x_values=TABLE_ENTRIES,
        series=series,
        points=grid,
    )
