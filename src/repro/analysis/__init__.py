"""Metrics, parameter sweeps, calibration checks and report rendering."""

from .calibration import TABLE1_TARGETS, CalibrationReport, Table1Targets, check_baseline
from .diagnostics import (
    bus_breakdown,
    miss_mix,
    prefetch_lifecycle,
    render_diagnostics,
    termination_census,
)
from .metrics import (
    ComparisonRow,
    compare_to_baseline,
    epi_reduction,
    geometric_mean,
    improvement,
    miss_rate_split,
)
from .reporting import banner, format_percent, format_series, format_table
from .sweep import SweepPoint

__all__ = [
    "CalibrationReport",
    "ComparisonRow",
    "SweepPoint",
    "TABLE1_TARGETS",
    "Table1Targets",
    "banner",
    "bus_breakdown",
    "check_baseline",
    "compare_to_baseline",
    "epi_reduction",
    "format_percent",
    "format_series",
    "format_table",
    "geometric_mean",
    "improvement",
    "miss_mix",
    "miss_rate_split",
    "prefetch_lifecycle",
    "render_diagnostics",
    "termination_census",
]
