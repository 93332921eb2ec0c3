"""Shared infrastructure for the per-figure experiment modules.

Every module in :mod:`repro.experiments` regenerates one table or figure
of the paper's evaluation (Section 5) from its committed ``specs/*.toml``
file.  They share:

* the default run length (``DEFAULT_RECORDS`` trace records, ~30 % warm-up
  inside the simulator — the scaled equivalent of the paper's 150 M + 100 M
  instruction protocol),
* the rendered result shapes (:class:`FigureResult`, :class:`TableResult`),
* a process-level memo so that e.g. Figures 4 and 5 — two views of the
  same sweep — simulate it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..analysis.reporting import format_series, format_table
from ..analysis.sweep import SweepPoint

__all__ = [
    "DEFAULT_RECORDS",
    "DEFAULT_SEED",
    "FigureResult",
    "TableResult",
    "memoized",
]

#: Default trace length for experiment runs.  The paper warms for 150 M
#: instructions and measures 100 M; at our scale one trace record is a
#: handful of instructions, so 280 K records spans ~10-15 M instructions —
#: several full passes over every workload's transaction pool.
DEFAULT_RECORDS = 280_000
DEFAULT_SEED = 7


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------
@dataclass
class FigureResult:
    """A figure: one series per workload over a swept x-axis."""

    figure_id: str
    title: str
    x_label: str
    x_values: Sequence[object]
    #: workload -> metric values, one per x value.
    series: Mapping[str, Sequence[float]]
    #: workload -> SweepPoints (full results, for deeper inspection).
    points: Mapping[str, Sequence[SweepPoint]] = field(default_factory=dict)
    value_format: str = "+.1%"

    def render(self) -> str:
        return format_series(
            self.x_label,
            self.x_values,
            self.series,
            title=f"{self.figure_id}: {self.title}",
            value_format=self.value_format,
        )

    def value(self, workload: str, x: object) -> float:
        return self.series[workload][list(self.x_values).index(x)]

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe payload for machine-readable benchmark output."""
        return {
            "kind": "figure",
            "id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": {workload: list(values) for workload, values in self.series.items()},
            "value_format": self.value_format,
        }


@dataclass
class TableResult:
    """A table: named columns over per-workload rows."""

    table_id: str
    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[object]]

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=f"{self.table_id}: {self.title}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe payload for machine-readable benchmark output."""
        return {
            "kind": "table",
            "id": self.table_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
        }


# ----------------------------------------------------------------------
# Cross-module memoisation (Figure 4 and Figure 5 share one sweep)
# ----------------------------------------------------------------------
_MEMO: dict[tuple, Any] = {}


def memoized(key: tuple, compute: Callable[[], Any]) -> Any:
    """Process-level memo for expensive sweeps shared across figures."""
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]

