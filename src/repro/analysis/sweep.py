"""One point of a (workload x configuration) sweep grid.

The design-space figures (4-8) are sweeps of one or two parameters over
the four commercial workloads with the no-prefetching baseline held
fixed.  Sweeps run as declarative specs through
:func:`repro.spec.run_spec`; :meth:`repro.spec.SweepResult.grid`
presents a result as ``{workload: [SweepPoint, ...]}``, the shape the
figure assembly steps consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.stats import SimulationResult

__all__ = ["SweepPoint"]


@dataclass(frozen=True)
class SweepPoint:
    """One simulated point of a sweep."""

    workload: str
    label: str
    result: SimulationResult
    baseline: SimulationResult

    @property
    def improvement(self) -> float:
        return self.result.improvement_over(self.baseline)

    @property
    def epi_reduction(self) -> float:
        return self.result.epi_reduction_over(self.baseline)
