"""Simulation statistics and derived metrics.

:class:`SimulationStats` collects raw counters during the measured region
of a run; :class:`SimulationResult` wraps them together with the
configuration and exposes the paper's metrics:

* overall CPI (the primary metric, Section 4.1),
* epochs per (kilo-)instruction — EPI,
* L2 instruction/load miss rates per 1000 retired instructions,
* prefetch coverage and accuracy (secondary metrics),
* bus utilisation and drop counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..memory.request import AccessKind

__all__ = ["SimulationStats", "SimulationResult"]


@dataclass
class SimulationStats:
    """Raw counters for the measured region of one simulation."""

    instructions: int = 0
    accesses: int = 0
    l1i_hits: int = 0
    l1d_hits: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    # Off-chip (L2) misses that actually went to memory, by access kind.
    offchip_misses: dict[AccessKind, int] = field(
        default_factory=lambda: {k: 0 for k in AccessKind}
    )
    # Demand accesses satisfied by a ready prefetch-buffer line.
    prefetch_hits: dict[AccessKind, int] = field(
        default_factory=lambda: {k: 0 for k in AccessKind}
    )
    late_prefetches: int = 0
    epochs: int = 0
    serial_epochs: int = 0
    # Prefetch lifecycle.
    prefetches_generated: int = 0
    prefetches_filled: int = 0
    prefetches_redundant: int = 0
    prefetches_dropped: int = 0
    # Timing accumulators.
    offchip_cycles: float = 0.0
    queueing_cycles: float = 0.0
    # Bandwidth.
    read_bytes: int = 0
    write_bytes: int = 0
    read_budget_bytes: int = 0
    # Correlation-table traffic (bytes).
    table_read_bytes: int = 0
    table_write_bytes: int = 0
    # Window-termination census (reason -> count).
    termination_reasons: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def total_offchip_misses(self) -> int:
        return sum(self.offchip_misses.values())

    @property
    def total_prefetch_hits(self) -> int:
        return sum(self.prefetch_hits.values())

    def per_kilo_inst(self, count: float) -> float:
        return 1000.0 * count / self.instructions if self.instructions else 0.0

    # ------------------------------------------------------------------
    # Serialisation (manifests, machine-readable bench output)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict losslessly convertible back via :meth:`from_dict`."""
        payload: dict[str, Any] = {}
        for name, value in vars(self).items():
            if name in ("offchip_misses", "prefetch_hits"):
                payload[name] = {kind.name.lower(): count for kind, count in value.items()}
            elif name == "termination_reasons":
                payload[name] = dict(value)
            else:
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SimulationStats":
        """Rebuild a stats object from :meth:`to_dict` output."""
        stats = cls()
        for name, value in payload.items():
            if name in ("offchip_misses", "prefetch_hits"):
                setattr(
                    stats,
                    name,
                    {AccessKind[kind.upper()]: count for kind, count in value.items()},
                )
            elif name == "termination_reasons":
                stats.termination_reasons = dict(value)
            elif hasattr(stats, name):
                setattr(stats, name, value)
        return stats


@dataclass
class SimulationResult:
    """One simulation's outcome: counters + derived paper metrics."""

    workload: str
    prefetcher: str
    stats: SimulationStats
    cpi_perf: float
    overlap: float
    config_summary: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Timing (epoch MLP model, Section 2.1)
    # ------------------------------------------------------------------
    @property
    def onchip_cycles(self) -> float:
        return self.stats.instructions * self.cpi_perf * (1.0 - self.overlap)

    @property
    def cycles(self) -> float:
        return self.onchip_cycles + self.stats.offchip_cycles

    @property
    def cpi(self) -> float:
        if not self.stats.instructions:
            return 0.0
        return self.cycles / self.stats.instructions

    @property
    def offchip_cpi(self) -> float:
        if not self.stats.instructions:
            return 0.0
        return self.stats.offchip_cycles / self.stats.instructions

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------
    @property
    def epochs_per_kilo_inst(self) -> float:
        return self.stats.per_kilo_inst(self.stats.epochs)

    @property
    def l2_inst_miss_rate(self) -> float:
        """Remaining off-chip instruction misses per 1000 instructions."""
        return self.stats.per_kilo_inst(self.stats.offchip_misses[AccessKind.IFETCH])

    @property
    def l2_load_miss_rate(self) -> float:
        """Remaining off-chip load misses per 1000 instructions."""
        return self.stats.per_kilo_inst(self.stats.offchip_misses[AccessKind.LOAD])

    @property
    def coverage(self) -> float:
        """Fraction of would-be off-chip misses averted by prefetching."""
        averted = self.stats.total_prefetch_hits
        total = averted + self.stats.total_offchip_misses
        return averted / total if total else 0.0

    @property
    def accuracy(self) -> float:
        """Useful prefetches / prefetches that consumed bus bandwidth."""
        issued = self.stats.prefetches_filled
        return self.stats.total_prefetch_hits / issued if issued else 0.0

    @property
    def read_bus_utilization(self) -> float:
        if not self.stats.read_budget_bytes:
            return 0.0
        return self.stats.read_bytes / self.stats.read_budget_bytes

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def improvement_over(self, baseline: "SimulationResult") -> float:
        """Overall performance improvement vs a baseline run.

        Speedup minus one: ``CPI_base / CPI_this - 1`` (e.g. 0.23 for the
        paper's "+23 %").
        """
        if self.cpi == 0:
            return 0.0
        return baseline.cpi / self.cpi - 1.0

    def epi_reduction_over(self, baseline: "SimulationResult") -> float:
        """Fractional reduction in epochs per instruction vs baseline."""
        base = baseline.epochs_per_kilo_inst
        if base == 0:
            return 0.0
        return 1.0 - self.epochs_per_kilo_inst / base

    # ------------------------------------------------------------------
    # Lossless serialisation (checkpoint entries, result-cache disk tier)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Lossless JSON-safe dump, invertible via :meth:`from_snapshot`.

        Unlike :meth:`to_dict` (which reports *derived* metrics for
        tables and manifests), a snapshot keeps the raw counters so the
        restored object is field-for-field identical to the original —
        the property bit-identical checkpoint resume and disk-tier hits
        rest on.  Floats survive the JSON round trip exactly
        because ``repr``/``float()`` are inverse for IEEE doubles.
        """
        return {
            "workload": self.workload,
            "prefetcher": self.prefetcher,
            "stats": self.stats.to_dict(),
            "cpi_perf": self.cpi_perf,
            "overlap": self.overlap,
            "config_summary": dict(self.config_summary),
        }

    @classmethod
    def from_snapshot(cls, payload: dict[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`snapshot` output."""
        return cls(
            workload=payload["workload"],
            prefetcher=payload["prefetcher"],
            stats=SimulationStats.from_dict(payload["stats"]),
            cpi_perf=payload["cpi_perf"],
            overlap=payload["overlap"],
            config_summary=dict(payload.get("config_summary", {})),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "prefetcher": self.prefetcher,
            "instructions": self.stats.instructions,
            "cpi": self.cpi,
            "offchip_cpi": self.offchip_cpi,
            "epochs_per_kilo_inst": self.epochs_per_kilo_inst,
            "l2_inst_miss_rate": self.l2_inst_miss_rate,
            "l2_load_miss_rate": self.l2_load_miss_rate,
            "coverage": self.coverage,
            "accuracy": self.accuracy,
            "read_bus_utilization": self.read_bus_utilization,
            "prefetches_filled": self.stats.prefetches_filled,
            "prefetches_dropped": self.stats.prefetches_dropped,
            "epochs": self.stats.epochs,
            **self.config_summary,
        }
