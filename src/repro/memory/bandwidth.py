"""Bandwidth-constrained memory interconnect model.

The paper's default interconnect is a split-transaction bus pair: a 16 B
wide read bus and an 8 B wide write bus at 600 MHz — 9.6 GB/s of read
bandwidth and 4.8 GB/s of write bandwidth against a 3 GHz core
(Section 4.4).  Expressed in core cycles that is 3.2 read bytes/cycle and
1.6 write bytes/cycle.

The epoch engine accounts for bandwidth *per epoch*: when an epoch closes,
its duration defines a byte budget on each bus, and the epoch's traffic is
charged against the budget in strict priority order (demand fills, then
correlation-table lookup reads, then prefetch fills, then table-update
traffic).  Traffic past the read budget is dropped — exactly the paper's
behaviour that "prefetches may sometimes be dropped when the available
memory bandwidth is saturated" (Section 5.2.1).  Low-priority writes past
the write budget are skipped.

Saturation also feeds back into timing: a heavily utilised read bus adds a
queueing term to the *next* epoch's effective miss penalty.  Demand
requests are never reordered behind prefetches, but a bus occupied by an
in-flight lower-priority transfer still delays them — this is what makes
over-aggressive prefetching lose performance at low bandwidth (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs.events import BudgetExhausted
from .request import Priority

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.bus import EventBus
    from ..obs.metrics import SimulationMetrics

__all__ = ["BusStats", "EpochBudget", "BandwidthModel"]


@dataclass
class BusStats:
    """Aggregate per-bus accounting across the whole simulation."""

    bytes_by_priority: dict[int, int] = field(default_factory=dict)
    dropped_by_priority: dict[int, int] = field(default_factory=dict)
    budget_bytes: int = 0
    used_bytes: int = 0

    def charge(self, priority: Priority, nbytes: int) -> None:
        key = int(priority)
        self.bytes_by_priority[key] = self.bytes_by_priority.get(key, 0) + nbytes
        self.used_bytes += nbytes

    def drop(self, priority: Priority, nbytes: int) -> None:
        self.dropped_by_priority[int(priority)] = (
            self.dropped_by_priority.get(int(priority), 0) + nbytes
        )

    @property
    def utilization(self) -> float:
        return self.used_bytes / self.budget_bytes if self.budget_bytes else 0.0


class EpochBudget:
    """Byte budgets for one epoch window on the read and write buses."""

    def __init__(self, model: "BandwidthModel", duration_cycles: float) -> None:
        self._model = model
        self.duration_cycles = duration_cycles
        self.read_budget = duration_cycles * model.read_bytes_per_cycle
        self.write_budget = duration_cycles * model.write_bytes_per_cycle
        self.read_used = 0.0
        self.write_used = 0.0
        model.read_stats.budget_bytes += int(self.read_budget)
        model.write_stats.budget_bytes += int(self.write_budget)

    # ------------------------------------------------------------------
    def charge_read(self, priority: Priority, nbytes: int, droppable: bool = False) -> bool:
        """Charge a read transfer; returns False if it was dropped.

        Demand traffic (and anything with ``droppable=False``) always
        proceeds — saturation shows up as queueing delay instead of a
        functional drop.  Droppable traffic (prefetches, training reads)
        is dropped once the budget is exhausted.
        """
        if droppable and self.read_used + nbytes > self.read_budget:
            self._model.read_stats.drop(priority, nbytes)
            self._model.notify_exhausted("read", priority, nbytes, self.read_utilization)
            return False
        self.read_used += nbytes
        self._model.read_stats.charge(priority, nbytes)
        return True

    def charge_write(self, priority: Priority, nbytes: int, droppable: bool = True) -> bool:
        if droppable and self.write_used + nbytes > self.write_budget:
            self._model.write_stats.drop(priority, nbytes)
            utilization = self.write_used / self.write_budget if self.write_budget else 0.0
            self._model.notify_exhausted("write", priority, nbytes, utilization)
            return False
        self.write_used += nbytes
        self._model.write_stats.charge(priority, nbytes)
        return True

    # ------------------------------------------------------------------
    @property
    def read_utilization(self) -> float:
        return self.read_used / self.read_budget if self.read_budget else 0.0

    @property
    def read_headroom_bytes(self) -> float:
        return max(0.0, self.read_budget - self.read_used)


class BandwidthModel:
    """Dual-bus bandwidth model with utilisation-driven queueing delay.

    Parameters
    ----------
    read_bytes_per_cycle / write_bytes_per_cycle:
        Bus widths expressed in bytes per *core* cycle.
    queue_threshold:
        Read-bus utilisation above which queueing delay starts to accrue.
    queue_penalty_factor:
        Maximum fractional increase of the miss penalty at 100 %
        over-subscription beyond the threshold.
    """

    #: Exponential smoothing factor for the utilisation estimate: queueing
    #: responds to sustained saturation, not to one bursty window.
    EMA_ALPHA = 0.08

    def __init__(
        self,
        read_bytes_per_cycle: float,
        write_bytes_per_cycle: float,
        queue_threshold: float = 0.75,
        queue_penalty_factor: float = 0.6,
    ) -> None:
        if read_bytes_per_cycle <= 0 or write_bytes_per_cycle <= 0:
            raise ValueError("bus widths must be positive")
        self.read_bytes_per_cycle = read_bytes_per_cycle
        self.write_bytes_per_cycle = write_bytes_per_cycle
        self.queue_threshold = queue_threshold
        self.queue_penalty_factor = queue_penalty_factor
        self.read_stats = BusStats()
        self.write_stats = BusStats()
        self._last_read_utilization = 0.0
        self._ema_read_utilization = 0.0
        #: Optional observability bus (attached by the simulator).
        self.bus: "EventBus | None" = None
        #: Optional run-fed metrics (attached by the simulator).
        self.metrics: "SimulationMetrics | None" = None

    def notify_exhausted(
        self, bus_name: str, priority: Priority, nbytes: int, utilization: float
    ) -> None:
        """Report a refused charge: to the metrics, and as a
        :class:`BudgetExhausted` event on the bus."""
        if self.metrics is not None:
            self.metrics.budget_refused(utilization)
        if self.bus is not None and self.bus.wants(BudgetExhausted):
            self.bus.emit(
                BudgetExhausted(
                    bus=bus_name,
                    priority=int(priority),
                    nbytes=nbytes,
                    utilization=utilization,
                )
            )

    @classmethod
    def from_gbps(
        cls,
        read_gb_per_s: float,
        write_gb_per_s: float,
        core_ghz: float = 3.0,
        **kwargs: float,
    ) -> "BandwidthModel":
        """Build from the paper's GB/s figures and core frequency."""
        return cls(
            read_bytes_per_cycle=read_gb_per_s / core_ghz,
            write_bytes_per_cycle=write_gb_per_s / core_ghz,
            **kwargs,
        )

    def open_epoch(self, duration_cycles: float) -> EpochBudget:
        return EpochBudget(self, duration_cycles)

    def close_epoch(self, budget: EpochBudget) -> None:
        """Record the window's utilisation for queueing feedback."""
        # Over-subscription is possible because non-droppable demand
        # traffic is always charged; utilisation > 1 means demand alone
        # exceeded the bus and queues hard.
        self._last_read_utilization = budget.read_utilization
        self._ema_read_utilization += self.EMA_ALPHA * (
            budget.read_utilization - self._ema_read_utilization
        )

    def queueing_delay(self, base_penalty: float) -> float:
        """Extra cycles added to the epoch's effective miss penalty.

        Driven by the *smoothed* read-bus utilisation: a bus that is
        persistently saturated queues every requester, demand included —
        the mechanism behind Figure 8's performance decline when the
        prefetch degree outgrows the available bandwidth.
        """
        over = self._ema_read_utilization - self.queue_threshold
        if over <= 0:
            return 0.0
        span = max(1e-9, 1.0 - self.queue_threshold)
        return base_penalty * self.queue_penalty_factor * min(2.0, over / span)

    @property
    def last_read_utilization(self) -> float:
        return self._last_read_utilization

    @property
    def smoothed_read_utilization(self) -> float:
        return self._ema_read_utilization
