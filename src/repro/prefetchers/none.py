"""The no-prefetching baseline."""

from __future__ import annotations

from .base import Prefetcher

__all__ = ["NoPrefetcher"]


class NoPrefetcher(Prefetcher):
    """Observes nothing, issues nothing: the Table 1 baseline.

    Running the simulator with ``prefetcher=None`` is equivalent; this
    class exists so the registry can hand back a uniform object.
    """

    name = "none"
    targets_instructions = False
    #: It has no hooks, so the epoch kernel runs it, with the stats of a
    #: ``prefetcher=None`` run.
    supports_epoch_batch = True
