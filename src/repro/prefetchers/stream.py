"""Hardware stream prefetcher.

Models the stream prefetchers shipped in contemporary processors (IBM
POWER5, Fujitsu SPARC64-VI, AMD Opteron, Intel Pentium 4 — paper
Section 5.3): up to 32 concurrent streams, positive/negative and non-unit
strides, confirmation before issue, and a configurable run-ahead distance.

On the detection and confirmation of a stream it issues ``degree``
prefetch requests and then attempts to stay ``ahead`` strides in front of
the demand stream.  Only load misses are observed (no instruction
prefetching), matching the paper's comparison setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.request import Access, AccessKind, PrefetchRequest
from .base import Prefetcher

__all__ = ["StreamPrefetcher"]


@dataclass
class _StreamTracker:
    last_line: int
    stride: int = 0
    confidence: int = 0
    #: How far (in strides) the tracker has prefetched beyond last_line.
    issued_ahead: int = 0
    last_use: int = 0


class StreamPrefetcher(Prefetcher):
    """32-entry stride/stream detector with confirmation."""

    name = "stream"
    targets_instructions = False
    supports_epoch_batch = True

    #: A new miss within this many lines of a tracker can retrain it.
    MATCH_WINDOW = 16
    #: Maximum absolute stride (in lines) considered a stream.
    MAX_STRIDE = 8

    def __init__(
        self,
        n_streams: int = 32,
        degree: int = 6,
        ahead: int = 6,
        confirm: int = 2,
    ) -> None:
        super().__init__()
        if n_streams <= 0 or degree <= 0:
            raise ValueError("n_streams and degree must be positive")
        self.n_streams = n_streams
        self.degree = degree
        self.ahead = ahead
        self.confirm = confirm
        self._trackers: list[_StreamTracker] = []
        self._stamp = 0

    # ------------------------------------------------------------------
    def observe_access(self, access: Access, line: int, epoch_index: int) -> list[PrefetchRequest]:
        # Stream prefetchers in commercial processors watch the L1
        # load-miss stream (every L2 load access), not just L2 misses.
        if access.kind is not AccessKind.LOAD:
            return []
        return self._train(line)

    # ------------------------------------------------------------------
    def _train(self, line: int) -> list[PrefetchRequest]:
        self._stamp += 1
        # 1. Exact continuation of a confirmed or forming stream?
        for tracker in self._trackers:
            if tracker.stride and line == tracker.last_line + tracker.stride:
                tracker.confidence += 1
                tracker.last_line = line
                tracker.issued_ahead = max(0, tracker.issued_ahead - 1)
                tracker.last_use = self._stamp
                if tracker.confidence >= self.confirm:
                    return self._issue(tracker)
                return []
        # 2. Near-miss: retrain the stride of a nearby tracker.
        for tracker in self._trackers:
            delta = line - tracker.last_line
            if delta and abs(delta) <= self.MATCH_WINDOW:
                if abs(delta) <= self.MAX_STRIDE:
                    tracker.stride = delta
                    tracker.confidence = 1
                    tracker.issued_ahead = 0
                tracker.last_line = line
                tracker.last_use = self._stamp
                return []
        # 3. Allocate a fresh tracker (LRU replacement).
        if len(self._trackers) >= self.n_streams:
            victim = min(self._trackers, key=lambda t: t.last_use)
            self._trackers.remove(victim)
        self._trackers.append(_StreamTracker(last_line=line, last_use=self._stamp))
        return []

    def _issue(self, tracker: _StreamTracker) -> list[PrefetchRequest]:
        requests = []
        start = tracker.issued_ahead + 1
        stop = min(self.ahead, start + self.degree - 1)
        for k in range(start, stop + 1):
            target = tracker.last_line + k * tracker.stride
            if target < 0:
                break
            requests.append(self.make_request(target, epochs_until_ready=1))
        tracker.issued_ahead = max(tracker.issued_ahead, stop)
        return requests

    # ------------------------------------------------------------------
    @property
    def onchip_storage_bytes(self) -> int:
        # ~16 B of state per stream tracker.
        return self.n_streams * 16
