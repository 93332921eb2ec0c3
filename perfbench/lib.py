"""Pure helpers shared by the benchmark's workloads (no repro imports).

Everything here is deterministic and cheap, so ``test_perfbench.py`` can
pin it: seed derivation and request sequences, the percentile rule,
result digests, span self-time / unattributed arithmetic, process-tree
peak-RSS sampling and process clean-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

COMMERCIAL = ("database", "tpcw", "specjbb2005", "jappserver2004")

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# Seeds and generated inputs
# ----------------------------------------------------------------------
def derive_rng(seed: int, stream: str) -> random.Random:
    """An RNG for one named input stream of one workload seed.

    String seeds hash with SHA-512 inside :mod:`random`, so the stream is
    independent of ``PYTHONHASHSEED`` and of the interpreter run.
    """
    return random.Random(f"perfbench:{seed}:{stream}")


def derive_seeds(seed: int, stream: str, count: int) -> List[int]:
    """``count`` distinct program seeds derived from the workload seed."""
    return derive_rng(seed, stream).sample(range(1, 1_000_000), count)


def request_sequence(
    seed: int,
    caller: int,
    n: int,
    hot_keys: Sequence[Tuple[str, int]],
    miss_every: int = 20,
    owner: Optional[Callable[[str, int], int]] = None,
    shards: int = 1,
) -> List[Tuple[str, str, int]]:
    """The first ``n`` requests of one closed-loop caller.

    Each request is ``(kind, workload, seed)`` with ``kind`` ``"hit"``
    (one of ``hot_keys``) or ``"miss"`` (a fresh seed).  Misses are
    stratified: every block of ``miss_every`` requests holds exactly one,
    at a random position, so the miss share is fixed at ``1/miss_every``
    while its timing stays irregular.  Miss workloads rotate through the
    commercial set and, given ``owner`` (key -> shard index), miss shards
    rotate too, so every run has the same miss mix.  Fresh seeds come
    from a range disjoint per caller, so no two misses of one run share
    a key.
    """
    rng = derive_rng(seed, f"requests:{caller}")
    out: List[Tuple[str, str, int]] = []
    miss_seed = 2_000_000 + caller * 1_000_000 + rng.randrange(100_000)
    misses = 0
    while len(out) < n:
        slot = rng.randrange(miss_every)
        for i in range(miss_every):
            if i == slot:
                workload = COMMERCIAL[(misses + caller) % len(COMMERCIAL)]
                while True:
                    miss_seed += 1 + rng.randrange(7)
                    if owner is None or owner(workload, miss_seed) == (misses + caller) % shards:
                        break
                out.append(("miss", workload, miss_seed))
                misses += 1
            else:
                workload, key_seed = hot_keys[rng.randrange(len(hot_keys))]
                out.append(("hit", workload, key_seed))
    return out[:n]


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie beyond the ``q`` percentile
    (nearest-rank)."""
    if n <= 0:
        return 0
    rank = max(1, math.ceil(q / 100.0 * n))
    return n - rank


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """The fewest samples for which the ``q`` percentile is reportable."""
    n = 1
    while samples_beyond(n, q) < min_beyond:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def supported_percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when fewer than ``min_beyond``
    samples lie beyond it."""
    if samples_beyond(len(values), q) < min_beyond:
        return None
    return percentile(values, q)


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------
def canonical_json(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: object) -> str:
    """A short content digest of a JSON-able payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:20]


# ----------------------------------------------------------------------
# Spans: self time and the unattributed residual
# ----------------------------------------------------------------------
def covered_us(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a, cur_b = None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time_us(span: dict, children: Iterable[dict]) -> float:
    """A span's duration minus the part of it its children cover."""
    lo = span["ts_us"]
    hi = lo + span["dur_us"]
    return span["dur_us"] - covered_us(
        ((c["ts_us"], c["ts_us"] + c["dur_us"]) for c in children), lo, hi
    )


def unattributed(total: float, attributed: Iterable[float]) -> float:
    """``total`` minus every attributed share, never below zero."""
    return max(0.0, total - sum(attributed))


def span_children(spans: Sequence[dict]) -> Dict[Optional[str], List[dict]]:
    kids: Dict[Optional[str], List[dict]] = {}
    for span in spans:
        kids.setdefault(span.get("parent_id"), []).append(span)
    return kids


# ----------------------------------------------------------------------
# Processes: peak RSS of a tree, and clean shutdown
# ----------------------------------------------------------------------
def _children_of(pid: int) -> List[int]:
    out: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


def process_tree(pid: int) -> List[int]:
    """``pid`` and every live descendant."""
    seen, stack = [], [pid]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.append(cur)
        stack.extend(_children_of(cur))
    return seen


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of one process, 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeRSSSampler:
    """Samples the peak RSS of every process under a root pid.

    Keeps each process's highest ``VmHWM`` seen (processes that exit
    between samples keep their last reading) and reports the sum — the
    peak resident memory of the program's processes, counted per process
    (forked children share copy-on-write pages, which are counted in
    each).
    """

    def __init__(self, root_pid: int, interval_s: float = 0.05) -> None:
        self.root_pid = root_pid
        self.interval_s = interval_s
        self._peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        for pid in process_tree(self.root_pid):
            kb = peak_rss_kb(pid)
            if kb > self._peaks.get(pid, 0):
                self._peaks[pid] = kb

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval_s)

    def start(self) -> "TreeRSSSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(5.0)
        self.sample()

    def __enter__(self) -> "TreeRSSSampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def total_mb(self) -> float:
        return sum(self._peaks.values()) / 1024.0

    @property
    def processes(self) -> int:
        return len(self._peaks)


def stop_process(proc: subprocess.Popen, timeout_s: float = 30.0) -> Optional[int]:
    """SIGTERM ``proc`` (a graceful drain), then make sure its whole tree
    is gone: stragglers are killed, and every wait is bounded."""
    tree = process_tree(proc.pid)
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait(10.0)
    deadline = time.monotonic() + 10.0
    for pid in tree[1:]:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    return code


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def program_env(trace_cache: str, home: str) -> Dict[str, str]:
    """The environment of a program process: no inherited ``REPRO_*``
    settings, a private trace cache, and ``HOME``/``TMPDIR`` inside the
    run directory so nothing lands in the user's own cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    os.makedirs(home, exist_ok=True)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env.update(PYTHONPATH=src, REPRO_TRACE_CACHE=trace_cache, HOME=home, TMPDIR=home)
    return env


def runner_info() -> dict:
    """What the numbers were measured on."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
