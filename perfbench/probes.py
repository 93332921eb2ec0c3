"""Benchmark-side spans around calls into the program's layers.

The program is measured from outside: :func:`install` rebinds a set of
public functions and methods (and every ``from x import f`` alias of
them inside ``repro``) to thin wrappers that time each call.  Spans are
kept in memory per process and appended to ``<span_dir>/spans-<pid>.jsonl``
when the process's unit of work ends: after each job in a pool worker,
after ``serve`` drains in a shard or the front-end, and at the end of a
sweep pass.  Forked children (pool workers, shards) inherit the wrappers.

Spans use the program's own clock (:func:`repro.obs.tracing.wall_us`)
so they line up with the spans the service returns over ``telemetry``.
Nested wrapped calls on one thread are linked through ``parent_id``;
all spans of one job share its ``trace_id``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import uuid
from typing import Any, Callable, Dict, List, Optional

_local = threading.local()
_buffer: List[dict] = []
_lock = threading.Lock()
_span_dir: Optional[str] = None
_clock: Callable[[], int] = lambda: 0  # replaced by install()


def _forget_parent_spans() -> None:
    """A forked child starts empty: its parent's buffered spans are the
    parent's to write."""
    _buffer.clear()
    _local.stack = []


os.register_at_fork(after_in_child=_forget_parent_spans)


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class _Scope:
    __slots__ = ("name", "args", "span_id", "trace_id", "parent_id", "ts")

    def __init__(self, name: str, args: Dict[str, Any]) -> None:
        self.name = name
        self.args = args
        self.span_id = _new_id()
        stack = _stack()
        if stack:
            self.parent_id = stack[-1].span_id
            self.trace_id = stack[-1].trace_id
        else:
            self.parent_id = None
            self.trace_id = _new_id()
        self.ts = 0

    def __enter__(self) -> "_Scope":
        _stack().append(self)
        self.ts = _clock()
        return self

    def __exit__(self, *exc: object) -> None:
        end = _clock()
        _stack().pop()
        record(
            {
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "ts_us": self.ts,
                "dur_us": end - self.ts,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "process": "bench",
                "args": self.args,
            }
        )


def span(name: str, **args: Any) -> _Scope:
    return _Scope(name, args)


def record(item: dict) -> None:
    with _lock:
        _buffer.append(item)


def flush() -> None:
    """Append this process's buffered spans to its span file."""
    with _lock:
        items = list(_buffer)
        _buffer.clear()
    if not items or _span_dir is None:
        return
    path = os.path.join(_span_dir, f"spans-{os.getpid()}.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(i, separators=(",", ":")) + "\n" for i in items))


def read_spans(span_dir: str) -> List[dict]:
    out: List[dict] = []
    for name in sorted(os.listdir(span_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(span_dir, name), encoding="utf-8") as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
    return out


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _rebind(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` and every ``repro`` module alias of it."""
    original = getattr(owner, attr, None)
    if original is None:
        return
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None or module is owner:
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def _timed(name: str, describe: Optional[Callable[..., Dict[str, Any]]] = None):
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*a: Any, **kw: Any) -> Any:
            args = describe(*a, **kw) if describe is not None else {}
            with span(name, **args):
                return fn(*a, **kw)

        return wrapper

    return make


def _job_run(fn: Callable) -> Callable:
    main_pid = os.getpid()

    @functools.wraps(fn)
    def run(self: Any, *a: Any, **kw: Any) -> Any:
        with span(
            "job",
            workload=self.workload,
            prefetcher=self.label or "none",
            records=self.records,
            seed=self.seed,
            bus=kw.get("bus") is not None or bool(a and a[0] is not None),
        ):
            result = fn(self, *a, **kw)
        if os.getpid() != main_pid:
            flush()  # pool worker: no later hook is guaranteed to run
        return result

    return run


def _sim_run(fn: Callable) -> Callable:
    from repro.engine.ebcp_kernel import kernel_fallback_cause

    @functools.wraps(fn)
    def run(self: Any, trace: Any, *a: Any, **kw: Any) -> Any:
        pf = self.prefetcher
        batchable = pf is not None and getattr(pf, "supports_epoch_batch", False)
        cause = kernel_fallback_cause(self) if batchable else None
        with span(
            "EpochSimulator.run",
            prefetcher=pf.name if pf is not None else "none",
            records=len(trace.gap),
            batchable=batchable,
        ) as scope:
            out = fn(self, trace, *a, **kw)
            scope.args["path"] = self.last_run_path
            if batchable and self.last_run_path != "epoch_kernel":
                scope.args["fallback"] = cause or "compressed_disabled"
            return out

    return run


def _serve_run(fn: Callable) -> Callable:
    @functools.wraps(fn)
    async def run(self: Any, *a: Any, **kw: Any) -> Any:
        try:
            return await fn(self, *a, **kw)
        finally:
            flush()

    return run


def install_job_timer(span_dir: str) -> None:
    """Time every ``JobSpec.run`` (the untraced sweep's per-job clock)."""
    global _span_dir, _clock
    from repro.obs.tracing import wall_us
    from repro.parallel.jobs import JobSpec

    _span_dir = span_dir
    _clock = wall_us
    _rebind(JobSpec, "run", _job_run)


def install(span_dir: str) -> None:
    """Time the public calls of every measured layer (traced runs)."""
    install_job_timer(span_dir)
    import repro.engine.ebcp_kernel as kernel
    import repro.engine.filter_plane as planes
    import repro.parallel.jobs as jobs
    import repro.service.protocol as protocol
    import repro.service.server as server
    import repro.workloads.registry as registry
    from repro.engine.simulator import EpochSimulator
    from repro.engine.stats import SimulationResult
    from repro.service.cache import ResultCache
    from repro.workloads.trace import Trace

    def wl(name: str, records: int = 0, seed: int = 0, *a: Any, **kw: Any) -> dict:
        return {"workload": name, "records": kw.get("records", records)}

    _rebind(registry, "make_workload", _timed("make_workload", wl))
    _rebind(registry, "build_commercial_trace", _timed("generate", wl))
    _rebind(Trace, "load", _timed("trace_load"))
    _rebind(planes, "get_filter_plane", _timed("get_filter_plane"))
    _rebind(planes, "compute_filter_plane", _timed("compute_filter_plane"))
    _rebind(planes, "get_epoch_segments", _timed("get_epoch_segments"))
    _rebind(planes, "compute_epoch_segments", _timed("compute_epoch_segments"))
    _rebind(planes, "_load_plane", _timed("load_plane"))
    _rebind(planes, "_load_segments", _timed("load_segments"))
    _rebind(EpochSimulator, "run", _sim_run)
    _rebind(
        kernel,
        "run_epoch_batched",
        _timed("run_epoch_batched", lambda sim, trace, *a, **kw: {"records": len(trace.gap)}),
    )
    _rebind(jobs, "_warm_trace_cache",
            _timed("warm", lambda specs, *a, **kw: {"specs": len(specs)}))
    _rebind(ResultCache, "get", _timed("ResultCache.get"))
    _rebind(ResultCache, "put", _timed("ResultCache.put"))
    _rebind(SimulationResult, "snapshot", _timed("snapshot"))
    _rebind(protocol, "encode_frame", _timed("encode_frame"))
    _rebind(protocol, "decode_frame", _timed("decode_frame"))
    _rebind(server.SimulationService, "run", _serve_run)
