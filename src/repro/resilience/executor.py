"""Fault-tolerant execution of simulation job batches.

:func:`execute` is the single engine behind ``run_jobs`` and both sweep
runners.  It keeps the contract that made the old primitive trustworthy —
results in input order, bit-identical between sequential and parallel
execution — and layers the failure handling an overnight sweep needs:

* **bounded retry** with exponential backoff for failing attempts;
* **per-job timeouts** in pool mode (the pool is killed and rebuilt —
  a ``ProcessPoolExecutor`` cannot cancel a running task — and the
  survivor jobs are requeued without spending an attempt);
* **``BrokenProcessPool`` recovery**: when a worker dies, the jobs that
  were in flight replay in-process (each spending one attempt) and the
  pool is rebuilt for the remaining queue; a casualty with no attempt
  left raises :class:`~repro.resilience.faults.WorkerCrashError`, the
  same error an in-process crash raises;
* **checkpoint resume**: with ``policy.checkpoint_dir`` set, each job is
  looked up there by its identity before it runs and its result is
  stored there as it settles (the result cache's entry format, see
  :mod:`repro.resilience.checkpoint`), so a re-run loads completed jobs
  from disk instead of re-simulating;
* **observable degradation**: the legacy silent fall-backs (unpicklable
  specs, a pool that cannot start) now log a warning *and* publish an
  :class:`~repro.obs.events.ExecutionDegraded` event with the cause.

Every decision is announced on the event bus (``JobRetried``,
``JobTimedOut``, ``WorkerCrashed``, ``JobResumed``, ``ExecutionDegraded``)
— the bus passed by the caller, or the process-wide one when subscribers
exist and no bus was given.

Deterministic failure for tests comes from :mod:`repro.resilience.faults`;
with an empty :class:`~repro.resilience.faults.FaultSpec` the fault hooks
cost a few string comparisons per attempt.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..engine.stats import SimulationResult
from ..obs.bus import EventBus, peek_global_bus
from ..obs.events import (
    Event,
    ExecutionDegraded,
    JobResumed,
    JobRetried,
    JobTimedOut,
    WorkerCrashed,
)
from ..obs.tracing import SpanRecorder, TelemetrySink, TraceContext
from .checkpoint import load_result, result_path, store_result
from .faults import FaultSpec, WorkerCrashError
from .policy import ExecutionPolicy

if TYPE_CHECKING:  # pragma: no cover - cycle: parallel.jobs imports us
    from ..parallel.jobs import JobSpec

__all__ = ["PersistentPool", "execute"]

log = logging.getLogger(__name__)

#: Ceiling on the event-loop tick while jobs are in flight (keeps
#: pool-crash detection responsive even with no deadline pending).
_MAX_TICK_S = 0.5


def _emit(bus: Optional[EventBus], event: Event) -> None:
    """Publish on the caller's bus, else the process-wide one (if any)."""
    target = bus if bus is not None else peek_global_bus()
    if target is not None and target.wants(type(event)):
        target.emit(event)


#: What one attempt ships back: the result plus the telemetry recorded
#: while producing it (spans as a tuple of dicts, metrics as a registry
#: snapshot or ``None``).  Everything is picklable, so the same triple
#: crosses the pool boundary and the in-process fast path.
_AttemptOutcome = Tuple[SimulationResult, tuple, Optional[dict]]

#: Stores one settled result by its batch index (checkpointed runs).
_Record = Callable[[int, SimulationResult], object]

#: One batch slot: a result, or the error a job failed with for good.
_Outcome = Union[SimulationResult, Exception]


def _attempt(
    payload: "Tuple[JobSpec, int, FaultSpec, Optional[dict], bool]",
) -> _AttemptOutcome:
    """Run one job attempt with fault hooks (pool entry point).

    Module-level so it pickles; also used verbatim for in-process
    attempts so both execution modes share one fault schedule.

    ``payload[3]`` is an optional :class:`TraceContext` wire dict — when
    present the run is wrapped in a worker-side span that joins the
    caller's trace.  ``payload[4]`` asks the attempt to observe the
    simulation with a private bus + :class:`SimulationMetrics` and ship
    the registry snapshot back.  With neither, this is exactly the
    untraced fast path: ``spec.run()`` and empty telemetry.
    """
    spec, index, faults, ctx_wire, collect = payload
    # Fault matching targets the human-facing label (falling back to the
    # workload name), with the batch index appended so claims stay unique.
    fault_key = f"{spec.label or spec.workload}#{index}"
    faults.maybe_crash(fault_key)
    hang = faults.maybe_hang(fault_key)
    if hang > 0:
        time.sleep(hang)
    ctx = TraceContext.from_wire(ctx_wire)
    if ctx is None and not collect:
        return spec.run(), (), None

    from ..obs.metrics import SimulationMetrics

    bus: Optional[EventBus] = None
    sim_metrics: Optional[SimulationMetrics] = None
    if collect:
        bus = EventBus()
        sim_metrics = SimulationMetrics(bus)
    recorder = SpanRecorder("worker")
    with recorder.span(
        f"job:{spec.label or spec.workload}",
        parent=ctx,
        workload=spec.workload,
        records=spec.records,
        seed=spec.seed,
    ):
        result = spec.run(bus=bus)
    snapshot = sim_metrics.registry.to_dict() if sim_metrics is not None else None
    spans = tuple(recorder.drain()) if ctx is not None else ()
    return result, spans, snapshot


def _pool_warmup() -> int:
    """No-op pool task (module-level so it pickles); see ``warm()``."""
    return os.getpid()


class PersistentPool:
    """A process pool that outlives individual :func:`execute` calls.

    The executor always *leases* its pool from one of these.  A batch
    caller that passes none gets a private one for the call, shut down
    when the batch ends, so it pays pool spin-up once per call; a
    resident service (:mod:`repro.service`) cannot afford that per
    request.  Passing a ``PersistentPool`` as ``execute(..., pool=...)``
    reuses its warm workers (with their inherited trace/filter-plane
    memos under ``fork``) across calls, and the executor leaves it
    running when the batch finishes.

    The fault-handling contract is preserved: when the executor must kill
    the pool (per-job timeout, ``BrokenProcessPool``), it calls
    :meth:`invalidate` — the broken pool dies and the *next* lease builds
    a fresh one.  Not thread-safe; the owner is expected to dispatch
    batches from one thread at a time (the service's batcher does).
    """

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max(1, max_workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pools built over this object's lifetime (1 = never invalidated).
        self.generation = 0

    def lease(self) -> ProcessPoolExecutor:
        """The live pool, building one if needed (may raise ``OSError``)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self.generation += 1
        return self._pool

    def warm(self, timeout_s: float = 30.0) -> int:
        """Pre-spawn every worker so the first batch pays no fork cost.

        ``ProcessPoolExecutor`` forks workers lazily on submission; a
        freshly started shard would otherwise pay that latency on its
        first request.  Submits one no-op per worker and waits for all
        of them; returns the number of workers confirmed live (0 when
        the pool could not start — callers treat warming as best-effort).
        """
        try:
            pool = self.lease()
            futures = [pool.submit(_pool_warmup) for _ in range(self.max_workers)]
            done, _pending = wait(futures, timeout=timeout_s)
            return sum(1 for f in done if not f.exception())
        except (OSError, PermissionError, ValueError, BrokenProcessPool):
            return 0

    def invalidate(self) -> None:
        """Kill the current pool; the next :meth:`lease` starts fresh."""
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None

    def shutdown(self) -> None:
        """Tear the pool down for good (service shutdown)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def execute(
    specs: "Sequence[JobSpec]",
    policy: Optional[ExecutionPolicy] = None,
    bus: Optional[EventBus] = None,
    pool: Optional[PersistentPool] = None,
    trace: Optional[TraceContext] = None,
    telemetry: Optional[TelemetrySink] = None,
    return_exceptions: bool = False,
) -> "List[SimulationResult]":
    """Run every job under ``policy`` and return results in input order.

    A job that fails for good (its retry budget spent) raises its error,
    which abandons the rest of the batch.  With ``return_exceptions``
    that error takes the job's result slot instead and the rest of the
    batch runs on, as in :func:`asyncio.gather`.

    ``trace`` joins this batch to a caller's trace: the whole call is
    wrapped in an ``execute`` span (recorded on ``telemetry.recorder``
    when present) whose context propagates into every attempt, so
    worker-side ``job:*`` spans share the caller's trace_id.
    ``telemetry`` additionally makes attempts observe their simulation
    and ship back a metrics snapshot, which is merged into
    ``telemetry.registry`` under a per-job label prefix.  Both are pure
    observability: results stay bit-identical with or without them.
    """
    from ..parallel.jobs import _warm_trace_cache

    policy = policy or ExecutionPolicy()
    specs = list(specs)
    if not specs:
        return []
    collect = telemetry is not None and telemetry.collects_metrics
    recorder = telemetry.recorder if telemetry is not None else None
    exec_span = None
    ctx = trace
    if recorder is not None and trace is not None:
        exec_span = recorder.span("execute", parent=trace, jobs=len(specs))
        exec_span.__enter__()
        ctx = exec_span.context
    ctx_wire = ctx.to_wire() if ctx is not None else None
    faults = policy.faults()

    results: "List[Optional[_Outcome]]" = [None] * len(specs)
    record: Optional[_Record] = None
    if policy.checkpoint_dir:
        record = _resume(specs, policy.checkpoint_dir, results, bus)

    try:
        pending = [i for i, r in enumerate(results) if r is None]
        if pending:
            n_workers = min(policy.resolved_jobs(), len(pending))
            if (
                n_workers > 1
                and (os.cpu_count() or 1) <= 1
                and os.environ.get("REPRO_FORCE_POOL") != "1"
            ):
                log.info(
                    "single-core machine: running %d job(s) in-process",
                    len(pending),
                )
                n_workers = 1
            pooled = False
            if n_workers > 1:
                try:
                    pickle.dumps([specs[i] for i in pending])
                except Exception as exc:
                    log.warning(
                        "job specs not picklable (%s); running in-process", exc
                    )
                    _emit(
                        bus,
                        ExecutionDegraded(reason="unpicklable", cause=str(exc)),
                    )
                else:
                    _warm_trace_cache([specs[i] for i in pending], bus=bus)
                    with (
                        PersistentPool(n_workers) if pool is None
                        else contextlib.nullcontext(pool)
                    ) as manager:
                        pooled = _run_pooled(
                            specs, pending, results, n_workers, policy, faults,
                            bus, record, return_exceptions, manager,
                            ctx_wire=ctx_wire, collect=collect,
                            telemetry=telemetry,
                        )
            if not pooled:
                _warm_trace_cache([specs[i] for i in pending], bus=bus)
                for i in pending:
                    if results[i] is None:
                        results[i] = _run_resilient(
                            specs[i], i, policy, faults, bus, record,
                            return_exceptions,
                            ctx_wire=ctx_wire, collect=collect,
                            telemetry=telemetry,
                        )
    finally:
        if exec_span is not None:
            exec_span.__exit__(None)
    return list(results)  # type: ignore[arg-type]


def _resume(
    specs: "List[JobSpec]",
    directory: str,
    results: "List[Optional[_Outcome]]",
    bus: Optional[EventBus],
) -> _Record:
    """Fill ``results`` from the checkpoint entries under ``directory``.

    Returns the callable that stores each newly settled result.  Only a
    checkpoint needs the versioned identity (a hand-built prefetcher
    pays a pickle for it).  Equal jobs share one entry.
    """
    paths = [result_path(directory, spec.identity()) for spec in specs]
    for i, path in enumerate(paths):
        snapshot = load_result(path)
        if snapshot is not None:
            results[i] = SimulationResult.from_snapshot(snapshot)
            _emit(bus, JobResumed(label=specs[i].label, index=i, key=path.stem))
    n_resumed = sum(r is not None for r in results)
    if n_resumed:
        log.info("resumed %d/%d job(s) from checkpoint %s", n_resumed, len(specs), directory)

    def record(index: int, result: SimulationResult) -> bool:
        return store_result(paths[index], result.snapshot())

    return record


# ----------------------------------------------------------------------
# In-process attempts with retry
# ----------------------------------------------------------------------
def _run_resilient(
    spec: "JobSpec",
    index: int,
    policy: ExecutionPolicy,
    faults: FaultSpec,
    bus: Optional[EventBus],
    record: Optional[_Record],
    return_exceptions: bool,
    failed_attempts: int = 0,
    ctx_wire: Optional[dict] = None,
    collect: bool = False,
    telemetry: Optional[TelemetrySink] = None,
) -> _Outcome:
    """Run one job in-process under the retry/timeout budget.

    ``failed_attempts`` pre-charges attempts already spent elsewhere
    (e.g. in a pool worker that crashed while running this job).  The
    error of the last attempt is raised, or returned when
    ``return_exceptions``.
    """
    attempts = failed_attempts
    while True:
        start = time.monotonic()
        try:
            result, spans, snapshot = _attempt(
                (spec, index, faults, ctx_wire, collect)
            )
        except Exception as exc:
            attempts += 1
            if attempts > policy.retries:
                if return_exceptions:
                    return exc
                raise
            log.warning(
                "job %d (%s) attempt %d failed (%s); retrying",
                index,
                spec.label or spec.workload,
                attempts,
                exc,
            )
            _emit(
                bus,
                JobRetried(
                    label=spec.label, index=index, attempt=attempts, cause=str(exc)
                ),
            )
            time.sleep(policy.backoff_for(attempts))
            continue
        elapsed = time.monotonic() - start
        if policy.timeout_s is not None and elapsed > policy.timeout_s:
            # A running Python function cannot be preempted safely, so an
            # in-process overrun is only detected after the fact.
            _emit(
                bus,
                JobTimedOut(
                    label=spec.label, index=index, timeout_s=policy.timeout_s
                ),
            )
            attempts += 1
            if attempts > policy.retries:
                # This attempt *did* produce a result; a late answer beats
                # no answer once the retry budget is spent.
                log.warning(
                    "job %d (%s) exceeded timeout (%.1fs > %.1fs) with no "
                    "retries left; keeping the late result",
                    index,
                    spec.label or spec.workload,
                    elapsed,
                    policy.timeout_s,
                )
            else:
                log.warning(
                    "job %d (%s) exceeded timeout (%.1fs > %.1fs); retrying",
                    index,
                    spec.label or spec.workload,
                    elapsed,
                    policy.timeout_s,
                )
                _emit(
                    bus,
                    JobRetried(
                        label=spec.label,
                        index=index,
                        attempt=attempts,
                        cause="timeout",
                    ),
                )
                time.sleep(policy.backoff_for(attempts))
                continue
        if telemetry is not None:
            # Only the attempt that settles ships telemetry; retried
            # attempts' spans die with the retry, like pooled casualties.
            telemetry.absorb(spans, snapshot, label=spec.label or spec.workload)
        if record is not None:
            record(index, result)
        return result


# ----------------------------------------------------------------------
# Pooled execution
# ----------------------------------------------------------------------
def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting for its (possibly hung) workers."""
    try:
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
    except Exception:  # pragma: no cover - interpreter-internal layout
        pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_pooled(
    specs: "List[JobSpec]",
    pending: List[int],
    results: "List[Optional[_Outcome]]",
    n_workers: int,
    policy: ExecutionPolicy,
    faults: FaultSpec,
    bus: Optional[EventBus],
    record: Optional[_Record],
    return_exceptions: bool,
    manager: PersistentPool,
    ctx_wire: Optional[dict] = None,
    collect: bool = False,
    telemetry: Optional[TelemetrySink] = None,
) -> bool:
    """Fan ``pending`` out over a process pool, filling ``results``.

    Returns True when the batch completed under pool management (possibly
    with in-process replays of crashed jobs); False when the pool could
    not be started at all — the caller then degrades to in-process
    execution.  A job error that exhausts the retry budget propagates,
    or with ``return_exceptions`` settles in the job's slot.

    The pool is leased from ``manager`` and never shut down here; kill
    paths invalidate the manager so the next lease rebuilds.
    """
    queue: "deque[int]" = deque(pending)
    attempts: Dict[int, int] = {i: 0 for i in pending}
    in_flight: "Dict[Future, Tuple[int, float]]" = {}

    def make_pool() -> Optional[ProcessPoolExecutor]:
        try:
            return manager.lease()
        except (OSError, PermissionError, ValueError) as exc:
            log.warning("process pool unavailable (%s); running in-process", exc)
            _emit(
                bus, ExecutionDegraded(reason="pool_unavailable", cause=str(exc))
            )
            return None

    def settle(index: int, outcome: _AttemptOutcome) -> None:
        result, spans, snapshot = outcome
        results[index] = result
        if telemetry is not None:
            telemetry.absorb(
                spans, snapshot,
                label=specs[index].label or specs[index].workload,
            )
        if record is not None:
            record(index, result)

    def fail(index: int, fatal: Exception) -> None:
        """Settle ``index`` as failed for good: raise ``fatal`` or keep it."""
        if not return_exceptions:
            raise fatal
        results[index] = fatal

    def charge_failure(index: int, cause: str, fatal: Exception) -> None:
        """Spend one attempt for ``index``; requeue it or ``fail`` it."""
        attempts[index] += 1
        if attempts[index] > policy.retries:
            fail(index, fatal)
            return
        log.warning(
            "job %d (%s) attempt %d failed (%s); retrying",
            index,
            specs[index].label or specs[index].workload,
            attempts[index],
            cause,
        )
        _emit(
            bus,
            JobRetried(
                label=specs[index].label,
                index=index,
                attempt=attempts[index],
                cause=cause,
            ),
        )
        time.sleep(policy.backoff_for(attempts[index]))
        queue.append(index)

    def replay(index: int) -> None:
        """Finish ``index`` in-process, its spent attempts pre-charged."""
        results[index] = _run_resilient(
            specs[index], index, policy, faults, bus, record, return_exceptions,
            failed_attempts=attempts[index], ctx_wire=ctx_wire,
            collect=collect, telemetry=telemetry,
        )

    pool = make_pool()
    if pool is None:
        return False
    while queue or in_flight:
        if pool is None:
            pool = make_pool()
            if pool is None:
                # Mid-batch restart failed: finish everything
                # in-process under the same retry budget.
                queue.extend(index for index, _t0 in in_flight.values())
                in_flight.clear()
                while queue:
                    replay(queue.popleft())
                return True
        # Keep at most n_workers jobs in flight so submission time
        # approximates start time — that is what per-job deadlines
        # are measured against.
        while queue and len(in_flight) < n_workers:
            index = queue.popleft()
            try:
                future = pool.submit(
                    _attempt, (specs[index], index, faults, ctx_wire, collect)
                )
            except BrokenProcessPool:
                # A worker died since the last wait.  The jobs in
                # flight carry the breakage to the crash path below;
                # with none in flight the pool is simply rebuilt.
                queue.appendleft(index)
                if not in_flight:
                    log.warning("process pool broke while idle; rebuilding it")
                    manager.invalidate()
                    pool = None
                break
            in_flight[future] = (index, time.monotonic())
        if not in_flight:
            continue

        tick = _MAX_TICK_S
        if policy.timeout_s is not None:
            now = time.monotonic()
            nearest = min(
                t0 + policy.timeout_s - now for _i, t0 in in_flight.values()
            )
            tick = max(0.01, min(nearest, _MAX_TICK_S))
        finished, _running = wait(
            in_flight.keys(), timeout=tick, return_when=FIRST_COMPLETED
        )

        broken: Optional[BrokenProcessPool] = None
        casualties: List[int] = []
        for future in finished:
            index, _t0 = in_flight.pop(future)
            try:
                settle(index, future.result())
            except BrokenProcessPool as exc:
                broken = exc
                casualties.append(index)
            except Exception as exc:
                charge_failure(index, str(exc), fatal=exc)

        if broken is not None:
            # A worker died and the executor poisoned every in-flight
            # future.  Harvest any that genuinely completed, then
            # replay the casualties in-process (the crashed job is
            # among them; each replay spends the crash's attempt) and
            # rebuild the pool for the remaining queue.
            for future, (index, _t0) in list(in_flight.items()):
                try:
                    settle(index, future.result(timeout=0))
                except Exception:
                    casualties.append(index)
            in_flight.clear()
            log.warning(
                "process pool broke (%s); replaying %d in-flight job(s) "
                "in-process",
                broken,
                len(casualties),
            )
            _emit(
                bus,
                WorkerCrashed(
                    cause=str(broken), jobs_in_flight=len(casualties)
                ),
            )
            manager.invalidate()
            pool = None
            for index in casualties:
                attempts[index] += 1
                if attempts[index] > policy.retries:
                    lost = WorkerCrashError(
                        f"job {specs[index].label or index} lost its worker "
                        f"with no retries left ({broken})"
                    )
                    lost.__cause__ = broken
                    fail(index, lost)
                    continue
                _emit(
                    bus,
                    JobRetried(
                        label=specs[index].label,
                        index=index,
                        attempt=attempts[index],
                        cause="worker crash",
                    ),
                )
                replay(index)
            continue

        if policy.timeout_s is not None and in_flight:
            now = time.monotonic()
            overdue = [
                (future, index)
                for future, (index, t0) in in_flight.items()
                if now - t0 > policy.timeout_s and not future.done()
            ]
            if overdue:
                # A ProcessPoolExecutor cannot cancel a running task,
                # so the whole pool goes: settle what finished in the
                # meantime, charge the overdue jobs one attempt,
                # requeue the innocent bystanders for free.
                for future, (index, _t0) in list(in_flight.items()):
                    if future.done():
                        del in_flight[future]
                        try:
                            settle(index, future.result())
                        except Exception as exc:
                            charge_failure(index, str(exc), fatal=exc)
                for future, index in overdue:
                    if future not in in_flight:
                        continue
                    del in_flight[future]
                    log.warning(
                        "job %d (%s) exceeded timeout %.1fs; killing its "
                        "pool",
                        index,
                        specs[index].label or specs[index].workload,
                        policy.timeout_s,
                    )
                    _emit(
                        bus,
                        JobTimedOut(
                            label=specs[index].label,
                            index=index,
                            timeout_s=policy.timeout_s,
                        ),
                    )
                    charge_failure(
                        index,
                        "timeout",
                        fatal=TimeoutError(
                            f"job {index} ({specs[index].label}) exceeded "
                            f"{policy.timeout_s}s after "
                            f"{attempts[index] + 1} attempt(s)"
                        ),
                    )
                queue.extend(index for index, _t0 in in_flight.values())
                in_flight.clear()
                manager.invalidate()
                pool = None
    return True
