"""Fault-tolerant execution of simulation job batches.

:func:`execute` is the single engine behind ``run_jobs`` and both sweep
runners.  It keeps the contract that made the old primitive trustworthy —
results in input order, bit-identical between sequential and parallel
execution — and layers the failure handling an overnight sweep needs.

One call is one :class:`_Batch`, the ledger of its result slots and
attempt counts.  ``execute`` only picks the transport, in-process
(:meth:`_Batch.run_inline`) or a process pool (:meth:`_Batch.run_pooled`),
and every attempt of either follows the ledger's one rule:

* **bounded retry**: an attempt that raises, overruns the timeout or
  loses its worker spends one of the job's ``retries + 1`` attempts, is
  logged, announced as ``JobRetried`` and retried after an exponential
  backoff; once no attempt is left the job fails for good (its error is
  raised, or kept in its slot with ``return_exceptions``);
* **per-job timeouts**: in pool mode the overdue job is killed with its
  pool (a ``ProcessPoolExecutor`` cannot cancel a running task) and
  fails with ``TimeoutError`` once no attempt is left, while the
  bystanders are requeued without spending an attempt; in-process an
  overrun is only detected after the fact, and the late result is kept
  once no attempt is left;
* **``BrokenProcessPool`` recovery**: when a worker dies, each job that
  was in flight spends one attempt and replays in-process, and the pool
  is rebuilt for the rest of the queue; a casualty with no attempt left
  fails with :class:`~repro.resilience.faults.WorkerCrashError`, the
  same error an in-process crash raises;
* **checkpoint resume**: with ``policy.checkpoint_dir`` set, each job is
  looked up there by its identity before it runs and its result is
  stored there as it settles (the result cache's entry format, see
  :mod:`repro.resilience.checkpoint`), so a re-run loads completed jobs
  from disk instead of re-simulating;
* **observable degradation**: specs that do not pickle, or a pool that
  cannot be leased (at the start or after a kill), send the rest of the
  batch in-process with a warning *and* an
  :class:`~repro.obs.events.ExecutionDegraded` event naming the cause.

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
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

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
from ..obs.metrics import SimulationMetrics
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

#: One batch slot: a result, or the error a job failed with for good.
_Outcome = Union[SimulationResult, Exception]


def _attempt(
    payload: "Tuple[JobSpec, int, FaultSpec, Optional[dict], bool]",
) -> _AttemptOutcome:
    """Run one job attempt with fault hooks (pool entry point).

    Module-level so it pickles; also used verbatim for in-process
    attempts so both execution modes share one fault schedule.  The
    attempt builds the job's inputs (:meth:`JobSpec.build_inputs`)
    before its run, in the process that runs it, so retries, faults and
    a pooled timeout cover the build too.

    ``payload[3]`` is an optional :class:`TraceContext` wire dict — when
    present the attempt is wrapped in a worker-side ``job:`` span that
    joins the caller's trace, with an ``inputs`` child span for the
    build.  ``payload[4]`` asks the attempt to collect a
    :class:`SimulationMetrics` fed by the run itself (no bus, so the run
    keeps the epoch kernel) and ship its registry snapshot back.
    """
    spec, index, faults, ctx_wire, collect = payload
    # Fault matching targets the human-facing label (falling back to the
    # workload name), with the batch index appended so claims stay unique.
    fault_key = f"{spec.label or spec.workload}#{index}"
    faults.maybe_crash(fault_key)
    hang = faults.maybe_hang(fault_key)
    if hang > 0:
        time.sleep(hang)
    metrics = SimulationMetrics() if collect else None
    ctx = TraceContext.from_wire(ctx_wire)
    if ctx is None:
        spec.build_inputs()
        result, spans = spec.run(metrics=metrics), ()
    else:
        recorder = SpanRecorder("worker")
        with recorder.span(
            f"job:{spec.label or spec.workload}",
            parent=ctx,
            workload=spec.workload,
            records=spec.records,
            seed=spec.seed,
        ) as job:
            with recorder.span("inputs", parent=job.context):
                spec.build_inputs()
            result = spec.run(metrics=metrics)
        spans = tuple(recorder.drain())
    return result, spans, metrics.to_dict() if metrics is not None else None


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
    reuses its warm workers (with their trace/filter-plane memos)
    across calls, and the executor leaves it running when the batch
    finishes.

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
        """Kill the current pool without waiting for its (possibly hung)
        workers; the next :meth:`lease` starts fresh."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.terminate()
        except Exception:  # pragma: no cover - interpreter-internal layout
            pass
        pool.shutdown(wait=False, cancel_futures=True)

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

    Each attempt builds its own job's inputs, in the process that runs
    it: pooled workers generate distinct traces in parallel and share
    them through the on-disk caches, and the calling process builds
    none of a pooled batch's inputs.
    """
    policy = policy or ExecutionPolicy()
    specs = list(specs)
    if not specs:
        return []
    recorder = telemetry.recorder if telemetry is not None else None
    span: "contextlib.AbstractContextManager" = contextlib.nullcontext()
    if recorder is not None and trace is not None:
        span = recorder.span("execute", parent=trace, jobs=len(specs))
    with span as exec_span:
        ctx = exec_span.context if exec_span is not None else trace
        batch = _Batch(specs, policy, bus, telemetry, ctx, return_exceptions)
        pending = [i for i, result in enumerate(batch.results) if result is None]
        n_workers = min(policy.resolved_jobs(), len(pending))
        if (
            n_workers > 1
            and (os.cpu_count() or 1) <= 1
            and os.environ.get("REPRO_FORCE_POOL") != "1"
        ):
            log.info("single-core machine: running %d job(s) in-process", len(pending))
            n_workers = 1
        if n_workers > 1:
            try:
                pickle.dumps([specs[i] for i in pending])
            except Exception as exc:
                log.warning("job specs not picklable (%s); running in-process", exc)
                _emit(bus, ExecutionDegraded(reason="unpicklable", cause=str(exc)))
                n_workers = 1
        if n_workers > 1:
            with (
                PersistentPool(n_workers) if pool is None
                else contextlib.nullcontext(pool)
            ) as manager:
                batch.run_pooled(pending, n_workers, manager)
        else:
            for i in pending:
                batch.run_inline(i)
    return list(batch.results)  # type: ignore[arg-type]


class _Batch:
    """The ledger of one :func:`execute` call.

    It owns the call's result slots and per-job attempt counts, and the
    one rule every attempt follows whatever its transport: a result
    :meth:`settle`\\ s, a failure spends an attempt in :meth:`retry`, and
    a job with no attempt left :meth:`fail`\\ s.  A pool casualty replays
    through :meth:`run_inline` on the same counts.
    """

    def __init__(
        self,
        specs: "List[JobSpec]",
        policy: ExecutionPolicy,
        bus: Optional[EventBus],
        telemetry: Optional[TelemetrySink],
        ctx: Optional[TraceContext],
        return_exceptions: bool,
    ) -> None:
        self.specs = specs
        self.policy = policy
        self.bus = bus
        self.telemetry = telemetry
        self.return_exceptions = return_exceptions
        self.faults = policy.faults()
        self.ctx_wire = ctx.to_wire() if ctx is not None else None
        self.collect = telemetry is not None and telemetry.collects_metrics
        self.results: "List[Optional[_Outcome]]" = [None] * len(specs)
        #: Attempts each job has failed, whichever transport ran them.
        self.attempts = [0] * len(specs)
        #: Each job's checkpoint entry (``None``: no checkpoint).
        self.entries: Optional[List[Path]] = None
        if policy.checkpoint_dir:
            self.resume(policy.checkpoint_dir)

    def resume(self, directory: str) -> None:
        """Fill the slots of jobs whose entry is under ``directory``.

        Only a checkpoint needs the versioned identity (a hand-built
        prefetcher pays a pickle for it).  Equal jobs share one entry.
        """
        self.entries = [result_path(directory, spec.identity()) for spec in self.specs]
        for i, path in enumerate(self.entries):
            snapshot = load_result(path)
            if snapshot is not None:
                self.results[i] = SimulationResult.from_snapshot(snapshot)
                _emit(self.bus, JobResumed(label=self.specs[i].label, index=i, key=path.stem))
        n_resumed = sum(r is not None for r in self.results)
        if n_resumed:
            log.info(
                "resumed %d/%d job(s) from checkpoint %s", n_resumed, len(self.specs), directory
            )

    # ------------------------------------------------------------------
    # The rule
    # ------------------------------------------------------------------
    def _name(self, i: int) -> str:
        return self.specs[i].label or self.specs[i].workload

    def settle(self, i: int, outcome: _AttemptOutcome) -> None:
        """Keep job ``i``'s result, absorb its telemetry, checkpoint it.

        Only the attempt that settles ships telemetry; a failed attempt's
        spans die with it.
        """
        result, spans, snapshot = outcome
        self.results[i] = result
        if self.telemetry is not None:
            self.telemetry.absorb(spans, snapshot, label=self._name(i))
        if self.entries is not None:
            store_result(self.entries[i], result.snapshot())

    def fail(self, i: int, exc: Exception) -> None:
        """Job ``i`` failed for good: raise ``exc``, or keep it in the slot."""
        if not self.return_exceptions:
            raise exc
        self.results[i] = exc

    def retry(self, i: int, cause: str) -> bool:
        """Spend one attempt of job ``i``; False once none is left.

        Otherwise the retry is logged, announced and backed off before
        the caller runs the next attempt.
        """
        self.attempts[i] += 1
        attempt = self.attempts[i]
        if attempt > self.policy.retries:
            return False
        log.warning(
            "job %d (%s) attempt %d failed (%s); retrying", i, self._name(i), attempt, cause
        )
        _emit(
            self.bus,
            JobRetried(label=self.specs[i].label, index=i, attempt=attempt, cause=cause),
        )
        time.sleep(self.policy.backoff_for(attempt))
        return True

    def timed_out(self, i: int, elapsed: float) -> None:
        """Announce that an attempt of job ``i`` overran the timeout."""
        timeout_s = self.policy.timeout_s
        log.warning(
            "job %d (%s) exceeded timeout (%.1fs > %.1fs)", i, self._name(i), elapsed, timeout_s
        )
        _emit(
            self.bus,
            JobTimedOut(label=self.specs[i].label, index=i, timeout_s=timeout_s),
        )

    # ------------------------------------------------------------------
    # The transports
    # ------------------------------------------------------------------
    def _payload(self, i: int) -> tuple:
        return (self.specs[i], i, self.faults, self.ctx_wire, self.collect)

    def run_inline(self, i: int) -> None:
        """Run job ``i`` in-process until it settles or fails for good."""
        timeout_s = self.policy.timeout_s
        while True:
            start = time.monotonic()
            try:
                outcome = _attempt(self._payload(i))
            except Exception as exc:
                if self.retry(i, str(exc)):
                    continue
                self.fail(i, exc)
                return
            elapsed = time.monotonic() - start
            if timeout_s is not None and elapsed > timeout_s:
                # A running Python function cannot be preempted safely, so
                # an in-process overrun is only detected after the fact.
                self.timed_out(i, elapsed)
                if self.retry(i, "timeout"):
                    continue
                # This attempt *did* produce a result; a late answer beats
                # no answer once no attempt is left.
                log.warning(
                    "job %d (%s) has no retries left; keeping the late result",
                    i, self._name(i),
                )
            self.settle(i, outcome)
            return

    def run_pooled(
        self, pending: List[int], n_workers: int, manager: PersistentPool
    ) -> None:
        """Fan ``pending`` out over ``manager``'s pool, filling the slots.

        The pool is leased from ``manager`` and never shut down here;
        kill paths invalidate the manager so the next lease rebuilds.
        When no pool can be leased, at the start or after a kill, the
        rest of the queue runs in-process.
        """
        queue: "deque[int]" = deque(pending)
        in_flight: "Dict[Future, Tuple[int, float]]" = {}
        timeout_s = self.policy.timeout_s
        pool: Optional[ProcessPoolExecutor] = None
        while queue or in_flight:
            if pool is None:  # nothing is in flight
                try:
                    pool = manager.lease()
                except (OSError, PermissionError, ValueError) as exc:
                    log.warning("process pool unavailable (%s); running in-process", exc)
                    _emit(
                        self.bus,
                        ExecutionDegraded(reason="pool_unavailable", cause=str(exc)),
                    )
                    for i in queue:
                        self.run_inline(i)
                    return
            # Keep at most n_workers jobs in flight so submission time
            # approximates start time — that is what per-job deadlines
            # are measured against.
            while queue and len(in_flight) < n_workers:
                try:
                    future = pool.submit(_attempt, self._payload(queue[0]))
                except BrokenProcessPool:
                    # A worker died since the last wait.  The jobs in
                    # flight carry the breakage to the crash path below;
                    # with none in flight the pool is simply rebuilt.
                    if not in_flight:
                        log.warning("process pool broke while idle; rebuilding it")
                        manager.invalidate()
                        pool = None
                    break
                in_flight[future] = (queue.popleft(), time.monotonic())
            if not in_flight:
                continue

            tick = _MAX_TICK_S
            if timeout_s is not None:
                oldest = min(t0 for _i, t0 in in_flight.values())
                tick = max(0.01, min(oldest + timeout_s - time.monotonic(), _MAX_TICK_S))
            wait(in_flight, timeout=tick, return_when=FIRST_COMPLETED)
            now = time.monotonic()

            broken: Optional[BrokenProcessPool] = None
            casualties: List[int] = []
            for future, (i, _t0) in list(in_flight.items()):
                if not future.done():
                    continue
                del in_flight[future]
                try:
                    self.settle(i, future.result())
                except BrokenProcessPool as exc:
                    broken = exc
                    casualties.append(i)
                except Exception as exc:
                    if self.retry(i, str(exc)):
                        queue.append(i)
                    else:
                        self.fail(i, exc)

            if broken is not None:
                # A worker died and the executor poisoned every in-flight
                # future: each casualty (the crashed job among them)
                # spends an attempt and replays in-process, and the pool
                # is rebuilt for the rest of the queue.
                casualties += [i for i, _t0 in in_flight.values()]
                in_flight.clear()
                log.warning(
                    "process pool broke (%s); replaying %d in-flight job(s) in-process",
                    broken, len(casualties),
                )
                _emit(self.bus, WorkerCrashed(cause=str(broken), jobs_in_flight=len(casualties)))
                manager.invalidate()
                pool = None
                for i in casualties:
                    if self.retry(i, "worker crash"):
                        self.run_inline(i)
                        continue
                    lost = WorkerCrashError(
                        f"job {self.specs[i].label or i} lost its worker "
                        f"with no retries left ({broken})"
                    )
                    lost.__cause__ = broken
                    self.fail(i, lost)
                continue

            if timeout_s is None:
                continue
            overdue = [(i, now - t0) for i, t0 in in_flight.values() if now - t0 > timeout_s]
            if overdue:
                # A ProcessPoolExecutor cannot cancel a running task, so
                # the whole pool goes: each overdue job spends an attempt
                # and the innocent bystanders are requeued for free.
                bystanders = [i for i, t0 in in_flight.values() if now - t0 <= timeout_s]
                log.warning(
                    "killing the pool: %d job(s) overdue, %d requeued",
                    len(overdue), len(bystanders),
                )
                in_flight.clear()
                manager.invalidate()
                pool = None
                for i, elapsed in overdue:
                    self.timed_out(i, elapsed)
                    if self.retry(i, "timeout"):
                        queue.append(i)
                    else:
                        self.fail(i, TimeoutError(
                            f"job {i} ({self.specs[i].label}) exceeded {timeout_s}s "
                            f"after {self.attempts[i]} attempt(s)"
                        ))
                queue.extend(bystanders)
