"""Client SDK for the simulation service.

Two clients over the same newline-delimited JSON protocol:

* :class:`ServiceClient` — synchronous, one persistent socket with
  automatic reconnect, for scripts and the ``repro-ebcp call`` CLI;
* :class:`AsyncServiceClient` — asyncio, one connection per request so
  concurrent ``simulate`` calls land in the same server micro-batch.

Both share one request path (:class:`_ClientBase`): the frame, the
simulate params and span, and one retry rule, derived from the same
:class:`~repro.resilience.policy.ExecutionPolicy` the batch layers use.
``timeout_s`` bounds each attempt, ``retries`` bounds how many failed
attempts are absorbed, and attempts are spaced by capped exponential
backoff with full jitter — ``backoff_s * 2**(attempt-1)``, capped at
``max_backoff_s``, scaled by a uniform factor in ``[0.5, 1.0]`` so a
fleet of clients reconnecting to a restarted (or sharded) service
spreads out instead of stampeding in lock-step.  Transport failures
(connect refused, socket timeout, reset, a garbled frame) wait the
backoff; ``queue_full`` backpressure responses wait the server's
``retry_after_s`` hint when it is longer — so a saturated service slows
its clients down instead of failing them.  Each client keeps only its
transport: how it sends one frame, how it sleeps, and the sweep stream.

Responses to ``simulate`` carry a lossless
:meth:`~repro.engine.stats.SimulationResult.snapshot`; the SDK rehydrates
it into a full :class:`~repro.engine.stats.SimulationResult`, so served
stats are bit-identical to a local run.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import random
import socket
import time
import uuid
from dataclasses import dataclass
from typing import Any, AsyncIterator, Dict, Iterator, Optional

from ..engine.stats import SimulationResult
from ..obs.tracing import SpanRecorder, TraceContext
from ..resilience.policy import ExecutionPolicy
from . import protocol
from .protocol import (
    ErrorCode,
    ProtocolError,
    Request,
    ServiceBusyError,
    ServiceError,
    SimulateParams,
)

__all__ = [
    "ServiceClient",
    "AsyncServiceClient",
    "ServedResult",
    "SweepFrame",
    "ServiceError",
    "ServiceBusyError",
]

#: The failures an attempt may be retried after: ``queue_full``
#: backpressure, and transport failures — ``OSError`` covers refused
#: connections, resets, hang-ups and socket timeouts; ``ProtocolError``
#: a garbled reply; ``asyncio.TimeoutError`` an async attempt's timeout.
_RETRYABLE = (ServiceBusyError, OSError, ProtocolError, asyncio.TimeoutError)


@dataclass(frozen=True)
class ServedResult:
    """One simulate response: the result plus its service disposition."""

    result: SimulationResult
    #: True when the service answered from its result cache.
    cached: bool
    #: Server-side end-to-end latency of this request, in milliseconds.
    elapsed_ms: float
    #: ``{"index", "pid"}`` of the worker process that served the request
    #: when it came through a sharded front-end; ``None`` single-process.
    shard: Optional[Dict[str, Any]] = None


def _decode_served(frame: Dict[str, Any]) -> ServedResult:
    shard = frame.get("shard")
    return ServedResult(
        result=SimulationResult.from_snapshot(frame["result"]),
        cached=bool(frame.get("cached", False)),
        elapsed_ms=float(frame.get("elapsed_ms", 0.0)),
        shard=shard if isinstance(shard, dict) else None,
    )


@dataclass(frozen=True)
class SweepFrame:
    """One frame of a streamed sweep (v4).

    Job frames carry ``index``/``job``/``result``; the terminal frame
    has ``done=True`` with the server's run ``summary`` instead.
    """

    done: bool
    index: Optional[int]
    #: The server's per-job identity block (index, kind, workload, seed,
    #: records, n_threads, label, config); ``None`` on the done frame.
    job: Optional[Dict[str, Any]]
    result: Optional[SimulationResult]
    cached: bool
    elapsed_ms: float
    #: Worker-process metadata when served by a sharded front-end.
    shard: Optional[Dict[str, Any]] = None
    #: Terminal-frame summary (jobs, errors, fingerprint, elapsed_ms).
    summary: Optional[Dict[str, Any]] = None


def _decode_sweep_frame(frame: Dict[str, Any]) -> SweepFrame:
    """One wire frame of a sweep stream as a :class:`SweepFrame`.

    Raises the typed service error for failed jobs and failed sweeps
    (the ``job`` block, when present, is attached to the exception's
    details so callers can tell *which* job died).
    """
    job = frame.get("job")
    if frame.get("done"):
        protocol.raise_for_error(frame)
        summary = frame.get("result") if isinstance(frame.get("result"), dict) else {}
        return SweepFrame(
            done=True,
            index=None,
            job=None,
            result=None,
            cached=False,
            elapsed_ms=float(summary.get("elapsed_ms", 0.0)),
            summary=summary,
        )
    if not frame.get("ok") and isinstance(job, dict):
        error = frame.setdefault("error", {})
        if isinstance(error, dict):
            error.setdefault("job", job)
    protocol.raise_for_error(frame)
    if not isinstance(job, dict) or "index" not in job:
        raise ProtocolError(
            ErrorCode.MALFORMED_FRAME, "sweep stream frame carries no job identity"
        )
    shard = frame.get("shard")
    return SweepFrame(
        done=False,
        index=int(job["index"]),
        job=job,
        result=SimulationResult.from_snapshot(frame["result"]),
        cached=bool(frame.get("cached", False)),
        elapsed_ms=float(frame.get("elapsed_ms", 0.0)),
        shard=shard if isinstance(shard, dict) else None,
    )


def _sweep_params(spec: Any, use_cache: bool) -> Dict[str, Any]:
    from ..spec.loader import dump_spec

    return {"spec": dump_spec(spec), "use_cache": bool(use_cache)}


@dataclass(frozen=True)
class _Simulation:
    """One simulate call: its wire params, the trace context its frame
    carries and, with a recorder, its ``client:simulate`` span."""

    params: Dict[str, Any]
    trace: Optional[TraceContext]
    span: Any = None

    def served(self, frame: Dict[str, Any]) -> ServedResult:
        served = _decode_served(frame)
        if self.span is not None:
            self.span.set(cached=served.cached)
        return served


class _ClientBase:
    """The request path shared by the sync and async clients.

    A subclass supplies the transport: ``_request``, which sends one
    frame per attempt and sleeps as :meth:`_retry_delay` says, and the
    sweep stream.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        timeout_s: Optional[float] = 30.0,
        retries: int = 1,
        backoff_s: float = 0.25,
        max_backoff_s: float = 10.0,
        jitter: bool = True,
        recorder: Optional[SpanRecorder] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.jitter = jitter
        self._rng = random.Random()
        #: When set, ``simulate`` wraps each call in a ``client:simulate``
        #: span and sends its context on the frame, so server- and
        #: worker-side spans join the client's trace.
        self.recorder = recorder
        self._ids = itertools.count(1)
        self._id_prefix = uuid.uuid4().hex[:8]

    @classmethod
    def from_policy(
        cls, host: str, port: int, policy: ExecutionPolicy
    ) -> "_ClientBase":
        """A client whose timeout/retry/backoff mirror an execution policy."""
        return cls(
            host=host,
            port=port,
            timeout_s=policy.timeout_s if policy.timeout_s is not None else 30.0,
            retries=policy.retries,
            backoff_s=policy.backoff_s,
        )

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        return f"{self._id_prefix}-{next(self._ids)}"

    def _backoff_for(self, attempt: int) -> float:
        """Delay before retry ``attempt``: capped exponential, jittered.

        The jitter factor is uniform in ``[0.5, 1.0]`` — it only ever
        *shortens* the deterministic delay, so existing timeout budgets
        still hold, while reconnecting clients desynchronise instead of
        hammering a restarted service in phase.
        """
        if attempt <= 0 or self.backoff_s <= 0:
            return 0.0
        delay = min(self.backoff_s * (2.0 ** (attempt - 1)), self.max_backoff_s)
        if self.jitter:
            delay *= 0.5 + 0.5 * self._rng.random()
        return delay

    def _retry_delay(self, exc: BaseException, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based).

        A ``queue_full`` answer waits the server's ``retry_after_s`` or
        the backoff, whichever is longer; a transport failure waits the
        backoff.  Once ``retries`` is spent, ``exc`` is raised again.
        """
        if attempt > self.retries:
            raise exc
        if isinstance(exc, ServiceBusyError):
            return max(exc.retry_after_s, self._backoff_for(attempt))
        return self._backoff_for(attempt)

    def _frame_for(
        self,
        request_type: str,
        params: Optional[Dict[str, Any]],
        trace: Optional[TraceContext] = None,
    ) -> bytes:
        """One request frame; every attempt takes a fresh request id."""
        request = Request(
            type=request_type,
            id=self._next_id(),
            params=params or {},
            trace=trace.to_wire() if trace is not None else None,
        )
        return protocol.encode_frame(request.to_dict())

    @contextlib.contextmanager
    def _simulation(self, trace: Optional[TraceContext], *fields: Any) -> Iterator[_Simulation]:
        """One simulate call: ``SimulateParams(*fields)`` and, with a
        recorder, a ``client:simulate`` span parented to ``trace`` whose
        context rides on the frame instead."""
        params = SimulateParams(*fields).to_dict()
        if self.recorder is None:
            yield _Simulation(params, trace)
            return
        with self.recorder.span(
            "client:simulate", parent=trace,
            workload=params["workload"], prefetcher=params["prefetcher"],
        ) as span:
            yield _Simulation(params, span.context, span)


class ServiceClient(_ClientBase):
    """Synchronous client over one persistent, auto-reconnecting socket."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _send(self, frame: bytes) -> None:
        """Send ``frame`` on the live socket, connecting first if needed."""
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
            self._rfile = self._sock.makefile("rb")
        self._sock.settimeout(self.timeout_s)
        self._sock.sendall(frame)

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _roundtrip(self, frame: bytes) -> Dict[str, Any]:
        """One request/response over the live socket (no retry here).

        A transport or frame error closes the socket: a half-read
        stream is unusable, so the next attempt reconnects.
        """
        try:
            self._send(frame)
            line = self._rfile.readline()
            if not line:
                raise ConnectionError("service closed the connection")
            return protocol.decode_frame(line)
        except (OSError, ProtocolError):
            self.close()
            raise

    def _request(
        self,
        request_type: str,
        params: Optional[Dict[str, Any]] = None,
        trace: Optional[TraceContext] = None,
    ) -> Dict[str, Any]:
        """Send one request under the client's retry rule.

        Transport failures and ``queue_full`` responses are retried up
        to ``retries`` times (:meth:`_retry_delay`); other error frames
        raise at once as :class:`~repro.service.protocol.ServiceError`.
        """
        attempts = 0
        while True:
            frame = self._frame_for(request_type, params, trace=trace)
            try:
                return protocol.raise_for_error(self._roundtrip(frame))
            except _RETRYABLE as exc:
                attempts += 1
                time.sleep(self._retry_delay(exc, attempts))

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        """Liveness + version/protocol discovery."""
        return self._request("ping")["result"]

    def simulate(
        self,
        workload: str,
        prefetcher: str = "none",
        records: int = 280_000,
        seed: int = 7,
        warmup_records: Optional[int] = None,
        use_cache: bool = True,
        trace: Optional[TraceContext] = None,
    ) -> ServedResult:
        """Run (or fetch) one simulation on the service.

        With a ``recorder`` attached the call is wrapped in a
        ``client:simulate`` span whose context rides on the frame;
        passing ``trace`` instead (or additionally, as the span's
        parent) joins an existing trace.
        """
        with self._simulation(
            trace, workload, prefetcher, records, seed, warmup_records, use_cache
        ) as call:
            return call.served(self._request("simulate", call.params, trace=call.trace))

    def iter_sweep(self, spec: Any, use_cache: bool = True):
        """Submit a :class:`~repro.spec.SweepSpec` and stream its frames.

        Yields one :class:`SweepFrame` per job *as shards finish them*
        (arrival order, not index order — each frame carries its job
        index), then the terminal ``done`` frame.  The stream is one
        long-lived exchange on the persistent socket, so there is no
        mid-stream retry: a transport failure raises and closes the
        connection (re-submitting re-streams; completed jobs answer
        from the result cache).
        """
        frame_bytes = self._frame_for("sweep", _sweep_params(spec, use_cache))
        try:
            self._send(frame_bytes)
            while True:
                line = self._rfile.readline()
                if not line:
                    raise ConnectionError("service closed the connection mid-sweep")
                parsed = _decode_sweep_frame(protocol.decode_frame(line))
                yield parsed
                if parsed.done:
                    return
        except BaseException:
            # A half-consumed stream is not line-synchronised; the next
            # request must start on a fresh connection.
            self.close()
            raise

    def sweep(self, spec: Any, use_cache: bool = True) -> "list[SweepFrame]":
        """Submit a sweep and collect its job frames, ordered by index."""
        frames = [f for f in self.iter_sweep(spec, use_cache=use_cache) if not f.done]
        return sorted(frames, key=lambda f: f.index or 0)

    def stats(self) -> Dict[str, Any]:
        """The service's metrics-registry snapshot plus queue/cache state."""
        return self._request("stats")["result"]

    def metrics(self) -> str:
        """The merged service registry as Prometheus text exposition."""
        return self._request("metrics")["result"]["text"]

    def telemetry(self, drain: bool = False) -> Dict[str, Any]:
        """The service's spans and metric registries (v3+).

        Against a sharded front-end this is the whole fleet's telemetry;
        ``drain=True`` removes the spans server-side after reading.
        """
        return self._request("telemetry", {"drain": drain})["result"]

    def admin(self, command: str, **arguments: Any) -> Dict[str, Any]:
        """Issue one fleet-control command (protocol v5, sharded only)."""
        return self._request("admin", {"command": command, **arguments})["result"]

    def resize(self, workers: int) -> Dict[str, Any]:
        """Resize a sharded fleet to ``workers`` shards, live.

        Returns the supervisor's resize report (``workers``,
        ``previous_workers``, ``added``, ``removed``, per-shard rows).
        Only the added/removed shards' key ranges remap; a shrink drains
        its victims before they exit.
        """
        return self.admin("resize", workers=workers)

    def shutdown(self) -> Dict[str, Any]:
        """Ask the service to drain and exit (in-flight work completes)."""
        return self._request("shutdown")["result"]


class AsyncServiceClient(_ClientBase):
    """Asyncio client; each request uses its own connection.

    Separate connections are what let concurrent ``simulate`` calls be
    admitted independently — and therefore coalesce into one server-side
    micro-batch.
    """

    @contextlib.asynccontextmanager
    async def _connection(self, frame: bytes) -> AsyncIterator[asyncio.StreamReader]:
        """A fresh connection with ``frame`` sent on it; closed on exit."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port, limit=protocol.MAX_FRAME_BYTES),
            self.timeout_s,
        )
        try:
            writer.write(frame)
            await writer.drain()
            yield reader
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    async def _roundtrip(self, frame: bytes) -> Dict[str, Any]:
        async with self._connection(frame) as reader:
            line = await asyncio.wait_for(reader.readline(), self.timeout_s)
        if not line:
            raise ConnectionError("service closed the connection")
        return protocol.decode_frame(line)

    async def _request(
        self,
        request_type: str,
        params: Optional[Dict[str, Any]] = None,
        trace: Optional[TraceContext] = None,
    ) -> Dict[str, Any]:
        """Async counterpart of :meth:`ServiceClient._request`."""
        attempts = 0
        while True:
            frame = self._frame_for(request_type, params, trace=trace)
            try:
                return protocol.raise_for_error(await self._roundtrip(frame))
            except _RETRYABLE as exc:
                attempts += 1
                await asyncio.sleep(self._retry_delay(exc, attempts))

    # ------------------------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        return (await self._request("ping"))["result"]

    async def simulate(
        self,
        workload: str,
        prefetcher: str = "none",
        records: int = 280_000,
        seed: int = 7,
        warmup_records: Optional[int] = None,
        use_cache: bool = True,
        trace: Optional[TraceContext] = None,
    ) -> ServedResult:
        with self._simulation(
            trace, workload, prefetcher, records, seed, warmup_records, use_cache
        ) as call:
            return call.served(
                await self._request("simulate", call.params, trace=call.trace)
            )

    async def iter_sweep(self, spec: Any, use_cache: bool = True):
        """Async counterpart of :meth:`ServiceClient.iter_sweep`.

        Opens one dedicated connection for the stream; yields
        :class:`SweepFrame` objects and finishes after the ``done``
        frame.  No mid-stream retry.
        """
        frame_bytes = self._frame_for("sweep", _sweep_params(spec, use_cache))
        async with self._connection(frame_bytes) as reader:
            while True:
                line = await asyncio.wait_for(reader.readline(), self.timeout_s)
                if not line:
                    raise ConnectionError("service closed the connection mid-sweep")
                parsed = _decode_sweep_frame(protocol.decode_frame(line))
                yield parsed
                if parsed.done:
                    return

    async def sweep(self, spec: Any, use_cache: bool = True) -> "list[SweepFrame]":
        """Submit a sweep and collect its job frames, ordered by index."""
        frames = [
            f async for f in self.iter_sweep(spec, use_cache=use_cache) if not f.done
        ]
        return sorted(frames, key=lambda f: f.index or 0)

    async def stats(self) -> Dict[str, Any]:
        return (await self._request("stats"))["result"]

    async def metrics(self) -> str:
        """The merged service registry as Prometheus text exposition."""
        return (await self._request("metrics"))["result"]["text"]

    async def telemetry(self, drain: bool = False) -> Dict[str, Any]:
        """The service's spans and metric registries (v3+)."""
        return (await self._request("telemetry", {"drain": drain}))["result"]

    async def admin(self, command: str, **arguments: Any) -> Dict[str, Any]:
        """Issue one fleet-control command (protocol v5, sharded only)."""
        return (await self._request("admin", {"command": command, **arguments}))["result"]

    async def resize(self, workers: int) -> Dict[str, Any]:
        """Resize a sharded fleet to ``workers`` shards, live."""
        return await self.admin("resize", workers=workers)

    async def shutdown(self) -> Dict[str, Any]:
        return (await self._request("shutdown"))["result"]
