"""The request plane: how both clients send and retry, and how the server counts.

The client tests run against a scripted loopback server rather than a
stubbed transport, so they hold whatever the clients look like inside:

* both clients follow one retry rule — a transport failure (hang-up,
  garbage) waits ``_backoff_for(n)``, a ``queue_full`` answer waits
  ``max(retry_after_s, _backoff_for(n))``, each attempt carries a fresh
  request id, and once ``retries`` is spent the failure is raised;
* every operation of both clients puts the same bytes on the wire
  (request ids aside), written down here as the protocol's contract.

The counter test drives a real service through a fixed request sequence
and pins every request-plane counter to its exact value.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import json
import re
import socket
import threading
import time

import pytest

from repro.engine.config import ProcessorConfig
from repro.engine.simulator import EpochSimulator
from repro.obs.tracing import TraceContext
from repro.service import (
    AsyncServiceClient,
    BackgroundService,
    ServiceBusyError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    protocol,
)
from repro.service.protocol import ErrorCode
from repro.spec import SPEC_VERSION, SweepSpec
from repro.workloads.registry import make_workload

from tests.test_service_failures import (
    POLICY,
    RECORDS,
    WORKLOAD,
    hold_dispatch,
    raw_roundtrip,
    simulate_frame,
)

CLIENTS = ("sync", "async")


# ----------------------------------------------------------------------
# A scripted loopback server
# ----------------------------------------------------------------------
def hang_up(request: dict) -> None:
    """Read the request, then close the connection without answering."""
    return None


def garbage(request: dict) -> bytes:
    return b"this is not json\n"


def busy(request: dict) -> bytes:
    return protocol.encode_frame(
        protocol.error_response(
            request["id"], ErrorCode.QUEUE_FULL, "queue full", retry_after_s=2.0
        )
    )


def pong(request: dict) -> bytes:
    return protocol.encode_frame(protocol.ok_response(request["id"], {"pong": True}))


def invalid(request: dict) -> bytes:
    return protocol.encode_frame(
        protocol.error_response(request["id"], ErrorCode.INVALID_REQUEST, "no such thing")
    )


class ScriptedServer:
    """A loopback server that answers each request line from a script.

    Each step maps the decoded request to the bytes to send back, or to
    None to hang up without answering; once the script runs out,
    ``default`` answers.  Connections are served one at a time, which is
    all a client issuing one request after another needs.
    """

    def __init__(self, script=(), default=pong) -> None:
        self.script = list(script)
        self.default = default
        #: Every request line received, in order.
        self.lines: list = []
        self.connections = 0
        self._stop = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            conn.settimeout(10.0)
            with conn, conn.makefile("rb") as rfile:
                while True:
                    try:
                        line = rfile.readline()
                    except OSError:
                        break
                    if not line:
                        break
                    self.lines.append(line)
                    step = self.script.pop(0) if self.script else self.default
                    reply = step(json.loads(line))
                    if reply is None:
                        break
                    conn.sendall(reply)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(5.0)
        self._listener.close()

    def __enter__(self) -> "ScriptedServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@contextlib.contextmanager
def open_client(kind: str, address, **kwargs):
    """A sync or async client without jitter; the sync one is closed after."""
    cls = ServiceClient if kind == "sync" else AsyncServiceClient
    client = cls(*address, timeout_s=10.0, jitter=False, **kwargs)
    try:
        yield client
    finally:
        if kind == "sync":
            client.close()


def call(client, method: str, *args, **kwargs):
    """One client call, awaited when the client is the async one."""
    result = getattr(client, method)(*args, **kwargs)
    if inspect.isawaitable(result):
        return asyncio.run(result)
    return result


@pytest.fixture
def sleeps(monkeypatch):
    """Record every backoff either client sleeps, without sleeping."""
    recorded: list = []

    async def async_sleep(delay, *args, **kwargs):
        recorded.append(delay)

    monkeypatch.setattr(time, "sleep", recorded.append)
    monkeypatch.setattr(asyncio, "sleep", async_sleep)
    return recorded


def without_id(line: bytes) -> bytes:
    """A request frame with its client-chosen id masked."""
    masked, count = re.subn(rb'"id":"[0-9a-f]{8}-\d+"', b'"id":"*"', line)
    assert count == 1, line
    return masked


# ----------------------------------------------------------------------
# One retry rule
# ----------------------------------------------------------------------
class TestRetryRule:
    @pytest.mark.parametrize("kind", CLIENTS)
    def test_transport_failures_and_busy_answers_are_retried(self, kind, sleeps):
        with ScriptedServer([hang_up, garbage, busy, pong]) as server:
            with open_client(kind, server.address, retries=3) as client:
                assert call(client, "ping") == {"pong": True}
        # Hang-up and garbage back off 0.25 s then 0.5 s; the busy answer
        # waits its retry_after_s hint, which beats the 1.0 s backoff.
        assert sleeps == [0.25, 0.5, 2.0]
        # Every attempt is the same request under a fresh id.
        ids = [json.loads(line)["id"] for line in server.lines]
        assert len(ids) == 4 and len(set(ids)) == 4
        assert len({without_id(line) for line in server.lines}) == 1
        # The sync client reconnects after a transport failure but keeps
        # its socket after a busy answer; the async one dials every time.
        assert server.connections == (3 if kind == "sync" else 4)

    @pytest.mark.parametrize("kind", CLIENTS)
    def test_spent_retries_raise_the_last_failure(self, kind, sleeps):
        with ScriptedServer([hang_up, garbage, busy, pong]) as server:
            with open_client(kind, server.address, retries=2) as client:
                with pytest.raises(ServiceBusyError) as excinfo:
                    call(client, "ping")
        assert excinfo.value.retry_after_s == 2.0
        assert sleeps == [0.25, 0.5]
        assert len(server.lines) == 3

    @pytest.mark.parametrize("kind", CLIENTS)
    def test_error_answer_raises_at_once(self, kind, sleeps):
        with ScriptedServer([invalid, pong]) as server:
            with open_client(kind, server.address, retries=3) as client:
                with pytest.raises(ServiceError) as excinfo:
                    call(client, "ping")
        assert type(excinfo.value) is ServiceError
        assert excinfo.value.code is ErrorCode.INVALID_REQUEST
        assert sleeps == []
        assert len(server.lines) == 1


# ----------------------------------------------------------------------
# Wire frames, byte for byte
# ----------------------------------------------------------------------
SPEC = SweepSpec.from_dict(
    {
        "version": SPEC_VERSION,
        "name": "wire",
        "workloads": ["tpcw"],
        "grid": {"records": 2000, "seeds": [1]},
        "prefetchers": [{"name": "ebcp"}],
    }
)
TRACE = TraceContext(trace_id="0123456789abcdef0123456789abcdef", span_id="fedcba9876543210")

#: Each operation, its call, and the frame it sends with the id masked.
OPERATIONS = [
    ("ping", (), {}, b'{"id":"*","type":"ping","v":5}\n'),
    (
        "simulate", ("tpcw",), {},
        b'{"id":"*","params":{"prefetcher":"none","records":280000,"seed":7,'
        b'"use_cache":true,"workload":"tpcw"},"type":"simulate","v":5}\n',
    ),
    (
        "simulate", ("database", "ebcp"),
        {"records": 20000, "seed": 3, "warmup_records": 500, "use_cache": False,
         "trace": TRACE},
        b'{"id":"*","params":{"prefetcher":"ebcp","records":20000,"seed":3,'
        b'"use_cache":false,"warmup_records":500,"workload":"database"},'
        b'"trace":{"span_id":"fedcba9876543210",'
        b'"trace_id":"0123456789abcdef0123456789abcdef"},"type":"simulate","v":5}\n',
    ),
    (
        "iter_sweep", (SPEC,), {"use_cache": False},
        b'{"id":"*","params":{"spec":{"grid":{"records":2000,"seeds":[1]},'
        b'"name":"wire","prefetchers":[{"name":"ebcp"}],"version":1,'
        b'"workloads":["tpcw"]},"use_cache":false},"type":"sweep","v":5}\n',
    ),
    (
        "sweep", (SPEC,), {},
        b'{"id":"*","params":{"spec":{"grid":{"records":2000,"seeds":[1]},'
        b'"name":"wire","prefetchers":[{"name":"ebcp"}],"version":1,'
        b'"workloads":["tpcw"]},"use_cache":true},"type":"sweep","v":5}\n',
    ),
    ("stats", (), {}, b'{"id":"*","type":"stats","v":5}\n'),
    ("metrics", (), {}, b'{"id":"*","type":"metrics","v":5}\n'),
    ("telemetry", (), {}, b'{"id":"*","params":{"drain":false},"type":"telemetry","v":5}\n'),
    (
        "telemetry", (), {"drain": True},
        b'{"id":"*","params":{"drain":true},"type":"telemetry","v":5}\n',
    ),
    (
        "admin", ("resize",), {"workers": 3},
        b'{"id":"*","params":{"command":"resize","workers":3},"type":"admin","v":5}\n',
    ),
    (
        "resize", (2,), {},
        b'{"id":"*","params":{"command":"resize","workers":2},"type":"admin","v":5}\n',
    ),
    ("shutdown", (), {}, b'{"id":"*","type":"shutdown","v":5}\n'),
]


@pytest.fixture(scope="module")
def snapshot() -> dict:
    trace = make_workload("pointer_chase", records=2_000, seed=7)
    sim = EpochSimulator(
        ProcessorConfig.scaled(), None,
        cpi_perf=trace.meta.cpi_perf, overlap=trace.meta.overlap,
    )
    return sim.run(trace).snapshot()


def answer_by_type(snapshot: dict):
    """A reply per request type, as a service would shape it."""

    def answer(request: dict) -> bytes:
        kind, request_id = request["type"], request["id"]
        if kind == "simulate":
            frame = protocol.ok_response(request_id, snapshot, cached=True, elapsed_ms=1.5)
        elif kind == "sweep":
            frame = protocol.ok_response(request_id, {"jobs": 0, "elapsed_ms": 2.5})
            frame["done"] = True
        elif kind == "metrics":
            frame = protocol.ok_response(request_id, {"text": "# metrics\n"})
        else:
            frame = protocol.ok_response(request_id, {"answered": kind})
        return protocol.encode_frame(frame)

    return answer


def collect_sweep(client, *args, **kwargs):
    """Every frame of one ``iter_sweep`` stream, from either client."""
    stream = client.iter_sweep(*args, **kwargs)
    if inspect.isasyncgen(stream):
        async def drain():
            return [frame async for frame in stream]

        return asyncio.run(drain())
    return list(stream)


class TestWireFrames:
    @pytest.mark.parametrize("kind", CLIENTS)
    def test_every_operation_sends_the_documented_frame(self, kind, snapshot):
        returned = {}
        with ScriptedServer(default=answer_by_type(snapshot)) as server:
            with open_client(kind, server.address, retries=0) as client:
                for method, args, kwargs, _ in OPERATIONS:
                    if method == "iter_sweep":
                        returned[method] = collect_sweep(client, *args, **kwargs)
                    else:
                        returned[method] = call(client, method, *args, **kwargs)
        sent = [without_id(line) for line in server.lines]
        assert sent == [expected for *_, expected in OPERATIONS]

        served = returned["simulate"]
        assert served.cached is True and served.elapsed_ms == 1.5
        assert served.result.snapshot() == snapshot
        (done,) = returned["iter_sweep"]
        assert done.done and done.summary == {"jobs": 0, "elapsed_ms": 2.5}
        assert returned["sweep"] == []
        assert returned["ping"] == {"answered": "ping"}
        assert returned["stats"] == {"answered": "stats"}
        assert returned["metrics"] == "# metrics\n"
        assert returned["telemetry"] == {"answered": "telemetry"}
        assert returned["admin"] == returned["resize"] == {"answered": "admin"}
        assert returned["shutdown"] == {"answered": "shutdown"}


# ----------------------------------------------------------------------
# Request counters, exactly
# ----------------------------------------------------------------------
class TestRequestCounters:
    def test_fixed_sequence_counts_exactly(self):
        config = ServiceConfig(port=0, queue_size=1, max_batch=1, batch_window_s=0.001)
        with BackgroundService(config, policy=POLICY) as svc:
            with ServiceClient(*svc.address, retries=0) as client:
                client.ping()
                client.stats()
                miss = client.simulate(WORKLOAD, "none", records=RECORDS)
                hit = client.simulate(WORKLOAD, "none", records=RECORDS)
                with pytest.raises(ServiceError) as excinfo:
                    client.simulate("no_such_workload", "none", records=RECORDS)
            assert (miss.cached, hit.cached) == (False, True)
            assert excinfo.value.code is ErrorCode.INVALID_REQUEST
            malformed = raw_roundtrip(svc.address, b"this is not json\n")
            assert malformed["error"]["code"] == "malformed_frame"

            # One queue_full bounce: r1 parks in the held batch, r2 fills
            # the one-slot queue, r3 bounces.  r1 and r2 then answer from
            # the cache the miss above filled.
            hold_dispatch(svc)
            sock1 = socket.create_connection(svc.address, timeout=60.0)
            sock2 = socket.create_connection(svc.address, timeout=60.0)
            try:
                sock1.sendall(simulate_frame("r1"))
                time.sleep(0.3)
                sock2.sendall(simulate_frame("r2"))
                time.sleep(0.2)
                bounced = raw_roundtrip(svc.address, simulate_frame("r3"))
                assert bounced["error"]["code"] == "queue_full"
                svc.service.release_dispatch_threadsafe()
                for sock in (sock1, sock2):
                    with sock.makefile("rb") as rfile:
                        assert json.loads(rfile.readline())["cached"] is True
            finally:
                sock1.close()
                sock2.close()

            registry = svc.service.registry
            counts = {
                name: registry[name].value
                for name in (
                    "requests_received",
                    "requests.ping",
                    "requests.stats",
                    "requests.simulate",
                    "requests_completed",
                    "requests_failed",
                    "result_cache_hits",
                    "result_cache_misses",
                    "queue_saturated",
                )
            }
            latency_count = registry["request_latency_ms"].total
            names = registry.names()
        # Received: ping, stats, miss, hit, unknown workload, r1, r2, r3;
        # the malformed frame is never received, only answered.
        assert counts == {
            "requests_received": 8,
            "requests.ping": 1,
            "requests.stats": 1,
            "requests.simulate": 6,
            "requests_completed": 6,
            "requests_failed": 3,
            "result_cache_hits": 3,
            "result_cache_misses": 1,
            "queue_saturated": 1,
        }
        assert latency_count == 9
        assert [n for n in names if n.startswith("requests.")] == [
            "requests.ping", "requests.simulate", "requests.stats"
        ]
