"""Failure paths of the simulation service.

Everything here is driven deterministically: raw sockets give exact
control over what hits the wire, and the server's dispatch-gate test
seam (``hold_dispatch``) freezes the batcher so queue saturation and
drain-with-work-pending become observable states instead of races.

Malformed frames, version negotiation, sweep decoding and simulate
admission belong to the front-end core both services share, so those
tests also run against a 2-shard :class:`ShardedService`.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.engine.config import ProcessorConfig
from repro.obs.events import JobTimedOut
from repro.parallel.jobs import JobSpec
from repro.prefetchers.registry import build_prefetcher
from repro.resilience.faults import FaultSpec, WorkerCrashError
from repro.resilience.policy import ExecutionPolicy
from repro.service import (
    BackgroundService,
    ServiceBusyError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ShardedService,
    SimulationService,
    protocol,
)
from repro.service.protocol import ErrorCode, ProtocolError, SimulateParams
from repro.service.server import _PendingRequest
from repro.spec import SPEC_VERSION, SpecError

RECORDS = 6_000
WORKLOAD = "pointer_chase"
POLICY = ExecutionPolicy(jobs=1)


def raw_roundtrip(address, payload: bytes) -> dict:
    """Send raw bytes, read one response frame."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(payload)
        with sock.makefile("rb") as rfile:
            return json.loads(rfile.readline())


def simulate_frame(request_id: str, **over) -> bytes:
    params = {"workload": WORKLOAD, "prefetcher": "none", "records": RECORDS, "seed": 7}
    params.update(over)
    return protocol.encode_frame(
        {"v": 1, "id": request_id, "type": "simulate", "params": params}
    )


def hold_dispatch(svc: BackgroundService) -> None:
    """Freeze the batcher from the test thread; settle before returning."""
    loop = svc.service._loop
    assert loop is not None
    loop.call_soon_threadsafe(svc.service.hold_dispatch)
    time.sleep(0.05)


def sweep_frame(spec) -> bytes:
    return protocol.encode_frame(
        {"v": 5, "id": "sw", "type": "sweep", "params": {"spec": spec}}
    )


def sweep_spec(**over) -> dict:
    spec = {
        "version": SPEC_VERSION,
        "name": "bad",
        "workloads": [WORKLOAD],
        "grid": {"records": RECORDS, "seeds": [7]},
        "prefetchers": [{"name": "ebcp"}],
    }
    spec.update(over)
    return spec


def front_end(kind: str, **config) -> BackgroundService:
    """A single server or 2-shard router on an ephemeral port (unstarted)."""
    config = ServiceConfig(port=0, **config)
    if kind == "single":
        return BackgroundService(config, policy=POLICY)
    service = ShardedService(config=config, policy=POLICY, workers=2)
    return BackgroundService(service=service, start_timeout_s=120.0)


@pytest.fixture
def service():
    with BackgroundService(ServiceConfig(port=0), policy=POLICY) as svc:
        yield svc


@pytest.fixture(scope="module")
def sharded():
    with front_end("sharded") as svc:
        yield svc


class TestMalformedFrames:
    def test_not_json(self, service):
        frame = raw_roundtrip(service.address, b"this is not json\n")
        assert frame["ok"] is False
        assert frame["error"]["code"] == "malformed_frame"

    def test_json_but_not_an_object(self, service):
        frame = raw_roundtrip(service.address, b"[1, 2, 3]\n")
        assert frame["ok"] is False
        assert frame["error"]["code"] == "malformed_frame"

    def test_missing_version(self, service):
        frame = raw_roundtrip(
            service.address, protocol.encode_frame({"id": "x", "type": "ping"})
        )
        assert frame["ok"] is False
        assert frame["error"]["code"] == "malformed_frame"
        assert frame["id"] == "x"  # echoed so the client can correlate

    def test_oversized_frame_answered_then_disconnected(self, service):
        blob = b'{"pad": "' + b"x" * (protocol.MAX_FRAME_BYTES + 1024) + b'"}\n'
        with socket.create_connection(service.address, timeout=30.0) as sock:
            sock.sendall(blob)
            with sock.makefile("rb") as rfile:
                frame = json.loads(rfile.readline())
                assert frame["error"]["code"] == "malformed_frame"
                assert rfile.readline() == b""  # server hung up: stream desynced


class TestVersionNegotiation:
    def test_unknown_version_lists_supported(self, service):
        frame = raw_roundtrip(
            service.address,
            protocol.encode_frame({"v": 99, "id": "q", "type": "ping"}),
        )
        assert frame["ok"] is False
        assert frame["id"] == "q"
        assert frame["error"]["code"] == "unsupported_version"
        assert frame["error"]["supported"] == list(protocol.SUPPORTED_VERSIONS)

    def test_unknown_type_lists_known(self, service):
        frame = raw_roundtrip(
            service.address,
            protocol.encode_frame({"v": 1, "id": "q", "type": "teleport"}),
        )
        assert frame["error"]["code"] == "unknown_type"
        assert set(frame["error"]["known"]) == set(protocol.REQUEST_TYPES)

    def test_unknown_workload_rejected(self, service):
        frame = raw_roundtrip(
            service.address, simulate_frame("q", workload="quake3")
        )
        assert frame["error"]["code"] == "invalid_request"
        assert "database" in frame["error"]["known"]

    def test_unknown_simulate_parameter_rejected(self, service):
        frame = raw_roundtrip(service.address, simulate_frame("q", threads=4))
        assert frame["error"]["code"] == "invalid_request"
        assert "threads" in frame["error"]["message"]

    def test_client_raises_typed_error(self, service):
        with ServiceClient(*service.address, retries=0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.simulate("quake3", "none", records=RECORDS)
            assert excinfo.value.code is ErrorCode.INVALID_REQUEST

    @pytest.mark.parametrize(
        "spec, path",
        [
            pytest.param([1, 2], None, id="spec_not_an_object"),
            pytest.param(sweep_spec(workloads=["quake3"]), "workloads[0]", id="schema"),
            pytest.param(
                sweep_spec(prefetchers=[{"name": "ebcp", "overrides": {"no_such_knob": 3}}]),
                "prefetchers",
                id="prefetcher_overrides",
            ),
        ],
    )
    def test_bad_sweep_rejected(self, service, spec, path):
        frame = raw_roundtrip(service.address, sweep_frame(spec))
        assert frame["ok"] is False
        assert frame["id"] == "sw"
        assert frame["error"]["code"] == "invalid_request"
        assert frame["error"].get("path") == path


class TestShardedMalformedFrames(TestMalformedFrames):
    """The same frames against the router: one front-end core."""

    @pytest.fixture
    def service(self, sharded):
        return sharded


class TestShardedVersionNegotiation(TestVersionNegotiation):
    @pytest.fixture
    def service(self, sharded):
        return sharded


BAD_EXTENDED = [
    pytest.param({"prefetcher_overrides": {"no_such_knob": 3}},
                 "params.prefetcher_overrides", id="prefetcher_overrides"),
    pytest.param({"config": {"base": "nonexistent"}}, "params.config.base", id="config"),
    pytest.param({"prefetcher": "none", "prefetcher_overrides": {"degree": 2}},
                 "params.prefetcher_overrides", id="none_with_overrides"),
]
# A plain request no trace generator accepts; refused while parsing its
# params, so the error carries no ``path``.
NEGATIVE_SEED = pytest.param({"seed": -1}, None, id="negative_seed")


class TestBatchIsolation:
    """A malformed simulate fails alone, never its micro-batch."""

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    @pytest.mark.parametrize("bad, path", BAD_EXTENDED + [NEGATIVE_SEED])
    def test_bad_request_does_not_poison_its_batch(self, kind, bad, path):
        local = JobSpec(
            workload=WORKLOAD,
            records=RECORDS,
            seed=7,
            config=ProcessorConfig.scaled(),
            prefetcher=build_prefetcher("ebcp"),
            label="ebcp",
        ).run()
        frames = {}

        def send(name: str, extra: dict) -> None:
            frames[name] = raw_roundtrip(
                svc.address, simulate_frame(name, **{"prefetcher": "ebcp", **extra})
            )

        # A wide batch window co-batches the pair on one server or one
        # shard (same workload, records and seed route together); the
        # router refuses a negative seed before routing it.
        with front_end(kind, batch_window_s=0.3) as svc:
            threads = [
                threading.Thread(target=send, args=("good", {})),
                threading.Thread(target=send, args=("bad", bad)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
                assert not thread.is_alive()
        assert frames["good"]["ok"] is True
        assert frames["good"]["result"] == local.snapshot()
        assert frames["bad"]["ok"] is False
        assert frames["bad"]["error"]["code"] == "invalid_request"
        assert frames["bad"]["error"].get("path") == path

    @pytest.mark.parametrize("bad, path", BAD_EXTENDED)
    def test_batch_build_failure_fails_only_its_request(self, bad, path):
        service = SimulationService(ServiceConfig(port=0), policy=POLICY)
        base = {"workload": WORKLOAD, "prefetcher": "ebcp", "records": RECORDS, "seed": 7}
        batch = [
            _PendingRequest(name, SimulateParams.from_dict({**base, **extra}), future=None)
            for name, extra in (("good", {}), ("bad", bad))
        ]
        try:
            good, failed = service._run_batch(batch)
        finally:
            service.pool.shutdown()
        result, cached = good
        assert cached is False and result.snapshot()["stats"]["instructions"] > 0
        assert isinstance(failed, SpecError) and failed.path == path

    @staticmethod
    def _good_and_bad(policy):
        """Run a batch of a good job (seed 7) and one labelled ``bad``."""
        service = SimulationService(ServiceConfig(port=0), policy=policy)
        timed_out = []
        service.bus.subscribe(JobTimedOut, timed_out.append)
        base = {"workload": "tpcw", "prefetcher": "ebcp", "records": 2_000}
        batch = [
            _PendingRequest(name, SimulateParams.from_dict({**base, **extra}), future=None)
            for name, extra in (("good", {"seed": 7}), ("bad", {"seed": 8, "label": "bad"}))
        ]
        start = time.monotonic()
        try:
            good, failed = service._run_batch(batch)
        finally:
            service.pool.shutdown()
        elapsed = time.monotonic() - start
        local = JobSpec(
            workload="tpcw",
            records=2_000,
            seed=7,
            config=ProcessorConfig.scaled(),
            prefetcher=build_prefetcher("ebcp"),
            label="ebcp",
        ).run()
        result, cached = good
        assert cached is False
        assert result.snapshot() == local.snapshot()
        return failed, elapsed, timed_out

    def test_run_time_failure_fails_only_its_job(self, tmp_path):
        """A job that raises inside ``execute`` fails its own request only;
        its batch-mate still gets the result it computed."""
        faults = FaultSpec(crash="bad:99", state_dir=str(tmp_path))
        policy = ExecutionPolicy(jobs=1, retries=0, fault_spec=faults)
        failed, _elapsed, _timed_out = self._good_and_bad(policy)
        assert isinstance(failed, WorkerCrashError)

    def test_pooled_timeout_fails_only_its_job(self, tmp_path, monkeypatch):
        """A pooled job past the timeout fails alone, within the bound: its
        pool is killed once and the batch-mate keeps its pooled result."""
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        faults = FaultSpec(hang="bad:1:60", state_dir=str(tmp_path))
        policy = ExecutionPolicy(jobs=2, retries=0, timeout_s=3.0, fault_spec=faults)
        failed, elapsed, timed_out = self._good_and_bad(policy)
        assert isinstance(failed, TimeoutError)
        assert [event.label for event in timed_out] == ["bad"]
        assert elapsed < 30.0  # the hang is 60 s; nothing waited it out

    def test_pooled_crash_fails_only_its_job(self, tmp_path, monkeypatch):
        """A job whose worker dies on every attempt fails alone; a
        batch-mate caught in the broken pool is replayed, not failed."""
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        faults = FaultSpec(crash="bad:99", state_dir=str(tmp_path))
        policy = ExecutionPolicy(jobs=2, retries=1, backoff_s=0.0, fault_spec=faults)
        failed, _elapsed, _timed_out = self._good_and_bad(policy)
        assert isinstance(failed, WorkerCrashError)


class TestBackpressure:
    def test_queue_saturation_answers_queue_full(self):
        config = ServiceConfig(port=0, queue_size=1, max_batch=1, batch_window_s=0.001)
        with BackgroundService(config, policy=POLICY) as svc:
            hold_dispatch(svc)
            # req1: dequeued into the held batch; req2: fills the queue.
            sock1 = socket.create_connection(svc.address, timeout=60.0)
            sock1.sendall(simulate_frame("r1"))
            time.sleep(0.3)  # batcher takes r1, parks at the gate
            sock2 = socket.create_connection(svc.address, timeout=60.0)
            sock2.sendall(simulate_frame("r2"))
            time.sleep(0.2)
            try:
                # req3 bounces immediately with the backpressure hint.
                frame = raw_roundtrip(svc.address, simulate_frame("r3"))
                assert frame["ok"] is False
                assert frame["error"]["code"] == "queue_full"
                assert frame["error"]["retry_after_s"] > 0
                assert svc.service.registry["queue_saturated"].value >= 1
                # Release: both held requests still complete, in order.
                svc.service.release_dispatch_threadsafe()
                for sock, rid in ((sock1, "r1"), (sock2, "r2")):
                    with sock.makefile("rb") as rfile:
                        response = json.loads(rfile.readline())
                    assert response["ok"] is True
                    assert response["id"] == rid
                    assert response["result"]["stats"]["instructions"] > 0
            finally:
                sock1.close()
                sock2.close()

    def test_sync_client_retries_after_busy(self):
        """ServiceBusyError is retried honouring retry_after_s."""
        config = ServiceConfig(port=0, queue_size=1, max_batch=1, batch_window_s=0.001)
        with BackgroundService(config, policy=POLICY) as svc:
            hold_dispatch(svc)
            sock1 = socket.create_connection(svc.address, timeout=60.0)
            sock1.sendall(simulate_frame("r1"))
            time.sleep(0.3)
            sock2 = socket.create_connection(svc.address, timeout=60.0)
            sock2.sendall(simulate_frame("r2"))
            time.sleep(0.2)
            try:
                # No retry budget: the saturation surfaces as the typed error.
                with ServiceClient(*svc.address, retries=0) as impatient:
                    with pytest.raises(ServiceBusyError) as excinfo:
                        impatient.simulate(WORKLOAD, "none", records=RECORDS)
                    assert excinfo.value.retry_after_s > 0
                # With budget: a timer releases the gate; the retry lands.
                timer = threading.Timer(
                    0.5, svc.service.release_dispatch_threadsafe
                )
                timer.start()
                try:
                    with ServiceClient(
                        *svc.address, retries=5, backoff_s=0.2
                    ) as patient:
                        served = patient.simulate(WORKLOAD, "none", records=RECORDS)
                    assert served.result.stats.instructions > 0
                finally:
                    timer.join()
                sock1.close()
                sock2.close()
                sock1 = sock2 = None
            finally:
                if sock1 is not None:
                    sock1.close()
                if sock2 is not None:
                    sock2.close()

    def test_client_retries_after_timeout(self):
        """A timed-out attempt reconnects and retries; the retry succeeds."""
        config = ServiceConfig(port=0, max_batch=1, batch_window_s=0.001)
        with BackgroundService(config, policy=POLICY) as svc:
            hold_dispatch(svc)
            # Unfreeze after the client's first attempt has timed out.
            timer = threading.Timer(0.8, svc.service.release_dispatch_threadsafe)
            timer.start()
            try:
                with ServiceClient(
                    *svc.address, timeout_s=0.5, retries=3, backoff_s=0.2
                ) as client:
                    served = client.simulate(WORKLOAD, "none", records=RECORDS)
                assert served.result.stats.instructions > 0
                # The held first attempt really did hit the server too.
                assert svc.service.registry["requests.simulate"].value >= 2
            finally:
                timer.join()

    def test_from_policy_mirrors_execution_policy(self):
        policy = ExecutionPolicy(timeout_s=12.0, retries=4, backoff_s=1.5)
        client = ServiceClient.from_policy("127.0.0.1", 7421, policy)
        assert client.timeout_s == 12.0
        assert client.retries == 4
        assert client.backoff_s == 1.5


class TestDrain:
    def test_shutdown_completes_in_flight_requests(self):
        config = ServiceConfig(port=0, max_batch=1, batch_window_s=0.001)
        svc = BackgroundService(config, policy=POLICY).start()
        hold_dispatch(svc)
        sock1 = socket.create_connection(svc.address, timeout=60.0)
        try:
            sock1.sendall(simulate_frame("inflight"))
            time.sleep(0.3)  # admitted and parked at the held gate

            with ServiceClient(*svc.address, retries=0) as admin:
                assert admin.shutdown() == {"draining": True}
                # Draining: new simulate admissions are refused...
                with pytest.raises(ServiceError) as excinfo:
                    admin.simulate(WORKLOAD, "none", records=RECORDS)
                assert excinfo.value.code is ErrorCode.SHUTTING_DOWN

            # ...but the in-flight request still completes and is delivered.
            svc.service.release_dispatch_threadsafe()
            with sock1.makefile("rb") as rfile:
                response = json.loads(rfile.readline())
            assert response["ok"] is True
            assert response["id"] == "inflight"
            assert response["result"]["stats"]["instructions"] > 0
        finally:
            sock1.close()
        # The service thread exits on its own once drained.
        svc._thread.join(30.0)
        assert not svc._thread.is_alive()

    def test_sigterm_equivalent_drains_cleanly(self, service):
        # begin_drain is exactly what the SIGTERM handler invokes.
        service.service.begin_drain_threadsafe()
        service._thread.join(30.0)
        assert not service._thread.is_alive()
        assert service.service.draining is True


class TestProtocolUnits:
    def test_encode_decode_roundtrip(self):
        payload = {"v": 1, "id": "a", "type": "ping"}
        assert protocol.decode_frame(protocol.encode_frame(payload)) == payload

    def test_parse_request_requires_string_id(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_request(
                protocol.encode_frame({"v": 1, "id": 7, "type": "ping"})
            )
        assert excinfo.value.code is ErrorCode.MALFORMED_FRAME

    def test_raise_for_error_maps_queue_full(self):
        frame = protocol.error_response(
            "x", ErrorCode.QUEUE_FULL, "busy", retry_after_s=0.25
        )
        with pytest.raises(ServiceBusyError) as excinfo:
            protocol.raise_for_error(frame)
        assert excinfo.value.retry_after_s == 0.25

    def test_raise_for_error_passes_ok_frames(self):
        frame = protocol.ok_response("x", {"pong": True})
        assert protocol.raise_for_error(frame) is frame

    def test_simulate_params_validation(self):
        from repro.service.protocol import SimulateParams

        with pytest.raises(ProtocolError):
            SimulateParams(workload="db", records=0)
        with pytest.raises(ProtocolError, match="non-negative"):
            SimulateParams(workload="db", seed=-1)
        with pytest.raises(ProtocolError):
            SimulateParams(workload="")
        with pytest.raises(ProtocolError):
            SimulateParams.from_dict({"workload": "db", "bogus": 1})
        round_tripped = SimulateParams.from_dict(
            SimulateParams(workload="db", warmup_records=100).to_dict()
        )
        assert round_tripped.warmup_records == 100
