"""Tests for end-to-end request tracing and telemetry propagation.

The tentpole contract: a traced served ``simulate`` yields **one
connected span tree** — client send, server handling, admission wait,
micro-batch dispatch, cache lookup and worker-side simulation all share
the client's trace_id, with every parent_id resolvable — and the Chrome
export loads as a single coherent timeline.  Tracing is pure
observability: served results stay bit-identical with it on.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.engine.config import ProcessorConfig
from repro.engine.filter_plane import kernel_enabled
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    SpanRecorder,
    TelemetrySink,
    TraceContext,
    chrome_trace_from_spans,
    write_chrome_trace,
)
from repro.parallel.jobs import JobSpec
from repro.prefetchers.registry import build_prefetcher
from repro.resilience.executor import execute
from repro.resilience.policy import ExecutionPolicy
from repro.service import BackgroundService, ServiceClient, ServiceConfig

RECORDS = 8_000
WORKLOAD = "pointer_chase"
POLICY = ExecutionPolicy(jobs=1)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_new_and_child_share_trace_id(self):
        root = TraceContext.new()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id

    def test_wire_round_trip(self):
        ctx = TraceContext.new()
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    @pytest.mark.parametrize(
        "payload",
        [None, 42, "nope", {}, {"trace_id": "a"}, {"trace_id": "", "span_id": "b"},
         {"trace_id": 1, "span_id": "b"}],
    )
    def test_from_wire_is_forgiving(self, payload):
        assert TraceContext.from_wire(payload) is None


class TestSpanRecorder:
    def test_nested_spans_link_parent_ids(self):
        recorder = SpanRecorder("test")
        with recorder.span("outer") as outer:
            with recorder.span("inner", parent=outer.context):
                pass
        inner, outer_span = recorder.spans  # inner closes first
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer_span["span_id"]
        assert inner["trace_id"] == outer_span["trace_id"]
        assert outer_span["parent_id"] is None

    def test_exception_is_recorded_and_propagates(self):
        recorder = SpanRecorder("test")
        with pytest.raises(RuntimeError):
            with recorder.span("boom"):
                raise RuntimeError("bad")
        assert recorder.spans[0]["args"]["error"] == "RuntimeError"

    def test_record_manual(self):
        recorder = SpanRecorder("test")
        ctx = TraceContext.new()
        recorder.record_manual("wait", ctx, ts_us=100, dur_us=50, request_id="r1")
        span = recorder.spans[0]
        assert span["parent_id"] == ctx.span_id
        assert span["dur_us"] == 50
        assert span["args"]["request_id"] == "r1"

    def test_drain_empties(self):
        recorder = SpanRecorder("test")
        with recorder.span("a"):
            pass
        assert len(recorder.drain()) == 1
        assert recorder.spans == []


class TestChromeExport:
    def test_events_are_zero_shifted_with_process_metadata(self):
        recorder = SpanRecorder("roleA")
        with recorder.span("one"):
            pass
        doc = chrome_trace_from_spans(recorder.spans)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert slices[0]["ts"] == 0
        assert slices[0]["dur"] >= 1
        assert slices[0]["args"]["trace_id"]
        assert meta[0]["args"]["name"] == "roleA"

    def test_write_round_trips_as_json(self, tmp_path):
        recorder = SpanRecorder("x")
        with recorder.span("a"):
            pass
        path = write_chrome_trace(recorder.spans, tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestTelemetrySink:
    def test_absorb_merges_with_label_prefix(self):
        registry = MetricsRegistry()
        recorder = SpanRecorder("parent")
        sink = TelemetrySink(registry=registry, recorder=recorder)
        worker = MetricsRegistry()
        worker.counter("epochs_closed").inc(3)
        sink.absorb([{"name": "job", "trace_id": "t", "span_id": "s",
                      "parent_id": None, "ts_us": 0, "dur_us": 1, "pid": 1,
                      "process": "worker", "args": {}}],
                    worker.to_dict(), label="ebcp")
        assert registry["ebcp.epochs_closed"].value == 3
        assert recorder.spans[0]["name"] == "job"

    def test_metrics_only_sink(self):
        sink = TelemetrySink(registry=MetricsRegistry())
        assert sink.collects_metrics
        sink.absorb(None, {"c": {"type": "counter", "value": 1}}, label="x")
        assert sink.registry["x.c"].value == 1


# ----------------------------------------------------------------------
# Executor propagation
# ----------------------------------------------------------------------
def _spec(seed: int, prefetcher: str = "none") -> JobSpec:
    return JobSpec(
        workload=WORKLOAD,
        records=4_000,
        seed=seed,
        config=ProcessorConfig.scaled(),
        prefetcher=None if prefetcher == "none" else build_prefetcher(prefetcher),
        label=prefetcher,
    )


class TestExecutorPropagation:
    def test_in_process_jobs_join_the_trace(self):
        recorder = SpanRecorder("parent")
        sink = TelemetrySink(registry=MetricsRegistry(), recorder=recorder)
        root = TraceContext.new()
        execute([_spec(1), _spec(2)], POLICY, trace=root, telemetry=sink)
        names = [s["name"] for s in recorder.spans]
        assert names.count("job:none") == 2
        assert "execute" in names
        assert {s["trace_id"] for s in recorder.spans} == {root.trace_id}
        # job spans parent to the execute span
        exec_span = next(s for s in recorder.spans if s["name"] == "execute")
        for span in recorder.spans:
            if span["name"].startswith("job:"):
                assert span["parent_id"] == exec_span["span_id"]

    def test_pooled_workers_ship_spans_across_pickle_boundary(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        recorder = SpanRecorder("parent")
        sink = TelemetrySink(registry=MetricsRegistry(), recorder=recorder)
        root = TraceContext.new()
        results = execute(
            [_spec(1), _spec(2)],
            ExecutionPolicy(jobs=2),
            trace=root,
            telemetry=sink,
        )
        assert len(results) == 2
        job_spans = [s for s in recorder.spans if s["name"].startswith("job:")]
        assert len(job_spans) == 2
        assert {s["trace_id"] for s in job_spans} == {root.trace_id}
        import os

        # The spans were recorded in pool workers, not this process.
        assert all(s["pid"] != os.getpid() for s in job_spans)
        assert all(s["process"] == "worker" for s in job_spans)

    def test_escaping_error_is_recorded_on_the_execute_span(self):
        recorder = SpanRecorder("parent")
        sink = TelemetrySink(recorder=recorder)
        bad = _spec(1)
        bad.workload = "no-such-workload"
        with pytest.raises(KeyError):
            execute([bad], POLICY.replace(retries=0), trace=TraceContext.new(), telemetry=sink)
        [exec_span] = [s for s in recorder.spans if s["name"] == "execute"]
        assert exec_span["args"]["error"] == "KeyError"

    def test_worker_metrics_merge_per_label(self):
        sink = TelemetrySink(registry=MetricsRegistry())
        execute([_spec(1, "ebcp"), _spec(2, "none")], POLICY, telemetry=sink)
        snapshot = sink.registry.to_dict()
        assert snapshot["ebcp.epochs_closed"]["value"] > 0
        assert snapshot["none.epochs_closed"]["value"] > 0

    def test_untraced_execute_is_unchanged(self):
        results = execute([_spec(1)], POLICY)
        assert len(results) == 1

    def test_tracing_does_not_perturb_results(self):
        plain = execute([_spec(5, "ebcp")], POLICY)[0]
        sink = TelemetrySink(registry=MetricsRegistry(),
                             recorder=SpanRecorder("parent"))
        traced = execute(
            [_spec(5, "ebcp")], POLICY, trace=TraceContext.new(), telemetry=sink
        )[0]
        assert traced.snapshot() == plain.snapshot()


# ----------------------------------------------------------------------
# Served end-to-end
# ----------------------------------------------------------------------
@pytest.fixture
def service():
    with BackgroundService(ServiceConfig(port=0), policy=POLICY) as svc:
        yield svc


class TestServedTracePropagation:
    def test_served_simulate_produces_one_connected_span_tree(self, service, tmp_path):
        recorder = SpanRecorder("client")
        with ServiceClient(*service.address, timeout_s=120.0, retries=0,
                           recorder=recorder) as client:
            served = client.simulate(WORKLOAD, "ebcp", records=RECORDS)
        assert served.cached is False

        client_spans = recorder.spans
        server_spans = service.service.recorder.spans
        everything = client_spans + server_spans

        # One trace across client, server and worker roles.
        trace_ids = {s["trace_id"] for s in everything}
        assert len(trace_ids) == 1
        roles = {s["process"] for s in everything}
        assert {"client", "server", "worker"} <= roles

        # The tree covers the request's whole journey...
        names = {s["name"] for s in everything}
        assert {"client:simulate", "server:simulate", "admission", "batch",
                "execute", "cache:lookup"} <= names
        assert any(n.startswith("job:") for n in names)

        # ...and is *connected*: every non-root parent_id resolves.
        by_id = {s["span_id"]: s for s in everything}
        roots = [s for s in everything if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["client:simulate"]
        for span in everything:
            if span["parent_id"] is not None:
                assert span["parent_id"] in by_id, (
                    f"span {span['name']} has an unresolvable parent"
                )

        # The worker's job span covers building its inputs, as a child.
        (job,) = [s for s in everything if s["name"].startswith("job:")]
        (inputs,) = [s for s in everything if s["name"] == "inputs"]
        assert inputs["parent_id"] == job["span_id"]
        assert job["ts_us"] <= inputs["ts_us"]
        assert inputs["ts_us"] + inputs["dur_us"] <= job["ts_us"] + job["dur_us"]

        # The Chrome export loads as one timeline over every role.
        path = write_chrome_trace(everything, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(everything)
        assert {e["args"]["trace_id"] for e in slices} == trace_ids
        assert min(e["ts"] for e in slices) == 0

    def test_traced_result_is_bit_identical(self, service):
        recorder = SpanRecorder("client")
        with ServiceClient(*service.address, timeout_s=120.0, retries=0,
                           recorder=recorder) as client:
            served = client.simulate(WORKLOAD, "ebcp", records=RECORDS)
        local = JobSpec(
            workload=WORKLOAD,
            records=RECORDS,
            seed=7,
            config=ProcessorConfig.scaled(),
            prefetcher=build_prefetcher("ebcp"),
            label="ebcp",
        ).run()
        assert dataclasses.asdict(served.result.stats) == dataclasses.asdict(local.stats)
        assert served.result.snapshot() == local.snapshot()

    def test_untraced_client_yields_no_server_spans(self, service):
        with ServiceClient(*service.address, timeout_s=120.0, retries=0) as client:
            client.simulate(WORKLOAD, "none", records=RECORDS)
        assert service.service.recorder.spans == []

    def test_cache_hit_trace_has_no_job_span(self, service):
        recorder = SpanRecorder("client")
        with ServiceClient(*service.address, timeout_s=120.0, retries=0,
                           recorder=recorder) as client:
            client.simulate(WORKLOAD, "none", records=RECORDS)
            second = client.simulate(WORKLOAD, "none", records=RECORDS)
        assert second.cached is True
        second_trace = recorder.spans[-1]["trace_id"]
        hit_spans = [s for s in service.service.recorder.spans
                     if s["trace_id"] == second_trace]
        hit_names = {s["name"] for s in hit_spans}
        assert "cache:lookup" in hit_names
        assert not any(n.startswith("job:") for n in hit_names)

    def test_worker_metrics_aggregate_into_stats(self, service):
        with ServiceClient(*service.address, timeout_s=120.0, retries=0) as client:
            client.simulate(WORKLOAD, "ebcp", records=RECORDS)
            stats = client.stats()
        sim = stats["simulation"]
        assert sim["ebcp.epochs_closed"]["value"] > 0
        assert sim["ebcp.epoch_mlp"]["type"] == "histogram"
        # Collecting worker metrics no longer costs the served job the
        # kernel: no run falls back for its bus (REPRO_KERNEL=off still
        # falls back, as "disabled").
        assert "ebcp.kernel_fallbacks.bus_attached" not in sim
        fallbacks = sim["ebcp.kernel_fallbacks"]["value"]
        if kernel_enabled():
            assert fallbacks == 0
        else:
            assert sim["ebcp.kernel_fallbacks.disabled"]["value"] == fallbacks
        latency = stats["latency_ms"]
        assert latency["count"] >= 1
        assert latency["p99"] >= latency["p50"] >= 0.0

    def test_metrics_request_returns_prometheus_text(self, service):
        with ServiceClient(*service.address, timeout_s=120.0, retries=0) as client:
            client.simulate(WORKLOAD, "ebcp", records=RECORDS)
            text = client.metrics()
        assert "# TYPE repro_requests_received counter" in text
        assert "repro_ebcp_epochs_closed" in text
        assert 'repro_request_latency_ms_bucket{le="+Inf"}' in text
        # Parser-less smoke: every non-comment line is "name[{labels}] value".
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            float(value)  # must parse as a number


class TestProtocolCompat:
    def test_v1_client_without_trace_is_served(self, service):
        """An old client speaking protocol v1 (no trace field) still works."""
        import socket

        from repro.service import protocol

        frame = protocol.encode_frame({
            "v": 1,
            "id": "legacy-1",
            "type": "simulate",
            "params": {"workload": WORKLOAD, "prefetcher": "none",
                       "records": RECORDS, "seed": 7},
        })
        with socket.create_connection(service.address, timeout=120.0) as sock:
            sock.sendall(frame)
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                reply += chunk
        response = json.loads(reply)
        assert response["ok"] is True
        assert response["id"] == "legacy-1"

    def test_v1_frame_parses_without_trace(self):
        from repro.service import protocol

        request = protocol.parse_request(
            b'{"v": 1, "id": "x", "type": "ping"}\n'
        )
        assert request.trace is None
        assert request.version == 1

    def test_malformed_trace_is_dropped_not_fatal(self):
        from repro.service import protocol

        request = protocol.parse_request(
            b'{"v": 2, "id": "x", "type": "ping", "trace": "garbage"}\n'
        )
        assert request.trace is None
