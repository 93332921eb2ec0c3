"""Tests for the resident simulation service (happy paths).

The acceptance property is **identity**: a served ``simulate`` must
return bit-identical :class:`SimulationStats` to running the same
:class:`JobSpec` locally — the service is warm infrastructure, never a
different simulator.  Failure paths (malformed frames, saturation,
drain) live in ``test_service_failures.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.cli import _render_top
from repro.engine.config import ProcessorConfig
from repro.engine.simulator import MODEL_VERSION
from repro.engine.stats import SimulationResult
from repro.parallel.jobs import JobSpec, job_identity
from repro.prefetchers.registry import build_prefetcher
from repro.resilience.policy import ExecutionPolicy
from repro.service import (
    AsyncServiceClient,
    BackgroundService,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    ShardedService,
)
from repro.workloads.commercial import GENERATOR_VERSION

RECORDS = 8_000
WORKLOAD = "pointer_chase"

#: In-process execution (jobs=1) keeps these tests fast; identity holds
#: at any job count because execute() is bit-identical across paths.
POLICY = ExecutionPolicy(jobs=1)


def local_run(workload: str, prefetcher: str, records: int = RECORDS, seed: int = 7,
              warmup_records=None) -> SimulationResult:
    """The reference result: exactly the CLI/sweep JobSpec path."""
    return JobSpec(
        workload=workload,
        records=records,
        seed=seed,
        config=ProcessorConfig.scaled(),
        prefetcher=None if prefetcher == "none" else build_prefetcher(prefetcher),
        label=prefetcher,
        warmup_records=warmup_records,
    ).run()


@pytest.fixture
def service():
    with BackgroundService(ServiceConfig(port=0), policy=POLICY) as svc:
        yield svc


@pytest.fixture
def client(service):
    with ServiceClient(*service.address, timeout_s=120.0, retries=0) as c:
        yield c


class TestRoundTrip:
    def test_ping(self, client):
        from repro import __version__
        from repro.service import PROTOCOL_VERSION, SUPPORTED_VERSIONS

        payload = client.ping()
        assert payload["pong"] is True
        assert payload["version"] == __version__
        assert payload["protocol"] == PROTOCOL_VERSION
        assert payload["supported_versions"] == list(SUPPORTED_VERSIONS)

    def test_served_simulate_is_bit_identical(self, client):
        served = client.simulate(WORKLOAD, "ebcp", records=RECORDS)
        local = local_run(WORKLOAD, "ebcp")
        assert served.cached is False
        # Field-for-field on the raw counters — not approx, identical.
        assert dataclasses.asdict(served.result.stats) == dataclasses.asdict(local.stats)
        assert served.result.snapshot() == local.snapshot()
        assert served.result.cpi == local.cpi

    def test_served_baseline_is_bit_identical(self, client):
        served = client.simulate(WORKLOAD, "none", records=RECORDS)
        local = local_run(WORKLOAD, "none")
        assert served.result.snapshot() == local.snapshot()

    def test_warmup_split_round_trips(self, client):
        served = client.simulate(WORKLOAD, "ebcp", records=RECORDS, warmup_records=2_000)
        local = local_run(WORKLOAD, "ebcp", warmup_records=2_000)
        assert served.result.snapshot() == local.snapshot()


class TestResultCache:
    def test_repeat_is_cached_and_identical(self, client):
        first = client.simulate(WORKLOAD, "ebcp", records=RECORDS)
        second = client.simulate(WORKLOAD, "ebcp", records=RECORDS)
        assert first.cached is False
        assert second.cached is True
        assert second.result.snapshot() == first.result.snapshot()

    def test_extended_spelling_shares_the_plain_entry(self, client):
        plain = client.simulate(WORKLOAD, "ebcp", records=RECORDS)
        # The same job with the default config spelled out (a v4 field).
        spelled = client._request(
            "simulate",
            {
                "workload": WORKLOAD,
                "prefetcher": "ebcp",
                "records": RECORDS,
                "seed": 7,
                "config": {"base": "scaled"},
            },
        )
        assert plain.cached is False
        assert spelled["cached"] is True
        assert spelled["result"] == plain.result.snapshot()

    def test_no_cache_forces_rerun(self, client):
        client.simulate(WORKLOAD, "none", records=RECORDS)
        again = client.simulate(WORKLOAD, "none", records=RECORDS, use_cache=False)
        assert again.cached is False

    def test_different_seed_is_a_different_entry(self, client):
        client.simulate(WORKLOAD, "none", records=RECORDS, seed=7)
        b = client.simulate(WORKLOAD, "none", records=RECORDS, seed=8)
        # Different seed -> different trace fingerprint -> cache miss,
        # even though the pointer-chase *stats* happen to coincide.
        assert b.cached is False
        assert client.stats()["cache"]["entries"] == 2

    def test_cache_hits_show_in_stats(self, client):
        client.simulate(WORKLOAD, "none", records=RECORDS)
        client.simulate(WORKLOAD, "none", records=RECORDS)
        stats = client.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["entries"] >= 1

    def test_unit_lru_eviction(self):
        cache = ResultCache(max_entries=1)
        result = local_run(WORKLOAD, "none", records=4_000)
        k1 = job_identity(WORKLOAD, 4_000, 1, 1.0, 0, None, ("c",), "none", "")
        k2 = job_identity(WORKLOAD, 4_000, 2, 1.0, 0, None, ("c",), "none", "")
        cache.put(k1, result)
        cache.put(k2, result)
        assert cache.get(k1) is None  # evicted
        hit = cache.get(k2)
        assert hit is not None and hit.snapshot() == result.snapshot()
        # Hits rehydrate fresh objects, never the cached copy itself.
        assert cache.get(k2) is not hit


class TestStats:
    def test_stats_payload_shape(self, client):
        client.simulate(WORKLOAD, "none", records=RECORDS)
        stats = client.stats()
        assert stats["queue"]["limit"] == 64
        assert stats["pool"]["workers"] >= 1
        assert stats["draining"] is False
        metrics = stats["metrics"]
        assert metrics["requests_received"]["value"] >= 2  # simulate + stats
        assert metrics["result_cache_misses"]["value"] >= 1
        assert "request_latency_ms" in metrics
        assert "service_queue_depth" in metrics


class TestVersions:
    """Which model and generator serve, on every existing surface."""

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_ping_stats_metrics_and_top_carry_the_versions(self, kind):
        if kind == "single":
            svc = BackgroundService(ServiceConfig(port=0), policy=POLICY)
        else:
            svc = BackgroundService(
                service=ShardedService(
                    config=ServiceConfig(port=0), policy=POLICY, workers=2
                ),
                start_timeout_s=120.0,
            )
        with svc, ServiceClient(*svc.address, timeout_s=120.0, retries=0) as client:
            ping = client.ping()
            stats = client.stats()
            text = client.metrics()
        for payload in (ping, stats):
            assert payload["model_version"] == MODEL_VERSION
            assert payload["generator_version"] == GENERATOR_VERSION
        samples = dict(
            line.rsplit(" ", 1) for line in text.splitlines() if not line.startswith("#")
        )
        assert float(samples["repro_model_version"]) == MODEL_VERSION
        assert float(samples["repro_generator_version"]) == GENERATOR_VERSION
        header = _render_top(stats, 0.0).splitlines()[1]
        assert f"model v{MODEL_VERSION}" in header
        assert f"generator v{GENERATOR_VERSION}" in header


class TestMicroBatching:
    def test_concurrent_requests_coalesce(self):
        """Concurrent async simulates land in one executor micro-batch."""
        config = ServiceConfig(port=0, max_batch=8, batch_window_s=0.25)
        with BackgroundService(config, policy=POLICY) as svc:
            host, port = svc.address
            client = AsyncServiceClient(host, port, timeout_s=120.0, retries=0)

            async def fan_out():
                return await asyncio.gather(
                    *(client.simulate(WORKLOAD, "none", records=RECORDS, seed=s)
                      for s in (21, 22, 23))
                )

            served = asyncio.run(fan_out())
            assert all(s.cached is False for s in served)
            for s, seed in zip(served, (21, 22, 23)):
                assert s.result.snapshot() == local_run(
                    WORKLOAD, "none", seed=seed
                ).snapshot()
            batched = svc.service.registry["batch_size"].to_dict()
            assert batched["max"] >= 2

    def test_duplicate_requests_share_one_simulation(self):
        """Identical concurrent requests dedupe into a single job."""
        config = ServiceConfig(port=0, max_batch=8, batch_window_s=0.25)
        with BackgroundService(config, policy=POLICY) as svc:
            host, port = svc.address
            client = AsyncServiceClient(host, port, timeout_s=120.0, retries=0)

            async def fan_out():
                return await asyncio.gather(
                    *(client.simulate(WORKLOAD, "none", records=RECORDS, seed=31)
                      for _ in range(3))
                )

            served = asyncio.run(fan_out())
            snapshots = [s.result.snapshot() for s in served]
            assert snapshots[0] == snapshots[1] == snapshots[2]

    @pytest.mark.parametrize("field", ["queue_size", "max_batch"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_queue_or_batch_is_refused(self, field, value):
        """A zero-capacity queue is unbounded to asyncio (backpressure
        would silently turn off), and a batch holds at least one request."""
        with pytest.raises(ValueError, match=field):
            ServiceConfig(port=0, **{field: value})


class TestApiFacade:
    def test_service_names_are_exported(self):
        from repro import api

        for name in ("ServiceClient", "AsyncServiceClient", "ServedResult",
                     "ServiceConfig", "SimulationService", "ServiceError",
                     "ServiceBusyError"):
            assert name in api.__all__
            assert hasattr(api, name)
