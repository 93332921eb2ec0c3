"""Declarative sweep specs: schema, round-trip, expansion, execution.

Four layers, mirroring the redesign's promises:

* **Schema** — every malformed field raises a typed :class:`SpecError`
  whose ``path`` locates the offending key.
* **Round-trip** — every committed ``specs/*.toml`` file survives
  ``dump -> loads`` with an identical spec and fingerprint.
* **Expansion** — the grid lowers to jobs with baselines deduplicated
  per (workload, seed) cell and candidates wired to them by index.
* **Execution** — ``run_spec`` runs a spec locally, and a spec
  submitted to a (sharded) service streams back the same results field
  for field.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine.config import ProcessorConfig
from repro.engine.filter_plane import get_filter_plane
from repro.obs import EventBus
from repro.obs.events import TraceCacheWarmed
from repro.parallel.jobs import JobSpec, warm_trace_cache
from repro.resilience.policy import ExecutionPolicy
from repro.service import BackgroundService, ServiceConfig, ShardedService
from repro.spec import (
    SPEC_VERSION,
    SpecError,
    SpecVersionError,
    SweepSpec,
    dumps_spec,
    expand,
    load_spec,
    loads_spec,
    run_spec,
    submit_spec,
)
from repro.workloads.registry import _cached_commercial

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"
POLICY = ExecutionPolicy(jobs=1)
RECORDS = 8_000


def minimal(**overrides) -> dict:
    """A small valid spec document; tests mutate one field at a time."""
    payload = {
        "version": SPEC_VERSION,
        "name": "t",
        "workloads": ["pointer_chase"],
        "grid": {"records": RECORDS, "seeds": [7]},
        "prefetchers": [
            {"name": "ebcp", "label": "d4", "overrides": {"prefetch_degree": 4}},
        ],
    }
    payload.update(overrides)
    return payload


def spec_of(**overrides) -> SweepSpec:
    return SweepSpec.from_dict(minimal(**overrides))


class TestSchemaErrors:
    """Every invalid field raises SpecError with a locating path."""

    def error(self, **overrides) -> SpecError:
        with pytest.raises(SpecError) as excinfo:
            SweepSpec.from_dict(minimal(**overrides))
        return excinfo.value

    def test_version_missing(self):
        payload = minimal()
        del payload["version"]
        with pytest.raises(SpecError) as excinfo:
            SweepSpec.from_dict(payload)
        assert excinfo.value.path == "version"

    def test_version_unsupported(self):
        with pytest.raises(SpecVersionError) as excinfo:
            SweepSpec.from_dict(minimal(version=SPEC_VERSION + 1))
        assert excinfo.value.found == SPEC_VERSION + 1
        assert "version" in str(excinfo.value)

    def test_version_wrong_type(self):
        with pytest.raises(SpecVersionError):
            SweepSpec.from_dict(minimal(version="1"))

    def test_unknown_top_level_key(self):
        err = self.error(bogus=1)
        assert "bogus" in err.message

    def test_unknown_workload(self):
        err = self.error(workloads=["pointer_chase", "no_such_workload"])
        assert err.path == "workloads[1]"
        assert "unknown workload" in err.message

    def test_duplicate_workload(self):
        err = self.error(workloads=["pointer_chase", "pointer_chase"])
        assert err.path == "workloads[1]"

    def test_unknown_prefetcher(self):
        err = self.error(prefetchers=[{"name": "warp_drive"}])
        assert err.path == "prefetchers[0].name"

    def test_duplicate_prefetcher_labels(self):
        err = self.error(
            prefetchers=[{"name": "ebcp", "label": "x"}, {"name": "stream", "label": "x"}]
        )
        assert err.path == "prefetchers"

    def test_prefetcher_override_table_rejected(self):
        err = self.error(
            prefetchers=[{"name": "ebcp", "overrides": {"prefetch_degree": {"a": 1}}}]
        )
        assert err.path.startswith("prefetchers[0].overrides")

    def test_config_override_rejected_by_processor_config(self):
        err = self.error(configs=[{"label": "x", "overrides": {"warp_factor": 9}}])
        assert err.path.startswith("configs[0].overrides")

    def test_grid_records_below_minimum(self):
        err = self.error(grid={"records": 0, "seeds": [7]})
        assert err.path.startswith("grid")

    def test_grid_duplicate_seeds(self):
        err = self.error(grid={"records": RECORDS, "seeds": [7, 7]})
        assert err.path == "grid.seeds"

    def test_grid_nonpositive_scale(self):
        err = self.error(grid={"records": RECORDS, "seeds": [7], "scale": 0})
        assert err.path == "grid.scale"

    def test_execution_nonpositive_timeout(self):
        err = self.error(execution={"timeout_s": 0})
        assert err.path == "execution.timeout_s"

    @pytest.mark.parametrize("field", ["compressed", "kernel"])
    def test_execution_mode_fields_rejected(self, field):
        err = self.error(execution={field: False})
        assert err.path == f"execution.{field}"

    def test_empty_sweep_rejected(self):
        err = self.error(prefetchers=[], output={"baseline": False})
        assert err.path == "prefetchers"

    def test_explicit_none_prefetcher_rejected(self):
        err = self.error(
            prefetchers=[{"name": "ebcp"}, {"name": "none", "label": "base"}]
        )
        assert err.path == "prefetchers[1].name"

    def test_loader_rejects_bad_toml(self):
        with pytest.raises(SpecError) as excinfo:
            loads_spec("version = ", fmt="toml")
        assert "invalid TOML" in excinfo.value.message

    def test_loader_rejects_unknown_format(self):
        with pytest.raises(SpecError):
            loads_spec("{}", fmt="yaml")


COMMITTED = sorted(SPEC_DIR.glob("*.toml"))


class TestRoundTrip:
    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_committed_specs_round_trip(self, path):
        spec = load_spec(path)
        again = loads_spec(dumps_spec(spec), fmt="json")
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_fingerprint_tracks_content(self):
        spec = spec_of()
        assert spec.fingerprint() == spec_of().fingerprint()
        changed = spec.with_grid(records=RECORDS + 1)
        assert changed.fingerprint() != spec.fingerprint()

    def test_fingerprint_covers_whole_document(self):
        # The fingerprint is a content address of the canonical form, so
        # even presentation-only changes produce a distinct identity.
        restyled = spec_of(output={"title": "Different", "x_label": "x"})
        assert restyled.fingerprint() != spec_of().fingerprint()


class TestExpansion:
    def test_baseline_dedup_per_cell(self):
        spec = SweepSpec.from_dict(
            minimal(
                grid={"records": RECORDS, "seeds": [3, 5]},
                prefetchers=[
                    {"name": "ebcp", "label": "d4", "overrides": {"prefetch_degree": 4}},
                    {"name": "ebcp", "label": "d8", "overrides": {"prefetch_degree": 8}},
                ],
            )
        )
        plan = expand(spec)
        # One baseline per (workload, seed) cell, shared by both candidates.
        assert plan.n_baselines == 2
        assert len(plan.jobs) == 2 + 2 * 2
        for meta in plan.meta:
            if meta.kind != "candidate":
                continue
            base = plan.meta[meta.baseline_index]
            assert base.kind == "baseline"
            assert (base.workload, base.seed) == (meta.workload, meta.seed)

    def test_meta_parallels_jobs(self):
        plan = expand(spec_of())
        assert len(plan.meta) == len(plan.jobs)
        for i, meta in enumerate(plan.meta):
            assert meta.index == i


class TestLocalRun:
    def test_run_spec_summary_shape(self):
        result = run_spec(spec_of(), policy=POLICY)
        summary = result.summary()
        assert summary["jobs"] == len(result) == 2
        assert summary["fingerprint"] == result.spec.fingerprint()
        (candidate,) = [p for p in summary["points"] if p["kind"] == "candidate"]
        assert "improvement" in candidate


class TestWarmRegistry:
    def test_sweep_warms_each_geometry_once(self, monkeypatch):
        """Across warm_trace_cache calls, a distinct trace warms exactly once."""
        monkeypatch.delenv("REPRO_KERNEL", raising=False)  # segments counted too
        _cached_commercial.cache_clear()
        bus = EventBus()
        warmed = []
        bus.subscribe(TraceCacheWarmed, warmed.append)
        # A commercial trace: synthetic ones are not memoised, so
        # nothing builds them ahead of their run.
        spec = spec_of(workloads=["tpcw"])
        warm_trace_cache(expand(spec).jobs, bus=bus)
        # The baseline and the candidate share one trace, plane and
        # segment geometry.
        assert [(e.traces, e.planes, e.segments) for e in warmed] == [(1, 1, 1)]
        warmed.clear()
        # Second warm of the same grid: the memos already hold everything.
        warm_trace_cache(expand(spec).jobs, bus=bus)
        assert warmed == []

    def test_rewarm_after_the_memo_is_cleared_builds_again(self, monkeypatch):
        """What a warm counts is what the memos hold, not what was once warmed."""
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        _cached_commercial.cache_clear()
        bus = EventBus()
        warmed = []
        bus.subscribe(TraceCacheWarmed, warmed.append)
        jobs = expand(spec_of(workloads=["tpcw"])).jobs
        warm_trace_cache(jobs, bus=bus)
        _cached_commercial.cache_clear()
        warm_trace_cache(jobs, bus=bus)
        assert [(e.traces, e.planes, e.segments) for e in warmed] == [(1, 1, 1)] * 2
        assert _cached_commercial.cache_info().currsize == 1

    def test_warm_builds_segments_for_a_spec_with_no_prefetcher(self, monkeypatch):
        """A prewarmed no-prefetch spec has its kernel's epoch segments."""
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        job = JobSpec("tpcw", RECORDS, 4242, ProcessorConfig.scaled())
        warm_trace_cache([job])
        plane = get_filter_plane(job.build_trace(), *job.l1_geometry_keys())
        assert job.segment_geometry_key() in plane._segment_cache


def service_spec() -> SweepSpec:
    return SweepSpec.from_dict(
        minimal(
            name="service_identity",
            grid={"records": RECORDS, "seeds": [3, 5]},
            prefetchers=[
                {"name": "ebcp", "label": "d4", "overrides": {"prefetch_degree": 4}},
                {"name": "stream", "label": "stream"},
            ],
        )
    )


class TestServiceSweep:
    """Local and service-submitted sweeps are bit-identical."""

    def assert_identical(self, local, remote):
        assert len(local) == len(remote)
        for ours, theirs in zip(local.results, remote.results):
            assert ours.snapshot() == theirs.snapshot()

    def test_single_server_stream(self):
        spec = service_spec()
        local = run_spec(spec, policy=POLICY)
        with BackgroundService(
            ServiceConfig(port=0), policy=POLICY, start_timeout_s=120.0
        ) as svc:
            host, port = svc.address
            remote = submit_spec(spec, host=host, port=port)
        self.assert_identical(local, remote)
        assert remote.cached is not None and len(remote.cached) == len(remote)

    def test_sharded_stream(self):
        spec = service_spec()
        local = run_spec(spec, policy=POLICY)
        config = ServiceConfig(port=0, cache_entries=64)
        service = ShardedService(config=config, policy=POLICY, workers=2)
        with BackgroundService(service=service, start_timeout_s=120.0) as svc:
            host, port = svc.address
            remote = submit_spec(spec, host=host, port=port)
        self.assert_identical(local, remote)
        # The router stamps which shard served each job.
        assert all(shard is not None for shard in remote.shards)
        assert {shard["index"] for shard in remote.shards} <= {0, 1}

    def test_cache_hits_on_resubmit(self):
        spec = service_spec()
        with BackgroundService(
            ServiceConfig(port=0), policy=POLICY, start_timeout_s=120.0
        ) as svc:
            host, port = svc.address
            first = submit_spec(spec, host=host, port=port)
            second = submit_spec(spec, host=host, port=port)
        self.assert_identical(first, second)
        assert all(second.cached)
