"""repro.parallel: job specs and the pool primitive."""

from __future__ import annotations

import logging
import pickle

import pytest

import repro.engine.filter_plane as filter_plane_mod
import repro.resilience.executor as executor_mod
from repro.engine.config import ProcessorConfig
from repro.parallel import JobSpec, resolve_jobs, run_jobs
from repro.prefetchers.registry import PREFETCHERS, build_prefetcher
from repro.resilience.policy import ExecutionPolicy
from repro.workloads import registry
from repro.workloads.cache import trace_cache

RECORDS = 4_000
WORKLOADS = ("tpcw", "database")


def _spec(workload: str = "tpcw", prefetcher: str | None = "ebcp") -> JobSpec:
    return JobSpec(
        workload=workload,
        records=RECORDS,
        seed=7,
        config=ProcessorConfig.scaled(),
        prefetcher=None if prefetcher is None else build_prefetcher(prefetcher),
        label=prefetcher or "baseline",
    )


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs() == 1

    def test_negative_clamped(self):
        assert resolve_jobs(-3) == 1


class TestJobSpec:
    @pytest.mark.parametrize("name", PREFETCHERS)
    def test_every_registered_prefetcher_pickles(self, name):
        spec = _spec(prefetcher=None if name == "none" else name)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.workload == spec.workload
        assert clone.run().stats.to_dict() == spec.run().stats.to_dict()

    def test_cmp_spec_builds_interleaved_trace(self):
        spec = JobSpec(
            workload="tpcw",
            records=2_000,
            seed=7,
            config=ProcessorConfig.scaled(),
            n_threads=2,
        )
        trace = spec.build_trace()
        assert trace.n_threads == 2
        assert len(trace) == 2 * 2_000


class TestRunJobs:
    def test_parallel_matches_sequential_in_order(self):
        specs = [
            _spec(w, p) for w in WORKLOADS for p in (None, "ebcp", "stream")
        ]
        sequential = run_jobs(specs, jobs=1)
        parallel = run_jobs(specs, jobs=2)
        assert len(parallel) == len(specs)
        for seq, par in zip(sequential, parallel):
            assert seq.stats.to_dict() == par.stats.to_dict()

    def test_unpicklable_specs_fall_back_in_process(self, monkeypatch, caplog):
        # Force the pool so the pickle boundary is reached even on a
        # single-core machine (where run_jobs would skip it outright).
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        spec = _spec()
        spec.prefetcher.poison = lambda: None  # lambdas don't pickle
        with caplog.at_level(logging.WARNING, logger="repro.resilience.executor"):
            results = run_jobs([spec, _spec(prefetcher=None)], jobs=2)
        assert any("not picklable" in rec.message for rec in caplog.records)
        assert len(results) == 2

    def test_broken_pool_falls_back_in_process(self, monkeypatch, caplog):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool here")

        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", ExplodingPool)
        specs = [_spec(prefetcher=None), _spec()]
        with caplog.at_level(logging.WARNING, logger="repro.resilience.executor"):
            results = run_jobs(specs, jobs=2)
        assert any("unavailable" in rec.message for rec in caplog.records)
        assert [r.stats.to_dict() for r in results] == [
            s.run().stats.to_dict() for s in specs
        ]

    def test_single_core_machine_skips_the_pool(self, monkeypatch, caplog):
        """On 1 core a pool is pure overhead; run_jobs goes in-process."""

        class MustNotStart:
            def __init__(self, *args, **kwargs):
                raise AssertionError("pool started on a single-core machine")

        monkeypatch.delenv("REPRO_FORCE_POOL", raising=False)
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", MustNotStart)
        with caplog.at_level(logging.INFO, logger="repro.resilience.executor"):
            results = run_jobs([_spec(prefetcher=None), _spec()], jobs=2)
        assert any("in-process" in rec.message for rec in caplog.records)
        assert len(results) == 2

    def test_force_pool_overrides_single_core_fallback(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, *args, **kwargs):
                started.append(True)
                raise OSError("stop here; starting was the point")

        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", RecordingPool)
        run_jobs([_spec(prefetcher=None), _spec(prefetcher=None)], jobs=2)
        assert started

    def test_simulation_errors_propagate(self):
        bad = _spec()
        bad.workload = "no-such-workload"
        with pytest.raises(KeyError):
            run_jobs([bad], jobs=1)


@pytest.fixture()
def cold_caches(monkeypatch, tmp_path):
    """A fresh disk cache and an empty in-process trace memo."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    registry._cached_commercial.cache_clear()
    yield
    registry._cached_commercial.cache_clear()


class TestInputsBuiltPerAttempt:
    def test_run_builds_no_inputs(self, monkeypatch, cold_caches):
        """Every build happens in the attempt, before ``JobSpec.run``."""
        in_run = []
        built_in_run = []

        def track(name, fn):
            def wrapper(*args, **kwargs):
                if in_run:
                    built_in_run.append(name)
                return fn(*args, **kwargs)

            return wrapper

        run = JobSpec.run

        def tracked_run(self, *args, **kwargs):
            in_run.append(self.label)
            try:
                return run(self, *args, **kwargs)
            finally:
                in_run.pop()

        monkeypatch.setattr(JobSpec, "run", tracked_run)
        for module, name in (
            (registry, "build_commercial_trace"),
            (filter_plane_mod, "compute_filter_plane"),
            (filter_plane_mod, "compute_epoch_segments"),
        ):
            monkeypatch.setattr(module, name, track(name, getattr(module, name)))
        specs = [_spec("tpcw", None), _spec("database", "ebcp")]
        results = executor_mod.execute(specs, ExecutionPolicy(jobs=1))
        assert len(results) == 2
        assert built_in_run == []

    def test_pooled_batch_builds_nothing_in_the_caller(self, monkeypatch, cold_caches):
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        specs = [_spec(w, p) for w in WORKLOADS for p in (None, "ebcp")]
        misses = registry._cached_commercial.cache_info().misses
        pooled = run_jobs(specs, jobs=2)
        assert registry._cached_commercial.cache_info().misses == misses
        for w in WORKLOADS:
            assert trace_cache().path_for(w, RECORDS, 7, 1.0).exists()
        sequential = run_jobs(specs, jobs=1)
        assert [r.snapshot() for r in pooled] == [r.snapshot() for r in sequential]
