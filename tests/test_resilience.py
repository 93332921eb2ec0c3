"""repro.resilience: ExecutionPolicy, fault injection, retry, checkpoints.

Every scenario asserts the executor's core invariant: whatever faults
fire along the way, the surviving results are bit-identical to a clean
sequential run.
"""

from __future__ import annotations

import pickle
import re
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.resilience.faults as faults_mod
import repro.resilience.executor as executor_mod
from repro.engine.config import ProcessorConfig
from repro.obs import EventBus
from repro.obs.bus import global_bus, reset_global_bus
from repro.obs.events import (
    CacheQuarantined,
    ExecutionDegraded,
    JobResumed,
    JobRetried,
    JobTimedOut,
    WorkerCrashed,
)
from repro.obs.metrics import ResilienceMetrics
from repro.parallel import JobSpec, run_jobs
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.registry import build_prefetcher
from repro.resilience import (
    ExecutionPolicy,
    FaultSpec,
    WorkerCrashError,
    execute,
)
from repro.resilience.checkpoint import result_entries, result_path
from repro.service.cache import ResultCache

RECORDS = 3_000


@pytest.fixture(autouse=True)
def _fresh_fault_claims():
    """Local fault claims are process-global; isolate each test."""
    faults_mod._LOCAL_CLAIMS.clear()
    yield
    faults_mod._LOCAL_CLAIMS.clear()


def _spec(label: str = "alpha", prefetcher: str | None = "ebcp") -> JobSpec:
    return JobSpec(
        workload="tpcw",
        records=RECORDS,
        seed=7,
        config=ProcessorConfig.scaled(),
        prefetcher=None if prefetcher is None else build_prefetcher(prefetcher),
        label=label,
    )


def _collect(bus: EventBus, *event_types):
    seen = []
    for event_type in event_types:
        bus.subscribe(event_type, seen.append)
    return seen


@pytest.fixture
def quarantined():
    """``CacheQuarantined`` events, which go to the process-wide bus."""
    reset_global_bus()
    seen = _collect(global_bus(), CacheQuarantined)
    yield seen
    reset_global_bus()


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.retries == 1
        assert policy.timeout_s is None
        assert policy.checkpoint_dir is None

    @pytest.mark.parametrize(
        "kwargs",
        [{"retries": -1}, {"backoff_s": -0.5}, {"timeout_s": 0.0}, {"timeout_s": -1}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionPolicy().retries = 5  # type: ignore[misc]

    def test_replace_returns_updated_copy(self):
        base = ExecutionPolicy(jobs=4, retries=2)
        updated = base.replace(retries=0)
        assert updated.retries == 0
        assert updated.jobs == 4
        assert base.retries == 2

    def test_backoff_doubles_per_retry(self):
        policy = ExecutionPolicy(backoff_s=0.25)
        assert policy.backoff_for(1) == 0.25
        assert policy.backoff_for(2) == 0.5
        assert policy.backoff_for(3) == 1.0

    def test_pickles(self):
        policy = ExecutionPolicy(
            jobs=2, timeout_s=60, retries=3, fault_spec=FaultSpec(crash="x:1")
        )
        assert pickle.loads(pickle.dumps(policy)) == policy

    def test_from_env_reads_fault_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_CRASH", "alpha:1")
        policy = ExecutionPolicy.from_env()
        assert policy.faults().crash == "alpha:1"

    def test_explicit_fault_spec_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_CRASH", "alpha:1")
        policy = ExecutionPolicy(fault_spec=FaultSpec())
        assert not policy.faults().active


class TestJobKey:
    def test_deterministic(self):
        assert _spec().identity() == _spec().identity()
        assert re.fullmatch(r"[0-9a-f]{64}", _spec().identity())

    def test_depends_on_identity_fields(self):
        base = _spec()
        other = _spec()
        other.seed = 8
        assert base.identity() != other.identity()
        # Results carry no label, so the label is not part of the key.
        assert _spec("alpha").identity() == _spec("bravo").identity()

    def test_unpicklable_hand_built_prefetcher_has_no_identity(self):
        prefetcher = GHBPrefetcher()
        prefetcher.poison = lambda: None  # lambdas don't pickle
        spec = JobSpec("tpcw", RECORDS, 7, ProcessorConfig.scaled(), prefetcher, "ghb")
        with pytest.raises(TypeError, match="GHBPrefetcher"):
            spec.identity()

    def test_unpicklable_hand_built_prefetcher_runs_without_a_journal(self, monkeypatch):
        """Only a checkpoint needs the identity; a plain run never asks."""

        def spec():
            prefetcher = GHBPrefetcher()
            prefetcher.poison = lambda: None
            return JobSpec("tpcw", RECORDS, 7, ProcessorConfig.scaled(), prefetcher, "ghb")

        clean = JobSpec(
            "tpcw", RECORDS, 7, ProcessorConfig.scaled(), GHBPrefetcher(), "ghb"
        ).run()
        [result] = run_jobs([spec()])
        assert result.snapshot() == clean.snapshot()
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        bus = EventBus()
        degraded = _collect(bus, ExecutionDegraded)
        pooled = execute([spec(), spec()], ExecutionPolicy(jobs=2), bus=bus)
        assert [r.snapshot() for r in pooled] == [clean.snapshot()] * 2
        assert [event.reason for event in degraded] == ["unpicklable"]


class TestFaultSpec:
    def test_inactive_by_default(self):
        spec = FaultSpec()
        assert not spec.active
        spec.maybe_crash("anything")  # no-op
        assert spec.maybe_hang("anything") == 0.0

    def test_malformed_specs_are_ignored(self):
        spec = FaultSpec(crash="toomany:fields:here", hang="nocount")
        spec.maybe_crash("anything")
        assert spec.maybe_hang("anything") == 0.0

    def test_crash_budget_per_site(self):
        spec = FaultSpec(crash="alpha:2")
        for _ in range(2):
            with pytest.raises(WorkerCrashError):
                spec.maybe_crash("alpha#deadbeef")
        spec.maybe_crash("alpha#deadbeef")  # budget spent
        spec.maybe_crash("bravo#deadbeef")  # never matched

    def test_state_dir_shares_claims_across_instances(self, tmp_path):
        first = FaultSpec(crash="alpha:1", state_dir=str(tmp_path))
        second = FaultSpec(crash="alpha:1", state_dir=str(tmp_path))
        with pytest.raises(WorkerCrashError):
            first.maybe_crash("alpha#1")
        second.maybe_crash("alpha#1")  # the claim is durable

    def test_maybe_corrupt_truncates_matching_kind(self, tmp_path):
        victim = tmp_path / "entry.npz"
        victim.write_bytes(b"x" * 100)
        spec = FaultSpec(corrupt="trace:1")
        assert spec.maybe_corrupt(victim, "plane") is False
        assert spec.maybe_corrupt(victim, "trace") is True
        assert victim.stat().st_size == 50
        assert spec.maybe_corrupt(victim, "trace") is False  # budget spent


class TestRetry:
    def test_injected_crash_is_retried_bit_identically(self):
        clean = _spec().run()
        bus = EventBus()
        retried = _collect(bus, JobRetried)
        policy = ExecutionPolicy(
            retries=1, backoff_s=0.0, fault_spec=FaultSpec(crash="alpha:1")
        )
        [result] = execute([_spec()], policy, bus=bus)
        assert result.stats.to_dict() == clean.stats.to_dict()
        assert len(retried) == 1
        assert "injected crash" in retried[0].cause

    def test_exhausted_retry_budget_raises(self):
        policy = ExecutionPolicy(
            retries=1, backoff_s=0.0, fault_spec=FaultSpec(crash="alpha:2")
        )
        with pytest.raises(WorkerCrashError):
            execute([_spec()], policy)

    def test_zero_retries_fails_on_first_crash(self):
        policy = ExecutionPolicy(
            retries=0, fault_spec=FaultSpec(crash="alpha:1")
        )
        with pytest.raises(WorkerCrashError):
            execute([_spec()], policy)

    def test_return_exceptions_runs_the_rest_of_the_batch(self):
        clean = [_spec("alpha").run(), _spec("charlie", None).run()]
        policy = ExecutionPolicy(
            jobs=1, retries=0, fault_spec=FaultSpec(crash="bravo:9")
        )
        first, failed, last = execute(
            [_spec("alpha"), _spec("bravo"), _spec("charlie", None)],
            policy,
            return_exceptions=True,
        )
        assert isinstance(failed, WorkerCrashError)
        assert [first.snapshot(), last.snapshot()] == [c.snapshot() for c in clean]

    def test_metrics_count_the_recovery(self):
        bus = EventBus()
        metrics = ResilienceMetrics(bus)
        policy = ExecutionPolicy(
            retries=2, backoff_s=0.0, fault_spec=FaultSpec(crash="alpha:2")
        )
        execute([_spec()], policy, bus=bus)
        assert metrics.retries.value == 2
        assert metrics.timeouts.value == 0


class TestTimeout:
    def test_overrun_is_retried(self):
        clean = _spec().run()
        bus = EventBus()
        timed_out = _collect(bus, JobTimedOut)
        policy = ExecutionPolicy(
            timeout_s=0.75,
            retries=1,
            backoff_s=0.0,
            fault_spec=FaultSpec(hang="alpha:1:1.5"),
        )
        [result] = execute([_spec()], policy, bus=bus)
        assert result.stats.to_dict() == clean.stats.to_dict()
        assert len(timed_out) == 1
        assert timed_out[0].timeout_s == 0.75

    def test_late_result_kept_when_budget_spent(self):
        clean = _spec().run()
        policy = ExecutionPolicy(
            timeout_s=0.75,
            retries=0,
            fault_spec=FaultSpec(hang="alpha:1:1.5"),
        )
        [result] = execute([_spec()], policy)
        assert result.stats.to_dict() == clean.stats.to_dict()

    def test_pooled_overrun_is_retried(self, monkeypatch, tmp_path):
        """In a pool the hung job is killed and retried under the same
        rule as in-process; its bystander spends no attempt."""
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        specs = [_spec("alpha"), _spec("bravo", None)]
        clean = [s.run() for s in specs]
        bus = EventBus()
        timed_out = _collect(bus, JobTimedOut)
        retried = _collect(bus, JobRetried)
        policy = ExecutionPolicy(
            jobs=2,
            timeout_s=5,
            retries=1,
            backoff_s=0.0,
            fault_spec=FaultSpec(hang="alpha:1:60", state_dir=str(tmp_path)),
        )
        results = execute(specs, policy, bus=bus)
        assert [r.snapshot() for r in results] == [c.snapshot() for c in clean]
        assert [(e.label, e.index, e.timeout_s) for e in timed_out] == [("alpha", 0, 5)]
        assert [(e.label, e.attempt, e.cause) for e in retried] == [("alpha", 1, "timeout")]


class TestCheckpoint:
    def test_interrupted_batch_resumes_bit_identically(self, tmp_path):
        # 'bravo' must differ from 'alpha' in more than its label, or it
        # would resume from alpha's entry (labels are not identity).
        def batch():
            return [_spec("alpha"), _spec("bravo", "ghb_small"), _spec("charlie", None)]

        clean = [s.run() for s in batch()]

        # First run: 'bravo' fails permanently after 'alpha' completed.
        # Only sequential execution guarantees that order ($REPRO_JOBS
        # may ask for a pool), hence jobs=1.
        failing = ExecutionPolicy(
            jobs=1,
            retries=0,
            checkpoint_dir=str(tmp_path),
            fault_spec=FaultSpec(crash="bravo:9"),
        )
        with pytest.raises(WorkerCrashError):
            execute(batch(), failing)

        # Second run: the fault is gone (the outage ended); 'alpha' must
        # come from its checkpoint entry, the rest must run.
        bus = EventBus()
        resumed = _collect(bus, JobResumed)
        policy = ExecutionPolicy(
            checkpoint_dir=str(tmp_path), fault_spec=FaultSpec()
        )
        results = execute(batch(), policy, bus=bus)
        assert [r.stats.to_dict() for r in results] == [
            c.stats.to_dict() for c in clean
        ]
        assert [event.index for event in resumed] == [0]

    def test_pool_crash_surfaces_as_worker_crash_and_resumes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")

        def batch():
            return [_spec("alpha"), _spec("bravo", "ghb_small"), _spec("charlie", None)]

        clean = [s.run() for s in batch()]

        # A pool worker dies on 'bravo' with no retries left: the same
        # error type as the in-process crash above.
        failing = ExecutionPolicy(
            jobs=2,
            retries=0,
            checkpoint_dir=str(tmp_path / "run"),
            fault_spec=FaultSpec(
                crash="bravo:9", state_dir=str(tmp_path / "fault-state")
            ),
        )
        with pytest.raises(WorkerCrashError):
            execute(batch(), failing)

        # Whatever reached the checkpoint resumes; 'bravo' never did.
        bus = EventBus()
        resumed = _collect(bus, JobResumed)
        policy = ExecutionPolicy(
            jobs=2, checkpoint_dir=str(tmp_path / "run"), fault_spec=FaultSpec()
        )
        results = execute(batch(), policy, bus=bus)
        assert [r.stats.to_dict() for r in results] == [
            c.stats.to_dict() for c in clean
        ]
        assert 1 not in [event.index for event in resumed]

    @pytest.mark.parametrize(
        "build",
        [
            lambda degree: build_prefetcher("ghb_small", degree=degree),
            lambda degree: GHBPrefetcher(degree=degree),
        ],
        ids=["registry", "hand_built"],
    )
    def test_changed_overrides_resume_nothing(self, tmp_path, build):
        def cell(degree):
            return JobSpec(
                workload="tpcw",
                records=RECORDS,
                seed=7,
                config=ProcessorConfig.scaled(),
                prefetcher=build(degree),
                label="ghb",
            )

        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        execute([cell(6)], policy)
        bus = EventBus()
        resumed = _collect(bus, JobResumed)
        [result] = execute([cell(1)], policy, bus=bus)
        assert resumed == []
        assert result.snapshot() == cell(1).run().snapshot()

    def test_completed_batch_resumes_without_any_simulation(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        first = execute([_spec("alpha"), _spec("bravo", None)], policy)
        bus = EventBus()
        resumed = _collect(bus, JobResumed)
        second = execute([_spec("alpha"), _spec("bravo", None)], policy, bus=bus)
        assert len(resumed) == 2
        assert [r.stats.to_dict() for r in second] == [
            r.stats.to_dict() for r in first
        ]

    def test_edited_entry_is_quarantined_and_rerun(self, tmp_path, quarantined):
        """An edit that still parses is caught by the checksum sidecar."""
        clean = _spec().run()
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        execute([_spec()], policy)
        path = result_path(tmp_path, _spec().identity())
        text = path.read_text(encoding="utf-8")
        edited = re.sub(
            r'("instructions":\d*)(\d)',
            lambda m: m.group(1) + str((int(m.group(2)) + 1) % 10),
            text,
            count=1,
        )
        assert edited != text
        path.write_text(edited, encoding="utf-8")

        bus = EventBus()
        resumed = _collect(bus, JobResumed)
        [result] = execute([_spec()], policy, bus=bus)
        assert resumed == []
        assert [event.kind for event in quarantined] == ["result"]
        assert (tmp_path / "quarantine" / path.name).exists()
        assert result.snapshot() == clean.snapshot()

    def test_checkpoint_dir_serves_as_a_cache_dir(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        [result] = execute([_spec()], policy)
        served = ResultCache(spill_dir=tmp_path).get(_spec().identity())
        assert served is not None
        assert served.snapshot() == result.snapshot()

    def test_cache_dir_serves_as_a_checkpoint_dir(self, tmp_path):
        clean = _spec().run()
        ResultCache(spill_dir=tmp_path).put(_spec().identity(), clean)
        bus = EventBus()
        resumed = _collect(bus, JobResumed)
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        [result] = execute([_spec()], policy, bus=bus)
        assert [(event.index, event.key) for event in resumed] == [
            (0, _spec().identity())
        ]
        assert result.snapshot() == clean.snapshot()

    def test_injected_corruption_is_quarantined_and_rerun(
        self, tmp_path, monkeypatch, quarantined
    ):
        monkeypatch.setenv("REPRO_FAULT_CORRUPT", "result:1")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
        clean = _spec().run()
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path / "run"))
        execute([_spec()], policy)  # the entry it stores is truncated
        assert [event.kind for event in quarantined] == []

        bus = EventBus()
        resumed = _collect(bus, JobResumed)
        [result] = execute([_spec()], policy, bus=bus)
        assert resumed == []
        assert [event.kind for event in quarantined] == ["result"]
        assert result.snapshot() == clean.snapshot()

    def test_equal_jobs_share_one_entry(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        [first] = execute([_spec("alpha")], policy)
        bus = EventBus()
        resumed = _collect(bus, JobResumed)
        # The same job under two labels: both resume from alpha's entry.
        results = execute([_spec("alpha"), _spec("bravo")], policy, bus=bus)
        assert [(event.index, event.key) for event in resumed] == [
            (0, _spec().identity()),
            (1, _spec().identity()),
        ]
        assert [r.snapshot() for r in results] == [first.snapshot()] * 2
        assert len(result_entries(tmp_path)) == 1


class TestDegradationIsObservable:
    """The legacy silent in-process fallbacks now announce themselves."""

    def test_pool_unavailable_warns_and_emits(self, monkeypatch, caplog):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no pool for you")

        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", ExplodingPool)
        bus = EventBus()
        degraded = _collect(bus, ExecutionDegraded)
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.resilience.executor"):
            results = execute(
                [_spec("alpha", None), _spec("bravo", None)],
                ExecutionPolicy(jobs=2),
                bus=bus,
            )
        assert len(results) == 2
        assert any("unavailable" in rec.message for rec in caplog.records)
        assert [event.reason for event in degraded] == ["pool_unavailable"]
        assert "no pool for you" in degraded[0].cause

    def test_unpicklable_specs_emit_cause(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        bad = _spec("alpha")
        bad.prefetcher.poison = lambda: None
        bus = EventBus()
        degraded = _collect(bus, ExecutionDegraded)
        execute([bad, _spec("bravo", None)], ExecutionPolicy(jobs=2), bus=bus)
        assert [event.reason for event in degraded] == ["unpicklable"]
        assert degraded[0].cause


class TestPoolRecovery:
    def test_worker_crash_recovers_bit_identically(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        specs = [_spec("alpha", None), _spec("bravo")]
        clean = [s.run() for s in specs]
        bus = EventBus()
        crashed = _collect(bus, WorkerCrashed)
        policy = ExecutionPolicy(
            jobs=2,
            retries=2,
            backoff_s=0.0,
            fault_spec=FaultSpec(crash="*:1", state_dir=str(tmp_path)),
        )
        results = execute(
            [_spec("alpha", None), _spec("bravo")], policy, bus=bus
        )
        assert [r.stats.to_dict() for r in results] == [
            c.stats.to_dict() for c in clean
        ]
        assert crashed  # the pool breakage was observed

    def test_pool_broken_before_submit_recovers(self, monkeypatch):
        """A worker can die between one wait and the next submit, which
        then raises ``BrokenProcessPool``; the batch still completes."""
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        submits = []

        class BreaksOnThirdSubmit(executor_mod.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submits.append(fn)
                if len(submits) == 3:
                    raise BrokenProcessPool("a worker died before this submit")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", BreaksOnThirdSubmit)
        clean = _spec("alpha", None).run()
        results = execute(
            [_spec(label, None) for label in ("alpha", "bravo", "charlie")],
            ExecutionPolicy(jobs=2),
        )
        assert [r.snapshot() for r in results] == [clean.snapshot()] * 3
        assert len(submits) == 4

    def test_pool_lost_after_a_crash_finishes_in_process(self, monkeypatch, tmp_path):
        """A crash kills the pool and no new one can be leased: the
        casualties replay and the rest of the queue runs in-process."""
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        builds = []

        class LeasedOnce(executor_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                builds.append(True)
                if len(builds) > 1:
                    raise OSError("no second pool")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", LeasedOnce)
        labels = ("alpha", "bravo", "charlie", "delta")
        clean = _spec("alpha", None).run()
        bus = EventBus()
        seen = _collect(bus, WorkerCrashed, ExecutionDegraded)
        policy = ExecutionPolicy(
            jobs=2,
            backoff_s=0.0,
            fault_spec=FaultSpec(crash="alpha:1", state_dir=str(tmp_path)),
        )
        results = execute([_spec(label, None) for label in labels], policy, bus=bus)
        assert [r.snapshot() for r in results] == [clean.snapshot()] * 4
        assert [type(event) for event in seen] == [WorkerCrashed, ExecutionDegraded]
        assert seen[1].reason == "pool_unavailable"
        assert "no second pool" in seen[1].cause


class TestPolicyThreadsThroughTheStack:
    def test_run_jobs_accepts_policy(self):
        clean = _spec().run()
        policy = ExecutionPolicy(
            retries=1, backoff_s=0.0, fault_spec=FaultSpec(crash="alpha:1")
        )
        [result] = run_jobs([_spec()], policy=policy)
        assert result.stats.to_dict() == clean.stats.to_dict()

    def test_sweep_runner_accepts_policy(self, tmp_path):
        """``run_spec``, the sweep runner, executes under a given policy."""
        from repro.spec import SPEC_VERSION, SweepSpec, expand, run_spec

        spec = SweepSpec.from_dict(
            {
                "version": SPEC_VERSION,
                "name": "policy",
                "workloads": ["tpcw"],
                "grid": {"records": RECORDS, "seeds": [7]},
                "prefetchers": [
                    {"name": "ebcp", "label": "2", "overrides": {"prefetch_degree": 2}}
                ],
            }
        )
        sequential = run_spec(spec).grid()
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        resilient = run_spec(spec, policy=policy).grid()
        seq, res = sequential["tpcw"][0], resilient["tpcw"][0]
        assert seq.result.stats.to_dict() == res.result.stats.to_dict()
        # One checkpoint entry per distinct job of the plan.
        assert sorted(entry.name for entry in result_entries(tmp_path)) == sorted(
            {f"{job.identity()}.json" for job in expand(spec).jobs}
        )
