"""The ``repro.api`` facade: every promised name exists and works."""

from __future__ import annotations

from repro import api
from repro.experiments.from_spec import spec_path


def test_every_exported_name_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_facade_covers_the_core_workflow():
    trace = api.make_workload("tpcw", records=2_000, seed=7)
    sim = api.EpochSimulator(
        api.ProcessorConfig.scaled(),
        api.build_prefetcher("ebcp"),
        cpi_perf=trace.meta.cpi_perf,
    )
    result = sim.run(trace)
    assert isinstance(result, api.SimulationResult)


def test_experiments_registry_is_complete():
    assert set(api.EXPERIMENTS) == {
        "table1",
        "figure4",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "extension_cmp",
    }
    for name, module in api.EXPERIMENTS.items():
        assert callable(module.assemble), name
        assert spec_path(name).is_file(), name


def test_execution_policy_reaches_run_jobs():
    spec = api.JobSpec(
        workload="tpcw",
        records=2_000,
        seed=7,
        config=api.ProcessorConfig.scaled(),
        prefetcher=None,
        label="baseline",
    )
    [result] = api.run_jobs([spec], policy=api.ExecutionPolicy(retries=0))
    assert result.stats.instructions > 0
