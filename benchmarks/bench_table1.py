"""Bench: regenerate the paper's Table 1 (baseline statistics)."""

from __future__ import annotations

from repro.analysis.calibration import TABLE1_TARGETS, check_baseline
from repro.experiments.from_spec import run_experiment

from conftest import publish


def test_table1(benchmark, bench_records, bench_seed, bench_policy):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "table1", records=bench_records, seed=bench_seed, policy=bench_policy
        ),
        rounds=1,
        iterations=1,
    )
    publish("table1", result.render(), data=result.to_dict())
    assert len(result.rows) == len(TABLE1_TARGETS)


def test_table1_calibration_tightness(benchmark, bench_records, bench_seed):
    """At full length every Table 1 cell lands within 25 % of the paper.

    (Short runs — low REPRO_BENCH_RECORDS — drift further; the recorded
    EXPERIMENTS.md numbers use the full default length.)
    """

    def run():
        return [
            check_baseline(w, records=bench_records, seed=bench_seed)
            for w in TABLE1_TARGETS
        ]

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Calibration relative errors vs paper Table 1:"]
    errors = []
    for report in reports:
        lines.append(
            f"  {report.workload:15s} cpi {report.cpi_error:5.1%}  "
            f"epi {report.epi_error:5.1%}  inst {report.inst_miss_error:5.1%}  "
            f"load {report.load_miss_error:5.1%}"
        )
        errors.append(
            {
                "workload": report.workload,
                "cpi_error": report.cpi_error,
                "epi_error": report.epi_error,
                "inst_miss_error": report.inst_miss_error,
                "load_miss_error": report.load_miss_error,
            }
        )
        assert report.within(0.25), report.workload
    publish(
        "table1_calibration",
        "\n".join(lines),
        data={"kind": "calibration", "id": "Table 1 calibration", "errors": errors},
    )
