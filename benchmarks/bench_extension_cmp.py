"""Bench: Extension E1 — EBCP on a chip multiprocessor.

The paper's Section 6 future work, quantifying Section 3.3.1: per-thread
stream tracking (possible at EBCP's in-front-of-the-crossbar vantage
point) retains the prefetcher's gains under interleaving, while
thread-blind schemes — any memory-side engine — collapse.
"""

from __future__ import annotations

from repro.experiments.from_spec import run_experiment

from conftest import publish


def test_extension_cmp(benchmark, bench_records, bench_seed, bench_policy):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "extension_cmp",
            records=min(bench_records, 200_000),
            seed=bench_seed,
            policy=bench_policy,
        ),
        rounds=1,
        iterations=1,
    )
    publish("extension_cmp", result.render(), data=result.to_dict())
    for workload in result.panels:
        # With multiple threads, per-thread tracking clearly beats the
        # thread-blind variants.
        for n_threads in (2, 4):
            per_thread = result.improvement(workload, "ebcp_cmp", n_threads)
            blind = result.improvement(workload, "ebcp_interleaved", n_threads)
            solihin = result.improvement(workload, "solihin_6_1", n_threads)
            assert per_thread > blind, (workload, n_threads)
            assert per_thread > solihin, (workload, n_threads)
        # Interleaving damages the thread-blind schemes more than the
        # per-thread design as threads scale 1 -> 4.
        pt_drop = result.improvement(workload, "ebcp_cmp", 1) - result.improvement(
            workload, "ebcp_cmp", 4
        )
        blind_drop = result.improvement(
            workload, "ebcp_interleaved", 1
        ) - result.improvement(workload, "ebcp_interleaved", 4)
        assert blind_drop > pt_drop - 0.02, workload
