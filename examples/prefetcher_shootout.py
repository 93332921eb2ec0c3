#!/usr/bin/env python3
"""Prefetcher shoot-out: Figure 9 in miniature on one workload.

Runs every prefetching scheme of the paper's comparison — GHB PC/DC
(small/large), the Tag Correlating Prefetcher (small/large), a stream
prefetcher, Spatial Memory Streaming, Solihin's memory-side schemes and
EBCP (plus its handicapped minus variant) — on one workload and prints
improvement, coverage, accuracy and storage cost.  The schemes and their
settings come from the committed ``specs/figure9.toml``.

Usage:  python examples/prefetcher_shootout.py [workload] [records]
"""

from __future__ import annotations

import sys

from repro import EpochSimulator, make_workload
from repro.analysis.reporting import format_table
from repro.experiments.from_spec import load_experiment_spec


def human_bytes(n: int) -> str:
    if n == 0:
        return "-"
    if n < 1024:
        return f"{n} B"
    if n < 1024 * 1024:
        return f"{n // 1024} KiB"
    return f"{n / (1024 * 1024):.1f} MiB"


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "database"
    records = int(sys.argv[2]) if len(sys.argv) > 2 else 140_000

    spec = load_experiment_spec("figure9")
    trace = make_workload(workload, records=records)
    config = spec.configs[0].build()
    timing = {"cpi_perf": trace.meta.cpi_perf, "overlap": trace.meta.overlap}
    baseline = EpochSimulator(config, None, **timing).run(trace)
    print(f"{workload}: baseline CPI {baseline.cpi:.2f} "
          f"({baseline.epochs_per_kilo_inst:.2f} epochs/1k inst)\n")

    rows = []
    for scheme in spec.prefetchers:
        prefetcher = scheme.build()
        result = EpochSimulator(config, prefetcher, **timing).run(trace)
        rows.append(
            [
                scheme.effective_label,
                f"{result.improvement_over(baseline):+.1%}",
                f"{result.coverage:.1%}",
                f"{result.accuracy:.1%}",
                human_bytes(prefetcher.onchip_storage_bytes),
                human_bytes(prefetcher.memory_table_bytes),
            ]
        )
    print(
        format_table(
            ["scheme", "improvement", "coverage", "accuracy", "on-chip", "in-memory"],
            rows,
            title="Prefetcher comparison (uniform degree 6, 64-entry prefetch buffer)",
        )
    )


if __name__ == "__main__":
    main()
