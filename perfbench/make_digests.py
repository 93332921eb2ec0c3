"""Regenerate ``digests.json``: expected per-job ``SimulationStats`` digests.

Run once from the repository root, on the scalar reference path::

    python3 perfbench/make_digests.py

For the default seed (1) and one held-out seed (2) of each sweep
workload, a sweep pass runs with ``REPRO_KERNEL=off`` in a private
trace cache and its per-job digests (plan order) are written out.
Regenerate only when the program's results are meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import sweeps  # noqa: E402

SEEDS = (1, 2)


def main() -> int:
    table: dict = {}
    for workload in ("sweep_seeds", "sweep_schemes"):
        for seed in SEEDS:
            workdir = os.path.join(sweeps.ROOT, ".perfbench-runs", f"digests-{workload}-{seed}")
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            try:
                run = sweeps.SweepRun(workload, seed, workdir)
                out, _, _ = sweeps._spawn(
                    "pass", run.spec_path, os.path.join(workdir, "out.json"),
                    os.path.join(workdir, "spans"),
                    sweeps._env(os.path.join(workdir, "cache"), run.home, scalar=True),
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table.setdefault(workload, {})[str(seed)] = out["digests"]
            print(f"{workload} seed {seed}: {len(out['digests'])} jobs")
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
