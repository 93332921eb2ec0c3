"""Shared bench configuration.

Each bench regenerates one table/figure of the paper at full trace length
and both prints the rendered rows/series and writes them under
``benchmarks/results/`` (pytest captures stdout, the files always
survive).  Set ``REPRO_BENCH_RECORDS`` to trade fidelity for speed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

#: Full-length default (the EXPERIMENTS.md protocol); override with
#: REPRO_BENCH_RECORDS=120000 for a quick pass.
BENCH_RECORDS = int(os.environ.get("REPRO_BENCH_RECORDS", "200000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
#: Worker processes per experiment run; None defers to $REPRO_JOBS
#: inside the library (results are bit-identical at any job count).
_BENCH_JOBS = os.environ.get("REPRO_BENCH_JOBS", "").strip()
BENCH_JOBS = int(_BENCH_JOBS) if _BENCH_JOBS else None

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_records() -> int:
    return BENCH_RECORDS


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return BENCH_SEED


@pytest.fixture(scope="session")
def bench_policy():
    """The execution policy the bench experiments run under.

    One retry guards the long runs against transient worker deaths
    without masking persistent failures.
    """
    from repro.resilience import ExecutionPolicy

    return ExecutionPolicy(jobs=BENCH_JOBS, retries=1)


def publish(name: str, text: str, data: dict | None = None) -> None:
    """Print a rendered result and persist it under results/.

    ``data`` (when given) is additionally written as machine-readable
    JSON to ``results/BENCH_<name>.json``, stamped with the run's
    records/seed so downstream tooling can tell a quick pass from a
    full-length one.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        payload = {"bench": name, "records": BENCH_RECORDS, "seed": BENCH_SEED, **data}
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
