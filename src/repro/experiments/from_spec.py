"""Spec-driven experiments: ``specs/*.toml`` → paper artifacts.

Each paper artifact is a committed spec file under ``specs/`` plus the
``assemble`` step of its experiment module.  :func:`run_experiment`
loads the spec the module names (``SPEC_FILE``), applies any
records/seed overrides, executes it through :func:`repro.spec.run_spec`
(memoised by spec fingerprint, so Figure 4 and Figure 5 — two views of
one sweep — share a single execution), and hands the sweep result to
the module's ``assemble``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from ..spec import SweepResult, SweepSpec, load_spec, run_spec
from . import EXPERIMENTS
from .common import memoized

if TYPE_CHECKING:
    from ..resilience.policy import ExecutionPolicy

__all__ = [
    "spec_dir",
    "spec_path",
    "load_experiment_spec",
    "sweep_for",
    "run_experiment",
]


def spec_dir() -> Path:
    """The committed ``specs/`` directory (``$REPRO_SPEC_DIR`` overrides)."""
    env = os.environ.get("REPRO_SPEC_DIR")
    if env:
        return Path(env)
    # src/repro/experiments/from_spec.py -> repo root / specs
    root = Path(__file__).resolve().parents[3] / "specs"
    if root.is_dir():
        return root
    return Path.cwd() / "specs"


def spec_path(name: str) -> Path:
    try:
        return spec_dir() / EXPERIMENTS[name].SPEC_FILE
    except KeyError:
        raise KeyError(
            f"no spec-backed experiment '{name}'; known: {', '.join(EXPERIMENTS)}"
        ) from None


def load_experiment_spec(
    name: str,
    records: Optional[int] = None,
    seed: Optional[int] = None,
) -> SweepSpec:
    """Load an experiment's committed spec with grid overrides applied.

    ``extension_cmp`` re-derives its per-thread record counts from a
    ``records`` override as ``max(20000, records // n_threads)``, so
    total work stays constant across thread counts.
    """
    spec = load_spec(spec_path(name))
    changes: dict = {}
    if records is not None:
        changes["records"] = records
    if seed is not None:
        changes["seeds"] = [seed]
    if records is not None and name == "extension_cmp":
        changes["threads"] = [
            {"n_threads": tp.n_threads, "records": max(20_000, records // tp.n_threads)}
            for tp in spec.grid.threads
        ]
    if changes:
        spec = spec.with_grid(**changes)
    return spec


def sweep_for(
    spec: SweepSpec, policy: "Optional[ExecutionPolicy]" = None
) -> SweepResult:
    """Execute ``spec`` once per content fingerprint.

    ``policy`` only affects *how* the sweep executes (fan-out, retries,
    checkpointing — results are bit-identical), so it is deliberately
    not part of the key.
    """
    return memoized(
        ("spec_sweep", spec.fingerprint()), lambda: run_spec(spec, policy=policy)
    )


def run_experiment(
    name: str,
    records: Optional[int] = None,
    seed: Optional[int] = None,
    policy: "Optional[ExecutionPolicy]" = None,
):
    """Run one paper artifact from its committed spec.

    ``name`` is an :data:`~repro.experiments.EXPERIMENTS` id.  Returns
    the module's rendered result (``TableResult``, ``FigureResult`` or a
    panel container); ``policy`` sets fan-out, retries and
    checkpointing without changing any value.
    """
    spec = load_experiment_spec(name, records=records, seed=seed)
    return EXPERIMENTS[name].assemble(spec, sweep_for(spec, policy=policy))
