"""Lowering planned jobs to the protocol-v4 wire and back.

A sweep crosses the wire twice: the client sends the whole spec in one
``sweep`` request, and the entry service (router or single server)
expands it and fans each planned job out as an *extended* ``simulate``
request — plain v1–v3 params plus optional ``config`` /
``prefetcher_overrides`` / ``n_threads`` / ``scale`` / ``label`` fields.
Shards therefore never see a ``sweep`` frame; they execute ordinary
(extended) simulate requests, which is what lets the existing
micro-batching, dedup and cache machinery serve sweep traffic unchanged.
Both spellings of a request are keyed by :func:`identity_from_simulate`,
the identity its planned :class:`~repro.parallel.jobs.JobSpec` has.

This module is deliberately protocol-agnostic (it works on plain dicts
and duck-typed params), so :mod:`repro.service` can depend on it without
a cycle.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..engine.config import ProcessorConfig
from ..parallel.jobs import JobSpec, job_identity
from ..prefetchers.base import Prefetcher
from ..prefetchers.registry import build_prefetcher, canonical_overrides
from .errors import SpecError
from .expand import PlannedJob
from .schema import ConfigSpec

__all__ = [
    "config_from_wire",
    "prefetcher_from_wire",
    "simulate_params_for",
    "jobspec_from_simulate",
    "identity_from_simulate",
]


def config_from_wire(payload: Optional[Mapping]) -> ProcessorConfig:
    """Build the processor config named by a wire ``config`` payload.

    ``None`` (the field omitted) is the default scaled config —
    identical to what plain ``simulate`` requests run against.  The
    payload shape is ``{"base": "scaled"|"paper", "overrides": {...}}``,
    validated through :class:`~repro.spec.schema.ConfigSpec` so wire and
    file specs reject the same inputs.
    """
    if payload is None:
        return ProcessorConfig.scaled()
    spec = ConfigSpec.from_dict(
        {"label": "wire", **dict(payload)}, path="params.config"
    )
    return spec.build()


def simulate_params_for(meta: PlannedJob) -> dict:
    """The extended ``simulate`` params dict for one planned job.

    Default-valued extension fields are omitted, so a default-config
    single-thread job is byte-identical to a v3 ``simulate`` payload —
    and routes/caches identically to one.
    """
    params: dict = {
        "workload": meta.workload,
        "prefetcher": meta.prefetcher,
        "records": meta.records,
        "seed": meta.seed,
    }
    if meta.warmup_records is not None:
        params["warmup_records"] = meta.warmup_records
    if meta.config_base != "scaled" or meta.config_overrides:
        config: dict = {"base": meta.config_base}
        if meta.config_overrides:
            config["overrides"] = {
                key: dict(value) if isinstance(value, tuple) else value
                for key, value in meta.config_overrides
            }
        params["config"] = config
    if meta.prefetcher_overrides:
        params["prefetcher_overrides"] = dict(meta.prefetcher_overrides)
    if meta.n_threads:
        params["n_threads"] = meta.n_threads
    if meta.scale != 1.0:
        params["scale"] = meta.scale
    if meta.label and meta.label != meta.prefetcher:
        params["label"] = meta.label
    return params


def prefetcher_from_wire(params: Any) -> Optional[Prefetcher]:
    """A fresh prefetcher for simulate params (``None`` for ``"none"``).

    Raises :class:`SpecError` at ``params.prefetcher_overrides`` when
    the overrides do not fit the prefetcher's constructor.
    """
    overrides = getattr(params, "prefetcher_overrides", None) or {}
    if params.prefetcher == "none":
        if overrides:
            raise SpecError("params.prefetcher_overrides", "'none' takes no overrides")
        return None
    try:
        return build_prefetcher(params.prefetcher, **dict(overrides))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(
            "params.prefetcher_overrides",
            f"cannot build {params.prefetcher!r}: {exc}",
        ) from None


def jobspec_from_simulate(params: Any, config: Optional[ProcessorConfig] = None) -> JobSpec:
    """Build the :class:`JobSpec` a simulate request describes.

    ``params`` is duck-typed (``protocol.SimulateParams`` or anything
    with the same fields).  ``config`` short-circuits the wire-config
    build when the caller already resolved it (the batch path resolves
    it once per request, for the identity and the job).
    """
    if config is None:
        config = config_from_wire(getattr(params, "config", None))
    return JobSpec(
        workload=params.workload,
        records=params.records,
        seed=params.seed,
        config=config,
        prefetcher=prefetcher_from_wire(params),
        label=getattr(params, "label", "") or params.prefetcher,
        scale=getattr(params, "scale", 1.0),
        n_threads=getattr(params, "n_threads", 0),
        warmup_records=params.warmup_records,
    )


def identity_from_simulate(params: Any, config: ProcessorConfig) -> str:
    """The :meth:`JobSpec.identity` of a simulate request's job.

    Equal to ``jobspec_from_simulate(params, config).identity()``, but
    builds neither the prefetcher nor the trace.
    """
    return job_identity(
        params.workload, params.records, params.seed, getattr(params, "scale", 1.0),
        getattr(params, "n_threads", 0), params.warmup_records, config.fingerprint(),
        params.prefetcher, canonical_overrides(getattr(params, "prefetcher_overrides", None)),
    )
