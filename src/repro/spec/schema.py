"""The frozen, versioned sweep-spec schema.

A :class:`SweepSpec` is pure data: workloads × a records/seed grid ×
processor-config variants × a prefetcher list, plus an execution-policy
block and output hints.  It is the *one* description of a sweep that
every execution path consumes — ``run_spec`` locally, ``submit_spec``
against a running service, and the committed ``specs/*.toml`` files the
paper experiments are instances of.

Design rules
------------
* **Frozen.** Every node is a frozen dataclass; mappings are stored as
  sorted item tuples so specs are hashable and their canonical JSON is
  deterministic — :meth:`SweepSpec.fingerprint` is a content address.
* **Versioned.** ``version`` names the schema, not the spec.  This
  build executes :data:`SPEC_VERSION`; anything else is rejected with a
  :class:`~repro.spec.errors.SpecVersionError` rather than guessed at.
* **Strict.** Unknown keys, wrong types, unknown workload/prefetcher
  names and unknown ``ProcessorConfig`` fields all fail loading with a
  :class:`~repro.spec.errors.SpecError` carrying the field path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from ..engine.config import CacheConfig, ProcessorConfig
from ..prefetchers.base import Prefetcher
from ..prefetchers.registry import PREFETCHERS, build_prefetcher
from ..resilience.policy import ExecutionPolicy
from ..workloads.registry import WORKLOADS
from .errors import SpecError, SpecVersionError

__all__ = [
    "SPEC_VERSION",
    "CONFIG_BASES",
    "PrefetcherSpec",
    "ConfigSpec",
    "ThreadPoint",
    "GridSpec",
    "ExecutionSpec",
    "OutputSpec",
    "SweepSpec",
]

#: The schema version this build reads and writes.
SPEC_VERSION = 1

#: Valid ``ConfigSpec.base`` values and the constructor each names.
CONFIG_BASES = ("scaled", "paper")

_CACHE_LEVELS = ("l1i", "l1d", "l2")
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ProcessorConfig)}
_CACHE_FIELDS = {f.name for f in dataclasses.fields(CacheConfig)}
_X_AXES = ("prefetcher", "config", "threads")


# ----------------------------------------------------------------------
# Validation helpers.  All take the field path so errors point at the
# exact offending value.
# ----------------------------------------------------------------------


def _require_mapping(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise SpecError(path, f"expected a table/object, got {type(value).__name__}")
    return value


def _require_str(value: Any, path: str, *, allow_empty: bool = False) -> str:
    if not isinstance(value, str):
        raise SpecError(path, f"expected a string, got {type(value).__name__}")
    if not value and not allow_empty:
        raise SpecError(path, "must not be empty")
    return value


def _require_int(
    value: Any, path: str, *, minimum: Optional[int] = None
) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise SpecError(path, f"must be >= {minimum}, got {value}")
    return value


def _require_number(
    value: Any, path: str, *, minimum: Optional[float] = None
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(path, f"expected a number, got {type(value).__name__}")
    out = float(value)
    if minimum is not None and out < minimum:
        raise SpecError(path, f"must be >= {minimum}, got {value}")
    return out


def _require_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(path, f"expected a boolean, got {type(value).__name__}")
    return value


def _require_list(value: Any, path: str, *, allow_empty: bool = False) -> list:
    if isinstance(value, (str, bytes)) or not isinstance(value, (list, tuple)):
        raise SpecError(path, f"expected a list, got {type(value).__name__}")
    if not value and not allow_empty:
        raise SpecError(path, "must not be empty")
    return list(value)


def _reject_unknown(payload: Mapping, known: Tuple[str, ...], path: str) -> None:
    for key in payload:
        if key not in known:
            where = f"{path}.{key}" if path else str(key)
            raise SpecError(where, f"unknown key {key!r}")


def _scalar(value: Any, path: str) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecError(path, f"expected a scalar, got {type(value).__name__}")


def _items(overrides: Mapping, path: str) -> Tuple[Tuple[str, Any], ...]:
    """A mapping as a sorted, hashable item tuple (one nesting level)."""
    out = []
    for key in sorted(overrides):
        value = overrides[key]
        where = f"{path}.{key}"
        if isinstance(value, Mapping):
            value = tuple(
                (str(k), _scalar(v, f"{where}.{k}")) for k, v in sorted(value.items())
            )
        else:
            value = _scalar(value, where)
        out.append((str(key), value))
    return tuple(out)


def _items_to_dict(items: Tuple[Tuple[str, Any], ...]) -> dict:
    return {
        key: dict(value) if isinstance(value, tuple) else value
        for key, value in items
    }


# ----------------------------------------------------------------------
# Schema nodes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PrefetcherSpec:
    """One candidate prefetcher: a registry name plus constructor overrides."""

    name: str
    label: str = ""
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @property
    def effective_label(self) -> str:
        return self.label or self.name

    def build(self) -> Optional[Prefetcher]:
        """A fresh instance (its initial state is part of job identity)."""
        if self.name == "none":
            return None
        return build_prefetcher(self.name, **_items_to_dict(self.overrides))

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.label:
            out["label"] = self.label
        if self.overrides:
            out["overrides"] = _items_to_dict(self.overrides)
        return out

    @classmethod
    def from_dict(cls, payload: Any, path: str = "prefetchers") -> "PrefetcherSpec":
        payload = _require_mapping(payload, path)
        _reject_unknown(payload, ("name", "label", "overrides"), path)
        name = _require_str(payload.get("name"), f"{path}.name")
        if name != "none" and name not in PREFETCHERS:
            raise SpecError(
                f"{path}.name",
                f"unknown prefetcher {name!r} (known: {', '.join(PREFETCHERS)})",
            )
        label = _require_str(
            payload.get("label", ""), f"{path}.label", allow_empty=True
        )
        overrides = _items(
            _require_mapping(payload.get("overrides", {}), f"{path}.overrides"),
            f"{path}.overrides",
        )
        for key, value in overrides:
            if isinstance(value, tuple):
                raise SpecError(
                    f"{path}.overrides.{key}", "must be a scalar, got a table"
                )
        if name == "none" and overrides:
            raise SpecError(f"{path}.overrides", "'none' takes no overrides")
        return cls(name=name, label=label, overrides=overrides)


@dataclass(frozen=True)
class ConfigSpec:
    """One processor-config variant: a named base plus field overrides.

    Cache levels (``l1i``/``l1d``/``l2``) may be overridden as nested
    tables whose keys are :class:`~repro.engine.config.CacheConfig`
    fields; every other key must name a ``ProcessorConfig`` field.
    """

    label: str = "default"
    base: str = "scaled"
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def build(self) -> ProcessorConfig:
        base = (
            ProcessorConfig.paper() if self.base == "paper" else ProcessorConfig.scaled()
        )
        if not self.overrides:
            return base
        changes: dict = {}
        for key, value in self.overrides:
            if key in _CACHE_LEVELS:
                changes[key] = dataclasses.replace(
                    getattr(base, key), **dict(value)
                )
            else:
                current = getattr(base, key)
                if isinstance(current, float) and isinstance(value, int):
                    value = float(value)
                changes[key] = value
        return base.replace(**changes)

    def fingerprint(self) -> tuple:
        return self.build().fingerprint()

    def to_dict(self) -> dict:
        out: dict = {"label": self.label, "base": self.base}
        if self.overrides:
            out["overrides"] = _items_to_dict(self.overrides)
        return out

    @classmethod
    def from_dict(cls, payload: Any, path: str = "configs") -> "ConfigSpec":
        payload = _require_mapping(payload, path)
        _reject_unknown(payload, ("label", "base", "overrides"), path)
        label = _require_str(payload.get("label", "default"), f"{path}.label")
        base = _require_str(payload.get("base", "scaled"), f"{path}.base")
        if base not in CONFIG_BASES:
            raise SpecError(
                f"{path}.base",
                f"unknown base {base!r} (expected one of {CONFIG_BASES})",
            )
        overrides = _items(
            _require_mapping(payload.get("overrides", {}), f"{path}.overrides"),
            f"{path}.overrides",
        )
        for key, value in overrides:
            where = f"{path}.overrides.{key}"
            if key in _CACHE_LEVELS:
                if not isinstance(value, tuple):
                    raise SpecError(where, "cache-level override must be a table")
                for cache_key, _ in value:
                    if cache_key not in _CACHE_FIELDS:
                        raise SpecError(
                            f"{where}.{cache_key}",
                            f"unknown CacheConfig field {cache_key!r}",
                        )
            elif key not in _CONFIG_FIELDS:
                raise SpecError(
                    where, f"unknown ProcessorConfig field {key!r}"
                )
            elif isinstance(value, tuple):
                raise SpecError(where, "must be a scalar, got a table")
        spec = cls(label=label, base=base, overrides=overrides)
        try:
            spec.build()
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{path}.overrides", f"rejected by ProcessorConfig: {exc}")
        return spec


@dataclass(frozen=True)
class ThreadPoint:
    """One CMP point: thread count plus optional per-thread records.

    ``n_threads = 0`` is the single-threaded trace; ``records = None``
    inherits the grid's record count (counted *per thread* when
    ``n_threads > 0``, matching :class:`~repro.parallel.JobSpec`).
    """

    n_threads: int = 0
    records: Optional[int] = None

    def to_dict(self) -> dict:
        out: dict = {"n_threads": self.n_threads}
        if self.records is not None:
            out["records"] = self.records
        return out

    @classmethod
    def from_dict(cls, payload: Any, path: str = "grid.threads") -> "ThreadPoint":
        payload = _require_mapping(payload, path)
        _reject_unknown(payload, ("n_threads", "records"), path)
        n_threads = _require_int(
            payload.get("n_threads", 0), f"{path}.n_threads", minimum=0
        )
        records = payload.get("records")
        if records is not None:
            records = _require_int(records, f"{path}.records", minimum=1)
        return cls(n_threads=n_threads, records=records)


@dataclass(frozen=True)
class GridSpec:
    """The workload-independent job grid: records × seeds × thread points."""

    records: int = 280_000
    seeds: Tuple[int, ...] = (7,)
    warmup_records: Optional[int] = None
    scale: float = 1.0
    threads: Tuple[ThreadPoint, ...] = (ThreadPoint(),)

    def to_dict(self) -> dict:
        out: dict = {"records": self.records, "seeds": list(self.seeds)}
        if self.warmup_records is not None:
            out["warmup_records"] = self.warmup_records
        if self.scale != 1.0:
            out["scale"] = self.scale
        if self.threads != (ThreadPoint(),):
            out["threads"] = [tp.to_dict() for tp in self.threads]
        return out

    @classmethod
    def from_dict(cls, payload: Any, path: str = "grid") -> "GridSpec":
        payload = _require_mapping(payload, path)
        _reject_unknown(
            payload, ("records", "seeds", "warmup_records", "scale", "threads"), path
        )
        records = _require_int(
            payload.get("records", 280_000), f"{path}.records", minimum=1
        )
        seeds = tuple(
            _require_int(seed, f"{path}.seeds[{i}]", minimum=0)
            for i, seed in enumerate(_require_list(payload.get("seeds", [7]), f"{path}.seeds"))
        )
        if len(set(seeds)) != len(seeds):
            raise SpecError(f"{path}.seeds", "seeds must be distinct")
        warmup = payload.get("warmup_records")
        if warmup is not None:
            warmup = _require_int(warmup, f"{path}.warmup_records", minimum=0)
        scale = _require_number(payload.get("scale", 1.0), f"{path}.scale")
        if scale <= 0:
            raise SpecError(f"{path}.scale", f"must be > 0, got {scale}")
        raw_threads = payload.get("threads", [{"n_threads": 0}])
        threads = tuple(
            ThreadPoint.from_dict(tp, f"{path}.threads[{i}]")
            for i, tp in enumerate(_require_list(raw_threads, f"{path}.threads"))
        )
        if len(set(threads)) != len(threads):
            raise SpecError(f"{path}.threads", "thread points must be distinct")
        return cls(
            records=records,
            seeds=seeds,
            warmup_records=warmup,
            scale=scale,
            threads=threads,
        )


@dataclass(frozen=True)
class ExecutionSpec:
    """The spec's execution-policy block (lowered to ``ExecutionPolicy``).

    Everything here is *how* to run, never *what*: no field may change
    results.  CLI flags override these values; the spec provides the
    defaults.
    """

    jobs: Optional[int] = None
    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_s: float = 0.25
    checkpoint_dir: Optional[str] = None

    def to_policy(self, **overrides: Any) -> ExecutionPolicy:
        values = {
            "jobs": self.jobs,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "checkpoint_dir": self.checkpoint_dir,
        }
        values.update({k: v for k, v in overrides.items() if v is not None})
        return ExecutionPolicy(**values)

    def to_dict(self) -> dict:
        out: dict = {}
        for name in ("jobs", "timeout_s", "checkpoint_dir"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.retries != 1:
            out["retries"] = self.retries
        if self.backoff_s != 0.25:
            out["backoff_s"] = self.backoff_s
        return out

    @classmethod
    def from_dict(cls, payload: Any, path: str = "execution") -> "ExecutionSpec":
        payload = _require_mapping(payload, path)
        _reject_unknown(
            payload,
            ("jobs", "timeout_s", "retries", "backoff_s", "checkpoint_dir"),
            path,
        )
        jobs = payload.get("jobs")
        if jobs is not None:
            jobs = _require_int(jobs, f"{path}.jobs", minimum=0)
        timeout_s = payload.get("timeout_s")
        if timeout_s is not None:
            timeout_s = _require_number(timeout_s, f"{path}.timeout_s")
            if timeout_s <= 0:
                raise SpecError(f"{path}.timeout_s", "must be > 0")
        retries = _require_int(payload.get("retries", 1), f"{path}.retries", minimum=0)
        backoff_s = _require_number(
            payload.get("backoff_s", 0.25), f"{path}.backoff_s", minimum=0.0
        )
        checkpoint_dir = payload.get("checkpoint_dir")
        if checkpoint_dir is not None:
            checkpoint_dir = _require_str(checkpoint_dir, f"{path}.checkpoint_dir")
        return cls(
            jobs=jobs,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            checkpoint_dir=checkpoint_dir,
        )


@dataclass(frozen=True)
class OutputSpec:
    """Presentation hints: baselines, axis naming, titling."""

    baseline: bool = True
    x_axis: str = "prefetcher"
    x_label: str = ""
    title: str = ""

    def to_dict(self) -> dict:
        out: dict = {}
        if not self.baseline:
            out["baseline"] = False
        if self.x_axis != "prefetcher":
            out["x_axis"] = self.x_axis
        if self.x_label:
            out["x_label"] = self.x_label
        if self.title:
            out["title"] = self.title
        return out

    @classmethod
    def from_dict(cls, payload: Any, path: str = "output") -> "OutputSpec":
        payload = _require_mapping(payload, path)
        _reject_unknown(payload, ("baseline", "x_axis", "x_label", "title"), path)
        baseline = _require_bool(payload.get("baseline", True), f"{path}.baseline")
        x_axis = _require_str(payload.get("x_axis", "prefetcher"), f"{path}.x_axis")
        if x_axis not in _X_AXES:
            raise SpecError(
                f"{path}.x_axis", f"unknown axis {x_axis!r} (expected one of {_X_AXES})"
            )
        x_label = _require_str(
            payload.get("x_label", ""), f"{path}.x_label", allow_empty=True
        )
        title = _require_str(
            payload.get("title", ""), f"{path}.title", allow_empty=True
        )
        return cls(baseline=baseline, x_axis=x_axis, x_label=x_label, title=title)


@dataclass(frozen=True)
class SweepSpec:
    """A complete, frozen description of one sweep."""

    name: str
    workloads: Tuple[str, ...]
    version: int = SPEC_VERSION
    description: str = ""
    grid: GridSpec = field(default_factory=GridSpec)
    configs: Tuple[ConfigSpec, ...] = (ConfigSpec(),)
    prefetchers: Tuple[PrefetcherSpec, ...] = ()
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    # -- lookups --------------------------------------------------------

    def config_by_label(self, label: str) -> ConfigSpec:
        for cfg in self.configs:
            if cfg.label == label:
                return cfg
        raise KeyError(label)

    # -- derivation -----------------------------------------------------

    def replace(self, **changes: Any) -> "SweepSpec":
        """A copy with top-level fields replaced (validation re-applied)."""
        return type(self).from_dict(
            {**self.to_dict(), **{k: v for k, v in changes.items()}}
        )

    def with_grid(self, **changes: Any) -> "SweepSpec":
        """A copy with grid fields replaced — the records/seed override hook."""
        grid = self.grid.to_dict()
        for key, value in changes.items():
            if value is None:
                continue
            grid[key] = value
        return self.replace(grid=grid)

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {
            "version": self.version,
            "name": self.name,
            "workloads": list(self.workloads),
            "grid": self.grid.to_dict(),
        }
        if self.description:
            out["description"] = self.description
        if self.configs != (ConfigSpec(),):
            out["configs"] = [cfg.to_dict() for cfg in self.configs]
        if self.prefetchers:
            out["prefetchers"] = [pf.to_dict() for pf in self.prefetchers]
        execution = self.execution.to_dict()
        if execution:
            out["execution"] = execution
        output = self.output.to_dict()
        if output:
            out["output"] = output
        return out

    def fingerprint(self) -> str:
        """A content address: sha256 of the canonical JSON form."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Any) -> "SweepSpec":
        payload = _require_mapping(payload, "")
        _reject_unknown(
            payload,
            (
                "version",
                "name",
                "description",
                "workloads",
                "grid",
                "configs",
                "prefetchers",
                "execution",
                "output",
            ),
            "",
        )
        if "version" not in payload:
            raise SpecError("version", "missing required key")
        version = payload["version"]
        if isinstance(version, bool) or not isinstance(version, int):
            raise SpecVersionError(
                "version",
                f"expected an integer, got {type(version).__name__}",
                found=version,
            )
        if version != SPEC_VERSION:
            raise SpecVersionError(
                "version",
                f"schema version {version} not supported (this build reads "
                f"version {SPEC_VERSION})",
                found=version,
            )
        name = _require_str(payload.get("name"), "name")
        description = _require_str(
            payload.get("description", ""), "description", allow_empty=True
        )
        raw_workloads = _require_list(payload.get("workloads"), "workloads")
        workloads = []
        for i, workload in enumerate(raw_workloads):
            workload = _require_str(workload, f"workloads[{i}]")
            if workload not in WORKLOADS:
                raise SpecError(
                    f"workloads[{i}]",
                    f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})",
                )
            if workload in workloads:
                raise SpecError(f"workloads[{i}]", f"duplicate workload {workload!r}")
            workloads.append(workload)
        grid = GridSpec.from_dict(payload.get("grid", {}), "grid")
        raw_configs = payload.get("configs")
        if raw_configs is None:
            configs: Tuple[ConfigSpec, ...] = (ConfigSpec(),)
        else:
            configs = tuple(
                ConfigSpec.from_dict(cfg, f"configs[{i}]")
                for i, cfg in enumerate(_require_list(raw_configs, "configs"))
            )
            labels = [cfg.label for cfg in configs]
            if len(set(labels)) != len(labels):
                raise SpecError("configs", "config labels must be unique")
        raw_prefetchers = payload.get("prefetchers", [])
        prefetchers = tuple(
            PrefetcherSpec.from_dict(pf, f"prefetchers[{i}]")
            for i, pf in enumerate(
                _require_list(raw_prefetchers, "prefetchers", allow_empty=True)
            )
        )
        pf_labels = [pf.effective_label for pf in prefetchers]
        if len(set(pf_labels)) != len(pf_labels):
            raise SpecError("prefetchers", "prefetcher labels must be unique")
        execution = ExecutionSpec.from_dict(payload.get("execution", {}), "execution")
        output = OutputSpec.from_dict(payload.get("output", {}), "output")
        if not prefetchers and not output.baseline:
            raise SpecError(
                "prefetchers",
                "empty sweep: no prefetchers and output.baseline is false",
            )
        for i, pf in enumerate(prefetchers):
            if pf.name == "none":
                raise SpecError(
                    f"prefetchers[{i}].name",
                    "'none' is implied by output.baseline; list candidates only",
                )
        return cls(
            name=name,
            workloads=tuple(workloads),
            version=version,
            description=description,
            grid=grid,
            configs=configs,
            prefetchers=prefetchers,
            execution=execution,
            output=output,
        )
