"""Prefetcher factory.

``build_prefetcher(name, **overrides)`` constructs any scheme evaluated in
the paper by its Figure 9 label.  Overrides are passed to the underlying
constructor/factory, so e.g. ``build_prefetcher("ebcp", prefetch_degree=32)``
builds the idealized sweep point.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping, Optional

from .base import Prefetcher
from .ghb import make_ghb_large, make_ghb_small
from .none import NoPrefetcher
from .sms import SpatialMemoryStreaming
from .solihin import make_solihin_3_2, make_solihin_6_1
from .stream import StreamPrefetcher
from .tcp import make_tcp_large, make_tcp_small

__all__ = ["PREFETCHERS", "build_prefetcher", "canonical_overrides"]


# The EBCP factories live in repro.core, which subclasses this package's
# Prefetcher base — import them lazily to keep the package graph acyclic.
def _ebcp(**kwargs: object) -> Prefetcher:
    from ..core.variants import make_ebcp

    return make_ebcp(**kwargs)  # type: ignore[arg-type]


def _ebcp_minus(**kwargs: object) -> Prefetcher:
    from ..core.variants import make_ebcp_minus

    return make_ebcp_minus(**kwargs)  # type: ignore[arg-type]


def _ebcp_onchip(**kwargs: object) -> Prefetcher:
    from ..core.variants import make_ebcp_onchip

    return make_ebcp_onchip(**kwargs)  # type: ignore[arg-type]


def _ebcp_cmp(**kwargs: object) -> Prefetcher:
    from ..core.cmp import CMPEBCPConfig, PerThreadEpochPrefetcher
    from ..core.prefetcher import EBCPConfig

    return PerThreadEpochPrefetcher(CMPEBCPConfig(EBCPConfig(**kwargs)))  # type: ignore[arg-type]


def _ebcp_interleaved(**kwargs: object) -> Prefetcher:
    from ..core.cmp import CMPEBCPConfig, InterleavedStreamEBCP
    from ..core.prefetcher import EBCPConfig

    return InterleavedStreamEBCP(CMPEBCPConfig(EBCPConfig(**kwargs)))  # type: ignore[arg-type]


_FACTORIES: dict[str, Callable[..., Prefetcher]] = {
    "none": NoPrefetcher,
    "stream": StreamPrefetcher,
    "ghb_small": make_ghb_small,
    "ghb_large": make_ghb_large,
    "tcp_small": make_tcp_small,
    "tcp_large": make_tcp_large,
    "sms": SpatialMemoryStreaming,
    "solihin_3_2": make_solihin_3_2,
    "solihin_6_1": make_solihin_6_1,
    "ebcp": _ebcp,
    "ebcp_minus": _ebcp_minus,
    "ebcp_onchip": _ebcp_onchip,
    "ebcp_cmp": _ebcp_cmp,
    "ebcp_interleaved": _ebcp_interleaved,
}

#: All registered prefetcher names (Figure 9's x-axis plus variants).
PREFETCHERS: tuple[str, ...] = tuple(_FACTORIES)


def canonical_overrides(overrides: Optional[Mapping[str, Any]]) -> str:
    """Constructor overrides as the canonical JSON job identities hash."""
    if not overrides:
        return ""
    return json.dumps(dict(overrides), sort_keys=True, separators=(",", ":"))


def build_prefetcher(name: str, **overrides: object) -> Prefetcher:
    """Construct a prefetcher by its evaluation label, recording
    ``(name, canonical overrides)`` on it as ``built_as``."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown prefetcher '{name}'; choose from {PREFETCHERS}") from None
    prefetcher = factory(**overrides)
    prefetcher.built_as = (name, canonical_overrides(overrides))
    return prefetcher
