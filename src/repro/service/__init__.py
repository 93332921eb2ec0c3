"""The resident simulation service: async server + client SDK.

Everything below the service already existed as batch machinery — the
observability bus (:mod:`repro.obs`), parallel job fan-out
(:mod:`repro.parallel`), filter-plane caches
(:mod:`repro.engine.filter_plane`) and the fault-tolerant executor
(:mod:`repro.resilience`).  This package turns that per-run machinery
into shared warm infrastructure: one long-lived process that serves
simulate requests over TCP, micro-batching concurrent requests into one
executor batch over a persistent process pool and answering repeats
from an identity-keyed result cache.

Quick tour
----------
Serve (blocking; drains gracefully on SIGTERM)::

    repro-ebcp serve --port 7421 -j 4

or sharded — N worker processes behind a consistent-hash front-end,
each with its own pool and cache, spilling warm results to a disk tier
that survives restarts::

    repro-ebcp serve --port 7421 --workers 4 --cache-dir /var/cache/repro

Call from Python (sync)::

    from repro.service import ServiceClient
    with ServiceClient("127.0.0.1", 7421) as client:
        served = client.simulate("tpcw", "ebcp", records=50_000)
        print(served.result.cpi, served.cached)

or async — concurrent calls coalesce into one server micro-batch::

    from repro.service import AsyncServiceClient
    client = AsyncServiceClient("127.0.0.1", 7421)
    results = await asyncio.gather(
        *(client.simulate(w, "ebcp", records=50_000)
          for w in ("tpcc", "tpcw", "tpch")))

Modules
-------
``protocol``  newline-delimited versioned JSON frames, typed error codes
``server``    :class:`SimulationService` — queue, batcher, drain logic
``client``    :class:`ServiceClient` / :class:`AsyncServiceClient`
``cache``     :class:`ResultCache` — identity-keyed LRU of results
              with an optional checksummed disk spill tier
``sharding``  :class:`HashRing` / :func:`routing_key` — consistent-hash
              request routing
``router``    :class:`ShardedService` — the multi-process front-end
``supervisor``  :class:`ShardSupervisor` — shard liveness, crash
              recovery and live resize for the sharded front-end
"""

from .cache import ResultCache
from .client import (
    AsyncServiceClient,
    ServedResult,
    ServiceBusyError,
    ServiceClient,
    ServiceError,
)
from .protocol import PROTOCOL_VERSION, SUPPORTED_VERSIONS, ErrorCode
from .router import ShardedService
from .server import BackgroundService, ServiceConfig, SimulationService, serve
from .sharding import HashRing, routing_key
from .supervisor import ShardState, ShardSupervisor

__all__ = [
    "AsyncServiceClient",
    "BackgroundService",
    "ErrorCode",
    "HashRing",
    "PROTOCOL_VERSION",
    "ResultCache",
    "SUPPORTED_VERSIONS",
    "ServedResult",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ShardState",
    "ShardSupervisor",
    "ShardedService",
    "SimulationService",
    "routing_key",
    "serve",
]
