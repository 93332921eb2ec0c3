"""Submitting a sweep spec to a running service.

``submit_spec`` is the remote twin of :func:`repro.spec.run_spec`: it
streams the service's per-job result frames (protocol v4 ``sweep``)
into the same :class:`~repro.spec.runner.SweepResult` container a local
run produces — plus which jobs were cache hits and which shard answered
each.  Because both sides expand the same spec deterministically, frame
``index`` values line up with the local plan, and results are
field-for-field identical to a local run.
"""

from __future__ import annotations

from typing import Optional

from ..resilience.policy import ExecutionPolicy
from .expand import expand
from .runner import SweepResult
from .schema import SweepSpec

__all__ = ["submit_spec"]


def submit_spec(
    spec: SweepSpec,
    host: str = "127.0.0.1",
    port: int = 7421,
    *,
    use_cache: bool = True,
    timeout_s: float = 600.0,
    retries: int = 1,
    backoff_s: float = 0.25,
    policy: Optional[ExecutionPolicy] = None,
    client: Optional[object] = None,
) -> SweepResult:
    """Run ``spec`` on a service and return its :class:`SweepResult`.

    ``policy`` (when given) supplies the client's retries and backoff,
    and its timeout when it sets one, as ``ServiceClient.from_policy``
    does — except that a policy without a timeout falls back to this
    call's ``timeout_s`` (600 s by default, for a whole sweep stream),
    not to ``from_policy``'s 30 s.  Without a policy the keyword values
    apply.  ``client`` injects an existing :class:`ServiceClient` (the
    caller keeps ownership of its connection).
    """
    from ..service.client import ServiceClient  # lazy: spec stays service-free

    plan = expand(spec)
    results: list = [None] * len(plan.jobs)
    cached = [False] * len(plan.jobs)
    shards: list = [None] * len(plan.jobs)
    elapsed: Optional[float] = None

    def consume(active: "ServiceClient") -> None:
        nonlocal elapsed
        for frame in active.iter_sweep(spec, use_cache=use_cache):
            if frame.done:
                elapsed = frame.elapsed_ms
                break
            results[frame.index] = frame.result
            cached[frame.index] = frame.cached
            shards[frame.index] = frame.shard

    if client is not None:
        consume(client)  # type: ignore[arg-type]
    else:
        if policy is not None:
            kwargs = dict(
                timeout_s=policy.timeout_s or timeout_s,
                retries=policy.retries,
                backoff_s=policy.backoff_s,
            )
        else:
            kwargs = dict(timeout_s=timeout_s, retries=retries, backoff_s=backoff_s)
        with ServiceClient(host, port, **kwargs) as owned:
            consume(owned)

    missing = [i for i, result in enumerate(results) if result is None]
    if missing:
        raise RuntimeError(
            f"sweep stream ended with {len(missing)} unanswered job(s): "
            f"indices {missing[:8]}{'...' if len(missing) > 8 else ''}"
        )
    return SweepResult(
        spec=spec,
        plan=plan,
        results=tuple(results),
        cached=tuple(cached),
        shards=tuple(shards),
        elapsed_ms=elapsed,
    )
