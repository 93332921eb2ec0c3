"""Wire protocol of the simulation service.

One request or response per line: a UTF-8 JSON object terminated by
``\\n`` (newline-delimited JSON).  Frames are small — a simulate request
is its generation parameters, a response carries a
:meth:`~repro.engine.stats.SimulationResult.snapshot` — and the framing
needs nothing beyond ``readline``, so the protocol is equally usable
from ``nc``, a shell script or the bundled SDK.

Versioning
----------
Every frame carries ``"v"``.  A request whose version the server does
not speak is answered with an ``unsupported_version`` error that lists
``SUPPORTED_VERSIONS``, so a newer client can downgrade instead of
guessing.  Version 2 added the ``metrics`` request type and an optional
``trace`` field on request frames; version 3 adds the ``telemetry``
request type and shard metadata on simulate responses served by a
sharded front-end.  Version 4 adds the streaming ``sweep`` request type
(one request, many response frames) and the extended simulate
parameters that carry a declarative-spec job: ``config`` (a
``{"base", "overrides"}`` processor-config payload),
``prefetcher_overrides``, ``n_threads``, ``scale`` and ``label``.  The
extended parameters are omitted from the wire at their defaults, so a
v4 client issuing a plain simulate emits frames a v1 server parses.
Version 5 adds the ``admin`` request type (fleet control: live resize
of a sharded front-end) and per-shard liveness fields on sharded
``ping``/``stats`` payloads.  Each version is a strict superset of the
previous one, so v1-v4 clients are still served — the server accepts
every version in ``SUPPORTED_VERSIONS``.

Request frames
--------------
``{"v": 3, "id": "<client-chosen>", "type": "<type>", "params": {...},
"trace": {"trace_id": ..., "span_id": ...}}`` — ``trace`` is optional
(v2+) and carries the client's :class:`~repro.obs.tracing.TraceContext`
so server-side spans join the client's trace.

=============  ========================================================
type           params
=============  ========================================================
``ping``       none — liveness and version discovery
``simulate``   ``workload``, ``prefetcher``, ``records``, ``seed``,
               optional ``warmup_records``, ``use_cache`` (default
               true); v4 adds optional ``config``,
               ``prefetcher_overrides``, ``n_threads``, ``scale``,
               ``label``
``sweep``      ``spec`` (a version-1 sweep-spec document, JSON form),
               optional ``use_cache`` — streams one frame per job
               (``{"job": {...}, "result": {...}}``) as they settle,
               then a terminal ``{"done": true}`` frame (v4+)
``stats``      none — the service's metrics-registry snapshot (sharded:
               the cross-shard aggregate plus a per-shard breakdown)
``metrics``    none — the merged registry as Prometheus text (v2+)
``telemetry``  optional ``drain`` (default false) — the spans and
               metric registries the service holds, for cross-process
               aggregation; ``drain`` removes the spans on read (v3+)
``admin``      ``command`` (currently only ``"resize"``) plus its
               arguments (``resize``: ``workers``, the target fleet
               size) — fleet control; only a sharded front-end accepts
               it (v5+)
``shutdown``   none — begin graceful drain (in-flight requests finish)
=============  ========================================================

Response frames
---------------
``{"v": 1, "id": ..., "ok": true, "result": {...}}`` on success, or
``{"v": 1, "id": ..., "ok": false, "error": {"code": ..., "message":
..., ...}}`` with a typed :class:`ErrorCode`.  ``queue_full`` errors
additionally carry ``retry_after_s`` — the server's backpressure hint.
A simulate response proxied by a sharded front-end additionally carries
``"shard": {"index": ..., "pid": ...}`` — which worker process ran (or
cached) the request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "MAX_FRAME_BYTES",
    "REQUEST_TYPES",
    "ErrorCode",
    "ProtocolError",
    "ServiceError",
    "ServiceBusyError",
    "Request",
    "SimulateParams",
    "encode_frame",
    "decode_frame",
    "parse_request",
    "ok_response",
    "error_response",
    "raise_for_error",
]

#: The protocol version this build speaks natively.
PROTOCOL_VERSION = 5
#: Every version the server accepts (negotiation surface).  v1-v4
#: clients never send the newer request types and are served unchanged.
SUPPORTED_VERSIONS: Tuple[int, ...] = (1, 2, 3, 4, 5)
#: Upper bound on one frame; a longer line is a malformed frame.
MAX_FRAME_BYTES = 1 << 20

REQUEST_TYPES = (
    "ping", "simulate", "sweep", "stats", "metrics", "telemetry", "admin", "shutdown"
)


class ErrorCode(str, Enum):
    """Typed error codes; the wire form is the lowercase string value."""

    MALFORMED_FRAME = "malformed_frame"
    UNSUPPORTED_VERSION = "unsupported_version"
    UNKNOWN_TYPE = "unknown_type"
    INVALID_REQUEST = "invalid_request"
    QUEUE_FULL = "queue_full"
    SHUTTING_DOWN = "shutting_down"
    INTERNAL = "internal"


class ServiceError(Exception):
    """An error response from the service, surfaced client-side."""

    def __init__(self, code: ErrorCode, message: str, **details: Any) -> None:
        super().__init__(f"{code.value}: {message}")
        self.code = code
        self.message = message
        self.details = details


class ServiceBusyError(ServiceError):
    """``queue_full`` backpressure — retry after :attr:`retry_after_s`."""

    def __init__(self, message: str, retry_after_s: float = 0.0, **details: Any) -> None:
        super().__init__(ErrorCode.QUEUE_FULL, message, **details)
        self.retry_after_s = retry_after_s


class ProtocolError(Exception):
    """A frame the server cannot act on (server-side parse failure)."""

    def __init__(self, code: ErrorCode, message: str, **details: Any) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.details = details


# ----------------------------------------------------------------------
# Typed request payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimulateParams:
    """Parameters of one simulate request.

    Deliberately *names*, not objects: the client names a registered
    workload and prefetcher, and the server constructs both — which is
    what makes the identity-keyed result cache safe (every request
    with equal parameters starts from identical predictor state).
    """

    workload: str
    prefetcher: str = "none"
    records: int = 280_000
    seed: int = 7
    warmup_records: Optional[int] = None
    use_cache: bool = True
    # v4 extensions (spec-expanded jobs).  All default to the value a
    # v1-v3 server assumes, and to_dict omits them at their defaults, so
    # a plain simulate stays wire-compatible in both directions.
    config: Optional[Dict[str, Any]] = None
    prefetcher_overrides: Optional[Dict[str, Any]] = None
    n_threads: int = 0
    scale: float = 1.0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "workload must be a non-empty string")
        if not isinstance(self.prefetcher, str) or not self.prefetcher:
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "prefetcher must be a non-empty string")
        if not isinstance(self.records, int) or self.records <= 0:
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "records must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            # No generator accepts a negative seed (numpy's default_rng).
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "seed must be a non-negative integer")
        if self.warmup_records is not None and (
            not isinstance(self.warmup_records, int) or self.warmup_records < 0
        ):
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, "warmup_records must be a non-negative integer"
            )
        if self.config is not None and not isinstance(self.config, dict):
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "config must be an object")
        if self.prefetcher_overrides is not None and not isinstance(
            self.prefetcher_overrides, dict
        ):
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, "prefetcher_overrides must be an object"
            )
        if not isinstance(self.n_threads, int) or isinstance(self.n_threads, bool) \
                or self.n_threads < 0:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, "n_threads must be a non-negative integer"
            )
        if not isinstance(self.scale, (int, float)) or isinstance(self.scale, bool) \
                or self.scale <= 0:
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "scale must be a positive number")
        if self.label is not None and not isinstance(self.label, str):
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "label must be a string")

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "workload": self.workload,
            "prefetcher": self.prefetcher,
            "records": self.records,
            "seed": self.seed,
            "use_cache": self.use_cache,
        }
        if self.warmup_records is not None:
            payload["warmup_records"] = self.warmup_records
        if self.config is not None:
            payload["config"] = self.config
        if self.prefetcher_overrides is not None:
            payload["prefetcher_overrides"] = self.prefetcher_overrides
        if self.n_threads:
            payload["n_threads"] = self.n_threads
        if self.scale != 1.0:
            payload["scale"] = self.scale
        if self.label is not None:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimulateParams":
        if not isinstance(payload, dict):
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "params must be an object")
        known = {
            "workload",
            "prefetcher",
            "records",
            "seed",
            "warmup_records",
            "use_cache",
            "config",
            "prefetcher_overrides",
            "n_threads",
            "scale",
            "label",
        }
        unknown = set(payload) - known
        if unknown:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"unknown simulate parameter(s): {', '.join(sorted(unknown))}",
            )
        if "workload" not in payload:
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "simulate requires 'workload'")
        return cls(**payload)


@dataclass(frozen=True)
class Request:
    """One parsed, version-checked request frame.

    ``trace`` is the optional (v2+) trace-context wire dict; absent for
    v1 clients and untraced v2 requests.
    """

    type: str
    id: str
    version: int = PROTOCOL_VERSION
    params: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        frame: Dict[str, Any] = {"v": self.version, "id": self.id, "type": self.type}
        if self.params:
            frame["params"] = self.params
        if self.trace:
            frame["trace"] = self.trace
        return frame


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One JSON object as a newline-terminated UTF-8 frame."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            ErrorCode.MALFORMED_FRAME, f"frame exceeds {MAX_FRAME_BYTES} bytes"
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(ErrorCode.MALFORMED_FRAME, f"not a JSON frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(ErrorCode.MALFORMED_FRAME, "frame must be a JSON object")
    return payload


def parse_request(line: bytes) -> Request:
    """Parse and validate one request frame (version, type, id shape)."""
    payload = decode_frame(line)
    request_id = payload.get("id")
    if request_id is None:
        request_id = ""
    if not isinstance(request_id, str):
        raise ProtocolError(ErrorCode.MALFORMED_FRAME, "'id' must be a string")
    version = payload.get("v")
    if not isinstance(version, int):
        raise ProtocolError(
            ErrorCode.MALFORMED_FRAME, "missing integer 'v' (protocol version)",
            request_id=request_id,
        )
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            ErrorCode.UNSUPPORTED_VERSION,
            f"protocol version {version} not supported",
            request_id=request_id,
            supported=list(SUPPORTED_VERSIONS),
        )
    request_type = payload.get("type")
    if not isinstance(request_type, str):
        raise ProtocolError(
            ErrorCode.MALFORMED_FRAME, "missing string 'type'", request_id=request_id
        )
    if request_type not in REQUEST_TYPES:
        raise ProtocolError(
            ErrorCode.UNKNOWN_TYPE,
            f"unknown request type '{request_type}'",
            request_id=request_id,
            known=list(REQUEST_TYPES),
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, "'params' must be an object", request_id=request_id
        )
    # Trace context is best-effort observability: a malformed one is
    # dropped, never a request failure.
    trace = payload.get("trace")
    if not isinstance(trace, dict):
        trace = None
    return Request(
        type=request_type, id=request_id, version=version, params=params, trace=trace
    )


# ----------------------------------------------------------------------
# Response construction
# ----------------------------------------------------------------------
def ok_response(request_id: str, result: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
    frame: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": result,
    }
    frame.update(extra)
    return frame


def error_response(
    request_id: str, code: ErrorCode, message: str, **details: Any
) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code.value, "message": message}
    error.update(details)
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False, "error": error}


def raise_for_error(frame: Dict[str, Any]) -> Dict[str, Any]:
    """Client-side: return ``frame`` if ok, else raise a typed error."""
    if frame.get("ok"):
        return frame
    error = frame.get("error") or {}
    message = str(error.get("message", "unknown service error"))
    try:
        code = ErrorCode(error.get("code"))
    except ValueError:
        code = ErrorCode.INTERNAL
    details = {
        k: v for k, v in error.items() if k not in ("code", "message", "retry_after_s")
    }
    if code is ErrorCode.QUEUE_FULL:
        raise ServiceBusyError(
            message, retry_after_s=float(error.get("retry_after_s", 0.0)), **details
        )
    raise ServiceError(code, message, **details)
