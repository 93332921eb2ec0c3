"""One differential property over random sweep cells.

Hypothesis draws a small :class:`~repro.spec.SweepSpec` — one workload,
one seed, one processor-config variant and one or two candidate
prefetchers — and runs it three ways:

* ``run_spec`` with the epoch kernel on (the default),
* ``run_spec`` with ``REPRO_KERNEL=off`` (the scalar filter-plane walk),
* ``submit_spec`` against a running service.

All three must agree snapshot for snapshot: kernel == scalar reference,
and served == local.  Each planned job's identity must also equal the
one the server computes from that job's wire params, so a served result
is stored and found under the key a local run would use.

A second property holds the worker metrics to their oracle: the registry
a job ships back (fed by the run itself) must equal, instrument for
instrument, a ``SimulationMetrics`` subscribed to an ``EventBus`` over
the same job, with the kernel on and with it off.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry, SimulationMetrics
from repro.obs.tracing import TelemetrySink
from repro.resilience.executor import execute
from repro.resilience.policy import ExecutionPolicy
from repro.service import BackgroundService, ServiceConfig
from repro.service.protocol import SimulateParams
from repro.spec import SPEC_VERSION, SweepSpec, expand, run_spec, submit_spec
from repro.spec.wire import config_from_wire, identity_from_simulate, simulate_params_for
from repro.workloads.registry import WORKLOADS

from tests.helpers import without_bus_fallback

POLICY = ExecutionPolicy(jobs=1)

#: Degrees to draw; Figure 9 runs every scheme but SMS at degree 6.
_DEGREES = st.sampled_from([1, 2, 4, 6, 8, 16])

#: Candidate prefetchers (every Figure 9 label) and the constructor
#: overrides each may draw.
CANDIDATES = {
    "ebcp": {
        "prefetch_degree": _DEGREES,
        "table_entries": st.sampled_from([4 * 1024, 16 * 1024]),
        "emab_capacity_per_epoch": st.sampled_from([4, 8, 32]),
    },
    "ebcp_minus": {"prefetch_degree": _DEGREES},
    "ebcp_onchip": {"prefetch_degree": _DEGREES},
    "ghb_large": {"degree": _DEGREES},
    "ghb_small": {"degree": _DEGREES},
    "sms": {},
    "solihin_3_2": {"degree": _DEGREES},
    "solihin_6_1": {"degree": _DEGREES},
    "stream": {"degree": _DEGREES},
    "tcp_large": {"degree": _DEGREES},
    "tcp_small": {"degree": _DEGREES},
}


@st.composite
def sweep_specs(draw) -> SweepSpec:
    config: dict = {"label": "cfg", "base": draw(st.sampled_from(["scaled", "paper"]))}
    overrides: dict = {}
    if draw(st.booleans()):
        overrides["prefetch_buffer_entries"] = draw(st.sampled_from([16, 32, 128]))
    if draw(st.booleans()):
        overrides["read_bw_gbps"] = draw(st.sampled_from([3.2, 6.4, 19.2]))
        overrides["write_bw_gbps"] = draw(st.sampled_from([1.6, 2.4, 9.6]))
    if overrides:
        config["overrides"] = overrides
    names = draw(
        st.lists(st.sampled_from(sorted(CANDIDATES)), min_size=1, max_size=2, unique=True)
    )
    prefetchers = []
    for name in names:
        entry: dict = {"name": name}
        chosen = {
            key: draw(values)
            for key, values in CANDIDATES[name].items()
            if draw(st.booleans())
        }
        if chosen:
            entry["overrides"] = chosen
        prefetchers.append(entry)
    return SweepSpec.from_dict(
        {
            "version": SPEC_VERSION,
            "name": "differential",
            "workloads": [draw(st.sampled_from(WORKLOADS))],
            "grid": {
                "records": draw(st.integers(1_000, 5_000)),
                "seeds": [draw(st.integers(0, 99))],
            },
            "configs": [config],
            "prefetchers": prefetchers,
        }
    )


@pytest.fixture(scope="module")
def service_address():
    with BackgroundService(
        ServiceConfig(port=0), policy=POLICY, start_timeout_s=120.0
    ) as svc:
        yield svc.address


@settings(max_examples=20, deadline=None)
@given(spec=sweep_specs())
def test_kernel_scalar_and_served_agree(service_address, spec):
    plan = expand(spec)
    for job, meta in zip(plan.jobs, plan.meta):
        wire = json.loads(json.dumps(simulate_params_for(meta)))
        params = SimulateParams.from_dict(wire)
        served_key = identity_from_simulate(params, config_from_wire(params.config))
        assert job.identity() == served_key, wire
    host, port = service_address
    with pytest.MonkeyPatch.context() as env:
        env.delenv("REPRO_KERNEL", raising=False)
        kernel = run_spec(spec, policy=POLICY)
        served = submit_spec(spec, host=host, port=port)
        env.setenv("REPRO_KERNEL", "off")
        scalar = run_spec(spec, policy=POLICY)
    expected = [result.snapshot() for result in kernel.results]
    assert [result.snapshot() for result in scalar.results] == expected
    assert [result.snapshot() for result in served.results] == expected


@settings(max_examples=20, deadline=None)
@given(spec=sweep_specs())
def test_worker_metrics_equal_bus_oracle(spec):
    plan = expand(spec)
    with pytest.MonkeyPatch.context() as env:
        for kernel in ("on", "off"):
            if kernel == "off":
                env.setenv("REPRO_KERNEL", "off")
            else:
                env.delenv("REPRO_KERNEL", raising=False)
            for job in plan.jobs:
                sink = TelemetrySink(registry=MetricsRegistry())
                execute([job], POLICY, telemetry=sink)
                prefix = f"{job.label or job.workload}."
                shipped = sink.registry.to_dict()
                assert all(name.startswith(prefix) for name in shipped)
                shipped = {name[len(prefix):]: inst for name, inst in shipped.items()}
                bus = EventBus()
                oracle = SimulationMetrics(bus)
                job.run(bus=bus)
                assert shipped == without_bus_fallback(oracle.to_dict()), (kernel, job.label)
