"""Synthetic models of the paper's four commercial workloads.

The paper evaluates on proprietary SPARC full-system traces of a
large-scale database (OLTP), TPC-W, SPECjbb2005 and SPECjAppServer2004.
We cannot have those traces, so each workload is modelled as a pool of
recurring :class:`~repro.workloads.templates.TransactionTemplate` types
whose statistical knobs are calibrated against everything the paper
publishes about the workloads (Table 1 plus the prose characterisation):

* L2 instruction and load miss rates per kilo-instruction,
* epochs per kilo-instruction (i.e. the miss *clustering* and the
  serial/parallel dependence mix),
* per-workload CPI with a perfect L2 (``cpi_perf``, derived by inverting
  the epoch CPI equation against Table 1's overall CPI),
* qualitative traits: the database is load-miss dominated with pointer
  chases into index structures and spatially-clustered row accesses;
  TPC-W and SPECjAppServer2004 have large instruction footprints;
  SPECjbb2005 is data dominated with a tiny instruction footprint; TPC-W
  data accesses are the least predictable (the paper's EBCP gains the
  least there).

All footprints are expressed at the scaled configuration (256 KB L2);
pass ``scale=8`` together with ``ProcessorConfig.paper()`` for full-size
runs.  Traces are deterministic in ``(name, seed, scale, records)``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .patterns import Region, RegionAllocator, spatial_page_lines
from .templates import EPOCH_SPLIT_GAP, Op, TransactionTemplate
from .trace import Trace, TraceBuilder, TraceMeta

__all__ = ["GENERATOR_VERSION", "WorkloadProfile", "PROFILES", "build_commercial_trace"]

#: Version of every workload generator (this module, the synthetic ones
#: and CMP interleaving): bump it with any change that alters a trace.
#: Stored traces and results are keyed on it, so a bump retires them;
#: ``tests/test_versions.py`` pins its trace fingerprints.
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical knobs describing one commercial workload."""

    name: str
    description: str
    # Epoch-model timing parameters (derived from Table 1).
    cpi_perf: float
    overlap: float
    # Transaction structure.
    n_templates: int
    insts_per_txn: int
    code_lines: float  # mean off-chip instruction-miss lines per txn
    chase_chains: float  # dependent-load chains per txn
    chase_depth: float  # hops per chain
    bursts: float  # overlapping load groups per txn
    burst_size: float  # loads per group
    burst_tail_prob: float  # probability a group is a large cluster
    burst_tail_size: int  # loads in a large cluster
    cold_misses: float  # unpredictable misses per txn
    scans: float  # short sequential scans per txn
    scan_len: int
    hot_accesses: int  # L2-resident loads per txn
    stores: int
    # Predictability knobs.
    variant_prob: float  # alternate-path probability per op
    follow_prob: float  # P(next txn type follows the canonical order)
    spatial_burst_prob: float  # bursts clustered within a 2 KB page
    # Footprints (lines at scale=1, i.e. against a 256 KB L2).
    code_footprint_lines: int
    data_footprint_lines: int
    hot_lines: int = 1024
    cold_lines: int = 1 << 20


def _derive_cpi_perf(cpi_overall: float, epi_per_kinst: float, penalty: int = 500,
                     overlap: float = 0.10) -> float:
    """Invert the epoch CPI equation against Table 1 (documentation aid)."""
    return (cpi_overall - epi_per_kinst / 1000.0 * penalty) / (1.0 - overlap)


# Profiles calibrated against Table 1:
#   database: CPI 3.27, EPI 4.07/kinst, I-miss 1.00, L-miss 6.23
#   tpcw:     CPI 2.00, EPI 1.59/kinst, I-miss 0.71, L-miss 1.27
#   specjbb:  CPI 2.06, EPI 2.65/kinst, I-miss 0.12, L-miss 4.30
#   jappserver: CPI 2.78, EPI 3.25/kinst, I-miss 1.57, L-miss 2.64
PROFILES: dict[str, WorkloadProfile] = {
    "database": WorkloadProfile(
        name="database",
        description="Large-scale OLTP: pointer chases into indices, "
        "spatially clustered row reads, load-miss dominated.",
        cpi_perf=_derive_cpi_perf(3.27, 4.07),
        overlap=0.10,
        n_templates=700,
        insts_per_txn=3000,
        code_lines=4.5,
        chase_chains=1.2,
        chase_depth=4.0,
        bursts=2.2,
        burst_size=3.0,
        burst_tail_prob=0.20,
        burst_tail_size=14,
        cold_misses=2.4,
        scans=0.3,
        scan_len=4,
        hot_accesses=40,
        stores=3,
        variant_prob=0.34,
        follow_prob=0.75,
        spatial_burst_prob=0.45,
        code_footprint_lines=4096,
        data_footprint_lines=12288,
    ),
    "tpcw": WorkloadProfile(
        name="tpcw",
        description="Transactional web serving: instruction-miss heavy, "
        "least-predictable data accesses.",
        cpi_perf=_derive_cpi_perf(2.00, 1.59),
        overlap=0.10,
        n_templates=850,
        insts_per_txn=12000,
        code_lines=11.0,
        chase_chains=2.2,
        chase_depth=2.0,
        bursts=1.8,
        burst_size=2.0,
        burst_tail_prob=0.12,
        burst_tail_size=10,
        cold_misses=3.4,
        scans=0.5,
        scan_len=4,
        hot_accesses=40,
        stores=6,
        variant_prob=0.48,
        follow_prob=0.60,
        spatial_burst_prob=0.25,
        code_footprint_lines=8192,
        data_footprint_lines=8192,
    ),
    "specjbb2005": WorkloadProfile(
        name="specjbb2005",
        description="Server-side Java business logic: tiny instruction "
        "footprint, object-graph chases and array scans.",
        cpi_perf=_derive_cpi_perf(2.06, 2.65),
        overlap=0.10,
        n_templates=620,
        insts_per_txn=6000,
        code_lines=1.6,
        chase_chains=2.7,
        chase_depth=3.0,
        bursts=2.4,
        burst_size=3.2,
        burst_tail_prob=0.22,
        burst_tail_size=14,
        cold_misses=1.8,
        scans=0.8,
        scan_len=5,
        hot_accesses=40,
        stores=8,
        variant_prob=0.22,
        follow_prob=0.88,
        spatial_burst_prob=0.45,
        code_footprint_lines=2048,
        data_footprint_lines=14336,
    ),
    "jappserver2004": WorkloadProfile(
        name="jappserver2004",
        description="J2EE application serving: large code footprint and "
        "a balanced instruction/data miss mix.",
        cpi_perf=_derive_cpi_perf(2.78, 3.25),
        overlap=0.10,
        n_templates=750,
        insts_per_txn=6000,
        code_lines=12.0,
        chase_chains=1.7,
        chase_depth=2.5,
        bursts=1.9,
        burst_size=2.6,
        burst_tail_prob=0.16,
        burst_tail_size=12,
        cold_misses=2.6,
        scans=0.4,
        scan_len=4,
        hot_accesses=40,
        stores=5,
        variant_prob=0.42,
        follow_prob=0.70,
        spatial_burst_prob=0.30,
        code_footprint_lines=8192,
        data_footprint_lines=9216,
    ),
}


# ----------------------------------------------------------------------
# Template construction
# ----------------------------------------------------------------------
def _poisson_at_least(rng: np.random.Generator, mean: float, minimum: int = 0) -> int:
    return max(minimum, int(rng.poisson(mean)))


def _build_template(
    profile: WorkloadProfile,
    template_id: int,
    rng: np.random.Generator,
    code: Region,
    data: Region,
    hot: Region,
) -> TransactionTemplate:
    ops: list[Op] = []
    pc_base = 0x0800_0000 + template_id * 0x2000

    def next_pc() -> int:
        return pc_base + len(ops) * 16

    # --- transaction entry: instruction-miss walk ---------------------
    n_code = _poisson_at_least(rng, profile.code_lines)
    if n_code:
        start = int(rng.integers(0, max(1, code.lines - n_code)))
        ops.append(
            Op(
                kind="code",
                pc=next_pc(),
                addrs=tuple(code.sequential_lines(start, n_code)),
                lead_gap=EPOCH_SPLIT_GAP,
                step_gap=40,
            )
        )

    # --- data groups ---------------------------------------------------
    groups: list[Op] = []
    for _ in range(_poisson_at_least(rng, profile.chase_chains)):
        depth = _poisson_at_least(rng, profile.chase_depth, minimum=2)
        addrs = tuple(data.sample_lines(rng, depth))
        variants: list[tuple[int, ...]] = []
        if rng.random() < 0.5:
            # Alternate paths share the entry address (the chain head) so
            # the epoch's trigger — the correlation key — stays stable;
            # only the continuation differs (prefetch-width demand).
            variants.append(addrs[:1] + tuple(data.sample_lines(rng, depth - 1)))
        groups.append(
            Op(kind="chase", pc=next_pc(), addrs=addrs, variants=tuple(variants))
        )
    for _ in range(_poisson_at_least(rng, profile.bursts)):
        is_tail = rng.random() < profile.burst_tail_prob
        if is_tail:
            size = max(2, int(rng.normal(profile.burst_tail_size, 2)))
        else:
            size = _poisson_at_least(rng, profile.burst_size, minimum=1)
        # Large clusters model whole-page work (e.g. a DB page's rows and
        # headers) and are predominantly spatial.  The page is visited
        # several times over the transaction — the later visits are what
        # a spatial-pattern prefetcher (SMS) can cover timely.
        spatial_prob = min(0.95, profile.spatial_burst_prob + (0.45 if is_tail else 0.0))
        if rng.random() < spatial_prob:
            addrs = tuple(spatial_page_lines(data, rng, size))
            if is_tail and size >= 6:
                n_visits = 3 if size >= 10 else 2
                chunk = -(-len(addrs) // n_visits)
                for v in range(n_visits):
                    visit = addrs[v * chunk : (v + 1) * chunk]
                    if visit:
                        groups.append(Op(kind="burst", pc=next_pc(), addrs=visit))
                continue
        else:
            addrs = tuple(data.sample_lines(rng, size))
        variants = []
        if rng.random() < 0.5 and len(addrs) > 1:
            variants.append(addrs[:1] + tuple(data.sample_lines(rng, len(addrs) - 1)))
        groups.append(
            Op(kind="burst", pc=next_pc(), addrs=addrs, variants=tuple(variants))
        )
    for _ in range(_poisson_at_least(rng, profile.scans)):
        start = int(rng.integers(0, max(1, data.lines - profile.scan_len)))
        groups.append(
            Op(
                kind="scan",
                pc=next_pc(),
                addrs=tuple(data.sequential_lines(start, profile.scan_len)),
                step_gap=35,
            )
        )
    n_cold = _poisson_at_least(rng, profile.cold_misses)
    if n_cold:
        groups.append(Op(kind="cold", pc=next_pc(), n=n_cold, lead_gap=EPOCH_SPLIT_GAP))
    rng.shuffle(groups)  # type: ignore[arg-type]

    # Interleave hot (L2-resident) work between the miss groups.
    hot_per_slot = max(1, profile.hot_accesses // max(1, len(groups)))
    for group in groups:
        ops.append(group)
        ops.append(
            Op(
                kind="hot",
                pc=next_pc(),
                addrs=tuple(hot.sample_lines(rng, hot_per_slot, distinct=False)),
                step_gap=10,
            )
        )

    if profile.stores:
        ops.append(
            Op(
                kind="store",
                pc=next_pc(),
                addrs=tuple(data.sample_lines(rng, profile.stores, distinct=False)),
                step_gap=25,
            )
        )

    template = TransactionTemplate(template_id=template_id, ops=ops,
                                   name=f"{profile.name}-t{template_id}")
    # Distribute the transaction's spare computation across the gaps that
    # separate miss groups (rather than lumping it at the end): real
    # transactions interleave computation with their memory operations.
    spare = profile.insts_per_txn - template.instruction_cost()
    # Cold ops pay their lead gap once per access, so widening them would
    # inflate the instruction budget n-fold; leave them at the base gap.
    group_ops = [op for op in ops if op.kind in ("code", "chase", "burst", "scan")]
    if spare > 0 and group_ops:
        per_group = min(2500, spare // len(group_ops))
        for op in group_ops:
            op.lead_gap += per_group
    template.tail_pad = max(0, profile.insts_per_txn - template.instruction_cost())
    return template


# ----------------------------------------------------------------------
# Trace emission
# ----------------------------------------------------------------------
def build_commercial_trace(
    name: str,
    records: int = 280_000,
    seed: int = 7,
    scale: float = 1.0,
) -> Trace:
    """Generate a deterministic trace for one of the four workloads.

    ``scale`` multiplies all footprints (templates, code/data regions);
    use 1.0 against :meth:`ProcessorConfig.scaled` and 8.0 against the
    full-size paper configuration.
    """
    if name not in PROFILES:
        raise KeyError(f"unknown workload '{name}'; choose from {sorted(PROFILES)}")
    profile = PROFILES[name]
    # Per-workload stream decorrelation must be stable across processes:
    # builtin str hashing is randomised per interpreter (PYTHONHASHSEED),
    # which made "deterministic" traces differ from run to run.
    name_salt = zlib.crc32(name.encode("utf-8")) % 65536
    rng = np.random.default_rng(seed * 1_000_003 + name_salt)

    alloc = RegionAllocator(base=0x4000_0000)
    code = alloc.allocate("code", max(64, int(profile.code_footprint_lines * scale)))
    # The data region is deliberately SPARSE: templates sample their
    # fixed lines from an address range ~2000x larger than the resident
    # footprint, like objects scattered across a real heap.  The distinct
    # lines actually drawn (and hence the L2 pressure) are set by the
    # per-template draws, while cache *tags* stay diverse — the property
    # tag-correlating prefetchers depend on.
    data = alloc.allocate("data", max(256, int(profile.data_footprint_lines * scale)) * 2048)
    hot = alloc.allocate("hot", profile.hot_lines)
    cold = alloc.allocate("cold", profile.cold_lines)

    n_templates = max(8, int(profile.n_templates * scale))
    templates = [
        _build_template(profile, t, rng, code, data, hot) for t in range(n_templates)
    ]

    meta = TraceMeta(
        name=profile.name,
        seed=seed,
        description=profile.description,
        cpi_perf=profile.cpi_perf,
        overlap=profile.overlap,
        scale=scale,
        extra={"n_templates": n_templates, "insts_per_txn": profile.insts_per_txn},
    )
    builder = TraceBuilder(meta)

    current = int(rng.integers(0, n_templates))
    while len(builder) < records:
        templates[current].emit(builder, rng, profile.variant_prob, cold)
        if rng.random() < profile.follow_prob:
            current = (current + 1) % n_templates
        else:
            current = int(rng.integers(0, n_templates))

    trace = builder.build()
    if len(trace) > records:
        trace = trace.slice(0, records)
    return trace
