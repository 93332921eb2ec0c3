"""Guards that tie model and generator changes to a version bump.

Every persisted result, trace and plane is keyed on
:data:`~repro.engine.simulator.MODEL_VERSION` or
:data:`~repro.workloads.commercial.GENERATOR_VERSION`, which is only
safe if a change to the model or a generator also bumps its constant.
These tests pin digests that such a change moves, per version: a change
that moves one fails here until the constant is bumped and a pin added
for the new version.

* Model: the sha256 of ``tests/data/goldens.json`` (which only covers
  ``none`` and ``ebcp``) and a sha256 over the result snapshots of every
  registered prefetcher on one small trace.
* Generator: the content fingerprint of every registered workload and of
  one CMP interleaving.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.engine.config import ProcessorConfig
from repro.engine.simulator import MODEL_VERSION
from repro.parallel.jobs import JobSpec
from repro.prefetchers.registry import PREFETCHERS, build_prefetcher
from repro.workloads.commercial import GENERATOR_VERSION
from repro.workloads.multithread import make_cmp_workload
from repro.workloads.registry import WORKLOADS, make_workload

GOLDENS = Path(__file__).parent / "data" / "goldens.json"

#: Digests each ``MODEL_VERSION`` produces.
MODEL_PINS = {
    1: {
        "goldens": "c5f55ec8af1a9368583a8b686d253d1ed62982360b675fbe2674d5132e08cf59",
        "prefetchers": "f8968e930fae5c37a0245cb8facdf9a60c033a46081f75b3fc7b97262b1accb5",
    },
}

#: Trace fingerprints each ``GENERATOR_VERSION`` produces (2k records,
#: seed 7; ``cmp`` is tpcw over 2 threads of 1k records each).
GENERATOR_PINS = {
    1: {
        "database": "904a12f33637e3728e83e4a189a8b0b2",
        "tpcw": "cc363bcd6becfb21536a13b1a8bf02f0",
        "specjbb2005": "39ef11748cedf63dfb3d7b41560383ec",
        "jappserver2004": "1693451904e0466553a71e31c1e4f881",
        "paper_example": "055ce04982168bdde33693ba3f503c0c",
        "pointer_chase": "029677d5eb96123187fc91f0f426d59d",
        "random_uniform": "4a2897b7fce8eaf902169f260ef4a621",
        "repeating_miss_loop": "4e9ca6dff57cf3cd538f53db11018e0e",
        "streaming": "d9766bcf174eb1737d482652173f1ace",
        "cmp": "d9df27d1a0806ee43325a0e4eaddc12e",
    },
}

BUMP_MODEL = (
    "the simulation model changed: bump MODEL_VERSION in "
    "repro/engine/simulator.py and add its pins to MODEL_PINS"
)
BUMP_GENERATOR = (
    "a workload generator changed: bump GENERATOR_VERSION in "
    "repro/workloads/commercial.py and add its pins to GENERATOR_PINS"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_goldens_match_the_model_version():
    assert MODEL_VERSION in MODEL_PINS, BUMP_MODEL
    assert _sha256(GOLDENS.read_bytes()) == MODEL_PINS[MODEL_VERSION]["goldens"], BUMP_MODEL


def test_every_prefetcher_matches_the_model_version():
    assert MODEL_VERSION in MODEL_PINS, BUMP_MODEL
    config = ProcessorConfig.scaled()
    snapshots = {
        name: JobSpec("tpcw", 3_000, 7, config, build_prefetcher(name), name).run().snapshot()
        for name in PREFETCHERS
    }
    digest = _sha256(json.dumps(snapshots, sort_keys=True).encode("utf-8"))
    assert digest == MODEL_PINS[MODEL_VERSION]["prefetchers"], BUMP_MODEL


def test_every_trace_matches_the_generator_version():
    assert GENERATOR_VERSION in GENERATOR_PINS, BUMP_GENERATOR
    fingerprints = {
        name: make_workload(name, records=2_000, seed=7).fingerprint() for name in WORKLOADS
    }
    fingerprints["cmp"] = make_cmp_workload(
        "tpcw", n_threads=2, records_per_thread=1_000, seed=7
    ).fingerprint()
    assert fingerprints == GENERATOR_PINS[GENERATOR_VERSION], BUMP_GENERATOR
