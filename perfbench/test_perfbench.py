"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import lib  # noqa: E402

HOT = [("database", 11), ("tpcw", 12), ("specjbb2005", 13), ("jappserver2004", 14)]


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q, needed", [(50, 20), (75, 40), (90, 100), (99, 1000)])
def test_min_samples_leave_ten_beyond(q, needed):
    assert lib.min_samples(q) == needed
    assert lib.samples_beyond(needed, q) >= 10
    assert lib.samples_beyond(needed - 1, q) < 10


def test_supported_percentile_refuses_thin_samples():
    values = list(range(1, 1000))  # 999 samples: p99 has only 9 beyond
    assert lib.supported_percentile(values, 99) is None
    assert lib.supported_percentile(values + [1000], 99) == 990
    assert lib.supported_percentile(list(range(1, 21)), 50) == 10
    assert lib.supported_percentile(list(range(1, 20)), 50) is None


def test_percentile_is_nearest_rank():
    assert lib.percentile([5, 1, 4, 2, 3], 50) == 3
    assert lib.percentile([5, 1, 4, 2, 3], 100) == 5
    assert lib.percentile([7], 99) == 7
    with pytest.raises(ValueError):
        lib.percentile([], 50)


# ----------------------------------------------------------------------
# Seed-derived inputs
# ----------------------------------------------------------------------
def test_same_seed_same_request_sequence():
    a = lib.request_sequence(5, 0, 500, HOT)
    assert a == lib.request_sequence(5, 0, 500, HOT)
    assert a != lib.request_sequence(6, 0, 500, HOT)
    assert a != lib.request_sequence(5, 1, 500, HOT)
    # A longer prefix extends, never reshuffles, a shorter one.
    assert lib.request_sequence(5, 0, 900, HOT)[:500] == a


def test_request_sequence_is_independent_of_hash_seed():
    code = (
        "import sys, json; sys.path.insert(0, %r); import lib; "
        "print(json.dumps(lib.request_sequence(3, 1, 200, %r)))" % (HERE, HOT)
    )
    runs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONHASHSEED=str(h))).stdout
        for h in (1, 2)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0]) == [list(r) for r in lib.request_sequence(3, 1, 200, HOT)]


def test_one_miss_per_block_with_fresh_seeds():
    seq = lib.request_sequence(9, 0, 2000, HOT, miss_every=20)
    for start in range(0, 2000, 20):
        block = seq[start:start + 20]
        assert sum(kind == "miss" for kind, _, _ in block) == 1
    misses = [(w, s) for kind, w, s in seq if kind == "miss"]
    assert len(set(misses)) == len(misses)
    assert not set(misses) & set(HOT)
    hits = {(w, s) for kind, w, s in seq if kind == "hit"}
    assert hits <= set(HOT)
    other = {(w, s) for kind, w, s in lib.request_sequence(9, 1, 2000, HOT) if kind == "miss"}
    assert not other & set(misses)


def test_derived_seeds_are_stable_and_distinct():
    assert lib.derive_seeds(1, "sweep_seeds", 3) == lib.derive_seeds(1, "sweep_seeds", 3)
    assert len(set(lib.derive_seeds(1, "sweep_seeds", 3))) == 3
    assert lib.derive_seeds(1, "sweep_seeds", 3) != lib.derive_seeds(2, "sweep_seeds", 3)


def test_hot_keys_split_four_per_shard():
    import serve
    from repro.engine.config import ProcessorConfig
    from repro.service.sharding import HashRing, routing_key

    keys = serve.pick_hot_keys(4)
    assert keys == serve.pick_hot_keys(4)
    assert len(set(keys)) == 8
    ring = HashRing(f"shard-{i}" for i in range(2))
    fp = ProcessorConfig.scaled().fingerprint()
    owners = [ring.route(routing_key(w, serve.RECORDS, s, fp)) for w, s in keys]
    assert owners.count("shard-0") == owners.count("shard-1") == 4


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def test_digest_ignores_key_order_and_sees_values():
    a = {"x": 1, "y": [1.5, 2], "z": {"b": 1, "a": 2}}
    b = {"z": {"a": 2, "b": 1}, "y": [1.5, 2], "x": 1}
    assert lib.digest(a) == lib.digest(b)
    assert lib.digest(a) != lib.digest(dict(a, x=2))
    assert lib.digest({"v": 0.1 + 0.2}) != lib.digest({"v": 0.3})


def _stats_digest_code(workload: str, seed: int) -> str:
    return (
        "import sys; sys.path.insert(0, %r); sys.path.insert(0, %r); import lib; "
        "from repro.engine.config import ProcessorConfig; "
        "from repro.parallel import JobSpec; "
        "from repro.prefetchers.registry import build_prefetcher; "
        "job = JobSpec(%r, 3000, %d, ProcessorConfig.scaled(), build_prefetcher('ebcp'), 'ebcp'); "
        "print(lib.digest(job.run().stats.to_dict()))"
        % (HERE, os.path.join(ROOT, "src"), workload, seed)
    )


def test_stats_digest_is_stable_across_processes_and_kernel_switch(tmp_path):
    out = []
    for hash_seed, kernel in (("1", "on"), ("2", "off")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, REPRO_KERNEL=kernel,
                   REPRO_TRACE_CACHE=str(tmp_path / hash_seed), HOME=str(tmp_path))
        out.append(subprocess.run(
            [sys.executable, "-c", _stats_digest_code("tpcw", 21)],
            capture_output=True, text=True, check=True, env=env).stdout.strip())
    assert out[0] == out[1] and len(out[0]) == 20


def test_committed_digests_cover_both_sweeps_and_seeds():
    import sweeps

    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    for workload, jobs in (("sweep_seeds", 24), ("sweep_schemes", 22)):
        for seed in ("1", "2"):
            assert len(table[workload][seed]) == jobs
            assert len(set(table[workload][seed])) == jobs  # no collapsed results
        assert sweeps.build_spec(workload, 1) == sweeps.build_spec(workload, 1)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _span(sid, ts, dur, parent=None, name="x", pid=1):
    return {"span_id": sid, "parent_id": parent, "ts_us": ts, "dur_us": dur,
            "name": name, "pid": pid, "args": {}}


def test_covered_is_the_union_clipped_to_the_window():
    assert lib.covered_us([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert lib.covered_us([(0, 10), (5, 15), (20, 30)], 8, 25) == 12
    assert lib.covered_us([], 0, 10) == 0
    assert lib.covered_us([(50, 60)], 0, 10) == 0


def test_self_time_subtracts_overlapping_children_once():
    parent = _span("p", 0, 100)
    kids = [_span("a", 10, 30, "p"), _span("b", 20, 30, "p"), _span("c", 90, 50, "p")]
    # Children cover [10, 50) and [90, 100): 50 us of the parent's 100.
    assert lib.self_time_us(parent, kids) == 50
    assert lib.self_time_us(parent, []) == 100


def test_unattributed_is_total_minus_parts_never_negative():
    assert lib.unattributed(10.0, [2.0, 3.5]) == pytest.approx(4.5)
    assert lib.unattributed(10.0, [6.0, 6.0]) == 0.0
    assert lib.unattributed(3.0, []) == 3.0


def test_layer_self_times_partition_a_nested_tree():
    spans = [
        _span("root", 0, 100, name="client:simulate"),
        _span("r", 10, 80, "root", name="router:route"),
        _span("s", 20, 60, "r", name="server:simulate"),
        _span("adm", 20, 5, "s", name="admission"),
        _span("look", 40, 2, "s", name="cache:lookup"),
    ]
    selfs = layers.self_times(spans)
    assert selfs == {"root": 20, "r": 20, "s": 53, "adm": 5, "look": 2}
    assert sum(selfs.values()) == 100  # nothing lost, nothing counted twice
    assert lib.unattributed(104.0, [v / 1 for v in selfs.values()]) == 4.0


def test_every_per_layer_metric_is_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    produced = {k: u for k, (_, u) in layers.empty_metrics().items()}
    assert declared == produced
