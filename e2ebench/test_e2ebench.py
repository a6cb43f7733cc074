"""Tests of the benchmark's own rules (run: python3 -m pytest e2ebench)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from calc import (  # noqa: E402
    ISAS,
    SERVE_L1D,
    WORKLOADS,
    beyond,
    digest_mismatch,
    percentile,
    self_time,
    serve_mix,
    serve_warmup,
    stats_digest,
    tail_percentile,
)
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))  # 1..200
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert sum(v > percentile(values, 95) for v in values) == 10
    assert percentile([3.0], 95) == 3.0


def test_self_time_subtracts_covered_child_intervals_once():
    assert self_time(0.0, 10.0, []) == 10.0
    # [1,3] and [2,4] overlap (cover 3), [8,12] is clipped to [8,10]
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0
    assert self_time(0.0, 10.0, [(-1.0, 11.0)]) == 0.0
    assert self_time(0.0, 10.0, [(10.0, 12.0), (-2.0, 0.0)]) == 10.0


def test_tracer_self_times_follow_nesting():
    tracer = Tracer()
    op = tracer.add("op", 0.0, 10.0)
    tracer.add("cell", 1.0, 4.0, op, key="a")
    inner = tracer.add("cell", 5.0, 9.0, op, key="b")
    tracer.add("runtime.stage", 5.0, 6.0, inner, key="b")
    tracer.add("gpu.replay", 6.0, 8.5, inner, key="b")
    selfs = tracer.self_times()
    assert selfs[op] == pytest.approx(3.0)
    assert selfs[inner] == pytest.approx(0.5)
    assert tracer.by_key("cell") == {
        "b": {"runtime.stage": 1.0, "gpu.replay": 2.5}}


def test_serve_mix_is_a_function_of_the_seed():
    assert serve_mix(11, 8) == serve_mix(11, 8)
    assert serve_mix(11, 8) != serve_mix(12, 8)
    # a longer draw extends, never reshuffles, a shorter one
    assert serve_mix(11, 12)[:8] == serve_mix(11, 8)
    for burst in serve_mix(3, 5):
        assert len(burst) == 2 * len(WORKLOADS)
        for workload in WORKLOADS:
            mine = [c for c in burst if c[0] == workload]
            assert len(mine) == 2 and mine[0][1] == mine[1][1] in ISAS


def test_serve_bursts_balance_groups_and_sizes():
    warmup = serve_warmup(5)
    groups = {(w, isa) for w in WORKLOADS for isa in ISAS}
    assert {(w, isa) for w, isa, _ in warmup} == groups
    assert len(warmup) == len(groups)
    mix = serve_mix(5, 6)
    for first, second in zip(mix, mix[1:]):
        assert {(w, isa) for w, isa, _ in first + second} == groups
    # each pair's requests, warm-up first, visit every size once per cycle
    for group in groups:
        sizes = [l1d for w, isa, l1d in warmup + sum(mix, [])
                 if (w, isa) == group]
        assert sorted(sizes[:len(SERVE_L1D)]) == sorted(SERVE_L1D)
        assert sizes[len(SERVE_L1D)] == sizes[0]


def _payload():
    from repro.common.stats import StatSet

    stats = StatSet()
    stats.bump("cycles", 1200)
    stats.bump("dynamic_instructions", 300)
    return {"verified": True, "total": stats.to_payload(),
            "per_dispatch": [stats.to_payload()]}


def test_digest_check_fails_on_a_perturbed_stat():
    payload = _payload()
    table = {"spmv/gcn3/l1d16384": stats_digest(payload)}
    assert not digest_mismatch(table, "spmv/gcn3/l1d16384", payload)

    perturbed = _payload()
    perturbed["per_dispatch"][0]["counters"]["cycles"] += 1
    assert digest_mismatch(table, "spmv/gcn3/l1d16384", perturbed)

    unverified = dict(_payload(), verified=False)
    assert digest_mismatch(table, "spmv/gcn3/l1d16384", unverified)
    # a cell the table does not know fails; no table (other seeds) passes
    assert digest_mismatch(table, "spmv/hsail/l1d16384", payload)
    assert not digest_mismatch(None, "spmv/gcn3/l1d16384", perturbed)


def test_digest_ignores_wall_clock():
    payload = _payload()
    assert stats_digest(dict(payload, wall_seconds=1.0)) == stats_digest(
        dict(payload, wall_seconds=2.0))
