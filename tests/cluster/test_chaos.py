"""Ring chaos: seeded storms hold correct-or-typed through a shard kill.

The same driver as tests/serve/test_chaos.py, on a three-shard ring.
"""

from repro.faultline import FaultSpec
from repro.serve.chaos import (
    DEFAULT_CLUSTER_POINTS,
    render_report,
    run_chaos,
)


def _run(seed, **overrides):
    overrides.setdefault("points", DEFAULT_CLUSTER_POINTS)
    overrides.setdefault("shards", 3)
    overrides.setdefault("requests", 12)
    overrides.setdefault("concurrency", 3)
    overrides.setdefault("workers", 0)
    return run_chaos(seed, **overrides)


def test_invariant_holds_through_shard_kill():
    report = _run(seed=7)
    assert report.invariant_ok, render_report(report)
    # the default storm guarantees the kill fires exactly once
    assert report.killed_shard is not None
    assert report.ok_after_kill > 0
    assert not report.wrong_results
    assert report.answered == report.requests
    assert report.survivors_alive and report.drained


def test_fault_free_schedule_is_all_ok():
    report = _run(seed=3, points={})
    assert report.invariant_ok, render_report(report)
    assert report.killed_shard is None
    assert report.ok == report.requests
    assert not report.typed_errors and report.unavailable == 0


def test_partition_storm_without_kill():
    """Heavy partitions alone: failover absorbs them, nothing is wrong."""
    report = _run(seed=5, points={
        "cluster.net.partition": FaultSpec(probability=0.5),
    })
    assert report.invariant_ok, render_report(report)
    assert report.killed_shard is None
    assert not report.wrong_results


def test_seeded_runs_reproduce_fault_schedule():
    # one client thread: the claim order, and so the RNG draw order,
    # is fully deterministic
    first = _run(seed=11, requests=9, concurrency=1)
    second = _run(seed=11, requests=9, concurrency=1)
    assert first.invariant_ok and second.invariant_ok
    assert first.plan_stats["fires"] == second.plan_stats["fires"]
    assert first.killed_shard == second.killed_shard


def test_render_mentions_the_kill():
    report = _run(seed=7, requests=9)
    text = render_report(report)
    assert "invariant: OK" in text
    if report.killed_shard:
        assert report.killed_shard in text


def test_default_points_include_cluster_faults():
    assert "cluster.shard.down" in DEFAULT_CLUSTER_POINTS
    assert "cluster.net.partition" in DEFAULT_CLUSTER_POINTS
    assert "cluster.replica.slow" in DEFAULT_CLUSTER_POINTS
