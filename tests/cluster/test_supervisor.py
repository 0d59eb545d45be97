"""ClusterSupervisor: lifecycle, health checks, stats aggregation."""

import pytest

from repro.cluster import ClusterConfig, Membership
from repro.cluster.supervisor import aggregate_from_membership


def test_start_publishes_membership(make_cluster):
    supervisor = make_cluster(shards=3)
    assert supervisor.membership_path.exists()
    loaded = Membership.load(supervisor.membership_path)
    assert [s.name for s in loaded.shards] == ["shard0", "shard1", "shard2"]
    assert all(s.status == "up" for s in loaded.shards)
    assert loaded.replication == 2
    # every shard got its own store under the cluster root
    stores = {s.store for s in loaded.shards}
    assert len(stores) == 3


def test_replication_clamped_to_shard_count(make_cluster):
    supervisor = make_cluster(shards=1, replication=2)
    assert supervisor.membership.replication == 1


def test_health_check_flips_status(make_cluster):
    supervisor = make_cluster(shards=2)
    assert supervisor.health_check() == {"shard0": True, "shard1": True}
    supervisor.kill_shard("shard0")
    alive = supervisor.health_check()
    assert alive == {"shard0": False, "shard1": True}
    loaded = Membership.load(supervisor.membership_path)
    assert loaded.shard("shard0").status == "down"
    assert loaded.shard("shard1").status == "up"


def test_aggregate_stats_merges_counters(make_cluster):
    supervisor = make_cluster(shards=2)
    merged = supervisor.aggregate_stats()
    assert merged["shards"] == ["shard0", "shard1"]
    assert merged["shards_down"] == []
    assert set(merged["per_shard"]) == {"shard0", "shard1"}
    assert "counters" in merged
    # the helper that reads only the membership file agrees
    from_file = aggregate_from_membership(supervisor.membership_path)
    assert from_file["shards"] == ["shard0", "shard1"]


def test_aggregate_stats_reports_down_shards(make_cluster):
    supervisor = make_cluster(shards=2)
    supervisor.kill_shard("shard1")
    merged = supervisor.aggregate_stats()
    assert merged["shards_down"] == ["shard1"]


def test_stop_is_idempotent_and_marks_down(make_cluster):
    supervisor = make_cluster(shards=2)
    supervisor.stop()
    loaded = Membership.load(supervisor.membership_path)
    assert all(s.status == "down" for s in loaded.shards)
    supervisor.stop()  # second stop is a no-op


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(shards=0)
    with pytest.raises(ValueError):
        ClusterConfig(backend="carrier-pigeon")
    with pytest.raises(ValueError):
        ClusterConfig(replication=0)


def test_process_backend_refuses_resilience_it_cannot_forward():
    from repro.serve.chaos import CHAOS_RESILIENCE
    from repro.serve.config import ResilienceConfig

    # CHAOS_RESILIENCE tightens the heartbeat and reaper: no serve flag
    with pytest.raises(ValueError, match="heartbeat_interval"):
        ClusterConfig(backend="process", resilience=CHAOS_RESILIENCE)
    # flagged fields and client-side fields pass
    ClusterConfig(backend="process", resilience=ResilienceConfig(
        hang_timeout=5.0, breaker_threshold=2, breaker_reset=0.5,
        inline_fallback=False, max_attempts=2,
    ))
    ClusterConfig(backend="thread", resilience=CHAOS_RESILIENCE)
