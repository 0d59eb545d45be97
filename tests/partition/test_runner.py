"""Runner integration: pool fan-out, stats, counters."""

import dataclasses

from repro.exec.pool import build_analysis
from repro.exec.workers import PersistentWorkerPool
from repro.trace.replayer import TraceReplayer

from repro.obs import PROCESS
from repro.partition import replay_partitioned


def _mono(store, path, spec):
    replayer = TraceReplayer(store.open_path(path))
    profile, reporter = replayer.replay([build_analysis(spec)])
    return dataclasses.asdict(profile), list(reporter)


def test_pool_mode_bit_identical(recorded, part_store):
    path = recorded("sort")
    expected = _mono(part_store, path, "eraser.full")
    with PersistentWorkerPool(2) as pool:
        profile, reporter, stats = replay_partitioned(
            part_store, path, ["eraser.full"], 4, pool=pool
        )
    assert (dataclasses.asdict(profile), list(reporter)) == expected
    assert stats["mode"] == "pool"
    assert stats["planned_shards"] == 4


def test_stats_shape(recorded, part_store):
    path = recorded("fft")
    _profile, _reporter, stats = replay_partitioned(
        part_store, path, ["uaf.alda"], 2
    )
    assert stats["mode"] == "inline"
    assert stats["requested_shards"] == 2
    assert len(stats["per_shard"]) == stats["planned_shards"]
    for row in stats["per_shard"]:
        assert row["n_records"] > 0
        assert row["settle_seconds"] >= 0
    assert stats["records"] == sum(r["n_records"] for r in stats["per_shard"])
    assert stats["wall_seconds"] >= stats["merge_seconds"]


def test_counters_advance(recorded, part_store):
    path = recorded("fft")
    before = PROCESS.subsystems()["partition"]
    replay_partitioned(part_store, path, ["uaf.alda"], 2)
    after = PROCESS.subsystems()["partition"]
    assert after["plans"] == before["plans"] + 1
    assert after["replays"] == before["replays"] + 1
    assert (after["shards_executed"] - before["shards_executed"]
            == after["shards_planned"] - before["shards_planned"])
    assert after["merges"] == before["merges"] + 1


def test_multiple_specs_one_pass(recorded, part_store):
    """One partitioned pass with two attached analyses must equal one
    monolithic pass with the same two — the shard filter keeps the
    union of both hook tables."""
    path = recorded("fft")
    replayer = TraceReplayer(part_store.open_path(path))
    profile, reporter = replayer.replay(
        [build_analysis("uaf.alda"), build_analysis("taint.alda")]
    )
    part_profile, part_reporter, _stats = replay_partitioned(
        part_store, path, ["uaf.alda", "taint.alda"], 2
    )
    assert dataclasses.asdict(part_profile) == dataclasses.asdict(profile)
    assert list(part_reporter) == list(reporter)


def test_store_accepts_path_string(recorded, part_store):
    path = recorded("fft")
    profile, _reporter, _stats = replay_partitioned(
        str(part_store.root), path, ["uaf.alda"], 2
    )
    assert profile.cycles > 0
