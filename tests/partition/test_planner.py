"""Planner contract: contiguous, balanced, snapshot-consistent shards.

Whatever the planner emits, the shards must tile the payload exactly
(no gap, no overlap), their record/event counts must sum to the trace
totals, and every shard's carried-in snapshot must equal the running
state at its start — the decode correctness proof in
``test_differential.py`` rests on these invariants.
"""

import pytest

from repro.trace.format import DEFAULT_SEGMENT_TARGET
from repro.trace.store import StoreCorruptionError

from repro.partition import replay_partitioned
from repro.partition.planner import plan_partition


def _check_tiling(plan, payload_len):
    assert plan.shards[0].ustart == 0
    assert plan.shards[-1].uend == payload_len
    for left, right in zip(plan.shards, plan.shards[1:]):
        assert left.uend == right.ustart
        assert right.records_before == left.records_before + left.n_records
        assert right.events_before == left.events_before + left.n_events
    assert sum(s.n_records for s in plan.shards) == plan.n_records
    assert sum(s.n_events for s in plan.shards) == plan.n_events


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_v2_plan_tiles_payload(recorded, part_store, shards):
    path = recorded("sort")
    reader = part_store.open_path(path)
    plan = plan_partition(reader.meta, shards)
    assert 1 <= plan.n_shards <= shards
    _check_tiling(plan, len(reader.payload))
    # shards slice the segment index contiguously
    assert plan.shards[0].seg_start == 0
    for left, right in zip(plan.shards, plan.shards[1:]):
        assert left.seg_end == right.seg_start
    assert plan.shards[-1].seg_end == len(reader.segments)


def test_v2_plan_balances_records(recorded, part_store):
    reader = part_store.open_path(recorded("sort"))
    plan = plan_partition(reader.meta, 4)
    assert plan.n_shards == 4
    counts = [s.n_records for s in plan.shards]
    # Cuts land on segment boundaries, so perfection is impossible, but
    # no shard should be more than 2x the ideal even split.
    assert max(counts) <= 2 * plan.n_records / 4


def test_v2_shard_count_capped_by_segments(recorded, part_store):
    reader = part_store.open_path(recorded("fft"))  # small: few segments
    plan = plan_partition(reader.meta, 64)
    assert plan.n_shards == len(reader.segments)


def test_meta_only_planning_matches_full_plan(recorded, part_store):
    path = recorded("sort")
    reader = part_store.open_path(path)
    full = plan_partition(reader.meta, 4)
    from_meta = plan_partition(part_store.read_tail_meta(path), 4)
    assert from_meta == full


def test_meta_only_planning_rejects_v1(recorded, part_store, tmp_path):
    """A version-1 file has no segment index to plan from: the tail read
    that feeds the planner refuses it and quarantines the entry."""
    store_dir = tmp_path / "v1"
    path = store_dir / "old.trace"
    store_dir.mkdir()
    path.write_bytes(b"ALDATRC1" + recorded("fft").read_bytes()[8:])
    with pytest.raises(StoreCorruptionError, match="container version '1'"):
        replay_partitioned(store_dir, path, ["uaf.alda"], 2)
    assert not path.exists()


def test_zero_shards_rejected(recorded, part_store):
    reader = part_store.open_path(recorded("fft"))
    with pytest.raises(ValueError, match="shards"):
        plan_partition(reader.meta, 0)


def test_single_shard_is_whole_trace(recorded, part_store):
    reader = part_store.open_path(recorded("fft"))
    plan = plan_partition(reader.meta, 1)
    assert plan.n_shards == 1
    shard = plan.shards[0]
    assert (shard.ustart, shard.uend) == (0, len(reader.payload))
    assert shard.n_records == plan.n_records
    assert shard.n_strings == 0 and shard.records_before == 0


def test_default_target_yields_multiple_segments(recorded, part_store):
    """The default segment target must actually segment the big traces —
    if sort came out monolithic, partitioned serving would silently
    degrade to one shard."""
    meta = part_store.read_tail_meta(recorded("sort"))
    assert len(meta["segments"]) >= 4
    assert all(e["ulen"] <= 3 * DEFAULT_SEGMENT_TARGET
               for e in meta["segments"])
