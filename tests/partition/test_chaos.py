"""Chaos coverage for the partition fault points.

Contract: an injected shard or merge fault yields a *typed* error from
:func:`replay_partitioned` (never a wrong result), and the serve
scheduler's RUN_PARTITIONED path falls back to a monolithic replay that
still returns the bit-correct record.
"""

import multiprocessing

import pytest

from repro import faultline
from repro.faultline import FAULT_POINTS, FaultPlan, FaultSpec
from repro.exec.workers import PersistentWorkerPool
from repro.obs import PROCESS

from repro.partition import (
    PartitionMergeError,
    PartitionShardError,
    replay_partitioned,
)

IS_FORK = multiprocessing.get_start_method() == "fork"


@pytest.fixture(autouse=True)
def _no_plan():
    faultline.clear()
    yield
    faultline.clear()


def _arm(point, **kwargs):
    faultline.install(FaultPlan(seed=7, points={
        point: FaultSpec(probability=1.0, **kwargs),
    }))


def test_fault_points_registered():
    assert "partition.shard.fail" in FAULT_POINTS
    assert "partition.merge.corrupt" in FAULT_POINTS


def test_shard_fail_inline_is_typed(recorded, part_store):
    path = recorded("fft")
    _arm("partition.shard.fail", max_fires=1)
    before = PROCESS.subsystems()["partition"]
    with pytest.raises(PartitionShardError):
        replay_partitioned(part_store, path, ["uaf.alda"], 2)
    after = PROCESS.subsystems()["partition"]
    assert after["shard_failures"] == before["shard_failures"] + 1
    # The fault burned out; the same call now succeeds.
    profile, _reporter, _stats = replay_partitioned(
        part_store, path, ["uaf.alda"], 2
    )
    assert profile.cycles > 0


@pytest.mark.skipif(not IS_FORK,
                    reason="workers inherit the fault plan via fork")
def test_shard_fail_in_pool_worker_is_typed(recorded, part_store):
    path = recorded("fft")
    _arm("partition.shard.fail")  # every decode task fails
    with PersistentWorkerPool(2) as pool:
        with pytest.raises(PartitionShardError):
            replay_partitioned(part_store, path, ["uaf.alda"], 2, pool=pool)


def test_merge_corrupt_detected_before_any_handler(recorded, part_store):
    path = recorded("fft")
    _arm("partition.merge.corrupt", max_fires=1)
    with pytest.raises(PartitionMergeError, match="events"):
        replay_partitioned(part_store, path, ["uaf.alda"], 2)


def test_merge_corrupt_on_later_shard_also_detected(recorded, part_store):
    path = recorded("fft")
    _arm("partition.merge.corrupt", max_fires=1, skip_first=1)
    with pytest.raises(PartitionMergeError):
        replay_partitioned(part_store, path, ["uaf.alda"], 2)


def test_store_read_corrupt_surfaces_as_shard_error(recorded, part_store):
    """A corrupt segment read inside a shard decode is quarantine-then-
    typed, exactly like the monolithic read path."""
    path = recorded("sort")
    _arm("store.read.corrupt", max_fires=1)
    with pytest.raises(PartitionShardError):
        replay_partitioned(part_store, path, ["uaf.alda"], 2)
    # The trace was quarantined by the verified read; re-record heals.
    from repro.workloads import ALL

    part_store.get_or_record(ALL["sort"], 1)
    faultline.clear()
    profile, _reporter, _stats = replay_partitioned(
        part_store, path, ["uaf.alda"], 2
    )
    assert profile.cycles > 0
