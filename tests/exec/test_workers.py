"""Tests for the persistent worker pool (lifecycle, crash recovery)."""

import pytest

from repro.exec.workers import (
    PersistentWorkerPool,
    TaskError,
    WorkerCrashError,
    resolve_task,
)

ECHO = "repro.exec.testing:echo"
FAIL = "repro.exec.testing:fail"
CRASH = "repro.exec.testing:crash"
PID = "repro.exec.testing:pid"


@pytest.fixture
def pool():
    with PersistentWorkerPool(2) as p:
        yield p


def test_resolve_task_validates_path():
    assert resolve_task(ECHO)({"x": 1}) == {"x": 1}
    with pytest.raises(ValueError):
        resolve_task("no_colon_here")
    with pytest.raises(ModuleNotFoundError):
        resolve_task("repro.exec.nope:task")
    with pytest.raises(AttributeError):
        resolve_task("repro.exec.testing:nope")


def test_call_round_trips(pool):
    assert pool.call(ECHO, [1, "two", {"three": 3}]) == [1, "two", {"three": 3}]


def test_workers_are_persistent(pool):
    """The same processes answer repeated calls — state stays warm."""
    pids = {pool.call(PID, None) for _ in range(8)}
    assert len(pids) <= 2
    assert pool.restarts == 0


def test_task_exception_keeps_worker_alive(pool):
    with pytest.raises(TaskError, match="intentional task failure"):
        pool.call(FAIL, "boom")
    assert pool.call(ECHO, "still alive") == "still alive"
    assert pool.restarts == 0


def test_worker_crash_respawns(pool):
    with pytest.raises(WorkerCrashError):
        pool.call(CRASH, 1)
    assert pool.restarts == 1
    # The pool healed: the next call lands on a fresh worker.
    assert pool.call(ECHO, "recovered") == "recovered"
    assert pool.alive_workers == 2


def test_map_preserves_order(pool):
    payloads = list(range(10))
    assert pool.map(ECHO, payloads) == payloads


def test_map_empty(pool):
    assert pool.map(ECHO, []) == []


def test_closed_pool_rejects_calls():
    pool = PersistentWorkerPool(1)
    pool.close()
    with pytest.raises(RuntimeError):
        pool.call(ECHO, 1)
    pool.close()  # idempotent


def test_stop_is_idempotent_and_respawn_after_close_is_typed():
    """``close`` and a caller's respawn may both stop one dead worker:
    the second stop is a no-op, and the respawn raises the typed crash
    error instead of spawning a worker that outlives the pool."""
    pool = PersistentWorkerPool(1)
    worker = pool._workers[0]
    worker.stop()
    worker.stop()  # already stopped and reaped: no AttributeError
    assert not worker.alive
    pool.close()
    with pytest.raises(WorkerCrashError, match="closed"):
        pool._respawn(worker)
    assert pool.alive_workers == 0
    assert pool.restarts == 0
