"""Seeded chaos runs on one daemon: every request is bit-correct or typed.

Each test arms a different fault family and asserts the same contract
(:attr:`ChaosReport.invariant_ok`): no request ever returns a *wrong*
result, the server outlives the storm (answers STATS), and it drains
cleanly at the end.  Each fault-family test also shows its fault fired.
Runs are deterministic in their fault schedule — a failure reproduces
from the printed seed.
"""

import pytest

from repro import faultline
from repro.faultline import FaultPlan, FaultSpec
from repro.serve.chaos import CHAOS_RESILIENCE, ChaosReport, run_chaos
from repro.serve.config import ResilienceConfig

from .conftest import needs_fork


@pytest.fixture(autouse=True)
def _no_plan():
    faultline.clear()
    yield
    faultline.clear()


def _assert_invariant(report: ChaosReport):
    assert report.wrong_results == [], (
        f"seed {report.seed} produced WRONG results: {report.wrong_results}"
    )
    assert report.answered == report.requests
    assert report.server_alive, f"seed {report.seed}: server died"
    assert report.drained, f"seed {report.seed}: drain failed"
    assert report.invariant_ok


def test_busy_storm_is_absorbed_by_retries():
    report = run_chaos(seed=101, points={"serve.busy": 0.4}, requests=16)
    _assert_invariant(report)
    assert report.plan_stats["fires"].get("serve.busy", 0) > 0
    assert report.ok > 0  # retries converted BUSY into answers


def test_connection_resets_are_survived():
    report = run_chaos(seed=202, points={"serve.conn.reset": 0.3}, requests=16)
    _assert_invariant(report)
    assert report.ok > 0


@needs_fork
def test_worker_crashes_never_corrupt_results():
    report = run_chaos(
        seed=303,
        points={"worker.crash.midjob": FaultSpec(probability=0.5, max_fires=4)},
        requests=12,
    )
    _assert_invariant(report)
    assert report.ok > 0
    assert report.health["pool"]["restarts"] > 0


@needs_fork
def test_worker_hangs_are_reaped_not_fatal():
    fast_watchdog = ResilienceConfig(
        max_attempts=6, backoff_base=0.02, backoff_max=0.2, retry_budget=30.0,
        breaker_threshold=4, breaker_reset=0.5,
        heartbeat_interval=0.1, hang_timeout=1.5, reaper_interval=0.3,
    )
    report = run_chaos(
        seed=404,
        points={"worker.hang": FaultSpec(probability=1.0, max_fires=1)},
        requests=8,
        resilience=fast_watchdog,
    )
    _assert_invariant(report)
    assert report.ok > 0
    assert report.health["pool"]["hangs"] > 0


def test_store_corruption_heals_via_reupload():
    # Inline replays read the trace once per store and keep it decoded,
    # so the daemon's first reads are the ones a fault can hit.  Every
    # corrupt read must surface typed or heal via a client re-upload —
    # never as wrong numbers.
    report = run_chaos(
        seed=505,
        points={"store.read.corrupt": FaultSpec(probability=0.5, max_fires=3)},
        requests=12,
        workers=0,
    )
    _assert_invariant(report)
    assert report.ok > 0
    assert report.plan_stats["fires"]["store.read.corrupt"] >= 1


@pytest.mark.parametrize("max_fires", [1, 2])
def test_corrupt_upload_heals_digest_first(max_fires):
    # The daemon quarantines its stored trace on the first read and answers
    # the digest-only probe UNKNOWN_TRACE, so the client uploads.  With a
    # second fire the daemon quarantines the uploaded trace too and answers
    # UNKNOWN_TRACE to the upload itself: the digest-first rule treats
    # that as transient and uploads again.
    report = run_chaos(
        seed=1,
        points={"store.read.corrupt": FaultSpec(probability=1.0,
                                                max_fires=max_fires)},
        requests=12,
        workers=0,
    )
    _assert_invariant(report)
    assert report.ok == 12
    assert report.plan_stats["fires"]["store.read.corrupt"] == max_fires
    assert "UNKNOWN_TRACE" not in report.typed_errors
    assert report.uploads >= max_fires


def test_partial_writes_never_serve_garbage():
    # The daemon already holds the trace, so the storm's only writes are
    # result records: every one of the first three is torn, and each torn
    # record must be caught on read and replayed, never served.
    report = run_chaos(
        seed=606,
        points={"store.write.partial": FaultSpec(probability=1.0, max_fires=3)},
        requests=12,
        workers=0,
    )
    _assert_invariant(report)
    assert report.ok > 0
    assert report.plan_stats["fires"]["store.write.partial"] >= 1


@needs_fork
def test_mixed_storm():
    report = run_chaos(
        seed=707,
        points={
            "serve.busy": 0.15,
            "serve.conn.reset": 0.1,
            "worker.crash.midjob": FaultSpec(probability=0.3, max_fires=3),
            "store.read.corrupt": FaultSpec(probability=0.2, max_fires=2,
                                            skip_first=2),
            "store.write.partial": FaultSpec(probability=0.2, max_fires=2),
        },
        requests=20,
        concurrency=4,
    )
    _assert_invariant(report)
    assert report.ok > 0


def test_degraded_mode_zero_workers_still_serves():
    # No pool at all: every replay runs inline in the server process.
    report = run_chaos(seed=808, points={}, requests=8, workers=0)
    _assert_invariant(report)
    assert report.ok == report.requests
    health = report.health
    assert health is not None and health["degraded"] is True
    assert health["pool"] is None
    assert health["inline_replays"] >= 1


@needs_fork
def test_degraded_mode_with_faults_suppresses_worker_faults_inline():
    # workers=0 + armed worker faults: inline execution must suppress
    # them (an injected "worker crash" may never kill the server).
    report = run_chaos(
        seed=909,
        points={"worker.crash.midjob": 1.0, "worker.hang": 1.0},
        requests=6,
        workers=0,
    )
    _assert_invariant(report)
    assert report.ok == report.requests


def test_chaos_is_deterministic_in_its_schedule():
    first = run_chaos(seed=111, points={"serve.busy": 0.5}, requests=10)
    second = run_chaos(seed=111, points={"serve.busy": 0.5}, requests=10)
    assert first.plan_stats["fires"] == second.plan_stats["fires"]
    assert first.plan_stats["checks"] == second.plan_stats["checks"]


def test_report_serializes(tmp_path):
    report = run_chaos(seed=1, points={}, requests=4)
    payload = report.to_dict()
    assert payload["invariant_ok"] is True
    import json

    (tmp_path / "r.json").write_text(json.dumps(payload))


def test_chaos_cli(capsys):
    from repro.serve.__main__ import main

    code = main(["chaos", "--seed", "42", "--requests", "8",
                 "--fault", "serve.busy=0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed=42" in out
    assert "invariant: OK" in out


def test_shard_kill_is_an_unknown_point():
    with pytest.raises(ValueError, match="unknown fault point"):
        FaultPlan(seed=1, points={"cluster.shard.down": 1.0})


def test_chaos_resilience_defaults_are_test_sized():
    assert CHAOS_RESILIENCE.hang_timeout <= 10.0
    assert CHAOS_RESILIENCE.reaper_interval is not None


def test_store_counters_are_per_root():
    # Integrity counters belong to the store root that counted them: a
    # second storm on fresh roots in the same process starts from zero,
    # and its daemon reports only the corrupt reads of its own store.
    first = run_chaos(
        seed=505,
        points={"store.read.corrupt": FaultSpec(probability=0.5, max_fires=3)},
        requests=12,
        workers=0,
    )
    second = run_chaos(
        seed=505,
        points={"store.read.corrupt": FaultSpec(probability=1.0, max_fires=2)},
        requests=12,
        workers=0,
    )
    for report in (first, second):
        _assert_invariant(report)
        fires = report.plan_stats["fires"]["store.read.corrupt"]
        assert report.health["store"]["corrupt_detected"] == fires
    assert second.plan_stats["fires"]["store.read.corrupt"] == 2
