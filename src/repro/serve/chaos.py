"""Chaos harness: drive a live daemon through injected faults.

:func:`run_chaos` is the executable form of the resilience contract:

* record a workload trace and compute its reference replay result
  *before* any fault is armed, in a store of its own;
* install a seeded :class:`~repro.faultline.FaultPlan` (API + the
  ``REPRO_FAULTLINE`` env var, so spawned pool workers inherit it);
* start a private daemon through
  :func:`~repro.serve.server.serve_in_thread`, seed its store with the
  trace, and hammer it with the :class:`~repro.serve.loadgen.LoadGen`
  storm;
* classify every request: **bit-correct result**, **typed error**, or —
  the one outcome that must never happen — **wrong result**;
* finally check the daemon still answers STATS and drains cleanly.

The invariant a chaos run asserts is *correct or typed, never wrong*:
faults may cost availability (a request may exhaust its retries and
surface a typed error) but never integrity (a request that returns a
RESULT returns the same numbers a fault-free run would).

Reproducibility: the fault schedule derives entirely from the plan
seed, and client retry jitter from ``seed`` — a failing run is re-run
from two integers.  Because the daemon holds the trace before the
storm, each request starts as one digest-only frame; how many client
threads race a first upload never changes the number of fault draws.

CLI::

    python -m repro.serve chaos --seed 7 --requests 40 \\
        --fault worker.crash.midjob=0.3 --fault serve.busy=0.2
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro import faultline
from repro.faultline import FaultPlan, FaultSpec
from repro.serve.config import ResilienceConfig
from repro.serve.loadgen import LoadGen
from repro.serve.server import ServeConfig, serve_in_thread

#: Fast-test resilience posture: tight watchdog, quick breaker reset,
#: generous attempts — chaos runs finish in seconds, not minutes.  The
#: daemon and the clients of a run both use it.
CHAOS_RESILIENCE = ResilienceConfig(
    max_attempts=8,
    backoff_base=0.02,
    backoff_max=0.25,
    retry_budget=20.0,
    breaker_threshold=4,
    breaker_reset=0.5,
    heartbeat_interval=0.2,
    hang_timeout=5.0,
    reaper_interval=0.5,
)

#: Default storm: every single-daemon fault family.
DEFAULT_POINTS = {
    "serve.busy": 0.15,
    "serve.conn.reset": 0.1,
    "worker.crash.midjob": 0.2,
    "store.read.corrupt": 0.1,
    "store.write.partial": 0.1,
}


@dataclass
class ChaosReport:
    """Outcome classification for one chaos run."""

    seed: int
    requests: int
    ok: int = 0
    wrong_results: List[dict] = field(default_factory=list)
    typed_errors: Dict[str, int] = field(default_factory=dict)
    unavailable: int = 0  # retries exhausted / busy / breaker open
    wall_seconds: float = 0.0
    #: the daemon outlived the storm: its closing STATS probe answered
    server_alive: bool = False
    drained: bool = False
    #: trace uploads the clients made (each answers an UNKNOWN_TRACE)
    uploads: int = 0
    #: the daemon's STATS ``health`` block
    health: Optional[dict] = None
    plan_stats: Optional[dict] = None

    @classmethod
    def from_storm(cls, storm: dict, **fields) -> "ChaosReport":
        """Classify a :class:`LoadGen` storm report; ``fields`` adds the
        run's own facts (seed, liveness, health, plan stats)."""
        return cls(
            requests=storm["config"]["requests"],
            ok=storm["completed"],
            wrong_results=storm["wrong_results"],
            typed_errors=storm["typed_errors"],
            unavailable=storm["busy"] + storm["breaker_open"],
            wall_seconds=storm["wall_seconds"],
            uploads=storm["uploads"],
            **fields,
        )

    @property
    def answered(self) -> int:
        return self.ok + self.unavailable + sum(self.typed_errors.values())

    @property
    def invariant_ok(self) -> bool:
        """Correct-or-typed, and the daemon outlives the storm and drains."""
        return (not self.wrong_results
                and self.answered == self.requests
                and self.server_alive
                and self.drained)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "ok": self.ok,
            "wrong_results": len(self.wrong_results),
            "typed_errors": dict(sorted(self.typed_errors.items())),
            "unavailable": self.unavailable,
            "wall_seconds": self.wall_seconds,
            "server_alive": self.server_alive,
            "drained": self.drained,
            "uploads": self.uploads,
            "invariant_ok": self.invariant_ok,
            "plan_stats": self.plan_stats,
        }


def reference_result(store, workload_name: str, scale: int, spec: str) -> dict:
    """Fault-free replay of (workload, scale, spec); the ground truth."""
    from repro.serve.tasks import replay_digest
    from repro.workloads import ALL

    assert faultline.active_plan() is None, \
        "reference must be computed before the fault plan is installed"
    workload = ALL[workload_name]
    reader = store.get_or_record(workload, scale)
    # replay_digest resolves traces through the by-digest/ namespace
    # (the daemon's ingest path), so mirror the recording there.
    store.ingest(store.trace_path(workload, scale).read_bytes())
    return replay_digest({
        "root": str(store.root), "digest": reader.digest, "spec": spec,
    })


def run_chaos(
    seed: int,
    points: Mapping[str, Union[FaultSpec, float]],
    requests: int = 24,
    concurrency: int = 3,
    workers: int = 2,
    workload: str = "fft",
    scale: int = 1,
    spec: str = "eraser.full",
    resilience: ResilienceConfig = CHAOS_RESILIENCE,
) -> ChaosReport:
    """One seeded chaos run against a private daemon; returns the report.

    ``points`` maps fault-point names to probabilities or
    :class:`FaultSpec` schedules.  The daemon, its store, and the fault
    plan live and die inside this call; global faultline state is
    restored on exit.  The reference replay uses a store of its own, so
    the daemon's first trace reads are real reads that store faults can
    hit.
    """
    from repro.trace.store import TraceStore
    from repro.workloads import ALL

    plan = FaultPlan(seed=seed, points=points)
    previous_env = os.environ.get(faultline.ENV_VAR)

    with tempfile.TemporaryDirectory(prefix="alda-chaos-") as tmp:
        store = TraceStore(Path(tmp) / "reference")
        reference = reference_result(store, workload, scale, spec)
        trace_bytes = store.trace_path(ALL[workload], scale).read_bytes()
        daemon_root = Path(tmp) / "daemon"
        handle = None
        drained = False
        try:
            # The plan is armed before the daemon starts, so its pool
            # workers inherit it through the environment.
            os.environ[faultline.ENV_VAR] = plan.to_env()
            faultline.install(plan)
            handle = serve_in_thread(ServeConfig(
                workers=workers, store_root=str(daemon_root),
                resilience=resilience,
            ))
            # Seeding suppresses the armed faults: the daemon holds the
            # trace before the storm, so its first read is a real read.
            with faultline.suppressed("store.write.partial"):
                TraceStore(daemon_root).ingest(trace_bytes)
            gen = LoadGen(handle.address, [spec], reference["trace_digest"],
                          trace_bytes, requests, concurrency, timeout=30.0,
                          resilience=resilience, seed=seed,
                          reference={spec: reference})
            storm = gen.run()
        finally:
            if handle is not None:
                drained = handle.stop()
            faultline.clear()
            if previous_env is None:
                os.environ.pop(faultline.ENV_VAR, None)
            else:
                os.environ[faultline.ENV_VAR] = previous_env

    # The storm's closing STATS probe reached the daemon iff it outlived
    # the storm.
    snapshot = gen.snapshot
    return ChaosReport.from_storm(
        storm, seed=seed, server_alive=snapshot is not None, drained=drained,
        health=snapshot.get("health") if snapshot else None,
        plan_stats=plan.stats(),
    )


def render_report(report: ChaosReport) -> str:
    lines = [
        f"chaos seed={report.seed}: {report.ok}/{report.requests} bit-correct, "
        f"{report.unavailable} unavailable (typed), "
        f"{sum(report.typed_errors.values())} typed errors, "
        f"{len(report.wrong_results)} WRONG results "
        f"in {report.wall_seconds:.2f}s",
    ]
    for code, count in sorted(report.typed_errors.items()):
        lines.append(f"  error {code}: {count}")
    lines.append(f"  trace uploads: {report.uploads}")
    if report.plan_stats:
        fires = report.plan_stats.get("fires", {})
        lines.append(
            "  faults fired: "
            + (", ".join(f"{point}={count}"
                         for point, count in sorted(fires.items()))
               or "none")
        )
    lines.append(
        f"  server alive: {report.server_alive}, "
        f"drained: {report.drained}, "
        f"invariant: {'OK' if report.invariant_ok else 'VIOLATED'}"
    )
    return "\n".join(lines)
