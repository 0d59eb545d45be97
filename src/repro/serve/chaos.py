"""Chaos harness: drive a live shard ring through injected faults.

:func:`run_chaos` is the executable form of the resilience contract:

* record a workload trace and compute its reference replay result
  *before* any fault is armed, in a store of its own;
* install a seeded :class:`~repro.faultline.FaultPlan` (API + the
  ``REPRO_FAULTLINE`` env var, so spawned pool workers inherit it);
* start a private ring through :class:`~repro.cluster.ClusterSupervisor`
  (one shard is the single-daemon case), seed every shard's store with
  the trace, and hammer the ring with the
  :class:`~repro.serve.loadgen.LoadGen` storm;
* classify every request: **bit-correct result**, **typed error**, or —
  the one outcome that must never happen — **wrong result**;
* finally check every surviving shard still answers STATS and the ring
  drains cleanly.

On top of the single-node fault points, the cluster points fire:
``cluster.shard.down`` takes the digest's *primary* shard down when the
request a third of the way into the storm is claimed (it needs a ring of
at least two shards), and ``cluster.net.partition`` /
``cluster.replica.slow`` make one attempt on one shard fail or stall on
the client edge, driving the failover path.

The invariant a chaos run asserts is *correct or typed, never wrong*:
faults may cost availability (a request may exhaust its retries and
surface a typed error) but never integrity (a request that returns a
RESULT returns the same numbers a fault-free run would).  When a shard
was killed, requests must also keep completing afterwards.

Reproducibility: the fault schedule derives entirely from the plan
seed, and client retry jitter from ``seed`` — a failing run is re-run
from two integers.  Because every shard holds the trace before the
storm, each request starts as one digest-only frame; how many client
threads race a first upload never changes the number of fault draws.

CLI::

    python -m repro.serve chaos --seed 7 --requests 40 \\
        --fault worker.crash.midjob=0.3 --fault serve.busy=0.2
    python -m repro.serve chaos --seed 7 --shards 3   # kill a shard mid-run
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro import faultline
from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.faultline import FaultPlan, FaultSpec
from repro.serve.config import ResilienceConfig
from repro.serve.loadgen import LoadGen

#: Fast-test resilience posture: tight watchdog, quick breaker reset,
#: generous attempts — chaos runs finish in seconds, not minutes.  The
#: servers and the clients of a run both use it.
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

#: Default storm on one shard: every single-node fault family.
DEFAULT_POINTS = {
    "serve.busy": 0.15,
    "serve.conn.reset": 0.1,
    "worker.crash.midjob": 0.2,
    "store.read.corrupt": 0.1,
    "store.write.partial": 0.1,
}

#: Default storm on a ring: the guaranteed mid-run shard kill plus a
#: sprinkling of client-edge and single-node faults.
DEFAULT_CLUSTER_POINTS = {
    "cluster.shard.down": FaultSpec(probability=1.0, max_fires=1),
    "cluster.net.partition": 0.08,
    "cluster.replica.slow": 0.08,
    "serve.busy": 0.1,
    "worker.crash.midjob": 0.1,
}


@dataclass
class ChaosReport:
    """Outcome classification for one chaos run."""

    seed: int
    requests: int
    shards: int = 1
    replication: int = 1
    ok: int = 0
    wrong_results: List[dict] = field(default_factory=list)
    typed_errors: Dict[str, int] = field(default_factory=dict)
    unavailable: int = 0  # retries exhausted / busy / breaker open
    wall_seconds: float = 0.0
    killed_shard: Optional[str] = None
    ok_after_kill: int = 0
    survivors_alive: bool = False
    drained: bool = False
    per_shard: Dict[str, int] = field(default_factory=dict)
    cluster_counters: Dict[str, int] = field(default_factory=dict)
    #: each surviving shard's STATS ``health`` block, by shard name
    health: Optional[Dict[str, dict]] = None
    plan_stats: Optional[dict] = None

    @classmethod
    def from_storm(cls, storm: dict, **fields) -> "ChaosReport":
        """Classify a :class:`LoadGen` storm report; ``fields`` adds the
        run's own facts (seed, ring shape, survivors, plan stats)."""
        cluster = storm["cluster"]
        return cls(
            requests=storm["config"]["requests"],
            ok=storm["completed"],
            wrong_results=storm["wrong_results"],
            typed_errors=storm["typed_errors"],
            unavailable=storm["busy"] + storm["breaker_open"],
            wall_seconds=storm["wall_seconds"],
            killed_shard=cluster["killed_shard"],
            ok_after_kill=cluster["ok_after_kill"],
            per_shard=cluster["per_shard"],
            cluster_counters=cluster["counters"],
            **fields,
        )

    @property
    def answered(self) -> int:
        return self.ok + self.unavailable + sum(self.typed_errors.values())

    @property
    def invariant_ok(self) -> bool:
        """Correct-or-typed, survivors drain, goodput holds through a kill.

        ``ok_after_kill`` only constrains runs where the kill actually
        fired — a schedule that never took a shard down asserts the
        plain invariant.
        """
        return (not self.wrong_results
                and self.answered == self.requests
                and self.survivors_alive
                and self.drained
                and (self.killed_shard is None or self.ok_after_kill > 0))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "shards": self.shards,
            "replication": self.replication,
            "ok": self.ok,
            "wrong_results": len(self.wrong_results),
            "typed_errors": dict(sorted(self.typed_errors.items())),
            "unavailable": self.unavailable,
            "wall_seconds": self.wall_seconds,
            "killed_shard": self.killed_shard,
            "ok_after_kill": self.ok_after_kill,
            "survivors_alive": self.survivors_alive,
            "drained": self.drained,
            "per_shard": dict(sorted(self.per_shard.items())),
            "cluster_counters": dict(sorted(self.cluster_counters.items())),
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
    shards: int = 1,
    replication: int = 2,
) -> ChaosReport:
    """One seeded chaos run against a private ring; returns the report.

    ``points`` maps fault-point names to probabilities or
    :class:`FaultSpec` schedules.  The ring, its stores, and the fault
    plan live and die inside this call; global faultline state is
    restored on exit.  The reference replay uses a store of its own, so
    the shards' first trace reads are real reads that store faults can
    hit.
    """
    from repro.trace.store import TraceStore
    from repro.workloads import ALL

    if "cluster.shard.down" in points and shards < 2:
        raise ValueError("cluster.shard.down needs a ring of at least "
                         f"2 shards, got shards={shards}")
    plan = FaultPlan(seed=seed, points=points)
    previous_env = os.environ.get(faultline.ENV_VAR)

    with tempfile.TemporaryDirectory(prefix="alda-chaos-") as tmp:
        store = TraceStore(Path(tmp) / "reference")
        reference = reference_result(store, workload, scale, spec)
        trace_bytes = store.trace_path(ALL[workload], scale).read_bytes()
        supervisor = ClusterSupervisor(ClusterConfig(
            shards=shards, replication=replication, workers=workers,
            root=str(Path(tmp) / "ring"), resilience=resilience,
        ))
        try:
            os.environ[faultline.ENV_VAR] = plan.to_env()
            faultline.install(plan)
            # Startup pings suppress the armed faults (see _await_ready),
            # and so does seeding: each shard holds the trace in a store
            # of its own before the storm, so its first read is a real read.
            supervisor.start()
            with faultline.suppressed("store.write.partial"):
                for shard in supervisor.membership.shards:
                    TraceStore(shard.store).ingest(trace_bytes)
            gen = LoadGen(supervisor, [spec], reference["trace_digest"],
                          trace_bytes, requests, concurrency, timeout=30.0,
                          resilience=resilience, seed=seed,
                          reference={spec: reference})
            storm = gen.run()
            # Every surviving shard must have outlived the storm: the
            # storm's closing STATS probe reached it.
            survivors = supervisor.membership.up_shards()
            snapshots = {shard.name: gen.snapshots.get(shard.name)
                         or {"error": "not probed"} for shard in survivors}
            survivors_alive = bool(survivors) and not any(
                "error" in snap for snap in snapshots.values()
            )
            supervisor.stop()
        finally:
            supervisor.stop()
            faultline.clear()
            if previous_env is None:
                os.environ.pop(faultline.ENV_VAR, None)
            else:
                os.environ[faultline.ENV_VAR] = previous_env

    return ChaosReport.from_storm(
        storm, seed=seed, shards=shards,
        replication=supervisor.membership.replication,
        survivors_alive=survivors_alive, drained=True,
        health={name: snap.get("health") for name, snap in snapshots.items()},
        plan_stats=plan.stats(),
    )


def render_report(report: ChaosReport) -> str:
    lines = [
        f"chaos seed={report.seed} shards={report.shards} "
        f"R={report.replication}: {report.ok}/{report.requests} bit-correct, "
        f"{report.unavailable} unavailable (typed), "
        f"{sum(report.typed_errors.values())} typed errors, "
        f"{len(report.wrong_results)} WRONG results "
        f"in {report.wall_seconds:.2f}s",
    ]
    if report.killed_shard:
        lines.append(
            f"  killed {report.killed_shard} mid-run; "
            f"{report.ok_after_kill} request(s) completed after the kill"
        )
    for code, count in sorted(report.typed_errors.items()):
        lines.append(f"  error {code}: {count}")
    if report.per_shard:
        lines.append(
            "  served by: "
            + ", ".join(f"{name}={count}"
                        for name, count in sorted(report.per_shard.items()))
        )
    counters = report.cluster_counters
    if counters:
        lines.append(
            f"  cluster: failovers={counters.get('failovers', 0)} "
            f"healed_uploads={counters.get('healed_uploads', 0)} "
            f"traces_replicated={counters.get('traces_replicated', 0)} "
            f"results_replicated={counters.get('results_replicated', 0)}"
        )
    if report.plan_stats:
        fires = report.plan_stats.get("fires", {})
        lines.append(
            "  faults fired: "
            + (", ".join(f"{point}={count}"
                         for point, count in sorted(fires.items()))
               or "none")
        )
    lines.append(
        f"  survivors alive: {report.survivors_alive}, "
        f"drained: {report.drained}, "
        f"invariant: {'OK' if report.invariant_ok else 'VIOLATED'}"
    )
    return "\n".join(lines)
