"""Cluster supervisor: launch, watch, and drain a ring of serve daemons.

``python -m repro.cluster up --shards N`` builds on this module.  The
supervisor owns the membership file: it assigns each shard a name, a
port, and a store directory under one cluster root, starts the daemons
(in-process threads by default, real ``python -m repro.serve``
processes with ``backend="process"``), waits for each to answer PING,
and publishes the roster.  Health checks re-ping every shard and flip
its membership status, so clients reroute away from a dead shard within
one request.

``kill_shard`` exists for chaos: it takes one shard down mid-run
(abruptly for processes, by draining for threads) and republishes the
membership — the cluster invariant says the survivors absorb the
traffic and every outstanding request ends correct or typed.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro import faultline
from repro.serve.client import ServeClient, ServeError
from repro.serve import protocol
from repro.serve.config import ResilienceConfig

from repro.cluster.client import ClusterClient
from repro.cluster.membership import Membership, Shard
from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.stats import merge_snapshots

MEMBERSHIP_FILENAME = "membership.json"

#: server-side ResilienceConfig fields ``python -m repro.serve`` has no
#: flag for, so a process shard always runs their defaults
UNFORWARDED_RESILIENCE = ("heartbeat_interval", "reaper_interval",
                          "respawn_window", "max_respawns_per_window")


@dataclass
class ClusterConfig:
    """Shape of one cluster: shard count, replication, placement."""

    shards: int = 3
    replication: int = 2
    vnodes: int = DEFAULT_VNODES
    host: str = "127.0.0.1"
    #: replay workers per shard (0 = inline replays, cheapest to spawn)
    workers: int = 1
    #: cluster root: per-shard stores + the membership file live here
    root: Optional[str] = None
    #: "thread" embeds AnalysisServers in this process (tests, chaos);
    #: "process" spawns real ``python -m repro.serve`` daemons
    backend: str = "thread"
    #: first port for the process backend (each shard takes base+index);
    #: the thread backend always lets the kernel pick free ports
    base_port: int = 7101
    start_timeout: float = 30.0
    #: every shard's server-side watchdog/breaker/fallback posture; the
    #: process backend passes the fields ``python -m repro.serve`` has
    #: flags for and refuses a change to any other server-side field
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a cluster needs at least one shard")
        if self.backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not 1 <= self.replication:
            raise ValueError("replication factor must be >= 1")
        if self.backend == "process":
            default = ResilienceConfig()
            lost = [name for name in UNFORWARDED_RESILIENCE
                    if getattr(self.resilience, name) != getattr(default, name)]
            if lost:
                raise ValueError(
                    f"the process backend cannot pass resilience {lost} "
                    "to its shards (python -m repro.serve has no flag)"
                )


class ClusterSupervisor:
    """Owns the shard daemons and the membership file."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        if self.config.root is None:
            import tempfile

            self._tempdir = tempfile.TemporaryDirectory(prefix="alda-cluster-")
            self.root = Path(self._tempdir.name)
        else:
            self._tempdir = None
            self.root = Path(self.config.root)
            self.root.mkdir(parents=True, exist_ok=True)
        self.membership_path = self.root / MEMBERSHIP_FILENAME
        self.membership = Membership(
            replication=min(self.config.replication, self.config.shards),
            vnodes=self.config.vnodes,
        )
        self._handles: Dict[str, object] = {}    # thread backend
        self._processes: Dict[str, subprocess.Popen] = {}  # process backend
        self._started = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> Membership:
        """Launch every shard, wait for PONGs, publish the membership."""
        if self._started:
            return self.membership
        for index in range(self.config.shards):
            name = f"shard{index}"
            store = self.root / name / "store"
            store.mkdir(parents=True, exist_ok=True)
            if self.config.backend == "thread":
                address = self._start_thread_shard(name, store)
            else:
                address = self._start_process_shard(name, store, index)
            self.membership.shards.append(
                Shard(name=name, address=address, store=str(store))
            )
        self._await_ready()
        self.membership.save(self.membership_path)
        self._started = True
        return self.membership

    def _start_thread_shard(self, name: str, store: Path) -> str:
        from repro.serve.server import ServeConfig, serve_in_thread

        handle = serve_in_thread(ServeConfig(
            host=self.config.host, port=0, workers=self.config.workers,
            store_root=str(store), resilience=self.config.resilience,
        ), start_timeout=self.config.start_timeout)
        self._handles[name] = handle
        return handle.address

    def _start_process_shard(self, name: str, store: Path, index: int) -> str:
        port = self.config.base_port + index
        log_path = self.root / name / "serve.log"
        resilience = self.config.resilience
        argv = [sys.executable, "-m", "repro.serve",
                "--host", self.config.host, "--port", str(port),
                "--workers", str(self.config.workers),
                "--store", str(store),
                "--hang-timeout", str(resilience.hang_timeout or 0),
                "--breaker-threshold", str(resilience.breaker_threshold),
                "--breaker-reset", str(resilience.breaker_reset)]
        if not resilience.inline_fallback:
            argv.append("--no-inline-fallback")
        log = open(log_path, "ab")
        try:
            process = subprocess.Popen(argv, stdout=log,
                                       stderr=subprocess.STDOUT)
        finally:
            log.close()  # the child holds its own descriptor
        self._processes[name] = process
        return f"{self.config.host}:{port}"

    def _await_ready(self) -> None:
        """Block until every shard answers PING (or raise with the holdouts).

        Startup pings run with chaos faults suppressed: a fault plan
        armed for the run proper must not make a healthy shard look
        dead before it served anything.
        """
        deadline = time.monotonic() + self.config.start_timeout
        pending = {shard.name: shard.address for shard in self.membership.shards}
        with faultline.suppressed("serve.conn.reset", "serve.busy",
                                  "cluster.net.partition",
                                  "cluster.replica.slow"):
            while pending and time.monotonic() < deadline:
                for name, address in list(pending.items()):
                    process = self._processes.get(name)
                    if process is not None and process.poll() is not None:
                        raise RuntimeError(
                            f"shard {name} exited with code "
                            f"{process.returncode} before becoming ready "
                            f"(see {self.root / name / 'serve.log'})"
                        )
                    try:
                        with ServeClient(address, timeout=2.0) as client:
                            if client.ping():
                                del pending[name]
                    except (ServeError, OSError, protocol.ProtocolError):
                        pass
                if pending:
                    time.sleep(0.05)
        if pending:
            raise RuntimeError(
                f"shards never became ready: {sorted(pending)}"
            )

    def stop(self, timeout: float = 15.0) -> None:
        """Drain every shard and tear the cluster down."""
        for name, handle in list(self._handles.items()):
            try:
                handle.stop(timeout)
            except Exception:  # noqa: BLE001 - a dead shard is already stopped
                pass
            del self._handles[name]
        for name, process in list(self._processes.items()):
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(5.0)
            del self._processes[name]
        for shard in self.membership.shards:
            shard.status = "down"
        if self._started:
            self.membership.save(self.membership_path)
        self._started = False
        if self._tempdir is not None:
            import contextlib

            with contextlib.suppress(OSError):
                self._tempdir.cleanup()

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- chaos / failure handling --------------------------------------
    def kill_shard(self, name: str, timeout: float = 10.0) -> None:
        """Take one shard down and republish the membership.

        The process backend kills abruptly (SIGKILL — the crash chaos
        wants); the thread backend drains, which still exercises the
        client's failover path via ``SHUTTING_DOWN`` and dead sockets.
        """
        handle = self._handles.pop(name, None)
        if handle is not None:
            try:
                handle.stop(timeout)
            except Exception:  # noqa: BLE001 - killing a dying shard is fine
                pass
        process = self._processes.pop(name, None)
        if process is not None and process.poll() is None:
            process.kill()
            process.wait(timeout)
        self.membership.mark(name, "down")
        self.membership.save(self.membership_path)

    def health_check(self) -> Dict[str, bool]:
        """Ping every shard; flip membership status on changes."""
        alive: Dict[str, bool] = {}
        changed = False
        for shard in self.membership.shards:
            running = True
            process = self._processes.get(shard.name)
            if process is not None and process.poll() is not None:
                running = False
            ok = False
            if running:
                try:
                    with ServeClient(shard.address, timeout=2.0) as client:
                        ok = client.ping()
                except (ServeError, OSError, protocol.ProtocolError):
                    ok = False
            alive[shard.name] = ok
            status = "up" if ok else "down"
            if shard.status != status:
                shard.status = status
                changed = True
        if changed:
            self.membership.save(self.membership_path)
        return alive

    # -- stats ---------------------------------------------------------
    def aggregate_stats(self) -> dict:
        """Cluster-wide merged stats (see :mod:`repro.cluster.stats`)."""
        return aggregate_from_membership(self.membership)


def aggregate_from_membership(
    membership: Union[str, Path, Membership],
) -> dict:
    """Merge the per-shard STATS snapshots of a running cluster."""
    with ClusterClient(membership, timeout=5.0) as probe:
        return merge_snapshots(probe.stats())
