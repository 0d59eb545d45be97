"""Cluster-aware client: ring routing, failover, healing, replication.

:class:`ClusterClient` exposes the same ``submit_digest_first`` surface
as :class:`repro.serve.ServeClient`, so everything built on that —
``run_jobs``, the harness (``figureN(cluster=)``), the load generator —
works against a shard ring unchanged.  Per request it:

1. routes the trace digest through the consistent-hash ring to its
   replica set (``R`` distinct shards, ring order);
2. tries each replica in turn behind that shard's own retry policy and
   circuit breaker (:mod:`repro.serve.resilience`), failing over on
   transport errors, ``BUSY``/draining backpressure, and open breakers;
3. heals digest-first through the shard's own
   :meth:`ServeClient.submit_digest_first`: a shard answering
   ``UNKNOWN_TRACE`` gets the trace bytes re-uploaded, and an
   ``UNKNOWN_TRACE`` on the upload itself (the shard quarantined the
   trace as corrupt) is retried like on a single daemon;
4. replicates writes: a freshly uploaded trace is pushed to the other
   replicas (``PUT_TRACE``), and a freshly *computed* result record is
   pushed into their result caches (``PUT_RESULT``) — best-effort, so a
   dead replica costs redundancy, never availability.

Cluster fault points (:mod:`repro.faultline`) are checked on the client
edge: ``cluster.net.partition`` makes one shard unreachable for one
attempt, ``cluster.replica.slow`` delays it.  Both are routed through
the normal failover path, which is the point — chaos proves the path.

A typed :class:`ClusterUnavailable` (a :class:`RetriesExhausted`
subclass, so existing handlers classify it as unavailability) surfaces
only when *every* replica failed transiently.  Deterministic failures
(``UNKNOWN_SPEC``, ``ANALYSIS_ERROR``) are raised immediately — every
shard would answer the same.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import faultline
from repro.serve import protocol
from repro.serve.client import (
    CircuitOpenError,
    RequestFailed,
    RetriesExhausted,
    ServeClient,
    ServeError,
    ServerBusy,
)
from repro.serve.config import ResilienceConfig

from repro.cluster.membership import Membership, Shard

#: Shard-client posture: few in-place retries, quick breaker — the
#: cluster layer prefers failing over to a replica in milliseconds to
#: retrying a sick shard for seconds.
SHARD_RESILIENCE = ResilienceConfig(
    max_attempts=2,
    backoff_base=0.02,
    backoff_max=0.2,
    retry_budget=2.0,
    breaker_threshold=3,
    breaker_reset=1.0,
)

#: ERROR codes that justify trying the next replica (the shard answered,
#: but another shard may serve).  Anything else deterministic fails the
#: request on every replica equally, so it surfaces immediately.
FAILOVER_CODES = ("SHUTTING_DOWN", "TIMEOUT", "WORKER_CRASH")


class ClusterError(ServeError):
    """Base class for cluster-level failures."""


class NoShardsError(ClusterError):
    """The membership has no shard marked up."""


class ClusterUnavailable(RetriesExhausted, ClusterError):
    """Every replica for a digest failed transiently.

    Subclasses :class:`RetriesExhausted` so callers that already treat
    retry exhaustion as typed unavailability (loadgen, chaos) classify
    cluster exhaustion the same way.
    """

    def __init__(self, digest: str,
                 shard_errors: Sequence[Tuple[str, BaseException]]) -> None:
        self.shard_errors = list(shard_errors)
        self.attempts = len(self.shard_errors)
        self.last_error = (self.shard_errors[-1][1]
                           if self.shard_errors else None)
        detail = "; ".join(
            f"{name}: {type(exc).__name__}" for name, exc in self.shard_errors
        )
        ServeError.__init__(
            self,
            f"no replica served digest {digest[:16]}... "
            f"({self.attempts} shard(s) failed: {detail or 'no shards up'})",
        )


class ClusterClient:
    """Digest-routed client over a shard ring; one instance per thread."""

    def __init__(self,
                 membership: Union[str, Path, Membership, Sequence[str]],
                 replication: Optional[int] = None,
                 resilience: Optional[ResilienceConfig] = SHARD_RESILIENCE,
                 timeout: float = 300.0,
                 retry_seed: Optional[int] = None,
                 replicate_writes: bool = True) -> None:
        self._membership_path: Optional[Path] = None
        self._membership_stamp: Optional[Tuple[float, int]] = None
        if isinstance(membership, (str, Path)):
            self._membership_path = Path(membership)
            membership = Membership.load(self._membership_path)
            self._membership_stamp = self._stat_stamp()
        elif not isinstance(membership, Membership):
            # bare address list: synthesize a roster, names = addresses
            membership = Membership(
                shards=[Shard(name=addr, address=addr) for addr in membership]
            )
        self.membership = membership
        self.replication = replication or membership.replication
        self.resilience = resilience
        self.timeout = timeout
        self._retry_seed = retry_seed
        self.replicate_writes = replicate_writes
        self._ring = membership.ring()
        self._clients: Dict[str, ServeClient] = {}
        self._lock = threading.Lock()
        #: aggregated view of the per-shard clients' retry counters
        self.retry_stats = {
            "attempts": 0, "retries": 0, "busy_retried": 0,
            "transport_retried": 0, "code_retried": 0, "breaker_rejections": 0,
        }
        #: cluster-layer counters, merged into loadgen/chaos reports
        self.cluster_stats = {
            "requests": 0, "failovers": 0, "healed_uploads": 0,
            "traces_replicated": 0, "results_replicated": 0,
            "replication_failures": 0, "partitions_injected": 0,
            "slow_replicas_injected": 0, "membership_reloads": 0,
        }
        #: requests served per shard name
        self.per_shard: Dict[str, int] = {}

    # -- membership / ring ---------------------------------------------
    def _stat_stamp(self) -> Optional[Tuple[float, int]]:
        try:
            stat = self._membership_path.stat()
        except OSError:
            return None
        return (stat.st_mtime, stat.st_size)

    def _maybe_reload(self) -> None:
        """Re-read the membership file when it changed on disk."""
        if self._membership_path is None:
            return
        stamp = self._stat_stamp()
        if stamp is None or stamp == self._membership_stamp:
            return
        try:
            membership = Membership.load(self._membership_path)
        except (OSError, ValueError):
            return  # torn read or mid-replace: keep the current view
        self._membership_stamp = stamp
        self.membership = membership
        self.replication = membership.replication
        self._ring = membership.ring()
        self.cluster_stats["membership_reloads"] += 1
        with self._lock:
            up = {shard.name for shard in membership.up_shards()}
            for name in list(self._clients):
                if name not in up:
                    self._clients.pop(name).close()

    def _client(self, shard: Shard) -> ServeClient:
        with self._lock:
            client = self._clients.get(shard.name)
            if client is None:
                seed = self._retry_seed
                if seed is not None:
                    # distinct but deterministic jitter per shard
                    seed = seed * 31 + len(self._clients)
                client = ServeClient(
                    shard.address, timeout=self.timeout,
                    resilience=self.resilience, retry_seed=seed,
                )
                self._clients[shard.name] = client
            return client

    def replicas_for(self, digest: str) -> List[Shard]:
        """The replica set for a digest, as membership Shard entries."""
        return [self.membership.shard(name)
                for name in self._ring.nodes_for(digest, self.replication)]

    # -- cluster fault points ------------------------------------------
    def _inject_partition(self, shard: Shard) -> bool:
        if faultline.inject("cluster.net.partition"):
            self.cluster_stats["partitions_injected"] += 1
            return True
        return False

    def _inject_slow_replica(self) -> None:
        if faultline.inject("cluster.replica.slow"):
            self.cluster_stats["slow_replicas_injected"] += 1
            plan = faultline.active_plan()
            delay = 0.05 + (plan.rng_int(200) / 1000.0 if plan else 0.0)
            time.sleep(delay)

    # -- request path ---------------------------------------------------
    def submit_digest_first(self, spec: str, digest: str,
                            trace_bytes: bytes,
                            timeout: Optional[float] = None) -> dict:
        """Submit one replay to the digest's replica set.

        Returns the RESULT payload of the shard that served it, with a
        ``shard`` key added.  Raises typed errors:
        :class:`NoShardsError` / :class:`ClusterUnavailable` for
        availability, or the original :class:`RequestFailed` for
        deterministic failures every shard would share.
        """
        self._maybe_reload()
        self.cluster_stats["requests"] += 1
        replicas = self.replicas_for(digest)
        if not replicas:
            raise NoShardsError("membership has no shard marked up")
        errors: List[Tuple[str, BaseException]] = []
        for index, shard in enumerate(replicas):
            if self._inject_partition(shard):
                errors.append((shard.name, ConnectionResetError(
                    "cluster.net.partition injected")))
                continue
            self._inject_slow_replica()
            client = self._client(shard)
            uploads = client.uploads
            try:
                response = client.submit_digest_first(spec, digest,
                                                      trace_bytes, timeout)
            except (ServerBusy, RetriesExhausted, CircuitOpenError,
                    OSError, protocol.ProtocolError) as exc:
                errors.append((shard.name, exc))
                continue
            except RequestFailed as exc:
                if exc.code in FAILOVER_CODES:
                    errors.append((shard.name, exc))
                    continue
                raise  # deterministic: every replica would answer this
            uploaded = client.uploads - uploads
            self.cluster_stats["healed_uploads"] += uploaded
            self._merge_client_stats()
            self.per_shard[shard.name] = self.per_shard.get(shard.name, 0) + 1
            if index:
                self.cluster_stats["failovers"] += 1
            if self.replicate_writes:
                self._replicate(replicas, shard, spec, digest, trace_bytes,
                                bool(uploaded), response)
            response["shard"] = shard.name
            return response
        raise ClusterUnavailable(digest, errors)

    def _replicate(self, replicas: Sequence[Shard], served: Shard, spec: str,
                   digest: str, trace_bytes: bytes, uploaded: bool,
                   response: dict) -> None:
        """Push writes to the other replicas, best-effort.

        A trace uploaded this call is copied to every other replica
        (``PUT_TRACE``); a result *computed* this call (cache miss) is
        pushed into their result caches (``PUT_RESULT``).  Cache hits
        replicate nothing — the write already fanned out when it was
        fresh.
        """
        fresh_result = (not response.get("cached")
                        and isinstance(response.get("result"), dict))
        if not uploaded and not fresh_result:
            return
        record = response.get("result")
        for shard in replicas:
            if shard.name == served.name:
                continue
            client = self._client(shard)
            try:
                if uploaded and trace_bytes:
                    client.put_trace(trace_bytes)
                    self.cluster_stats["traces_replicated"] += 1
                if fresh_result:
                    client.put_result(digest, spec, record)
                    self.cluster_stats["results_replicated"] += 1
            except (ServeError, OSError, protocol.ProtocolError):
                self.cluster_stats["replication_failures"] += 1

    def _merge_client_stats(self) -> None:
        for key in self.retry_stats:
            self.retry_stats[key] = sum(
                c.retry_stats[key] for c in self._clients.values()
            )

    # -- admin ----------------------------------------------------------
    def ping_all(self) -> Dict[str, bool]:
        """Liveness of every shard in the roster (up or down)."""
        self._maybe_reload()
        alive = {}
        for shard in self.membership.shards:
            try:
                alive[shard.name] = self._client(shard).ping()
            except (ServeError, OSError, protocol.ProtocolError):
                alive[shard.name] = False
        return alive

    def stats(self) -> Dict[str, dict]:
        """Per-shard STATS snapshots (the ``serve stats --json`` payload);
        unreachable shards map to ``{"error": ...}``."""
        self._maybe_reload()
        snapshots = {}
        for shard in self.membership.shards:
            try:
                snapshots[shard.name] = self._client(shard).stats()
            except (ServeError, OSError, protocol.ProtocolError) as exc:
                snapshots[shard.name] = {"error": f"{type(exc).__name__}: {exc}"}
        return snapshots

    def close(self) -> None:
        with self._lock:
            for client in self._clients.values():
                client.close()
            self._clients.clear()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
