"""``repro.cluster`` — a sharded ring of analysis daemons.

The single-daemon serving layer (:mod:`repro.serve`) stores traces and
results content-addressed by digest; this package scales it out by
making that digest the routing key.  A :class:`HashRing` (consistent
hashing with virtual nodes) maps each trace digest to R replica shards;
a :class:`ClusterSupervisor` launches the shards and owns the shared
membership file; a :class:`ClusterClient` routes on the client side
with replica failover, digest-first re-upload healing, and write
replication — all on the existing wire protocol, resilience layer, and
fault-injection substrate.

Routing is a performance structure, not a correctness one: any shard
can replay any trace it is handed, so a stale ring view degrades cache
locality, never answers.  The one chaos driver
(:func:`repro.serve.chaos.run_chaos` with ``shards >= 2``) holds the
serving invariant — every request bit-correct or typed, never wrong —
while a shard is killed mid-storm; a single daemon is the one-shard
ring of that same driver and of the one load generator.

CLI::

    python -m repro.cluster up --shards 3        # run a cluster
    python -m repro.cluster stats --membership PATH
    python -m repro.cluster shutdown --membership PATH
    python -m repro.serve loadgen --shards 3 --requests 100
    python -m repro.serve chaos --seed 7 --shards 3
"""

from repro.cluster.client import (
    ClusterClient,
    ClusterError,
    ClusterUnavailable,
    NoShardsError,
)
from repro.cluster.membership import Membership, Shard
from repro.cluster.ring import HashRing
from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor

__all__ = [
    "ClusterClient",
    "ClusterConfig",
    "ClusterError",
    "ClusterSupervisor",
    "ClusterUnavailable",
    "HashRing",
    "Membership",
    "NoShardsError",
    "Shard",
]
