"""Fault plans: seeded, per-point schedules for deterministic chaos.

A :class:`FaultPlan` decides, for each named fault point the runtime
asks about, whether the fault fires *now*.  Decisions come from one
seeded :class:`random.Random`, so a plan replays the same schedule for
the same sequence of checks — a failing chaos run is reproduced by its
seed alone.

Plans serialize to a single JSON string (:meth:`FaultPlan.to_env`) so
they cross process boundaries through the ``REPRO_FAULTLINE``
environment variable: worker processes spawned by
:class:`repro.exec.workers.PersistentWorkerPool` parse the same plan at
import time and run their own (identically seeded) schedule.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

#: Every fault point the runtime layers declare.  Plans naming a point
#: outside this catalog are rejected — a typo would otherwise silently
#: inject nothing.
FAULT_POINTS = (
    "serve.busy",          # server answers BUSY regardless of queue depth
    "serve.conn.reset",    # server aborts the TCP connection mid-session
    "worker.hang",         # replay task blocks forever inside the worker
    "worker.crash.midjob", # worker process dies mid-replay (os._exit)
    "store.read.corrupt",  # a trace read returns bit-flipped bytes
    "store.write.partial", # a store write publishes a truncated file
    "partition.shard.fail",   # one partitioned-replay shard decode dies
    "partition.merge.corrupt",  # a shard artifact is perturbed pre-merge
)


@dataclass(frozen=True)
class FaultSpec:
    """Schedule for one fault point.

    ``probability`` is evaluated per check from the plan's seeded RNG;
    ``max_fires`` caps total injections (``None`` = unlimited);
    ``skip_first`` lets the first N checks pass untouched (e.g. let a
    trace upload succeed once before corrupting reads).
    """

    probability: float = 1.0
    max_fires: Optional[int] = None
    skip_first: int = 0

    def to_dict(self) -> dict:
        return {
            "probability": self.probability,
            "max_fires": self.max_fires,
            "skip_first": self.skip_first,
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "FaultSpec":
        return cls(
            probability=float(raw.get("probability", 1.0)),
            max_fires=(None if raw.get("max_fires") is None
                       else int(raw["max_fires"])),
            skip_first=int(raw.get("skip_first", 0)),
        )


class FaultPlan:
    """Seeded per-point fault schedule; thread-safe.

    ``points`` maps fault-point names to :class:`FaultSpec` (or a bare
    float, shorthand for ``FaultSpec(probability=p)``).
    """

    def __init__(self, seed: int,
                 points: Mapping[str, Union[FaultSpec, float]]) -> None:
        self.seed = int(seed)
        self.points: Dict[str, FaultSpec] = {}
        for name, spec in points.items():
            if name not in FAULT_POINTS:
                raise ValueError(
                    f"unknown fault point {name!r}; known: {list(FAULT_POINTS)}"
                )
            if not isinstance(spec, FaultSpec):
                spec = FaultSpec(probability=float(spec))
            self.points[name] = spec
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self.checks: Dict[str, int] = {}
        self.fires: Dict[str, int] = {}

    def should_fire(self, point: str) -> bool:
        """One scheduling decision; counts the check either way."""
        with self._lock:
            self.checks[point] = checks = self.checks.get(point, 0) + 1
            spec = self.points.get(point)
            if spec is None:
                return False
            if checks <= spec.skip_first:
                return False
            fired = self.fires.get(point, 0)
            if spec.max_fires is not None and fired >= spec.max_fires:
                return False
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                return False
            self.fires[point] = fired + 1
            return True

    def rng_int(self, upper: int) -> int:
        """A deterministic integer in [0, upper) for fault payloads
        (e.g. which byte to flip)."""
        with self._lock:
            return self._rng.randrange(upper)

    def stats(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "points": sorted(self.points),
                "checks": dict(sorted(self.checks.items())),
                "fires": dict(sorted(self.fires.items())),
            }

    # -- env round-trip ------------------------------------------------
    def to_env(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "points": {name: spec.to_dict()
                       for name, spec in sorted(self.points.items())},
        }, sort_keys=True)

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        try:
            raw = json.loads(value)
        except ValueError as exc:
            raise ValueError(f"REPRO_FAULTLINE is not valid JSON: {exc}") from None
        if not isinstance(raw, dict) or "points" not in raw:
            raise ValueError("REPRO_FAULTLINE must be a JSON object with 'points'")
        points = {
            name: FaultSpec.from_dict(spec)
            for name, spec in raw["points"].items()
        }
        return cls(seed=int(raw.get("seed", 0)), points=points)
