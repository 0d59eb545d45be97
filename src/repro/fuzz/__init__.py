"""Adversarial workload firehose (``repro.fuzz``).

The paper's core guarantee — an ALDA analysis observes the same events
and produces the same findings however it is executed — is enforced in
this repro by differential tests over 25 hand-written workloads.  This
package turns that guarantee into a *property* checked over an open-ended
stream of generated programs:

* :mod:`repro.fuzz.gen` — a deterministic seeded generator producing
  valid mini-IR programs from a parameter vector (load/store density,
  malloc/free churn, aliasing depth, loop nesting, lock discipline,
  thread spawn/join patterns, call-graph shape), registrable as
  synthetic entries in the workload registry;
* :mod:`repro.fuzz.oracle` — a differential oracle running each
  generated workload through a configurable execution matrix
  (reference/compiled × elision off/intra/interproc ×
  monolithic/partitioned × inline/serve) and classifying the outcome
  as ``MATCH``, ``DIVERGENCE``, ``CRASH``, ``TIMEOUT``, or — under an
  installed fault plan — ``TYPED_FAULT``;
* :mod:`repro.fuzz.shrink` — an auto-shrinker delta-debugging any
  non-``MATCH`` case down to a minimal IR module that still reproduces
  it, preserving the failing seed and matrix cell;
* :mod:`repro.fuzz.corpus` — a content-addressed regression corpus
  (``tests/fuzz/corpus/``) replayed as ordinary pytest cases, so every
  shrunk find becomes a permanent test;
* :mod:`repro.fuzz.faults` — fuzz-under-fault: the oracle composed
  with :mod:`repro.faultline` plans, holding the resilience invariant
  (correct or typed, never wrong) over generated workloads.

CLIs: ``python -m repro.fuzz run | shrink | corpus`` (see
``docs/FUZZ.md``).  In-process counters surface as the
``subsystems.fuzz`` tier of ``python -m repro.serve stats``.
"""

from __future__ import annotations

import threading

from repro.errors import ReproError


class FuzzError(ReproError):
    """Base class for fuzzing-layer failures."""


class FuzzUsageError(FuzzError):
    """Invalid parameter ranges or unknown matrix/fault names (CLI exit 2)."""


class FuzzTimeout(FuzzError):
    """A fuzz case exceeded its per-case wall-clock cap."""

    def __init__(self, elapsed: float, cap: float, cell: str = "") -> None:
        where = f" in cell {cell}" if cell else ""
        super().__init__(
            f"fuzz case exceeded its wall-clock cap{where} "
            f"({elapsed:.2f}s elapsed, cap {cap:.2f}s)"
        )
        self.elapsed = elapsed
        self.cap = cap
        self.cell = cell


#: Case classifications produced by the oracle.
OUTCOME_MATCH = "MATCH"
OUTCOME_DIVERGENCE = "DIVERGENCE"
OUTCOME_CRASH = "CRASH"
OUTCOME_TIMEOUT = "TIMEOUT"
OUTCOME_TYPED_FAULT = "TYPED_FAULT"

OUTCOMES = (
    OUTCOME_MATCH,
    OUTCOME_DIVERGENCE,
    OUTCOME_CRASH,
    OUTCOME_TIMEOUT,
    OUTCOME_TYPED_FAULT,
)

#: Outcomes that count as *finds* — the system misbehaved.
FIND_OUTCOMES = (OUTCOME_DIVERGENCE, OUTCOME_CRASH)

_lock = threading.Lock()
_counters = {
    "modules_generated": 0,
    "cases": 0,
    "matches": 0,
    "divergences": 0,
    "crashes": 0,
    "timeouts": 0,
    "typed_faults": 0,
    "shrink_runs": 0,
    "shrink_removed": 0,
    "corpus_replays": 0,
}


def bump(name: str, amount: int = 1) -> None:
    """Increment one fuzz counter (thread-safe)."""
    with _lock:
        _counters[name] = _counters.get(name, 0) + amount


def fuzz_stats() -> dict:
    """Snapshot of the in-process fuzz counters (``subsystems.fuzz``)."""
    with _lock:
        return dict(_counters)


def reset_stats() -> None:
    """Zero every counter (tests)."""
    with _lock:
        for key in _counters:
            _counters[key] = 0


__all__ = [
    "FIND_OUTCOMES",
    "FuzzError",
    "FuzzTimeout",
    "FuzzUsageError",
    "OUTCOMES",
    "OUTCOME_CRASH",
    "OUTCOME_DIVERGENCE",
    "OUTCOME_MATCH",
    "OUTCOME_TIMEOUT",
    "OUTCOME_TYPED_FAULT",
    "bump",
    "fuzz_stats",
    "reset_stats",
]
