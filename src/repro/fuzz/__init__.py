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
``docs/FUZZ.md``).  In-process counters live in
:data:`repro.obs.PROCESS` as ``fuzz.*``: ``run --json`` prints them
under ``stats``, and ``python -m repro.serve stats`` under
``subsystems.fuzz``.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.obs import PROCESS


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

_COUNTERS = {name: PROCESS.counter("fuzz." + name) for name in (
    "cases", "matches", "divergences", "crashes", "timeouts",
    "typed_faults", "shrink_runs", "shrink_removed", "corpus_replays",
)}


def bump(name: str, amount: int = 1) -> None:
    """Increment one process-wide fuzz counter (``fuzz.<name>``)."""
    _COUNTERS[name].inc(amount)


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
]
