"""Differential oracle: one generated workload, many execution paths.

A *matrix cell* names one way to execute an analysis over a workload,
written ``backend/elide/partition/path``:

* backend — ``reference`` | ``compiled``;
* elide — ``off`` | ``intra`` | ``inter`` (staticpass elision tier);
* partition — ``mono`` | ``p1`` | ``p2`` | ``p4`` (replay shards);
* path — ``inline`` (fresh VM in-process) | ``serve`` (through the
  analysis daemon).

Structural constraints (enforced by :func:`parse_cell`): partitioned
cells replay the stored trace (``compiled/off/pN/inline``); serve cells
go through the daemon (``compiled/off/mono/serve``); elision tiers are
an inline-VM feature.  The paper's claim under test: every cell observes
the same events, so **reports are bit-identical everywhere**, cycle and
metadata observables are bit-identical within the elision-off group, and
handler calls fall monotonically off ≥ intra ≥ inter.

Each case is classified as:

* ``MATCH`` — every cell completed and all observables agree;
* ``DIVERGENCE`` — cells completed but reports / trace bytes /
  backtraces / cost observables differ (a real equivalence bug);
* ``CRASH`` — a cell raised an exception that no installed fault plan
  explains;
* ``TIMEOUT`` — the per-case wall-clock cap elapsed (typed
  :class:`repro.fuzz.FuzzTimeout`; checked between cells — the VM is
  pure Python, so the cap is a classification, not a preemption);
* ``TYPED_FAULT`` — only under an installed :mod:`repro.faultline`
  plan: a cell failed with a *typed* error from the resilience
  contract.  An **untyped** error under faults is still ``CRASH``, and
  completed-but-different is still ``DIVERGENCE`` — that is exactly the
  correct-or-typed-never-wrong invariant.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuzz import (
    OUTCOME_CRASH,
    OUTCOME_DIVERGENCE,
    OUTCOME_MATCH,
    OUTCOME_TIMEOUT,
    OUTCOME_TYPED_FAULT,
    FuzzTimeout,
    FuzzUsageError,
    bump,
)
from repro.fuzz.gen import GenParams, sample_params, synthetic_workload

BACKENDS = ("reference", "compiled")
ELIDE_TIERS = ("off", "intra", "inter")
PARTITIONS = ("mono", "p1", "p2", "p4")
PATHS = ("inline", "serve")

#: The standard 7-cell matrix: one baseline, every backend, every elision
#: tier, two shard counts, and the serve path.
DEFAULT_MATRIX = (
    "reference/off/mono/inline",
    "compiled/off/mono/inline",
    "compiled/intra/mono/inline",
    "compiled/inter/mono/inline",
    "compiled/off/p2/inline",
    "compiled/off/p4/inline",
    "compiled/off/mono/serve",
)

#: Error families the resilience contract is allowed to surface under an
#: installed fault plan (import-light: resolved lazily by name).
_TYPED_FAULT_FAMILIES = (
    ("repro.serve.client", "ServeError"),
    ("repro.partition.merge", "PartitionError"),
    ("repro.trace.store", "StoreCorruptionError"),
    ("repro.trace.format", "TraceFormatError"),
    ("repro.exec.workers", "WorkerCrashError"),
)


def typed_fault_types() -> Tuple[type, ...]:
    """The exception types that count as *typed* under fault injection."""
    import importlib

    types: List[type] = [FuzzTimeout]
    for module_name, class_name in _TYPED_FAULT_FAMILIES:
        module = importlib.import_module(module_name)
        types.append(getattr(module, class_name))
    return tuple(types)


@dataclass(frozen=True)
class Cell:
    """One parsed matrix cell."""

    backend: str
    elide: str
    partition: str
    path: str

    @property
    def name(self) -> str:
        return f"{self.backend}/{self.elide}/{self.partition}/{self.path}"

    @property
    def shards(self) -> int:
        return 1 if self.partition in ("mono", "p1") else int(self.partition[1:])


def parse_cell(text: str) -> Cell:
    """Parse and structurally validate one ``backend/elide/partition/path``."""
    parts = text.strip().split("/")
    if len(parts) != 4:
        raise FuzzUsageError(
            f"bad matrix cell {text!r}: expected backend/elide/partition/path"
        )
    backend, elide, partition, path = parts
    if backend not in BACKENDS:
        raise FuzzUsageError(f"unknown backend {backend!r} in cell {text!r}")
    if elide not in ELIDE_TIERS:
        raise FuzzUsageError(f"unknown elide tier {elide!r} in cell {text!r}")
    if partition not in PARTITIONS:
        raise FuzzUsageError(f"unknown partition {partition!r} in cell {text!r}")
    if path not in PATHS:
        raise FuzzUsageError(f"unknown path {path!r} in cell {text!r}")
    cell = Cell(backend, elide, partition, path)
    if cell.path == "serve" and (cell.elide != "off" or cell.partition != "mono"
                                 or cell.backend != "compiled"):
        raise FuzzUsageError(
            f"cell {text!r}: serve path requires compiled/off/mono"
        )
    if cell.partition not in ("mono",) and (cell.elide != "off"
                                            or cell.backend != "compiled"
                                            or cell.path != "inline"):
        raise FuzzUsageError(
            f"cell {text!r}: partitioned replay requires compiled/off/pN/inline"
        )
    return cell


def parse_matrix(cells: Sequence[str]) -> Tuple[Cell, ...]:
    if not cells:
        raise FuzzUsageError("matrix must name at least one cell")
    parsed = tuple(parse_cell(cell) for cell in cells)
    seen = set()
    for cell in parsed:
        if cell.name in seen:
            raise FuzzUsageError(f"duplicate matrix cell {cell.name!r}")
        seen.add(cell.name)
    return parsed


@dataclass
class Observation:
    """What one completed cell observed."""

    reports: Optional[Tuple[str, ...]]  # None when the path hides text (serve)
    n_reports: int
    cycles: int
    metadata_bytes: int
    handler_calls: Optional[int]  # None on replay paths (handlers re-fire)
    trace_digest: str = ""


@dataclass
class CellResult:
    cell: str
    status: str  # "ok" | "error"
    observation: Optional[Observation] = None
    error_type: str = ""
    error: str = ""


@dataclass
class CaseOutcome:
    """Classification of one generated workload across the matrix."""

    params: GenParams
    outcome: str
    detail: str = ""
    cells: List[CellResult] = field(default_factory=list)
    elapsed: float = 0.0


class Oracle:
    """Runs generated workloads through a matrix; owns shared state.

    One instance holds one trace store (shared across cases so the
    compiled recording is reused by partition/serve cells) and, lazily,
    one embedded serve daemon.  Use as a context manager or call
    :meth:`close`.
    """

    def __init__(self, matrix: Sequence[str] = DEFAULT_MATRIX, *,
                 store_root: Optional[str] = None,
                 case_timeout: float = 60.0,
                 fault_mode: bool = False) -> None:
        self.matrix = parse_matrix(tuple(matrix))
        if case_timeout <= 0:
            raise FuzzUsageError(f"case timeout must be > 0, got {case_timeout}")
        self.case_timeout = case_timeout
        self.fault_mode = fault_mode
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if store_root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="fuzz-store-")
            store_root = self._tmp.name
        self.store_root = Path(store_root)
        self._store = None
        self._server = None
        self._client = None

    # -- shared infrastructure ----------------------------------------
    @property
    def store(self):
        if self._store is None:
            from repro.trace.store import TraceStore

            self._store = TraceStore(self.store_root)
        return self._store

    def _serve_client(self):
        if self._client is None:
            from repro.serve.client import ServeClient
            from repro.serve.config import ResilienceConfig
            from repro.serve.server import ServeConfig, serve_in_thread

            self._server = serve_in_thread(ServeConfig(
                workers=0,  # degraded inline mode: cheap and deterministic
                store_root=str(self.store_root / "serve"),
            ))
            resilience = ResilienceConfig() if self.fault_mode else None
            self._client = ServeClient(
                ("127.0.0.1", self._server.port),
                resilience=resilience,
                retry_seed=7,
            )
        return self._client

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
        self._client = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "Oracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- cell execution -----------------------------------------------
    def _run_inline(self, workload, params: GenParams, cell: Cell,
                    scale: int) -> Observation:
        import dataclasses as dc

        from repro.exec.pool import build_analysis
        from repro.staticpass import analyze_elision, policy_for
        from repro.vm.interpreter import Interpreter

        analysis = build_analysis(params.spec)
        module = workload.make_module(scale)
        vm = Interpreter(
            module,
            extern=workload.make_extern(),
            input_lines=list(workload.input_lines),
            track_shadow=analysis.needs_shadow,
            backend=cell.backend,
        )
        analysis.attach(vm, elide=cell.elide != "off")
        if cell.elide == "intra":
            intra = analyze_elision(
                module, dc.replace(policy_for(analysis), interproc=False)
            )
            vm.register_elision(intra.mask)
        profile = vm.run()
        reports = tuple(str(report) for report in vm.reporter)
        return Observation(
            reports=reports,
            n_reports=len(reports),
            cycles=profile.cycles,
            metadata_bytes=profile.metadata_bytes,
            handler_calls=profile.handler_calls,
            trace_digest=self._record_digest(workload, cell.backend, scale),
        )

    def _record_digest(self, workload, backend: str, scale: int) -> str:
        """Record the workload's trace with ``backend``; payload digest.

        The compiled recording goes through (and stays in) the shared
        store; other backends record into memory.  Identical digests
        across backends is the trace-bytes leg of the oracle.
        """
        if backend == "compiled":
            reader = self.store.get_or_record(workload, scale)
            return reader.meta["digest"]
        import io

        from repro.trace.recorder import record_workload

        buffer = io.BytesIO()
        meta = record_workload(workload, scale, buffer, backend=backend)
        return meta["digest"]

    def _run_partitioned(self, workload, params: GenParams, cell: Cell,
                         scale: int) -> Observation:
        from repro.partition.runner import replay_partitioned

        reader = self.store.get_or_record(workload, scale)
        trace_path = self.store.trace_path(workload, scale)
        profile, reporter, _stats = replay_partitioned(
            self.store, trace_path, [params.spec], cell.shards, pool=None,
        )
        reports = tuple(str(report) for report in reporter)
        return Observation(
            reports=reports,
            n_reports=len(reports),
            cycles=profile.cycles,
            metadata_bytes=profile.metadata_bytes,
            handler_calls=None,
            trace_digest=reader.meta["digest"],
        )

    def _run_serve(self, workload, params: GenParams, cell: Cell,
                   scale: int) -> Observation:
        reader = self.store.get_or_record(workload, scale)
        digest = reader.meta["digest"]
        trace_bytes = self.store.trace_path(workload, scale).read_bytes()
        client = self._serve_client()
        response = client.submit_digest_first(params.spec, digest, trace_bytes)
        record = response["result"]
        return Observation(
            reports=None,  # serve results carry counts, not report text
            n_reports=record["n_reports"],
            cycles=record["instrumented_cycles"],
            metadata_bytes=record["metadata_bytes"],
            handler_calls=None,
            trace_digest=digest,
        )

    def _run_cell(self, workload, params: GenParams, cell: Cell,
                  scale: int) -> Observation:
        if cell.path == "serve":
            return self._run_serve(workload, params, cell, scale)
        if cell.shards > 1:
            return self._run_partitioned(workload, params, cell, scale)
        return self._run_inline(workload, params, cell, scale)

    # -- case execution -----------------------------------------------
    def run_case(self, params: GenParams, scale: int = 1,
                 workload=None) -> CaseOutcome:
        """Run one generated workload through every matrix cell.

        ``workload`` overrides the generated module — the shrinker uses
        this to classify candidate reductions under the same params.
        """
        started = time.monotonic()
        bump("cases")
        if workload is None:
            workload = synthetic_workload(params)
        typed = typed_fault_types() if self.fault_mode else (FuzzTimeout,)
        results: List[CellResult] = []
        outcome = None
        detail = ""

        for cell in self.matrix:
            elapsed = time.monotonic() - started
            if elapsed > self.case_timeout:
                timeout = FuzzTimeout(elapsed, self.case_timeout, cell.name)
                results.append(CellResult(
                    cell=cell.name, status="error",
                    error_type=type(timeout).__name__, error=str(timeout),
                ))
                outcome, detail = OUTCOME_TIMEOUT, str(timeout)
                break
            try:
                observation = self._run_cell(workload, params, cell, scale)
            except Exception as exc:  # noqa: BLE001 - classification boundary
                results.append(CellResult(
                    cell=cell.name, status="error",
                    error_type=type(exc).__name__, error=str(exc),
                ))
                if isinstance(exc, FuzzTimeout):
                    outcome, detail = OUTCOME_TIMEOUT, str(exc)
                elif self.fault_mode and isinstance(exc, typed):
                    outcome = OUTCOME_TYPED_FAULT
                    detail = f"{cell.name}: {type(exc).__name__}: {exc}"
                else:
                    outcome = OUTCOME_CRASH
                    detail = f"{cell.name}: {type(exc).__name__}: {exc}"
                break
            results.append(CellResult(
                cell=cell.name, status="ok", observation=observation,
            ))

        if outcome is None:
            mismatch = compare_observations(
                [(r.cell, r.observation) for r in results]
            )
            if mismatch:
                outcome, detail = OUTCOME_DIVERGENCE, mismatch
            else:
                outcome = OUTCOME_MATCH

        bump({
            OUTCOME_MATCH: "matches",
            OUTCOME_DIVERGENCE: "divergences",
            OUTCOME_CRASH: "crashes",
            OUTCOME_TIMEOUT: "timeouts",
            OUTCOME_TYPED_FAULT: "typed_faults",
        }[outcome])
        return CaseOutcome(
            params=params,
            outcome=outcome,
            detail=detail,
            cells=results,
            elapsed=time.monotonic() - started,
        )

    def run_seed(self, case_seed: int, *, events: Optional[int] = None,
                 scale: int = 1) -> CaseOutcome:
        return self.run_case(sample_params(case_seed, events=events), scale)


def compare_observations(
    cells: Sequence[Tuple[str, Optional[Observation]]],
) -> str:
    """Cross-cell equivalence check; returns a mismatch detail or ``""``.

    Checked invariants:

    * trace payload digests identical wherever recorded;
    * report text identical across every cell that exposes it, and
      ``n_reports`` identical everywhere (serve included);
    * ``cycles`` and ``metadata_bytes`` identical across the
      elision-off cells (inline, partitioned, and serve);
    * ``handler_calls`` monotone non-increasing off → intra → inter.
    """
    complete = [(name, obs) for name, obs in cells if obs is not None]
    if not complete:
        return ""
    base_name, base = complete[0]

    digests = {obs.trace_digest for _, obs in complete if obs.trace_digest}
    if len(digests) > 1:
        return f"trace bytes diverge across backends: {sorted(digests)}"

    for name, obs in complete[1:]:
        if obs.n_reports != base.n_reports:
            return (f"report count diverges: {base_name}={base.n_reports} "
                    f"vs {name}={obs.n_reports}")
        if obs.reports is not None and base.reports is not None \
                and obs.reports != base.reports:
            for left, right in zip(base.reports, obs.reports):
                if left != right:
                    return (f"reports diverge between {base_name} and {name}: "
                            f"{left!r} != {right!r}")
            return f"reports diverge between {base_name} and {name}"

    off_cells = [(name, obs) for name, obs in complete if "/off/" in name]
    if off_cells:
        off_name, off = off_cells[0]
        for name, obs in off_cells[1:]:
            if obs.cycles != off.cycles:
                return (f"cycles diverge in elision-off group: "
                        f"{off_name}={off.cycles} vs {name}={obs.cycles}")
            if obs.metadata_bytes != off.metadata_bytes:
                return (f"metadata bytes diverge in elision-off group: "
                        f"{off_name}={off.metadata_bytes} "
                        f"vs {name}={obs.metadata_bytes}")

    tiers: Dict[str, int] = {}
    for name, obs in complete:
        if obs.handler_calls is None:
            continue
        tier = name.split("/")[1]
        tiers[tier] = max(tiers.get(tier, 0), obs.handler_calls)
    ordered = [tiers[t] for t in ("off", "intra", "inter") if t in tiers]
    for higher, lower in zip(ordered, ordered[1:]):
        if lower > higher:
            return (f"handler calls not monotone across elision tiers: "
                    f"{tiers}")
    return ""
