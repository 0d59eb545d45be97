"""Multiprocessing batch executor for the figures' jobs.

The unit of work is a :class:`JobSpec`: one workload, one analysis
configuration (named by a registry key so jobs pickle cheaply), one
scale.  :func:`run_batch` groups a batch's jobs by ``(workload,
scale)`` and runs each group as one task, in process or on a worker
pool.  Which task depends on where the batch's results come from:

* **Nothing** — :func:`_run_workload` runs the workload plain once,
  then instrumented once per distinct spec, exactly as
  :func:`repro.harness.runner.measure_overhead` does.  Nothing is
  recorded or cached.
* **A trace store** — :func:`_run_trace` works through the store, one
  trace per task:

  1. **Meta** — read the trace's tail meta (digest, summary) with two
     seeks and look every distinct spec up in the result cache, keyed
     by ``(trace digest, analysis fingerprint)``.  A warm rerun stops
     here without reading a payload byte.
  2. **Settle** — on a miss, open the trace (recording it if absent)
     and settle every missing spec together, segment by segment
     (:func:`repro.trace.replayer.settle_trace`): each segment is
     decoded once, fired through each spec's own replay state, and
     dropped, so a task holds one trace's payload and one segment of
     decoded records.
* **An analysis daemon** — :func:`_run_served` records the trace once
  (into the store, or a temporary directory), reads its bytes once,
  and submits each distinct spec digest-first to the daemon
  (:mod:`repro.serve`), which replays it or answers from its own
  result cache.

Partitioned replay (:mod:`repro.partition`) is not a batch path: a
batch parallelizes across workloads, and only the serve daemon shards
one trace's decode.

Replay is bit-identical to the inline run (see
:mod:`repro.trace.replayer`), so every task returns the same results.
The fingerprint hashes the analysis implementation (generated Python
for ALDAcc-compiled analyses, class source for hand-tuned baselines),
so editing an analysis — or a workload, which changes the trace
digest — invalidates exactly the affected cache entries.

Every replay that fills the result cache — the trace task here, the
daemon's worker task and its partitioned replay — builds its record
with :func:`result_record` and writes it with :func:`store_record`;
:func:`load_record` reads it back and :meth:`JobResult.from_record`
turns it into a row.

Workers are :class:`repro.exec.workers.PersistentWorkerPool` processes;
``build_analysis`` keeps each compiled analysis built at most once per
process, and because the pool is long-lived the same warm analyses back
the resident analysis daemon (:mod:`repro.serve`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

# The trace and serve packages are imported on their own paths only: an
# inline batch never records, decodes, caches or connects.
if TYPE_CHECKING:
    from repro.trace.store import TraceStore

# -- analysis registry ---------------------------------------------------
# Spec keys name every configuration the figures use.  Builders are
# thunks so importing this module never triggers a compile.


def _msan_alda():
    from repro.analyses import msan

    return msan.compile_()


def _msan_handtuned():
    from repro.baselines import HandTunedMSan

    return HandTunedMSan()


def _eraser_full():
    from repro.analyses import eraser

    return eraser.compile_()


def _eraser_ds_only():
    from repro.analyses import eraser
    from repro.compiler import compile_analysis

    return compile_analysis(eraser.SOURCE, eraser.OPTIONS.ds_only())


def _eraser_handtuned():
    from repro.baselines import HandTunedEraser

    return HandTunedEraser()


def _fasttrack_alda():
    from repro.analyses import fasttrack

    return fasttrack.compile_()


def _uaf_alda():
    from repro.analyses import uaf

    return uaf.compile_()


def _taint_alda():
    from repro.analyses import taint

    return taint.compile_()


def _fig5_combined():
    from repro.analyses import eraser, fasttrack, taint, uaf
    from repro.compiler import CompileOptions, combine_sources, compile_analysis

    program = combine_sources(
        [module.SOURCE for module in (eraser, fasttrack, uaf, taint)]
    )
    return compile_analysis(
        program, CompileOptions(granularity=8, analysis_name="combined")
    )


ANALYSIS_SPECS: Dict[str, Callable[[], object]] = {
    "msan.alda": _msan_alda,
    "msan.handtuned": _msan_handtuned,
    "eraser.full": _eraser_full,
    "eraser.ds_only": _eraser_ds_only,
    "eraser.handtuned": _eraser_handtuned,
    "fasttrack.alda": _fasttrack_alda,
    "uaf.alda": _uaf_alda,
    "taint.alda": _taint_alda,
    "fig5.combined": _fig5_combined,
}


#: spec key -> its compiled analysis, built at most once per process
_COMPILED: Dict[str, object] = {}


def build_analysis(spec: str):
    """The attachable for a spec key.

    A compiled analysis is immutable, so it is built once per process
    and shared.  A hand-tuned baseline keeps the state of its latest
    attach (cost meter, cache simulator, shadow and lock tables), so
    each call builds a fresh one, whose state dies with its run.
    """
    if spec in _COMPILED:
        return _COMPILED[spec]
    from repro.compiler import CompiledAnalysis

    try:
        builder = ANALYSIS_SPECS[spec]
    except KeyError:
        raise KeyError(
            f"unknown analysis spec {spec!r}; known: {sorted(ANALYSIS_SPECS)}"
        ) from None
    attachable = builder()
    if isinstance(attachable, CompiledAnalysis):
        _COMPILED[spec] = attachable
    return attachable


@functools.lru_cache(maxsize=None)
def analysis_fingerprint(spec: str) -> str:
    """Content hash of what a spec key executes during replay.

    ALDAcc-compiled analyses hash their generated Python module plus the
    compile options; hand-tuned baselines hash their class source.  The
    spec key itself is mixed in so two specs never collide.
    """
    attachable = build_analysis(spec)
    sha = hashlib.sha256()
    sha.update(spec.encode("utf-8"))
    sha.update(b"\x00")
    source = getattr(attachable, "source", None)
    if source is not None:  # CompiledAnalysis: the generated module text
        sha.update(source.encode("utf-8"))
        sha.update(repr(getattr(attachable, "options", "")).encode("utf-8"))
    else:  # hand-tuned baseline: hash the implementation itself
        sha.update(inspect.getsource(type(attachable)).encode("utf-8"))
    return sha.hexdigest()


# -- job model -----------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One (workload, analysis, scale) measurement; cheap to pickle."""

    workload: str  # key into repro.workloads.ALL
    spec: str  # key into ANALYSIS_SPECS
    label: str = ""  # series label for figures; defaults to spec
    scale: int = 1


@dataclass
class JobResult:
    workload: str
    spec: str
    label: str
    scale: int
    baseline_cycles: int
    instrumented_cycles: int
    metadata_bytes: int
    n_reports: int
    wall_seconds: float
    cached: bool = False

    @classmethod
    def from_record(cls, job: JobSpec, record: dict, cached: bool) -> "JobResult":
        """The row for ``job`` from its result record."""
        return cls(workload=job.workload, spec=job.spec,
                   label=job.label or job.spec, scale=job.scale, cached=cached,
                   **{name: record[name] for name in _MEASURED})

    @property
    def overhead(self) -> float:
        return self.instrumented_cycles / self.baseline_cycles

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "spec": self.spec,
            "label": self.label,
            "scale": self.scale,
            "baseline_cycles": self.baseline_cycles,
            "instrumented_cycles": self.instrumented_cycles,
            "overhead": self.overhead,
            "metadata_bytes": self.metadata_bytes,
            "n_reports": self.n_reports,
            "wall_seconds": self.wall_seconds,
            "cached": self.cached,
        }


#: the fields of a record that a :class:`JobResult` carries
_MEASURED = ("baseline_cycles", "instrumented_cycles", "metadata_bytes",
             "n_reports", "wall_seconds")
#: every field of a result-cache record
RECORD_FIELDS = ("spec", "trace_digest", "workload", "scale") + _MEASURED


# -- result records ------------------------------------------------------


def result_record(meta: dict, spec: str, profile, reporter, seconds: float,
                  **extra) -> dict:
    """The result-cache record of one replay of the trace whose tail
    meta is ``meta``; ``extra`` adds fields (``partition_shards``)."""
    return {
        "spec": spec,
        "trace_digest": meta["digest"],
        "workload": meta.get("workload"),
        "scale": meta.get("scale"),
        "baseline_cycles": meta["summary"]["plain_cycles"],
        "instrumented_cycles": profile.cycles,
        "metadata_bytes": profile.metadata_bytes,
        "n_reports": len(list(reporter)),
        "wall_seconds": seconds,
        **extra,
    }


def record_key(digest: str, spec: str) -> str:
    """The result-cache key of ``spec`` replayed over trace ``digest``."""
    from repro.trace.store import TraceStore

    return TraceStore.result_key(digest, analysis_fingerprint(spec))


def store_record(store: TraceStore, record: dict) -> None:
    """Write ``record`` to the result cache under its own key."""
    store.store_result(record_key(record["trace_digest"], record["spec"]), record)


def load_record(store: TraceStore, key: str) -> Optional[dict]:
    """The cached record under ``key``, or None.  A record that lacks a
    field of :data:`RECORD_FIELDS` is a miss: its caller settles the
    spec again and overwrites it."""
    record = store.load_result(key)
    if record is None or not all(name in record for name in RECORD_FIELDS):
        return None
    return record


# -- per-workload tasks (top level: must pickle) ------------------------

#: dotted task paths for PersistentWorkerPool submission
WORKLOAD_TASK = "repro.exec.pool:_run_workload"
TRACE_TASK = "repro.exec.pool:_run_trace"
SERVED_TASK = "repro.exec.pool:_run_served"


def _run_workload(packed) -> List[JobResult]:
    """Every job of one (workload, scale), run inline: one plain run,
    then one instrumented run per distinct spec."""
    name, scale, jobs = packed
    from repro.harness import runner
    from repro.workloads import ALL

    workload = ALL[name]
    baseline = runner.run_plain(workload, scale)
    measured = {}
    for spec in dict.fromkeys(job.spec for job in jobs):
        started = time.perf_counter()
        profile, reporter = runner.run_instrumented(
            workload, [build_analysis(spec)], scale)
        measured[spec] = {
            "baseline_cycles": baseline.cycles,
            "instrumented_cycles": profile.cycles,
            "metadata_bytes": profile.metadata_bytes,
            "n_reports": len(list(reporter)),
            "wall_seconds": time.perf_counter() - started,
        }
    return [JobResult.from_record(job, measured[job.spec], cached=False)
            for job in jobs]


def _resolve(store: TraceStore, meta: dict, jobs: Sequence[JobSpec],
             settle: Callable[[List[str]], list]) -> List[JobResult]:
    """Results for jobs over one trace, through the result cache.

    Each distinct spec is looked up once under ``(digest, analysis
    fingerprint)``.  ``settle(missing specs)``, called only if some are,
    returns one ``(profile, reporter, seconds)`` per miss, to be stored.
    """
    records = {job.spec: load_record(store, record_key(meta["digest"], job.spec))
               for job in jobs}
    missing = [spec for spec, record in records.items() if record is None]
    settled = settle(missing) if missing else ()
    for spec, (profile, reporter, seconds) in zip(missing, settled):
        records[spec] = result_record(meta, spec, profile, reporter, seconds)
        store_record(store, records[spec])
    return [JobResult.from_record(job, records[job.spec],
                                  cached=job.spec not in missing)
            for job in jobs]


def _run_trace(packed) -> List[JobResult]:
    """Every job of one (workload, scale): meta first, payload on a miss.

    The digest and summary come from the trace's tail meta, so a batch
    whose results are all cached reads no payload byte.  On a miss the
    trace is opened (or recorded) by ``get_or_record``, which verifies
    it and self-heals, and every missing spec settles together in one
    segment-by-segment pass (:func:`repro.trace.replayer.settle_trace`).
    """
    root, name, scale, jobs = packed
    from repro.trace.replayer import settle_trace
    from repro.trace.store import StoreCorruptionError, TraceStore, module_digest
    from repro.workloads import ALL

    store = TraceStore(root)
    digest = module_digest(ALL[name], scale)
    path = store.trace_path(ALL[name], scale, digest)
    open_trace = functools.partial(store.get_or_record, ALL[name], scale,
                                   digest=digest)
    try:
        meta, reader = store.read_tail_meta(path), None
    except (OSError, StoreCorruptionError):  # absent, or quarantined
        reader = open_trace()
        meta = reader.meta

    def settle(specs: List[str]) -> list:
        return settle_trace(reader or open_trace(),
                            [[build_analysis(spec)] for spec in specs])

    return _resolve(store, meta, jobs, settle)


def _run_served(packed) -> List[JobResult]:
    """Every job of one (workload, scale) on an analysis daemon.

    The trace is recorded once into the store at ``root`` (a temporary
    directory when it is None) and its bytes read once; each distinct
    spec is then submitted digest-first, so the bytes cross the wire
    only if the daemon lacks the trace.  The client retries transient
    failures (``BUSY``, resets, worker crashes) under the default
    :class:`repro.serve.config.ResilienceConfig`.
    """
    address, root, name, scale, jobs = packed
    import tempfile

    from repro.serve.client import ServeClient
    from repro.serve.config import ResilienceConfig
    from repro.trace.store import TraceStore
    from repro.workloads import ALL

    with contextlib.ExitStack() as stack:
        if root is None:
            root = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="alda-client-traces-"))
        store = TraceStore(root)
        digest = store.get_or_record(ALL[name], scale).digest
        data = store.trace_path(ALL[name], scale).read_bytes()
        client = stack.enter_context(
            ServeClient(address, resilience=ResilienceConfig()))
        responses = {spec: client.submit_digest_first(spec, digest, data)
                     for spec in dict.fromkeys(job.spec for job in jobs)}
    return [JobResult.from_record(job, responses[job.spec]["result"],
                                  cached=responses[job.spec]["cached"])
            for job in jobs]


# -- batch driver --------------------------------------------------------


def run_batch(
    jobs: Sequence[JobSpec],
    processes: int = 1,
    store: Union[TraceStore, str, None] = None,
    server: Optional[str] = None,
) -> List[JobResult]:
    """Execute a batch of jobs; results come back in job order.

    Jobs are grouped by ``(workload, scale)`` and each group runs as one
    task, in process or, with ``processes > 1``, on a worker pool.
    ``store`` may be a :class:`TraceStore` or a directory path: each
    group then runs through the trace and result cache
    (:func:`_run_trace`).  ``server``, a ``HOST:PORT`` address, sends
    each group to an analysis daemon instead (:func:`_run_served`),
    recording its trace into ``store`` when there is one.  With neither
    each group runs inline (:func:`_run_workload`) and nothing is
    recorded.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    from repro.workloads import ALL

    groups: Dict[tuple, List[int]] = {}  # (workload, scale) -> job indices
    for index, job in enumerate(jobs):
        if job.spec not in ANALYSIS_SPECS:
            raise KeyError(
                f"unknown analysis spec {job.spec!r}; known: {sorted(ANALYSIS_SPECS)}")
        if job.workload not in ALL:
            raise KeyError(f"unknown workload {job.workload!r}")
        groups.setdefault((job.workload, job.scale), []).append(index)

    tasks = [(name, scale, tuple(jobs[i] for i in indices))
             for (name, scale), indices in groups.items()]
    root = None
    if store is not None:
        from repro.trace.store import TraceStore

        root = str((store if isinstance(store, TraceStore) else TraceStore(store)).root)
    if server is not None:
        tasks = [(server, root, *packed) for packed in tasks]
        task, run = SERVED_TASK, _run_served
    elif root is not None:
        tasks = [(root, *packed) for packed in tasks]
        task, run = TRACE_TASK, _run_trace
    else:
        task, run = WORKLOAD_TASK, _run_workload
    if processes > 1:
        from repro.exec.workers import PersistentWorkerPool

        with PersistentWorkerPool(processes) as pool:
            per_group = pool.map(task, tasks)
    else:
        per_group = [run(packed) for packed in tasks]
    results: List[JobResult] = [None] * len(jobs)
    for indices, group_results in zip(groups.values(), per_group):
        for index, result in zip(indices, group_results):
            results[index] = result
    return results
