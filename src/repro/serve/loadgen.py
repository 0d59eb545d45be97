"""Load generator: one request storm against one daemon.

Replays a request mix from concurrent
:class:`~repro.serve.client.ServeClient` threads and reports throughput,
latency percentiles (overall / cache-hit / cold replay), the typed
error breakdown and the trace uploads the clients made — the
amortization story of a resident daemon in one JSON record::

    python -m repro.serve loadgen --server 127.0.0.1:7091 \\
        --workload fft --spec eraser.full --requests 100 \\
        --concurrency 4 --out benchmarks/artifacts/serve_loadgen.json

Clients retry transient failures (BUSY, resets, worker crashes) through
the resilience layer (``ResilienceConfig()``), so ``busy`` counts
*exhausted* retry budgets, not transient rejections; pass ``--seed`` to
make retry jitter reproducible.

The same claim → submit → classify loop is the chaos storm
(:mod:`repro.serve.chaos`): given fault-free reference records it
counts any result that differs on :data:`DETERMINISTIC_FIELDS` as
WRONG.

Latencies here are measured client-side over the socket, exact (sorted
samples, no histogram estimation), so they compose with the server's
own STATS histograms as an end-to-end check.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro.serve.client import (
    CircuitOpenError,
    RequestFailed,
    RetriesExhausted,
    ServeClient,
    ServeError,
    ServerBusy,
)
from repro.serve.config import ResilienceConfig

#: Result fields that must be bit-identical to the reference replay.
#: (wall_seconds is a measurement, not a result.)
DETERMINISTIC_FIELDS = (
    "baseline_cycles", "instrumented_cycles", "metadata_bytes", "n_reports",
)


def percentile(samples: List[float], p: float) -> float:
    """Exact percentile over a sample list (nearest-rank interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _summary(samples: List[float]) -> dict:
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples) if samples else 0.0,
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
    }


class LoadGen:
    """Fires ``requests`` total requests from ``concurrency`` clients.

    ``server`` is the daemon's ``HOST:PORT``.  ``reference`` maps a spec
    to its fault-free result record; results for those specs are checked
    on :data:`DETERMINISTIC_FIELDS`.
    """

    def __init__(self, server: str, specs: List[str], digest: str,
                 trace_bytes: bytes, requests: int, concurrency: int,
                 timeout: float = 300.0,
                 resilience: ResilienceConfig = ResilienceConfig(),
                 seed: Optional[int] = None,
                 reference: Optional[Dict[str, dict]] = None) -> None:
        self.server = server
        self.specs = specs
        self.digest = digest
        self.trace_bytes = trace_bytes
        self.requests = requests
        self.concurrency = max(1, concurrency)
        self.timeout = timeout
        self.resilience = resilience
        self.seed = seed
        self.expected = {
            spec: {name: record.get(name) for name in DETERMINISTIC_FIELDS}
            for spec, record in (reference or {}).items()
        }
        self._lock = threading.Lock()
        self._next = 0
        self.latencies_ms: List[float] = []
        self.cached_ms: List[float] = []
        self.uncached_ms: List[float] = []
        self.busy = 0
        self.breaker_open = 0
        self.typed_errors: Dict[str, int] = {}
        self.error_samples: List[str] = []
        self.wrong_results: List[dict] = []
        self.uploads = 0
        #: the daemon's STATS snapshot taken once the storm is over
        self.snapshot: Optional[dict] = None
        self.retry_stats = {
            "attempts": 0, "retries": 0, "busy_retried": 0,
            "transport_retried": 0, "code_retried": 0, "breaker_rejections": 0,
        }

    def _claim(self) -> Optional[int]:
        with self._lock:
            if self._next >= self.requests:
                return None
            index = self._next
            self._next += 1
            return index

    def _error(self, code: str, text: str) -> None:
        with self._lock:
            self.typed_errors[code] = self.typed_errors.get(code, 0) + 1
            if len(self.error_samples) < 5:
                self.error_samples.append(text)

    def _result(self, spec: str, response: dict, elapsed_ms: float) -> None:
        expected = self.expected.get(spec)
        if expected is not None:
            record = response["result"]
            got = {name: record.get(name) for name in DETERMINISTIC_FIELDS}
            if got != expected:
                with self._lock:
                    self.wrong_results.append(
                        {"expected": expected, "got": got}
                    )
                return
        with self._lock:
            self.latencies_ms.append(elapsed_ms)
            if response.get("cached"):
                self.cached_ms.append(elapsed_ms)
            else:
                self.uncached_ms.append(elapsed_ms)

    def _worker(self, worker_index: int) -> None:
        retry_seed = None if self.seed is None else self.seed + worker_index
        client = ServeClient(self.server, resilience=self.resilience,
                             timeout=self.timeout, retry_seed=retry_seed)
        with client:
            while True:
                index = self._claim()
                if index is None:
                    break
                spec = self.specs[index % len(self.specs)]
                begin = time.perf_counter()
                try:
                    response = client.submit_digest_first(
                        spec, self.digest, self.trace_bytes
                    )
                except (ServerBusy, RetriesExhausted):
                    with self._lock:
                        self.busy += 1
                    continue
                except CircuitOpenError:
                    with self._lock:
                        self.breaker_open += 1
                    continue
                except RequestFailed as exc:
                    self._error(exc.code or "UNKNOWN", str(exc))
                    continue
                except (ServeError, OSError) as exc:
                    self._error(f"transport:{type(exc).__name__}",
                                f"{type(exc).__name__}: {exc}")
                    continue
                self._result(spec, response,
                             (time.perf_counter() - begin) * 1000.0)
        with self._lock:
            for key, value in client.retry_stats.items():
                self.retry_stats[key] += value
            self.uploads += client.uploads

    def run(self) -> dict:
        started_at = time.perf_counter()
        threads = [
            threading.Thread(target=self._worker, args=(i,),
                             name=f"loadgen-{i}", daemon=True)
            for i in range(self.concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started_at
        completed = len(self.latencies_ms)
        report = {
            "config": {
                "server": self.server,
                "specs": self.specs,
                "trace_digest": self.digest,
                "requests": self.requests,
                "concurrency": self.concurrency,
                "seed": self.seed,
            },
            "wall_seconds": wall,
            "completed": completed,
            "busy": self.busy,
            "breaker_open": self.breaker_open,
            "errors": sum(self.typed_errors.values()),
            "typed_errors": dict(sorted(self.typed_errors.items())),
            "error_samples": list(self.error_samples),
            "wrong_results": list(self.wrong_results),
            "resilience": dict(self.retry_stats),
            "throughput_rps": completed / wall if wall > 0 else 0.0,
            "latency_ms": {
                "p50": percentile(self.latencies_ms, 50),
                "p95": percentile(self.latencies_ms, 95),
                "p99": percentile(self.latencies_ms, 99),
                "max": max(self.latencies_ms, default=0.0),
            },
            "cold_replay_ms": _summary(self.uncached_ms),
            "cache_hit_ms": _summary(self.cached_ms),
            "server_latency_ms": self._server_histograms(),
            "uploads": self.uploads,
        }
        cold = report["cold_replay_ms"]["p50"]
        hit = report["cache_hit_ms"]["p50"]
        if cold and hit:
            report["amortization_speedup"] = cold / hit
        return report

    def _server_histograms(self) -> dict:
        """Server-side latency tails from the daemon's own STATS.

        Complements the exact client-side samples above with the
        daemon's log-bucket histograms.  The raw snapshot stays on
        :attr:`snapshot`.  Best-effort: an unreachable daemon yields
        ``{"error": ...}``, never a failed run.
        """
        try:
            with ServeClient(self.server, timeout=self.timeout) as probe:
                self.snapshot = probe.stats()
        except (ServeError, OSError, ValueError) as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        tails = {}
        for name in ("request_latency_ms", "latency_cached_ms",
                     "latency_replay_ms"):
            summary = self.snapshot["histograms"].get(name)
            if not summary or not summary.get("count"):
                continue
            tails[name] = {
                "count": summary["count"],
                "mean": summary.get("mean", 0.0),
                "p50": summary.get("p50", 0.0),
                "p95": summary.get("p95", 0.0),
                "p99": summary.get("p99", 0.0),
                "max": summary.get("max", 0.0),
            }
        return tails


def render_report(report: dict) -> str:
    latency = report["latency_ms"]
    lines = [
        f"completed {report['completed']}/{report['config']['requests']} "
        f"in {report['wall_seconds']:.2f}s "
        f"({report['throughput_rps']:.1f} req/s), "
        f"busy {report['busy']}, errors {report['errors']}",
        f"latency p50 {latency['p50']:.2f}ms  p95 {latency['p95']:.2f}ms  "
        f"p99 {latency['p99']:.2f}ms  max {latency['max']:.2f}ms",
        f"cold replay: n={report['cold_replay_ms']['count']} "
        f"p50 {report['cold_replay_ms']['p50']:.2f}ms",
        f"cache hit:   n={report['cache_hit_ms']['count']} "
        f"p50 {report['cache_hit_ms']['p50']:.2f}ms",
    ]
    resilience = report.get("resilience")
    if resilience and resilience.get("retries"):
        lines.append(
            f"retries: {resilience['retries']} "
            f"(busy {resilience['busy_retried']}, "
            f"transport {resilience['transport_retried']}, "
            f"transient-code {resilience['code_retried']}); "
            f"breaker rejections {resilience['breaker_rejections']}"
        )
    server_tail = (report.get("server_latency_ms") or {}).get(
        "request_latency_ms"
    )
    if server_tail:
        lines.append(
            f"server view: p50 {server_tail['p50']:.2f}ms  "
            f"p95 {server_tail['p95']:.2f}ms  p99 {server_tail['p99']:.2f}ms "
            f"(histogram, n={server_tail['count']})"
        )
    if "amortization_speedup" in report:
        lines.append(
            f"amortization: cache hit {report['amortization_speedup']:.1f}x "
            "faster than cold replay"
        )
    lines.append(f"trace uploads: {report['uploads']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve loadgen",
        description="Replay a request mix against a running daemon.",
    )
    parser.add_argument("--server", required=True, metavar="HOST:PORT",
                        help="the running daemon")
    parser.add_argument("--workload", default="fft",
                        help="workload whose trace the requests replay")
    parser.add_argument("--spec", action="append", default=None,
                        help="analysis spec key(s); repeat for a mix "
                             "(default: eraser.full)")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed retry jitter for reproducible schedules")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    from repro.trace.store import TraceStore
    from repro.workloads import ALL

    if args.workload not in ALL:
        parser.error(f"unknown workload {args.workload!r}")
    specs = args.spec or ["eraser.full"]

    with tempfile.TemporaryDirectory(prefix="alda-loadgen-") as tmp:
        store = TraceStore(tmp)
        workload = ALL[args.workload]
        reader = store.get_or_record(workload, args.scale)
        trace_bytes = store.trace_path(workload, args.scale).read_bytes()
        gen = LoadGen(args.server, specs, reader.digest, trace_bytes,
                      args.requests, args.concurrency, seed=args.seed)
        report = gen.run()
    report["config"]["workload"] = args.workload
    report["config"]["scale"] = args.scale

    print(render_report(report))
    if args.out:
        import pathlib

        out_path = pathlib.Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[wrote {out_path}]")
    return 0 if not report["errors"] else 1
