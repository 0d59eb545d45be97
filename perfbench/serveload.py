"""The serve-cold-hot workload: a daemon process plus closed-loop clients.

The daemon is started as an operator would start it
(``python -m repro.serve --port 0 --store DIR``, default two workers).
This process is the load generator: two closed-loop ``ServeClient``
threads, each waiting for its reply before sending the next request and
submitting digest-first, the path real clients take.

A run has three rounds, each on a freshly started daemon with an empty
store; each round is one repeat of the run, and the run reports the best
round's figures (``run.py``), because one round's figures depend on
the host's speed at that moment.

* Cold phase: every (trace, spec) key once, trace by trace, in an order
  drawn from the seed and the round.  There are 12 traces; each worker
  keeps 8 decoded traces, so cold requests mix "decode + settle" (a
  trace's first request on a worker) with "settle only".
* Hot phase: seeded repeats of the same keys, all answered from the
  result cache, until the round's share of the run's time is used up
  (at least 2 s).  The daemon and the clients are pinned to one CPU for
  this phase: a hot request is a few cross-process wake-ups, and on a
  2-vCPU virtual machine waking an idle vCPU made hot latency vary 2x
  between runs (run-to-run spread of p50 0.41 unpinned, 0.12-0.16
  pinned).

The phases never interleave: mixing them made hot latency swing ±25%.
"""

from __future__ import annotations

import os
import random
import re
import resource
import select
import signal
import subprocess
import sys
import threading
import time

from common import SRC

sys.path.insert(0, str(SRC))

#: The 12 traces: the smallest recordings of all three suites (11k-36k
#: records), so three cold phases fit in a run; fig5-record-replay
#: covers the large ones.  The set is fixed and the seed only orders
#: the requests: drawing the traces by seed made the cold phase's work,
#: and so every cold metric, differ by up to 30% between seeds.
TRACES = ("memcached", "gobmk", "bzip2", "radix", "h264ref", "radiosity",
          "fft", "cholesky", "nginx", "volrend", "perl", "ocean")
CONCURRENCY = 2
ROUNDS = 3
MIN_HOT_SECONDS = 2.0
_CHECKED_FIELDS = ("baseline_cycles", "instrumented_cycles", "metadata_bytes",
                   "n_reports")


def key_set(smoke: bool = False):
    """The traces and the analysis specs every trace is sent with."""
    from repro.exec.pool import ANALYSIS_SPECS

    traces, specs = list(TRACES), sorted(ANALYSIS_SPECS)
    if smoke:
        traces, specs = traces[:2], specs[:3]
    return traces, specs


def cold_order(rng, traces, specs):
    """Every (trace, spec) key once, trace by trace, as a client that
    analyses its traces one at a time sends them (``figureN(server=)``
    does).  The traces and each trace's specs are in seeded order.

    A shuffle of all keys made about half the requests decode and half
    not, so each round's p50 fell on either side of that divide
    (61-121 ms within one run); trace by trace, about one request in
    five decodes and the p50 is a settle-only request."""
    return [(trace, spec) for trace in rng.sample(traces, len(traces))
            for spec in rng.sample(specs, len(specs))]


class Daemon:
    """One ``python -m repro.serve`` process in its own process group."""

    def __init__(self, store_dir, log_path) -> None:
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--store", str(store_dir)],
            stdout=subprocess.PIPE, stderr=self._log,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            start_new_session=True,
        )
        self.address = None

    def wait_listening(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        pending = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                break
            pending += chunk
            match = re.search(rb"listening on (\S+)", pending)
            if match:
                self.address = match.group(1).decode()
                return self.address
        raise RuntimeError("repro.serve did not start listening")

    def pin_to_one_cpu(self) -> None:
        """Pin every daemon thread and this process to the last allowed CPU.

        The last, because device interrupts land on CPU 0.  Threads the
        daemon starts later inherit the mask; the idle pool workers keep
        theirs."""
        cpu = {max(os.sched_getaffinity(0))}
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), cpu)
        os.sched_setaffinity(0, cpu)

    def stop(self) -> None:
        from repro.serve.client import ServeClient

        if self.address is not None and self.proc.poll() is None:
            try:
                with ServeClient(self.address, timeout=10.0) as client:
                    client.request_shutdown()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        # Workers are the daemon's children in its group: make sure none
        # outlives it.
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                break
            time.sleep(0.2)
        self.proc.stdout.close()
        self._log.close()


class Phase:
    """Closed-loop clients over a key source; samples every reply.

    One phase object pools the samples of its runs against every round's
    daemon; ``walls`` holds each run's wall seconds."""

    def __init__(self, traces, reference, seed) -> None:
        self.traces = traces  # workload -> (digest, bytes)
        self.reference = reference
        self.seed = seed
        self.samples = []  # (client ms, RESULT frame wall_ms, record wall_seconds)
        self.walls = []
        self.intervals = []  # (start, end) of each run, monotonic
        self._ends = []  # len(samples) after each run
        self.attempted = self.failed = 0
        self.failures = []
        self.retries = 0
        self._lock = threading.Lock()

    def run(self, address, next_key) -> None:
        """Drive ``next_key()`` (None ends a client) to exhaustion."""
        start = time.monotonic()
        started = time.perf_counter()
        threads = [threading.Thread(target=self._client, args=(address, i, next_key))
                   for i in range(CONCURRENCY)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.walls.append(time.perf_counter() - started)
        self.intervals.append((start, time.monotonic()))
        self._ends.append(len(self.samples))

    def per_run(self):
        """The samples of each run, in the order of the runs."""
        starts = [0] + self._ends[:-1]
        return [self.samples[start:end] for start, end in zip(starts, self._ends)]

    def _client(self, address, index, next_key) -> None:
        from repro.serve.client import ServeClient, ServeError
        from repro.serve.config import ResilienceConfig

        client = ServeClient(address, resilience=ResilienceConfig(),
                             retry_seed=self.seed + index)
        with client:
            while True:
                key = next_key()
                if key is None:
                    break
                workload, spec = key
                digest, data = self.traces[workload]
                begin = time.perf_counter()
                try:
                    response = client.submit_digest_first(spec, digest, data)
                except (ServeError, OSError) as exc:
                    self._fail(key, f"{type(exc).__name__}: {exc}")
                    continue
                client_ms = (time.perf_counter() - begin) * 1000.0
                record = response["result"]
                expected = self.reference[f"{workload}|{spec}"]
                wrong = [name for name in _CHECKED_FIELDS
                         if record.get(name) != expected[name]]
                if record.get("workload") != workload:
                    wrong.append("workload")
                with self._lock:
                    self.samples.append((client_ms, response["wall_ms"],
                                         record["wall_seconds"]))
                if wrong:  # a wrong reply is still a timed reply
                    self._fail(key, f"mismatch in {wrong}")
                else:
                    with self._lock:
                        self.attempted += 1
        with self._lock:
            self.retries += client.retry_stats["retries"]

    def _fail(self, key, reason) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{key[0]}|{key[1]}: {reason}")


def record_traces(store_dir, names):
    """Record the client's traces; name -> (digest, trace bytes)."""
    from repro.trace.store import TraceStore
    from repro.workloads import ALL

    store = TraceStore(store_dir)
    traces = {}
    for name in names:
        reader = store.get_or_record(ALL[name], 1)
        traces[name] = (reader.digest,
                        store.trace_path(ALL[name], 1).read_bytes())
    return traces


def run(seed: int, seconds: float, work_dir, trace: bool, smoke: bool,
        reference: dict) -> dict:
    """One serve-cold-hot run; returns samples, counts and timings.

    ``reference`` maps ``"workload|spec"`` to the inline results every
    reply is checked against.
    """
    names, specs = key_set(smoke)
    keys = [(name, spec) for name in names for spec in specs]
    out = {"setup_parts": [], "stats": []}

    tracer = None
    if trace:
        # The client's recording is the only in-process layer here; time
        # it once untraced so the tracing overhead is measured.
        started = time.perf_counter()
        record_traces(work_dir / "client-untraced", names)
        out["untraced_record_s"] = time.perf_counter() - started
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    record_start = time.monotonic()
    started = time.perf_counter()
    traces = record_traces(work_dir / "client", names)
    record_s = time.perf_counter() - started
    if tracer is not None:
        out["layers"] = {"self_s": tracer.self_s, "calls": tracer.calls,
                         "values": tracer.values}
        out["traced_record_s"] = record_s

    from repro.serve.client import ServeClient

    cold = Phase(traces, reference, seed)
    hot = Phase(traces, reference, seed)
    all_cpus = os.sched_getaffinity(0)
    rounds = 1 if smoke else ROUNDS
    for index in range(rounds):
        rng = random.Random(seed * rounds + index)
        pending = cold_order(rng, names, specs)
        lock = threading.Lock()

        def next_cold():
            with lock:
                return pending.pop(0) if pending else None

        def next_hot():
            if time.perf_counter() >= deadline:
                return None
            with lock:
                return keys[rng.randrange(len(keys))]

        begin = time.monotonic()
        daemon = Daemon(work_dir / f"store-{index}", work_dir / "daemon.log")
        try:
            daemon.wait_listening()
            # (seconds, monotonic start) of each part: recording, daemon start
            out["setup_parts"].append([(record_s, record_start),
                                       (time.monotonic() - begin, begin)])
            cold.run(daemon.address, next_cold)
            daemon.pin_to_one_cpu()
            hot_seconds = 0.5 if smoke else max(
                MIN_HOT_SECONDS, seconds / rounds - cold.walls[-1])
            deadline = time.perf_counter() + hot_seconds
            hot.run(daemon.address, next_hot)
            with ServeClient(daemon.address, timeout=30.0) as client:
                out["stats"].append(client.stats())
        finally:
            daemon.stop()
            os.sched_setaffinity(0, all_cpus)
    out["cold"], out["hot"] = cold, hot
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return out
