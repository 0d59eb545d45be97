"""Analysis-as-a-service: a resident daemon over the record/replay core.

One-shot CLI runs pay analysis compile and worker spin-up on every
invocation.  ``repro.serve`` keeps those costs resident: an asyncio TCP
daemon accepts recorded traces (or just their digests) over a
length-prefixed binary protocol, replays them through warm worker
processes that keep analyses compiled across requests, dedupes
concurrent identical work (single-flight), caches results on disk, and
answers repeats in microseconds — turning ALDA analyses into a
queryable service rather than a batch script.

Modules:

* :mod:`repro.serve.protocol` — wire format (frames, error codes);
* :mod:`repro.serve.server` — the daemon: admission control with
  explicit ``BUSY`` backpressure, per-request timeouts, graceful drain;
* :mod:`repro.serve.scheduler` — bounded admission + single-flight +
  degraded-mode inline dispatch behind a circuit breaker;
* :mod:`repro.serve.tasks` — the worker-side replay task;
* :mod:`repro.serve.metrics` — renders the ``STATS`` snapshot of the
  server's :class:`repro.obs.MetricsRegistry`;
* :mod:`repro.serve.client` — blocking client (retry/backoff + circuit
  breaker), also behind ``python -m repro.harness figN --server
  HOST:PORT`` (:func:`repro.exec.run_batch` with ``server=``);
* :mod:`repro.serve.config` — :class:`ResilienceConfig`, every
  retry/backoff/watchdog/breaker knob in one dataclass;
* :mod:`repro.serve.resilience` — the retry-policy and circuit-breaker
  machines themselves;
* :mod:`repro.serve.chaos` — seeded fault-injection runs against a
  private daemon (``python -m repro.serve chaos --seed N``), asserting
  bit-correct-or-typed;
* :mod:`repro.serve.loadgen` — load generator
  (``python -m repro.serve loadgen --server HOST:PORT``).

Both drive one daemon through :class:`ServeClient` threads, so one
storm loop and one digest-first heal rule serve both.

See ``docs/SERVING.md`` for the protocol and semantics reference, and
``docs/RESILIENCE.md`` for the failure model.
"""

from repro.serve.client import (
    CircuitOpenError,
    RequestFailed,
    RetriesExhausted,
    ServeClient,
    ServeError,
    ServerBusy,
)
from repro.serve.config import ResilienceConfig
from repro.serve.resilience import CircuitBreaker, RetryPolicy
from repro.serve.server import (
    AnalysisServer,
    ServeConfig,
    ServerHandle,
    serve_in_thread,
)

__all__ = [
    "AnalysisServer",
    "CircuitBreaker",
    "CircuitOpenError",
    "RequestFailed",
    "ResilienceConfig",
    "RetriesExhausted",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerBusy",
    "ServerHandle",
    "serve_in_thread",
]
