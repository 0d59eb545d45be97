"""Client- and scheduler-side resilience primitives.

Two small, dependency-free machines shared across the serving stack:

* :class:`RetryPolicy` — exponential backoff with jitter and a
  cumulative sleep *budget*.  Jitter comes from a seedable RNG so chaos
  tests replay identical retry schedules.
* :class:`CircuitBreaker` — classic closed / open / half-open.  Used by
  :class:`repro.serve.client.ServeClient` to stop hammering a failing
  server, and by :class:`repro.serve.scheduler.ReplayScheduler` to stop
  dispatching onto a flapping worker pool (failing over to inline
  execution instead).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Iterator, Optional

from repro.serve.config import ResilienceConfig


class RetryPolicy:
    """Backoff schedule for one logical request.

    ``delays()`` yields at most ``max_attempts - 1`` sleeps, stopping
    early when the cumulative ``retry_budget`` would be exceeded.  The
    jitter RNG is seeded on the first jittered delay, so a request that
    never retries never builds one; the sequences are those of an RNG
    seeded up front.
    """

    def __init__(self, config: ResilienceConfig,
                 seed: Optional[int] = None) -> None:
        self.config = config
        self._seed = seed
        self._rng: Optional[random.Random] = None

    def delays(self) -> Iterator[float]:
        config = self.config
        backoff = config.backoff_base
        spent = 0.0
        for _ in range(max(0, config.max_attempts - 1)):
            delay = min(backoff, config.backoff_max)
            if config.backoff_jitter > 0:
                # full-jitter on the configured fraction: delay keeps a
                # (1 - jitter) floor so retries still spread out
                floor = delay * (1.0 - config.backoff_jitter)
                if self._rng is None:
                    self._rng = random.Random(self._seed)
                delay = floor + self._rng.random() * (delay - floor)
            if spent + delay > config.retry_budget:
                return
            spent += delay
            yield delay
            backoff *= config.backoff_factor


class CircuitBreaker:
    """Closed / open / half-open breaker; thread-safe.

    ``allow()`` answers "may I attempt now?":

    * **closed** — yes, always;
    * **open** — no, until ``reset_timeout`` has elapsed, then the
      breaker half-opens and admits exactly one probe;
    * **half-open** — no (someone else holds the probe).

    ``record_success`` closes from any state; ``record_failure`` counts
    toward ``failure_threshold`` and re-opens a half-open breaker
    immediately (the probe failed).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 5.0,
                 clock=time.monotonic) -> None:
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0  # closed/half-open -> open transitions

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        if (self._state == self.OPEN
                and self._clock() - self._opened_at >= self.reset_timeout):
            return self.HALF_OPEN  # would admit a probe
        return self._state

    def allow(self) -> bool:
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if (self._state == self.OPEN
                    and self._clock() - self._opened_at >= self.reset_timeout):
                self._state = self.HALF_OPEN
                return True  # this caller is the probe
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            tripped = (self._state == self.HALF_OPEN
                       or self._consecutive_failures >= self.failure_threshold)
            if tripped and self._state != self.OPEN:
                self.trips += 1
            if tripped:
                self._state = self.OPEN
                self._opened_at = self._clock()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._peek_state(),
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
            }
