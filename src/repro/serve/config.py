"""Resilience knobs for the serving stack, in one place.

Before this module, retry/backoff/timeout constants were scattered
magic numbers (client retries, worker deadlines, breaker thresholds).
:class:`ResilienceConfig` is the single source of truth: the client's
retry policy and circuit breaker, the worker watchdog, and the
scheduler's breaker all read from it.  The server embeds
its copy in ``serve stats`` (``config.resilience``) so a live
deployment's failure posture is inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ResilienceConfig:
    """The retry/backoff/watchdog/breaker knobs the runtime layers use."""

    # -- client retry policy ------------------------------------------
    #: total attempts per logical request (1 = no retries)
    max_attempts: int = 5
    #: first backoff sleep, seconds; doubles each retry
    backoff_base: float = 0.05
    #: growth factor between consecutive backoffs
    backoff_factor: float = 2.0
    #: per-sleep ceiling, seconds
    backoff_max: float = 2.0
    #: fraction of each backoff randomized away (0 = deterministic)
    backoff_jitter: float = 0.5
    #: cumulative sleep budget per logical request, seconds — retries
    #: stop when the budget is spent even if attempts remain
    retry_budget: float = 15.0

    # -- circuit breaker ----------------------------------------------
    #: consecutive failures before the breaker opens
    breaker_threshold: int = 5
    #: seconds an open breaker waits before letting one probe through
    breaker_reset: float = 5.0

    # -- worker watchdog ----------------------------------------------
    #: seconds between worker heartbeats while a job runs
    heartbeat_interval: float = 0.5
    #: per-job deadline before the watchdog kills the worker;
    #: None disables hang detection
    hang_timeout: Optional[float] = 150.0
    #: seconds between reaper sweeps (respawn dead-idle workers);
    #: None disables the reaper thread
    reaper_interval: Optional[float] = 2.0
