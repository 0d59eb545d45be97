"""Shared fixtures for the serve test suite.

Servers run on a background thread via ``serve_in_thread`` and are torn
down per test.  Injectable analysis specs (slow, crashing) rely on the
fork start method so that forked workers inherit the patched registry —
tests that need them skip elsewhere.
"""

import multiprocessing
import os
import time

import pytest

from repro.exec import pool as pool_mod
from repro.serve import ServeConfig, serve_in_thread
from repro.trace import TraceStore
from repro.workloads import ALL

IS_FORK = multiprocessing.get_start_method() == "fork"
needs_fork = pytest.mark.skipif(
    not IS_FORK, reason="injected specs reach workers via fork inheritance"
)


@pytest.fixture(scope="session")
def fft_trace(tmp_path_factory):
    """(digest, raw bytes, plain_cycles) of the fft trace, recorded once."""
    store = TraceStore(tmp_path_factory.mktemp("serve-traces"))
    reader = store.get_or_record(ALL["fft"], 1)
    blob = store.trace_path(ALL["fft"], 1).read_bytes()
    return reader.digest, blob, reader.summary["plain_cycles"]


@pytest.fixture
def make_server(tmp_path):
    """Factory for thread-hosted servers; everything stops at teardown."""
    handles = []

    def _make(**overrides) -> object:
        overrides.setdefault("workers", 2)
        overrides.setdefault("store_root", str(tmp_path / f"store{len(handles)}"))
        handle = serve_in_thread(ServeConfig(**overrides))
        handles.append(handle)
        return handle

    yield _make
    for handle in handles:
        handle.stop()


class SlowAnalysis:
    """Attachable that burns wall-clock in attach(); registers no hooks."""

    needs_shadow = False
    source = "slow-test-analysis"
    options = ""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def attach(self, vm) -> None:
        time.sleep(self.delay)


def make_slow_builder(delay: float):
    return lambda: SlowAnalysis(delay)


def crash_in_worker_builder():
    """Builds fine in the server process, kills a pool worker dead."""
    if multiprocessing.parent_process() is not None:
        os._exit(17)
    return SlowAnalysis(0.0)


@pytest.fixture
def inject_spec():
    """Temporarily add analysis specs to the registry (fork-visible)."""
    added = []

    def _inject(name: str, builder) -> str:
        pool_mod.ANALYSIS_SPECS[name] = builder
        added.append(name)
        return name

    yield _inject
    for name in added:
        pool_mod.ANALYSIS_SPECS.pop(name, None)
    pool_mod._COMPILED.clear()
    pool_mod.analysis_fingerprint.cache_clear()
