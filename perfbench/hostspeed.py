"""Host speed monitor: scales measured times to a reference host speed.

    python3 perfbench/hostspeed.py CPU OUT_JSON    (started by the benchmark)

The benchmark runs on a few vCPUs of a shared host.  Their speed changes
on every time scale, with no CPU steal reported: the same ``figure3``
call took 3.6 s and, a minute later, 6.4 s, and medians over a 30 s
run moved with it (run-to-run spread up to 0.39 against a bound of
0.25).  So while a run measures, one monitor process per CPU it uses
wakes every ``PERIOD_S``, times a fixed tiny interpreter loop in its own
thread CPU time, and sleeps again.  On the CPU the measured work runs
on, the monitor's samples slow down when the work does (figure3 calls
pinned beside it: raw time varied by a coefficient of 0.18, raw time
over the mean sample by 0.018; a monitor on the other CPU did not
follow).  A time is reported as::

    scaled = measured * REFERENCE_SAMPLE_S / mean sample over its interval

A change to the program moves the scaled figure as it moves the
measured one; a change of host speed moves the samples and the work
alike and cancels.  Work that spends less of its time in the
interpreter (file reads, system calls) slows less than the loop, so its
scaled time dips in slow stretches (``README.md``, Steadiness).  The
monitor costs the measured work about 2% of its CPU on every commit.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: seconds between samples
PERIOD_S = 0.01
#: samples per CPU a factor needs; shorter intervals borrow their neighbours'
MIN_SAMPLES = 3
#: a sample's thread CPU seconds on a quiet reference host (2-vCPU VM,
#: Python 3.11); it sets only the scale of every scaled time
REFERENCE_SAMPLE_S = 0.0002


def _loop(n: int = 1000) -> int:
    """Integer, dict and list work, the mix an interpreter loop does."""
    table = {}
    stack = []
    total = 0
    for i in range(n):
        key = i & 127
        table[key] = table.get(key, 0) + (i ^ total) % 251
        stack.append(key)
        if len(stack) > 32:
            total += stack.pop(0) * 3
    return total


class Monitor:
    """One sampling process per CPU in ``cpus``, from start to :meth:`stop`."""

    def __init__(self, cpus, work_dir: Path) -> None:
        self._outs = {cpu: work_dir / f"hostspeed-{cpu}.json" for cpu in cpus}
        self._procs = [
            subprocess.Popen([sys.executable, __file__, str(cpu), str(out)])
            for cpu, out in self._outs.items()
        ]
        self.samples = {}  # cpu -> [(monotonic time, sample seconds)]

    def stop(self) -> None:
        """Stop every sampler, wait for it, and read its samples (once)."""
        if self.samples:
            return
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for cpu, out in self._outs.items():
            try:
                self.samples[cpu] = json.loads(out.read_text())
            except (OSError, ValueError):
                self.samples[cpu] = []

    def factor(self, start: float, end: float, cpus=None) -> float:
        """Host slowness against the reference (> 1: slower) over the
        monotonic interval ``[start, end]`` on ``cpus`` (default: all),
        widened evenly while it holds fewer than ``MIN_SAMPLES`` per CPU."""
        cpus = cpus or list(self.samples)
        pad = 0.0
        while True:
            inside = [sample for cpu in cpus for when, sample in self.samples[cpu]
                      if start - pad <= when <= end + pad]
            if len(inside) >= MIN_SAMPLES * len(cpus):
                return statistics.mean(inside) / REFERENCE_SAMPLE_S
            if pad > 1.0:
                raise RuntimeError(f"no host speed samples near [{start}, {end}]")
            pad += PERIOD_S


def _sample(cpu: int, out: str) -> int:
    os.sched_setaffinity(0, {cpu})
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = []
    while not stopping:
        started = time.thread_time()
        _loop()
        samples.append((time.monotonic(), time.thread_time() - started))
        time.sleep(PERIOD_S)
    with open(out, "w") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(_sample(int(sys.argv[1]), sys.argv[2]))
