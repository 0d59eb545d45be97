"""The process registry and the digest-keyed memo (``repro.obs``)."""

import subprocess
import sys

from repro.obs import PROCESS, Memo, MetricsRegistry


def _counts():
    return PROCESS.subsystems()["test.memo"]


def test_memo_evicts_least_recently_used_and_counts():
    memo = Memo("test.memo.", 2)
    memo.clear()
    built = []

    def build(key):
        def make():
            built.append(key)
            return key.upper()
        return make

    assert memo.get_or_build("a", build("a")) == "A"
    assert memo.get_or_build("b", build("b")) == "B"
    assert memo.get_or_build("a", build("a")) == "A"  # hit: a is now newest
    assert memo.get_or_build("c", build("c")) == "C"  # evicts b, not a
    assert memo.get_or_build("a", build("a")) == "A"
    assert memo.get_or_build("b", build("b")) == "B"  # rebuilt; evicts c
    assert built == ["a", "b", "c", "b"]
    assert _counts() == {"hits": 2, "misses": 4, "entries": 2}

    memo.clear()
    assert _counts() == {"hits": 0, "misses": 0, "entries": 0}
    assert memo.get_or_build("a", build("a")) == "A"
    assert built[-1] == "a"  # the cleared memo built it again


def test_subsystems_group_by_last_dot():
    registry = MetricsRegistry()
    registry.counter("vm.compile.hits").inc(3)
    registry.gauge("vm.compile.entries").set(4)
    registry.counter("fuzz.cases").inc()
    assert registry.subsystems() == {
        "vm.compile": {"hits": 3, "entries": 4},
        "fuzz": {"cases": 1},
    }


def test_vm_staticpass_and_harness_do_not_import_serve():
    code = (
        "import sys\n"
        "import repro.vm.compile, repro.staticpass, repro.harness.figures\n"
        "assert 'repro.serve' not in sys.modules, sorted(\n"
        "    m for m in sys.modules if m.startswith('repro.serve'))\n"
    )
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
