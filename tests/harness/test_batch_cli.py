"""Tests for the harness CLI's batch-execution and BENCH-export flags."""

import json

import pytest

from repro.harness import __main__ as cli
from repro.harness.figures import FigureData


@pytest.fixture
def stub_figure(monkeypatch):
    """Replace fig4 with a tiny figure so CLI plumbing tests stay fast."""
    calls = {}

    def fake_figure4(scale=1, verbose=False, jobs=1, trace_cache=None,
                     server=None, backend="compiled"):
        calls.update(scale=scale, jobs=jobs, trace_cache=trace_cache,
                     server=server, backend=backend)
        data = FigureData("stub", series=["A"])
        data.add("w1", "A", 2.0)
        data.summary["avg"] = 2.0
        data.bench.append(
            {"workload": "w1", "label": "A", "baseline_cycles": 10,
             "instrumented_cycles": 20, "overhead": 2.0, "wall_seconds": 0.01}
        )
        return data

    monkeypatch.setitem(cli.FIGURES, "fig4", fake_figure4)
    return calls


def test_jobs_and_trace_cache_forwarded(stub_figure, tmp_path, capsys):
    cache = tmp_path / "traces"
    assert cli.main(["fig4", "--jobs", "3", "--trace-cache", str(cache)]) == 0
    assert stub_figure["jobs"] == 3
    assert stub_figure["trace_cache"] == str(cache)
    assert "stub" in capsys.readouterr().out


def test_json_flag_writes_bench_file(stub_figure, tmp_path, capsys):
    out = tmp_path / "bench"
    assert cli.main(["fig4", "--scale", "2", "--json", str(out)]) == 0
    payload = json.loads((out / "BENCH_fig4.json").read_text())
    assert payload["experiment"] == "fig4"
    assert payload["scale"] == 2
    assert payload["jobs"] == 1
    assert payload["wall_seconds"] > 0
    assert payload["summary"] == {"avg": 2.0}
    assert payload["results"][0]["workload"] == "w1"
    assert payload["results"][0]["overhead"] == 2.0
    assert str(out / "BENCH_fig4.json") in capsys.readouterr().out


def test_server_flag_forwarded(stub_figure, capsys):
    assert cli.main(["fig4", "--server", "127.0.0.1:7091"]) == 0
    assert stub_figure["server"] == "127.0.0.1:7091"


def test_partition_flag_is_unrecognized(stub_figure, capsys):
    """Batch runs settle each trace whole; sharded decode is serve-only."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fig4", "--partition", "2"])
    assert excinfo.value.code == 2
    assert not stub_figure, "the figure must not run"
    assert "unrecognized arguments: --partition 2" in capsys.readouterr().err


def test_backend_flag_forwarded(stub_figure):
    assert cli.main(["fig4", "--backend", "reference"]) == 0
    assert stub_figure["backend"] == "reference"


@pytest.mark.parametrize("argv", [
    ["--scale", "0"],
    ["--scale", "-1"],
    ["--jobs", "0"],
    ["--format", "xml"],
    ["--backend", "bytecode"],
])
def test_bad_arguments_are_usage_errors(stub_figure, capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fig4", *argv])
    assert excinfo.value.code == 2
    assert not stub_figure, "the figure must not run"
    assert f"argument {argv[0]}" in capsys.readouterr().err


def test_defaults_stay_inline(stub_figure):
    cli.main(["fig4"])
    assert stub_figure["jobs"] == 1
    assert stub_figure["trace_cache"] is None
    assert stub_figure["server"] is None
    assert stub_figure["backend"] == "compiled"


def test_real_figure_batch_cli(tmp_path, capsys):
    """End to end once with the real pipeline: batch fig4 on an empty
    cache, then again to hit it."""
    out = tmp_path / "bench"
    cache = tmp_path / "traces"
    assert cli.main(["fig4", "--trace-cache", str(cache),
                     "--json", str(out)]) == 0
    first = json.loads((out / "BENCH_fig4.json").read_text())
    assert first["results"] and not any(r["cached"] for r in first["results"])

    assert cli.main(["fig4", "--trace-cache", str(cache),
                     "--json", str(out)]) == 0
    second = json.loads((out / "BENCH_fig4.json").read_text())
    assert all(r["cached"] for r in second["results"])
    assert second["wall_seconds"] < first["wall_seconds"]
    for a, b in zip(first["results"], second["results"]):
        assert a["instrumented_cycles"] == b["instrumented_cycles"]
    capsys.readouterr()
