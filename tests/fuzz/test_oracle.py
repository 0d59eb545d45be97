"""Differential oracle: cell grammar, cross-cell comparison logic, and
end-to-end MATCH runs over the full default matrix."""

import pytest

from repro.fuzz import FuzzUsageError
from repro.fuzz.oracle import (
    DEFAULT_MATRIX,
    Observation,
    Oracle,
    compare_observations,
    parse_cell,
    parse_matrix,
)
from repro.obs import PROCESS


class TestCellGrammar:
    def test_default_matrix_parses(self):
        cells = parse_matrix(DEFAULT_MATRIX)
        assert len(cells) == len(DEFAULT_MATRIX)
        assert cells[0].name == "reference/off/mono/inline"

    def test_shards(self):
        assert parse_cell("compiled/off/p4/inline").shards == 4
        assert parse_cell("compiled/off/mono/inline").shards == 1

    @pytest.mark.parametrize("bad", [
        "compiled/off/mono",                 # wrong arity
        "llvm/off/mono/inline",              # unknown backend
        "bytecode/off/mono/inline",          # unknown backend
        "compiled/maybe/mono/inline",        # unknown tier
        "compiled/off/p3/inline",            # unknown shard count
        "compiled/off/mono/carrier-pigeon",  # unknown path
        "reference/off/mono/serve",          # serve needs compiled
        "compiled/inter/mono/serve",         # serve needs elide off
        "reference/off/p2/inline",           # partition needs compiled
        "compiled/intra/p2/inline",          # partition needs elide off
    ])
    def test_bad_cells_raise_usage_error(self, bad):
        with pytest.raises(FuzzUsageError):
            parse_cell(bad)

    def test_matrix_rejects_empty_and_duplicates(self):
        with pytest.raises(FuzzUsageError):
            parse_matrix(())
        with pytest.raises(FuzzUsageError):
            parse_matrix(("compiled/off/mono/inline",
                          "compiled/off/mono/inline"))


def _obs(**kwargs):
    base = dict(reports=("r1",), n_reports=1, cycles=100,
                metadata_bytes=8, handler_calls=50, trace_digest="d")
    base.update(kwargs)
    return Observation(**base)


class TestCompare:
    def test_identical_observations_match(self):
        cells = [("compiled/off/mono/inline", _obs()),
                 ("reference/off/mono/inline", _obs())]
        assert compare_observations(cells) == ""

    def test_trace_digest_divergence(self):
        cells = [("compiled/off/mono/inline", _obs(trace_digest="a")),
                 ("reference/off/mono/inline", _obs(trace_digest="b"))]
        assert "trace bytes diverge" in compare_observations(cells)

    def test_report_count_divergence(self):
        cells = [("compiled/off/mono/inline", _obs()),
                 ("compiled/off/mono/serve", _obs(reports=None, n_reports=2))]
        assert "report count diverges" in compare_observations(cells)

    def test_report_text_divergence(self):
        cells = [("compiled/off/mono/inline", _obs(reports=("race at 1",))),
                 ("reference/off/mono/inline", _obs(reports=("race at 2",)))]
        assert "reports diverge" in compare_observations(cells)

    def test_cycles_compared_only_within_off_group(self):
        cells = [("compiled/off/mono/inline", _obs(cycles=100)),
                 ("compiled/inter/mono/inline", _obs(cycles=90)),
                 ("compiled/off/p2/inline", _obs(cycles=100))]
        assert compare_observations(cells) == ""
        cells[2] = ("compiled/off/p2/inline", _obs(cycles=101))
        assert "cycles diverge" in compare_observations(cells)

    def test_handler_calls_must_fall_monotonically(self):
        cells = [("compiled/off/mono/inline", _obs(handler_calls=50)),
                 ("compiled/intra/mono/inline", _obs(handler_calls=40)),
                 ("compiled/inter/mono/inline", _obs(handler_calls=30))]
        assert compare_observations(cells) == ""
        cells[2] = ("compiled/inter/mono/inline", _obs(handler_calls=45))
        assert "not monotone" in compare_observations(cells)


class TestEndToEnd:
    def test_seeds_match_across_the_full_matrix(self):
        """The headline invariant: generated workloads agree everywhere."""
        with Oracle(DEFAULT_MATRIX) as oracle:
            for seed in (0, 1, 2):
                outcome = oracle.run_seed(seed, events=500)
                assert outcome.outcome == "MATCH", (
                    f"seed {seed}: {outcome.outcome} — {outcome.detail}"
                )
                assert len(outcome.cells) == len(DEFAULT_MATRIX)

    def test_case_produces_reports_somewhere(self):
        """At least one small-seed case must actually fire an analysis
        (otherwise the firehose only tests silence)."""
        with Oracle(("compiled/off/mono/inline",)) as oracle:
            fired = 0
            for seed in range(12):
                outcome = oracle.run_seed(seed, events=500)
                obs = outcome.cells[0].observation
                if obs is not None and obs.n_reports > 0:
                    fired += 1
            assert fired > 0

    def test_stats_counters_advance(self):
        before = PROCESS.subsystems()["fuzz"]["cases"]
        with Oracle(("compiled/off/mono/inline",)) as oracle:
            oracle.run_seed(0, events=300)
        assert PROCESS.subsystems()["fuzz"]["cases"] == before + 1

    def test_bad_timeout_rejected(self):
        with pytest.raises(FuzzUsageError):
            Oracle(DEFAULT_MATRIX, case_timeout=0)
