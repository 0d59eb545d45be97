"""Shape tests for the regenerated figures and tables.

These run the real experiment code on the default (small) scale and
assert the *qualitative claims* of the paper hold — who wins, by roughly
what factor — not absolute numbers (DESIGN.md section 2).
"""

import pytest

from repro.harness.figures import figure3, figure5
from repro.harness.runner import geomean
from repro.harness.tables import (
    TABLE3_EXPECTED,
    render_sanitizers,
    render_table3,
    render_table4,
    sanitizer_validation,
    table3,
    table4,
)


@pytest.fixture(scope="module")
def fig3():
    return figure3()


@pytest.fixture(scope="module")
def fig4(inline_fig4):
    return inline_fig4


class TestFigure3:
    def test_all_twenty_workloads_present(self, fig3):
        assert len(fig3.rows) == 20

    def test_msan_overheads_in_paper_band(self, fig3):
        """Paper: avg 2.29x (LLVM) vs 2.21x (ALDAcc).  Accept 1.5-4x."""
        for series in ("LLVM", "ALDAcc"):
            avg = geomean(fig3.series_values(series))
            assert 1.5 < avg < 4.0, f"{series} geomean {avg}"

    def test_alda_comparable_with_llvm(self, fig3):
        """Headline claim: generated MSan within 15% of hand-tuned on
        every workload."""
        for workload, row in fig3.rows.items():
            ratio = row["ALDAcc"] / row["LLVM"]
            assert 0.85 < ratio < 1.15, f"{workload}: {ratio}"

    def test_averages_close(self, fig3):
        assert abs(fig3.summary["avg_llvm"] - fig3.summary["avg_aldacc"]) < 0.3

    def test_render_contains_workloads(self, fig3):
        text = fig3.render()
        assert "bzip2" in text and "geomean" in text


class TestFigure4:
    def test_all_splash2_present(self, fig4):
        assert len(fig4.rows) == 12

    def test_aldacc_comparable_with_hand_tuned(self, fig4):
        """Paper: 24.79x vs 25.12x (within ~1.3%). Accept within 20%."""
        ratio = fig4.summary["avg_aldacc_full"] / fig4.summary["avg_hand_tuned"]
        assert 0.8 < ratio < 1.2

    def test_ds_only_strictly_worse(self, fig4):
        for workload, row in fig4.rows.items():
            assert row["ALDAcc-ds-only"] > row["ALDAcc-full"], workload

    def test_layout_opt_speedup_in_band(self, fig4):
        """Paper: 26.9% speedup from coalescing+CSE. Accept 15-60%."""
        assert 0.15 < fig4.summary["layout_opt_speedup"] < 0.60

    def test_eraser_much_heavier_than_msan(self, fig3, fig4):
        assert fig4.summary["avg_aldacc_full"] > 2 * fig3.summary["avg_aldacc"]


class TestFigure5:
    @pytest.fixture(scope="class")
    def fig5(self):
        return figure5()

    def test_fifteen_workloads(self, fig5):
        assert len(fig5.rows) == 15

    def test_combined_cheaper_than_sum_everywhere(self, fig5):
        for workload, row in fig5.rows.items():
            assert row["combined"] < row["sum_individual"], workload

    def test_average_speedup_positive(self, fig5):
        """Paper: 44.9%. Our substrate reproduces the direction and
        mechanism with a smaller magnitude (see EXPERIMENTS.md)."""
        assert fig5.summary["avg_combined_speedup"] > 0.10

    def test_combined_more_than_max_individual(self, fig5):
        """Sanity: combining can't be cheaper than the heaviest member."""
        for workload, row in fig5.rows.items():
            heaviest = max(row[name] for name in ("eraser", "fasttrack", "uaf", "taint"))
            assert row["combined"] >= heaviest * 0.95, workload


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3()

    def test_all_five_programs(self, rows):
        assert {r.program for r in rows} == set(TABLE3_EXPECTED)

    def test_every_row_matches_paper(self, rows):
        for row in rows:
            assert row.matches_paper, f"{row.program}: ALDA={row.alda_reported} LLVM={row.llvm_reported}"

    def test_gets_rows_are_llvm_only(self, rows):
        for row in rows:
            if row.kind == "gets-false-positive":
                assert row.llvm_reported and not row.alda_reported

    def test_true_bug_rows_reported_by_both(self, rows):
        for row in rows:
            if row.kind == "true-uninitialized-use":
                assert row.llvm_reported and row.alda_reported

    def test_render(self, rows):
        text = render_table3(rows)
        assert "fmm.c:313" in text


class TestTable4:
    def test_loc_table_content(self):
        rows, handtuned = table4()
        by_name = {r.analysis: r for r in rows}
        assert by_name["eraser"].paper_loc == 70
        assert by_name["msan"].our_loc > 0
        assert handtuned["msan"] > by_name["msan"].our_loc

    def test_render(self):
        rows, handtuned = table4()
        text = render_table4(rows, handtuned)
        assert "8146" in text and "83.1%" in text


class TestSanitizerValidation:
    @pytest.fixture(scope="class")
    def rows(self):
        return sanitizer_validation()

    def test_all_cases_pass(self, rows):
        for row in rows:
            assert row.passed, f"{row.workload}: reported={row.reported}"

    def test_bug_and_clean_cases_present(self, rows):
        assert any(r.expected_bug for r in rows)
        assert any(not r.expected_bug for r in rows)

    def test_render(self, rows):
        assert "memcached_tls_leak" in render_sanitizers(rows)


class TestMemoryFootprintParity:
    """The paper's memory-overhead claims: 'roughly equivalent memory
    footprints' (MSan) and 'nearly identical' (Eraser)."""

    def test_fig3_footprints_equivalent(self, fig3):
        assert 0.8 < fig3.summary["metadata_footprint_ratio"] < 1.25

    def test_fig4_footprints_equivalent(self, fig4):
        assert 0.8 < fig4.summary["metadata_footprint_ratio"] < 1.25
