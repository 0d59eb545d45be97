"""Auto-shrinker: reduction against synthetic predicates (no real
divergence needs to exist in the tree for these tests to bite)."""

import pytest

from repro.fuzz import FuzzError
from repro.fuzz.gen import generate, sample_params
from repro.fuzz.oracle import CaseOutcome, CellResult
from repro.fuzz.shrink import shrink_case, shrink_outcome, workload_from_text
from repro.ir.text import parse_module, print_module


def _classifier(predicate):
    """Wrap a module predicate as an oracle-shaped classifier."""
    def classify(workload):
        module = workload.make_module()
        outcome = "CRASH" if predicate(module) else "MATCH"
        return CaseOutcome(params=None, outcome=outcome, detail="synthetic")
    return classify


class TestShrink:
    def test_shrinks_while_predicate_holds(self):
        """Predicate: module still stores to the shared array. The
        shrinker must strip a meaningful fraction of everything else."""
        params = sample_params(0, events=400)
        original = generate(params).static_instruction_count()

        def has_any_store(module):
            return any(
                type(i).__name__ == "Store"
                for f in module.functions.values()
                for i in f.instructions()
            )

        result = shrink_case(
            params, "compiled/off/mono/inline", "CRASH",
            classify=_classifier(has_any_store),
        )
        assert result.original_instructions == original
        assert result.final_instructions < original
        assert result.removed > 0
        # The result is still a valid, parsable module.
        assert print_module(parse_module(result.module_text))

    def test_non_reproducing_case_raises(self):
        params = sample_params(1, events=400)
        with pytest.raises(FuzzError, match="does not reproduce"):
            shrink_case(
                params, "compiled/off/mono/inline", "CRASH",
                classify=_classifier(lambda module: False),
            )

    def test_shrink_outcome_picks_the_erroring_cell(self):
        params = sample_params(2, events=400)
        outcome = CaseOutcome(
            params=params, outcome="CRASH", detail="boom",
            cells=[
                CellResult(cell="compiled/off/mono/inline", status="ok"),
                CellResult(cell="compiled/intra/mono/inline", status="error",
                           error_type="ValueError", error="boom"),
            ],
        )
        result = shrink_outcome(
            outcome, classify=_classifier(
                lambda module: "worker" in module.functions
                or "main" in module.functions
            ),
        )
        assert result.cell == "compiled/intra/mono/inline"

    def test_workload_from_text_rejects_garbage(self):
        params = sample_params(3, events=400)
        with pytest.raises(Exception):
            workload_from_text("definitely not IR {", params)
