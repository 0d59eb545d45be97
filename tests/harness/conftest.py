"""Fixtures shared by the harness tests."""

import pytest

from repro.harness.figures import figure4


@pytest.fixture(scope="session")
def inline_fig4():
    """Inline Figure 4, computed once per session: the reference every
    other execution path must reproduce bit for bit."""
    return figure4()
