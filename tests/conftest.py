"""Shared test helpers.

Keeps the frozen reference table importable regardless of how pytest was
invoked, loads the suite's Hypothesis profile, and provides the
factor_calls fixture.
"""

import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Every property test draws the same examples on every run, and a slow
# example is not a failure; each test sets only its max_examples.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def factor_calls(monkeypatch):
    """The velocities passed to relativistic_factor from here on, in call order.

    Every otto_rel global bound to the function is rebound to a counting
    wrapper, so copies made by ``from .core import relativistic_factor``
    are counted too.
    """
    from otto_rel import relativistic_factor as real

    calls = []

    def counted(v):
        calls.append(v)
        return real(v)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "otto_rel" and vars(module).get("relativistic_factor") is real:
            monkeypatch.setattr(module, "relativistic_factor", counted)
    return calls
