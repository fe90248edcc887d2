"""Shared fixtures: seeded problem generators used across the test suite.

The random populations are the generators behind the CLI verification
suites (``helmrad.problem.random_spec`` and ``random_alternating``), so that
`pytest` and `helmrad verify` exercise the same distributions.
"""

import numpy as np
import pytest

from helmrad import problem


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def random_spec():
    return problem.random_spec


@pytest.fixture
def random_alternating():
    return problem.random_alternating


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
