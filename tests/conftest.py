"""Shared fixtures: seeded problem generators used across the test suite,
and the d=3, m=0 recursion oracle applied to every run the suite makes.

The random populations are the generators behind the CLI verification
suites (``helmrad.problem.random_spec`` and ``random_alternating``), so that
`pytest` and `helmrad verify` exercise the same distributions.
"""

import numpy as np
import pytest

import m0_oracle
from helmrad import green, problem
from helmrad.specfun import EXTENDED


@pytest.fixture(scope="session", autouse=True)
def m0_oracle_on_every_extended_run():
    """Check every extended-precision d=3, m=0 recursion run of the session
    against the jump-ratio step (``m0_oracle``), to 1e-12."""
    recursion = green.recursion

    def checked(tier, spec, omega=None, x=None):
        if tier is EXTENDED and omega is None:   # the spec's own values
            omega = EXTENDED.real(spec.omega)
            x = EXTENDED.real(np.asarray(spec.profile.jump_points))
        seq, error = recursion(tier, spec, omega, x)
        if tier is EXTENDED and spec.dimension == 3 and spec.mode == 0:
            m0_oracle.check(spec, omega, x, seq)
        return seq, error
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(green, "recursion", checked)
        yield


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
