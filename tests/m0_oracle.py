"""Test oracle for the d=3, m=0 recursion: the jump-ratio step.

For d=3, m=0 the general (Wronskian-built) step of the beta recursion
reduces to beta_ell ∝ (u + q_ell conj(u)) / (1 + q_ell), with
u = e^{-i delta_ell} beta_{ell-1} and q_ell = (c_{ell+1} - c_ell) /
(c_{ell+1} + c_ell) the speed contrast; |q_ell| < 1, so no step vanishes.
Starting each step from the run's own beta_{ell-1}, the oracle recomputes
beta_ell in this form and compares phase and log-modulus with the run.
``conftest.py`` applies it to every extended-precision d=3, m=0 run of
``green.recursion`` the suite makes.
"""

import numpy as np

#: agreement required in phase and in log-modulus, per step
TOLERANCE = 1e-12

_EXT = np.longdouble
_IU = np.clongdouble(1j)


def divergence(spec, omega, x, seq) -> float:
    """Largest per-step difference between ``seq`` and the jump-ratio step.

    ``omega`` and ``x`` are the extended-precision data the run was made
    from; ``seq`` is the sequence ``green.recursion`` returned for them.
    With a trailing sample axis (a batch) the worst over every sample.
    """
    worst = 0.0
    for ell in range(1, spec.n + 1):
        c_l, c_r = _EXT(spec.speed(ell)), _EXT(spec.speed(ell + 1))
        u = np.exp(_IU * -(omega * (x[ell] - x[ell - 1]) / c_l)) \
            * seq.phases[ell - 1]
        q0 = (c_r - c_l) / (c_r + c_l)
        step0 = (u + q0 * np.conj(u)) / (1 + q0)
        dphase = abs(step0 / abs(step0) - seq.phases[ell])
        dlog = abs(np.log(abs(step0)) + seq.log_moduli[ell - 1]
                   - seq.log_moduli[ell])
        worst = max(worst, float(np.max(dphase)), float(np.max(dlog)))
    return worst


def check(spec, omega, x, seq) -> None:
    """Raise AssertionError when ``seq`` leaves the jump-ratio step."""
    d = divergence(spec, omega, x, seq)
    if d > TOLERANCE:
        raise AssertionError(f"m=0 step paths diverged: {d:.3e}")
