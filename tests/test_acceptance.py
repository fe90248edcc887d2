"""Acceptance suite: twelve numbered criteria, one reported line each.

Each criterion records a PASS/FAIL line that is echoed in the terminal
summary.  Criterion 7 is a known, documented failure: the closed-form
energy lower bound it states is larger than the true energy norm (the
energy norm itself is cross-checked by brute-force quadrature in the
module tests, and a corrected bound is verified there as well).
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from helmrad import (
    ProblemSpec,
    beta_sequence,
    certify_beta_bounds,
    construct_localisation_example,
    construct_stable_example,
    energy_norm,
    green_growth_law,
    green_last_column,
    layer_coefficients,
    normalize,
    refined_small_z_check,
    solve,
    solve_spec,
    sup_scaled,
)
from helmrad.evaluate import (RadialSolution, dtn_residual,
                              interface_residuals, ode_residual)
from helmrad.problem import (WaveSpeedProfile, random_alternating,
                             random_spec)
from helmrad.specfun import (FundamentalPair, fundamental_eval,
                             spherical_hankel_h1, spherical_jn_seq,
                             spherical_yn_seq, wronskian_w)
from helmrad.stability import whispering_gallery_scan
from interface_oracles import (beta_tilde, determinant_recursion,
                               to_dense, w_sequence)


def _record(request, number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {detail}"
    lines = getattr(request.config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        request.config._acceptance_lines = lines
    lines.append(line)
    return ok


# solves shared between criterion 1 (oracle equivalence) and criterion 11
# (residuals on every accepted solve)
_ACCEPTED = []


def _oracle_population():
    rng = np.random.default_rng(20260823)
    return [random_spec(rng) for _ in range(200)]


def test_criterion_01_oracle_equivalence(request):
    t0 = time.perf_counter()
    worst = 0.0
    for spec in _oracle_population():
        direct, _ = solve_spec(spec)
        rec = layer_coefficients(spec)
        scale = max(np.max(np.abs(direct.entries)),
                    np.max(np.abs(rec.entries)))
        worst = max(worst,
                    float(np.max(np.abs(direct.entries - rec.entries))
                          / scale))
        _ACCEPTED.append((spec, rec))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    assert _record(
        request, 1, ok,
        f"recursion vs banded solve on 200 specs, worst relative "
        f"difference {worst:.3e} (<= 1e-9), {elapsed:.2f}s (< 10s)")


def test_criterion_02_determinant_identity(request):
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        spec = random_spec(rng, n_max=10)
        d_rec = determinant_recursion(spec)
        d_dir = np.linalg.det(to_dense(normalize(spec)))
        worst = max(worst, abs(d_rec - d_dir) / abs(d_dir))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 2.0
    assert _record(
        request, 2, ok,
        f"recursion determinant vs elimination on 50 specs, worst "
        f"relative difference {worst:.3e} (<= 1e-9), {elapsed:.2f}s (< 2s)")


def test_criterion_03_w_sequence_identity(request):
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(50):
        spec = random_spec(rng, n_max=10)
        n = spec.n
        W = w_sequence(spec)
        seq = beta_sequence(spec)
        bt = beta_tilde(spec, complex(
            (np.exp(seq.log_moduli) * seq.phases)[n]))
        first = abs(W[n, 0] - (-1.0) ** n * bt) / abs(bt)
        second_target = -(np.conj(bt) - (-1.0) ** n * bt) / 2.0
        second = abs(W[n, 1] - second_target) / max(abs(W[n, 1]), abs(bt))
        worst = max(worst, first, second)
    ok = worst <= 1e-12
    assert _record(
        request, 3, ok,
        f"determinant companion sequence vs recursion on 50 specs, worst "
        f"relative difference {worst:.3e} (<= 1e-12)")


def test_criterion_04_localisation_peaks(request):
    targets = {2: (0.85, 0.10), 4: (2.5, 0.10), 8: (22.0, 0.10),
               16: (1850.0, 0.15)}
    t0 = time.perf_counter()
    details = []
    ok = True
    for n, (target, tol) in targets.items():
        spec = construct_localisation_example(n, 1.0, 3.0)
        sol = solve(spec)
        _ACCEPTED.append((spec, sol.coeffs))
        sup = sup_scaled(sol)
        ok = ok and abs(sup - target) <= tol * target
        details.append(f"n={n}: {sup:.4g} (target {target} +/- {tol:.0%})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    assert _record(
        request, 4, ok,
        "localised peak heights " + ", ".join(details)
        + f", {elapsed:.2f}s (< 5s)")


def test_criterion_05_stable_plateau(request):
    sups = []
    odd_ok = True
    for n in (2, 4, 8, 16):
        spec = construct_stable_example(n, 1.0, 3.0)
        sol = solve(spec)
        _ACCEPTED.append((spec, sol.coeffs))
        sups.append(sup_scaled(sol))
        odd_mag = np.exp(green_last_column(spec).odd_log_mag)
        odd_ok = odd_ok and bool(np.max(np.abs(odd_mag - 1.0)) <= 1e-9)
    variation = (max(sups) - min(sups)) / max(sups)
    level_ok = abs(np.mean(sups) - 0.28) <= 0.15 * 0.28
    ok = variation < 0.05 and odd_ok and level_ok
    assert _record(
        request, 5, ok,
        f"stable-family peak {np.mean(sups):.4f} (0.28 +/- 15%), "
        f"variation {variation:.2e} (< 5%), unit odd entries: {odd_ok}")


def test_criterion_06_growth_law(request):
    worst = 0.0
    for n in (2, 4, 8, 16, 30):
        gl = green_growth_law(construct_localisation_example(n, 1.0, 3.0))
        rel = np.abs(gl.predicted_odd_log - gl.observed_odd_log) \
            / np.maximum(np.abs(gl.predicted_odd_log), 1.0)
        worst = max(worst, float(np.max(rel)))
        finite = np.isfinite(gl.predicted_even_log)
        assert np.array_equal(finite, np.isfinite(gl.observed_even_log))
        if finite.any():
            rel = np.abs(gl.predicted_even_log[finite]
                         - gl.observed_even_log[finite]) \
                / np.maximum(np.abs(gl.predicted_even_log[finite]), 1.0)
            worst = max(worst, float(np.max(rel)))
    ok = worst <= 1e-9
    assert _record(
        request, 6, ok,
        f"closed-form column growth vs recursion, n up to 30, worst "
        f"log-magnitude relative difference {worst:.3e} (<= 1e-9)")


@pytest.mark.xfail(
    strict=True,
    reason="the stated closed-form energy lower bound overestimates the "
    "true energy norm by a factor growing like sqrt(frequency); the energy "
    "norm itself is verified against brute-force quadrature and a corrected "
    "first-layer bound in tests/test_evaluate.py")
def test_criterion_07_energy_lower_bound(request):
    prefactor = math.sqrt(math.pi ** 2 - 4.0) / 4.0
    details = []
    ok = True
    for n in (2, 4, 8):
        spec = construct_localisation_example(n, 1.0, 3.0)
        energy = energy_norm(solve(spec))
        bound = prefactor * 3.0 ** math.ceil(n / 2)
        ok = ok and energy >= bound
        details.append(f"n={n}: energy {energy:.3f} vs stated bound "
                       f"{bound:.3f}")
    assert _record(
        request, 7, ok,
        "energy vs stated closed-form lower bound, " + ", ".join(details)
        + " (known source inconsistency; corrected bound verified in "
        "module tests)")


def test_criterion_08_beta_bound_certification(request):
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(500):
        report = certify_beta_bounds(random_alternating(rng))
        violations += not (report.per_step_ok and report.majorant_ok)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    assert _record(
        request, 8, ok,
        f"per-step and two-step recursion bounds on 500 alternating "
        f"specs: {violations} violations, {elapsed:.2f}s (< 5s)")


def test_criterion_09_small_argument_scaling(request):
    jumps = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.5, 1.0)
    speeds = (1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0)
    spec = ProblemSpec(WaveSpeedProfile(jumps, speeds), dimension=3,
                       mode=0, omega=2.0)
    check = refined_small_z_check(spec)
    ok = (len(check.window) >= 3 and check.min_exponent is not None
          and check.min_exponent >= 2.8)
    assert _record(
        request, 9, ok,
        f"cubic small-argument decay over window {check.window}, fitted "
        f"exponent >= {check.min_exponent:.4f} (>= 2.8)")


def _series_spherical_j(m, x):
    """Ascending-series oracle for the regular spherical function."""
    with mp.workdps(40):
        x = mp.mpf(x)
        term = x ** m / mp.fprod(2 * l + 1 for l in range(m + 1))
        total = term
        for k in range(1, 300):
            term *= -x ** 2 / (2 * k * (2 * m + 2 * k + 1))
            total += term
            if abs(term) < mp.mpf(10) ** -38 * abs(total):
                break
        return total


def _series_spherical_y(m, x):
    """Ascending-series oracle for the singular spherical function."""
    with mp.workdps(40):
        x = mp.mpf(x)
        term = -mp.fprod(2 * l - 1 for l in range(1, m + 1)) / x ** (m + 1)
        total = term
        for k in range(1, 300):
            term *= -x ** 2 / (2 * k * (2 * k - 2 * m - 1))
            total += term
            if abs(term) < mp.mpf(10) ** -38 * abs(total):
                break
        return total


def test_criterion_10_special_function_battery(request):
    xs = np.linspace(0.05, 100.0, 257)
    unit_err = max(abs(x * abs(spherical_hankel_h1(0, x)) - 1.0) for x in xs)

    pair = FundamentalPair(3, 0)
    deriv_err = 0.0
    for x in xs:
        _, dh = fundamental_eval(pair, 1, float(x))
        target = 1.0 / x ** 2 + 1.0 / x ** 4
        deriv_err = max(deriv_err, abs(abs(dh) ** 2 - target) / target)

    series_err = 0.0
    for x in np.linspace(0.5, 30.0, 13):
        j = spherical_jn_seq(20, float(x))
        y = spherical_yn_seq(20, float(x))
        for m in range(21):
            tj = float(_series_spherical_j(m, float(x)))
            ty = float(_series_spherical_y(m, float(x)))
            series_err = max(series_err, abs(j[m] - tj) / abs(tj),
                             abs(y[m] - ty) / abs(ty))

    wronsk_err = 0.0
    for c, z in ((1.0, 3.7), (2.5, 11.0), (0.7, 24.0)):
        vals = [wronskian_w(FundamentalPair(3, m), 1, 2, c, c, z)
                for m in range(11)]
        spread = max(abs(v - vals[0]) for v in vals)
        wronsk_err = max(wronsk_err, spread / abs(vals[0]))

    ok = (unit_err <= 1e-13 and deriv_err <= 1e-12
          and series_err <= 1e-11 and wronsk_err <= 1e-12)
    assert _record(
        request, 10, ok,
        f"unit outgoing modulus {unit_err:.2e} (<= 1e-13), derivative "
        f"modulus {deriv_err:.2e} (<= 1e-12), series oracles "
        f"{series_err:.2e} (<= 1e-11), order-independent cross-Wronskian "
        f"{wronsk_err:.2e} (<= 1e-12)")


def test_criterion_11_residual_suite(request):
    assert _ACCEPTED, "criteria 1, 4 and 5 populate the accepted solves"
    worst = 0.0
    for spec, coeffs in _ACCEPTED:
        sol = RadialSolution(spec=spec, coeffs=coeffs)
        for left, right in interface_residuals(sol):
            worst = max(worst, left, right)
        worst = max(worst, ode_residual(sol), dtn_residual(sol))
    ok = worst <= 1e-9
    assert _record(
        request, 11, ok,
        f"interface/equation/boundary residuals on {len(_ACCEPTED)} "
        f"accepted solves, worst {worst:.3e} (<= 1e-9)")


def test_criterion_12_whispering_gallery(request):
    windows = {5: (15.66, 15.68), 10: (27.30, 27.32),
               15: (38.43, 38.45), 20: (49.32, 49.35)}
    mags = []
    for m, window in windows.items():
        res = whispering_gallery_scan(m, 1.0, 2.0, 0.5, window,
                                      samples=4001)
        mags.append(abs(res.b1))
    increasing = all(a < b for a, b in zip(mags, mags[1:]))
    assert _record(
        request, 12, increasing,
        "near-resonant interface amplitude strictly increasing in the "
        "mode number: " + ", ".join(f"{v:.4g}" for v in mags))
