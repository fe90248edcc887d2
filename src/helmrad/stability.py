"""Stability diagnostics for the recursion sequence and the Green column.

Everything here certifies verifiable inequalities (per-step modulus bounds,
a two-step majorant, small-argument scaling of the imaginary part) and
closed-form growth laws, rather than reproducing existential constants.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from . import green
from .problem import ProblemSpec, is_localisation_interference, relative_jumps
from .specfun import FundamentalPair, spherical_hankel_h1, wronskian_w

#: two-step majorant constant
C0_MAJORANT = 20.0

#: numerical slack for the log-space inequality checks
_SLACK = 1e-12

#: smallest rotated imaginary part the small-argument fit uses
_IM_FLOOR = 1e-14


class InapplicableProfile(Exception):
    """The diagnostic needs an alternating two-speed profile with d=3, m=0."""


class NotInInterference(Exception):
    """The growth law needs a localisation-interference configuration."""


class WindowTooCoarse(Exception):
    """A scan minimum landed on the window boundary."""


def _require_alternating(spec: ProblemSpec) -> float:
    """Return the common |q| of a two-speed alternating profile."""
    if spec.dimension != 3 or spec.mode != 0:
        raise InapplicableProfile("certification needs d=3, m=0")
    c = spec.profile.speeds
    odd = {c[j] for j in range(0, len(c), 2)}
    even = {c[j] for j in range(1, len(c), 2)}
    if len(odd) > 1 or len(even) > 1:
        raise InapplicableProfile("speeds must alternate between two values")
    c1 = next(iter(odd))
    c2 = next(iter(even)) if even else c1
    return (c2 - c1) / (c2 + c1)


def fit_loglinear(x: np.ndarray, y: np.ndarray):
    """Least-squares slope/intercept/R^2 of y against x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@dataclass
class StabilityReport:
    """Certification results for one spec."""

    log_beta_moduli: np.ndarray
    per_step_ok: bool
    majorant_ok: bool
    per_step_violations: list
    majorant_violations: list
    alpha_fit: float

    def to_dict(self) -> dict:
        return {
            "log_beta_moduli": list(map(float, self.log_beta_moduli)),
            "per_step_ok": self.per_step_ok,
            "majorant_ok": self.majorant_ok,
            "per_step_violations": self.per_step_violations,
            "majorant_violations": self.majorant_violations,
            "alpha_fit": self.alpha_fit,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def certify_beta_bounds(spec: ProblemSpec) -> StabilityReport:
    """Check the per-step modulus bracket and the two-step majorant.

    Per step: (1-|q|)/(1+q) <= |beta_ell|/|beta_{ell-1}| <= (1+|q|)/(1+q).
    Two-step: |beta_{2l}/beta_{2l-2}|^2 <= 1 + C0_MAJORANT |q| / (1-q^2)^2
    * min(delta_{2l}, 1).  Both are verified in log space with 1e-12 slack.
    """
    q_mag = abs(_require_alternating(spec))
    beta = green.beta_sequence(spec)
    q = relative_jumps(spec.profile)
    log_b = beta.log_moduli
    lo = np.full(spec.n, -np.inf)
    np.log((1.0 - abs(q)) / (1.0 + q), out=lo, where=abs(q) < 1.0)
    hi = np.log((1.0 + abs(q)) / (1.0 + q))
    ratio = np.diff(log_b)
    inside = (lo - _SLACK <= ratio) & (ratio <= hi + _SLACK)
    step_bad = (np.flatnonzero(~inside) + 1).tolist()
    major_bad = []
    if q_mag < 1.0:
        growth = C0_MAJORANT * q_mag / (1.0 - q_mag ** 2) ** 2
        even = np.arange(2, spec.n + 1, 2)
        bound = 0.5 * np.log1p(growth * np.minimum(spec.delta[even - 1], 1.0))
        major_bad = even[log_b[even] - log_b[even - 2]
                         > bound + _SLACK].tolist()
    alpha = math.exp(max(np.max(np.abs(log_b)), 0.0) / spec.omega)
    return StabilityReport(
        log_beta_moduli=log_b,
        per_step_ok=not step_bad,
        majorant_ok=not major_bad,
        per_step_violations=step_bad,
        majorant_violations=major_bad,
        alpha_fit=alpha,
    )


def small_z_window(spec: ProblemSpec) -> list[int]:
    """Indices ell >= 1 inside the small-argument window.

    The window is omega x_ell / c_min < 1 / (4 C1) with
    C1 = max(1, c_max) / c_min^2.
    """
    c_min, c_max = spec.profile.c_min, spec.profile.c_max
    c1 = max(1.0, c_max) / c_min ** 2
    cut = 1.0 / (4.0 * c1)
    return [ell for ell in range(1, spec.n + 1)
            if spec.z[ell] / c_min < cut]


@dataclass
class RefinedCheck:
    """Small-argument scaling results."""

    window: list
    ratios: list                   # (ell, |Im(e^{iz/c} beta)| / z^3) at omega
    exponents: dict                # ell -> fitted exponent across omega scans
    min_exponent: float | None


def refined_small_z_check(spec: ProblemSpec) -> RefinedCheck:
    """Certify the cubic small-argument decay of the rotated imaginary part.

    Rescans the same profile at omega/2 and omega/4 and fits, per window
    index, the exponent of |Im(e^{i z/c} beta)| against z.  Entries whose
    imaginary part is below ``_IM_FLOOR`` at any scan are skipped (they
    sit at the rounding floor and carry no scaling information).
    """
    if spec.dimension != 3 or spec.mode != 0:
        raise InapplicableProfile("refined check needs d=3, m=0")
    window = small_z_window(spec)
    scales = [1.0, 0.5, 0.25]
    specs = [ProblemSpec(spec.profile, spec.dimension, spec.mode,
                         spec.omega * s, spec.boundary_coefficient)
             for s in scales]
    betas = [green.beta_sequence(s) for s in specs]
    ratios = []
    exponents = {}
    for ell in window:
        # |Im(e^{i z/c} beta)|, as the recursion extracted it
        ims = [float(np.exp(be.rot_im_log[ell])) for be in betas]
        z0 = specs[0].z[ell]
        ratios.append((ell, ims[0] / z0 ** 3 if z0 > 0 else 0.0))
        if min(ims) < _IM_FLOOR:
            continue
        zs = [sp.z[ell] for sp in specs]
        slope, _, _ = fit_loglinear(np.log(zs), np.log(ims))
        exponents[ell] = slope
    min_exp = min(exponents.values()) if exponents else None
    return RefinedCheck(window=window, ratios=ratios, exponents=exponents,
                        min_exponent=min_exp)


@dataclass
class GrowthLaw:
    """Predicted vs observed Green-column magnitudes (log10)."""

    predicted_odd_log: np.ndarray
    observed_odd_log: np.ndarray
    predicted_even_log: np.ndarray
    observed_even_log: np.ndarray


def _critical_data(spec: ProblemSpec):
    """Exactly-critical (omega, jump points) rebuilt from the speeds alone.

    The critical layer widths are proportional to the speeds (h_j = c_j /
    sum c), so the jump points are exact rationals of the stored speeds and
    only omega carries the pi/2 factor.  Must be called inside an mpmath
    working-precision context.
    """
    import mpmath as mp
    c = [mp.mpf(v) for v in spec.profile.speeds]
    total = mp.fsum(c)
    x = [mp.mpf(0)]
    for cj in c:
        x.append(x[-1] + cj / total)
    return mp.pi / 2 * total, x


def green_growth_law(spec: ProblemSpec) -> GrowthLaw:
    """Closed-form interference growth of the last Green column.

    Odd rows: prod_{k=ell}^{n} (1+q_k) / (1 - (-1)^{k-1} q_k); even rows
    carry the factor |Im(e^{i z_ell/c_{ell+1}} i^ell)| times the same
    product started at k = ell + 1 (the even entry is built from the
    ell-th, not the (ell-1)-th, recursion value).  Comparison is done on
    log magnitudes so arbitrarily large n stays representable.

    The closed form holds for phase factors that are exactly +/-i; the
    double-rounded spec data perturb the phases by ~1e-16, and the
    recursion amplifies that along its growing direction by roughly 9x per
    interface.  The observed column is therefore evaluated at the
    exactly-critical configuration (same speeds, widths h_j = c_j / sum c,
    omega = (pi/2) sum c) in arbitrary precision, so that any residual
    disagreement measures the formulas rather than data rounding.
    """
    if not is_localisation_interference(spec):
        raise NotInInterference("profile/frequency pair is not critical")
    q = relative_jumps(spec.profile)
    n = spec.n
    seq = green._beta_mp(spec, digits=20.0, data=_critical_data)
    log_mod, im_log = seq.log_moduli, seq.rot_im_log
    c_total = math.fsum(spec.profile.speeds)
    x_crit = np.cumsum([0.0] + list(spec.profile.speeds)) / c_total
    omega_crit = math.pi / 2.0 * c_total
    obs_odd = np.zeros(n)
    obs_even = np.full(n, -np.inf)
    for ell in range(1, n + 1):
        obs_odd[ell - 1] = float(log_mod[ell - 1] - log_mod[n])
        # entries whose Im factor vanishes in exact arithmetic show up as
        # rounding noise here; report them as exactly absent
        if im_log[ell] - log_mod[ell] > math.log(1e-12):
            obs_even[ell - 1] = float(im_log[ell] - log_mod[n])
    log_factors = np.array([
        math.log(1.0 + q[k - 1]) - math.log(1.0 - (-1.0) ** (k - 1) * q[k - 1])
        for k in range(1, n + 1)])
    pred_odd = np.zeros(n)
    pred_even = np.full(n, -np.inf)
    for ell in range(1, n + 1):
        tail = float(np.sum(log_factors[ell - 1:]))
        pred_odd[ell - 1] = tail
        im = abs((cmath.exp(1j * omega_crit * x_crit[ell]
                            / spec.speed(ell + 1)) * 1j ** ell).imag)
        if im > 1e-12:
            pred_even[ell - 1] = math.log(im) + float(
                np.sum(log_factors[ell:]))
    return GrowthLaw(
        predicted_odd_log=pred_odd,
        observed_odd_log=obs_odd,
        predicted_even_log=pred_even,
        observed_even_log=obs_even,
    )


@dataclass
class WhisperResult:
    """Near-resonant single-interface mode found by a frequency scan."""

    omega_star: float
    min_wronskian: float
    a2: complex
    b1: complex
    b2: complex


def single_interface_wronskian(m: int, c1: float, c2: float, x1: float,
                               omega: float) -> complex:
    """Interface Wronskian at (each) omega; its near-zeros mark resonances."""
    pair = FundamentalPair(3, m)
    return wronskian_w(pair, 1, 2, c2, c1, omega * x1)


def whispering_gallery_scan(m: int, c1: float, c2: float, x1: float,
                            omega_window: tuple, samples: int = 400,
                            g: complex = 1.0 + 0.0j) -> WhisperResult:
    """Minimise the interface Wronskian modulus over a real frequency grid.

    Returns the minimising frequency and the explicit one-interface
    coefficients there.  Raises ValueError for fewer than 3 samples or a
    window bound that is not positive and finite, and WindowTooCoarse if
    the minimum sits on the window edge (the window must bracket the dip).
    """
    if not (0.0 < c1 < c2):
        raise ValueError("need 0 < c1 < c2")
    if not 0.0 < x1 < 1.0:
        raise ValueError("interface must be interior")
    if samples < 3:
        raise ValueError("need at least 3 samples")
    lo, hi = omega_window
    if not all(0.0 < w < math.inf for w in (lo, hi)):
        raise ValueError("omega window bounds must be positive and finite")
    grid = np.linspace(lo, hi, samples)
    mags = np.abs(single_interface_wronskian(m, c1, c2, x1, grid))
    k = int(np.argmin(mags))
    if k in (0, len(grid) - 1):
        raise WindowTooCoarse(
            f"minimum at window boundary omega={grid[k]:.6g}")
    omega_star = float(grid[k])
    pair = FundamentalPair(3, m)
    z1 = omega_star * x1
    w12 = wronskian_w(pair, 1, 2, c2, c1, z1)
    w22 = wronskian_w(pair, 2, 2, c2, c1, z1)
    h_out = spherical_hankel_h1(m, omega_star / c2)
    a2 = 1j * omega_star / c2 * h_out * (w22 / w12) * g
    b1 = h_out / (x1 ** 2 * omega_star * w12) * g
    b2 = 1j * omega_star / c2 * h_out * g
    # the scalar |w12|: the batch value can differ from it in the last bit
    return WhisperResult(omega_star=omega_star, min_wronskian=float(abs(w12)),
                         a2=a2, b1=b1, b2=b2)
