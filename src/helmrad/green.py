"""Recursive representation of the last Green's-operator column.

The inverse of the normalised interface matrix is never formed; its last
column is expressed through a complex scalar recursion (beta below).  The
recursion is real-linear in (beta, conj beta), so it can be advanced on the
unit circle while the modulus is accumulated in log space — configurations
with strong localisation reach moduli like 3^(n/2), which overflow doubles
long before the recursion itself loses accuracy.

The recursion runs in extended precision and carries a running first-order
error bound through each step's Jacobian.  When the bound exceeds a
relative error of 1e-13, or the extraction of the imaginary parts loses
more than six digits, the whole sequence is rerun once in mpmath, at
digits sized from the summed per-step cancellation.  Still open: that sum
is estimated in extended precision and cannot see losses past about 19
digits, so high modes can come back wrong; the Im-loss weight ignores the
size of the field term an entry feeds; and no rerun is checked against a
second, higher precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import CoefficientVector, rhs_scale
from .problem import ProblemSpec
from .specfun import EXTENDED, FundamentalPair, Tier, mp_tier

#: |beta_n| below this is treated as a resonance of the denominator
NEAR_RESONANCE_FLOOR = 1e-250

#: agreement required between the general and the d=3, m=0 recursion paths
_M0_CHECK_TOL = 1e-12

# The recursion step u + q*conj(u) can cancel to ~1e-12 of its operands at
# near-critical interfaces; the chain therefore runs in extended precision
# (the problem data are exact doubles, so the extra bits are all signal).
_EXT = np.longdouble
_CEXT = np.clongdouble
_IU = _CEXT(1j)
_cexp = EXTENDED.cexp


class GammaDegenerate(Exception):
    """The reflection normaliser gamma-plus vanished (invalid profile)."""


class NearResonantDenominator(Exception):
    """|beta_n| fell below the representable floor."""

    def __init__(self, log_magnitude: float):
        self.log_magnitude = log_magnitude
        super().__init__(
            f"denominator near resonance: log10|beta_n| = "
            f"{log_magnitude / math.log(10.0):.3f}")


class _Interface(NamedTuple):
    gt_terms: tuple   # the two products whose difference is gt_plus
    gt_plus: object
    gt_minus: object
    g_plus: object
    g_minus: object
    q: object
    w12: object       # w^{1,2} of the right-hand layer at the jump point


def _interface(tier: Tier, spec: ProblemSpec, omega, x, ell: int
               ) -> _Interface:
    """Reflection quantities and w^{1,2} at interface ell in ``tier``.

    ``omega`` and the jump points ``x`` are tier numbers.
    """
    pair = FundamentalPair(spec.dimension, spec.mode)
    c_l, c_r = tier.real(spec.speed(ell)), tier.real(spec.speed(ell + 1))
    z = omega * x[ell]
    f1l, df1l, _, _ = tier.pair_eval(pair, z / c_l)
    f1r, df1r, f2r, df2r = tier.pair_eval(pair, z / c_r)
    t1 = f1r * df1l.conjugate() / c_l
    t2 = df1r * f1l.conjugate() / c_r
    gt_plus = t1 - t2
    gt_minus = df1l * f1r / c_l - df1r * f1l / c_r
    if abs(gt_plus) < 1e-300:
        raise GammaDegenerate(f"gamma-plus vanished at interface {ell}")
    g_plus = 1j * tier.cexp(z / c_l - z / c_r) * gt_plus
    g_minus = 1j * tier.cexp(-z / c_l - z / c_r) * gt_minus
    return _Interface((t1, t2), gt_plus, gt_minus, g_plus, g_minus,
                      g_minus / g_plus,
                      w12=f1r * df2r / c_r - df1r * f2r / c_r)


@dataclass(frozen=True)
class BetaSequence:
    """Both scalar recursions in log-modulus + unit-phase form.

    ``log_moduli[ell]`` and ``phases[ell]`` describe beta_ell (the
    phase-adjusted sequence entering the Green-column formulas);
    ``tilde_log_moduli``/``tilde_phases`` the companion sequence that feeds
    the determinant identities.
    """

    n: int
    log_moduli: np.ndarray      # (n+1,)
    phases: np.ndarray          # (n+1,) complex, unit modulus
    tilde_log_moduli: np.ndarray
    tilde_phases: np.ndarray
    q: np.ndarray               # (n,) relative reflection strengths
    # log magnitude and sign of Im(e^{i z_ell / c_{ell+1}} beta_ell): the
    # imaginary part can sit many digits below |beta_ell|, so it is
    # extracted at the working precision of the recursion itself
    rot_im_log: np.ndarray
    rot_im_sign: np.ndarray
    #: "extended", or "mp@<digits>" for an arbitrary-precision rerun at
    #: that many working decimal digits
    tier: str = "extended"
    #: decimal digits lost by the extended recursion to first order: its
    #: relative error is at most eps * 10**error_bound_digits, with eps the
    #: rounding unit of np.longdouble (the estimate that decided the tier)
    error_bound_digits: float = 0.0

    @property
    def beta(self) -> np.ndarray:
        """beta_0..beta_n as complex values (may overflow for huge n)."""
        return np.exp(self.log_moduli) * self.phases

    @property
    def beta_tilde(self) -> np.ndarray:
        return np.exp(self.tilde_log_moduli) * self.tilde_phases


def _advance(tier: Tier, log_mod, step_value):
    """Fold a recursion step (applied to a unit phase) into log form."""
    mag = abs(step_value)
    if mag == 0 and tier.folds_zero_step:
        return tier.real(-math.inf), tier.real(1) + 0j
    return log_mod + tier.log(mag), step_value / mag


def _recursion(tier: Tier, spec: ProblemSpec, omega, x):
    """Run both recursions in ``tier``; ``omega`` and ``x`` are tier numbers.

    Returns lists (log_mod, phases, tilde_log, tilde_phases, interfaces,
    cores) and the running first-order error bound of (log_mod, phases) in
    units of the tier's rounding unit.  A phase error e of beta_{ell-1}
    moves the step's core u + q*conj(u) by i*e*(u - q*conj(u)), so with the
    step's Jacobian J = (u - q*conj(u)) / (u + q*conj(u)) it reaches
    beta_ell as Re J * e in phase and -Im J * e in log-modulus (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3).  Each
    step adds its local rounding: the core cancelling against its operands,
    amplified by the cancellation inside gamma-plus, and the rounding of
    the layer phase delta carried through J.  The bound is the largest
    phase plus log-modulus error over the steps; an exact zero step is
    skipped.  The per-interface quantities and the cores are handed back
    for sizing an escalation.
    """
    log_mod, phases = [tier.real(0)], [tier.real(1) + 0j]
    tlog, tphases = [tier.real(0)], [tier.real(1) + 0j]
    interfaces, cores = [], []
    phase_err = log_err = bound = tier.real(0)
    for ell in range(1, spec.n + 1):
        it = _interface(tier, spec, omega, x, ell)
        c_l = tier.real(spec.speed(ell))
        delta = omega * (x[ell] - x[ell - 1]) / c_l
        u = tier.cexp(-delta) * phases[-1]
        qu = it.q * u.conjugate()
        core = u + qu
        interfaces.append(it)
        cores.append(core)
        if core != 0:
            jac = (u - qu) / core
            local = (1 + abs(it.q)) / abs(core) * (
                1 + max(map(abs, it.gt_terms)) / abs(it.gt_plus)) \
                + abs(jac) * delta
            log_err += abs(jac.imag) * phase_err + local
            phase_err = abs(jac.real) * phase_err + local
            bound = max(bound, phase_err + log_err)
        step = it.g_plus / (2j * it.w12) * core
        lm, ph = _advance(tier, log_mod[-1], step)
        log_mod.append(lm)
        phases.append(ph)
        tstep = it.gt_plus / 2 * (
            tphases[-1] - tier.real((-1.0) ** ell) * (it.gt_minus / it.gt_plus)
            * tphases[-1].conjugate())
        lm, ph = _advance(tier, tlog[-1], tstep)
        tlog.append(lm)
        tphases.append(ph)
    return log_mod, phases, tlog, tphases, interfaces, cores, bound


def _rotated_im(tier: Tier, spec: ProblemSpec, omega, x, log_mod, phases):
    """Im(e^{i z_ell/c_{ell+1}} beta_ell) as (log magnitude, sign) lists."""
    im_log, im_sign = [tier.real(-math.inf)], [0.0]
    for ell in range(1, spec.n + 1):
        im = (tier.cexp(omega * x[ell] / tier.real(spec.speed(ell + 1)))
              * phases[ell]).imag
        if im == 0:
            im_log.append(tier.real(-math.inf))
            im_sign.append(0.0)
        else:
            im_log.append(tier.log(abs(im)) + log_mod[ell])
            im_sign.append(1.0 if im > 0 else -1.0)
    return im_log, im_sign


#: escalate to arbitrary precision when the running error bound of the
#: extended recursion exceeds this relative error
_ERROR_LIMIT = 1e-13
_EPS = np.finfo(_EXT).eps

#: escalate beyond this many decimal digits lost to the Im extraction;
#: extended precision carries ~19, so this leaves a dozen good digits
_LOSS_LIMIT = 6.0


def _to_longdouble(v) -> np.longdouble:
    import mpmath as mp
    return np.longdouble(mp.nstr(v, 25))


def _to_clongdouble(v) -> np.clongdouble:
    return np.clongdouble(_to_longdouble(v.real)) \
        + _IU * np.clongdouble(_to_longdouble(v.imag))


def _beta_mp(spec: ProblemSpec, digits: float, data=None):
    """Arbitrary-precision rerun of both recursions in log/phase form.

    ``data``, when given, is a callable ``spec -> (omega, jump_points)``
    evaluated inside the high-precision context; it lets callers substitute
    idealised problem data (e.g. exactly-critical phases) for the
    double-rounded values stored on the spec.
    """
    import mpmath as mp
    tier = mp_tier()
    with mp.workdps(_mp_dps(digits)):
        if data is None:
            omega = mp.mpf(spec.omega)
            x = [mp.mpf(v) for v in spec.profile.jump_points]
        else:
            omega, x = data(spec)
        log_mod, phases, tlog, tphases = _recursion(tier, spec, omega, x)[:4]
        im_log, im_sign = _rotated_im(tier, spec, omega, x, log_mod, phases)
        return (np.array([_to_longdouble(v) for v in log_mod], dtype=_EXT),
                np.array([_to_clongdouble(v) for v in phases], dtype=_CEXT),
                np.array([_to_longdouble(v) for v in tlog], dtype=_EXT),
                np.array([_to_clongdouble(v) for v in tphases], dtype=_CEXT),
                np.array([_to_longdouble(v) for v in im_log], dtype=_EXT),
                np.array(im_sign))


def _check_m0(spec: ProblemSpec, omega, x, log_mod, phases):
    """Assert that the jump-ratio step (d=3, m=0) reproduces the sequence."""
    for ell in range(1, spec.n + 1):
        c_l, c_r = _EXT(spec.speed(ell)), _EXT(spec.speed(ell + 1))
        u = _cexp(-(omega * (x[ell] - x[ell - 1]) / c_l)) * phases[ell - 1]
        q0 = (c_r - c_l) / (c_r + c_l)
        step0 = (u + q0 * np.conj(u)) / (1 + q0)
        dphase = abs(step0 / abs(step0) - phases[ell]) if step0 != 0 else 0
        dlog = abs(np.log(abs(step0)) + log_mod[ell - 1] - log_mod[ell])
        if dphase > _M0_CHECK_TOL or dlog > _M0_CHECK_TOL:
            raise AssertionError(
                f"m=0 recursion paths diverged at ell={ell}: "
                f"phase {dphase:.3e}, log-modulus {dlog:.3e}")


def _im_loss(n: int, log_mod, im_log, im_sign) -> float:
    """Decimal digits the column entries would lose to the Im extraction.

    The imaginary part can cancel far below the unit-modulus rotated phase,
    and the loss is weighted by how close the affected entry sits to the
    column's largest one (cancellation inside an entry that is itself
    negligible cannot surface in the assembled coefficients).
    """
    top = max(float(np.max(log_mod[:n], initial=-np.inf)),
              float(np.max(im_log[1:], initial=-np.inf)))
    im_loss = 0.0
    for ell in range(1, n + 1):
        if im_sign[ell] != 0.0:
            depth = float(log_mod[ell] - im_log[ell]) \
                - max(0.0, top - float(im_log[ell]))
            im_loss = max(im_loss, depth / math.log(10.0))
        elif np.isfinite(log_mod[ell]):
            # an exact extended-precision zero may mask a tiny true value
            im_loss = max(im_loss, 19.0 - max(
                0.0, top - float(log_mod[ell])) / math.log(10.0))
    return im_loss


def _summed_loss(interfaces, cores) -> float:
    """Decimal digits cancelled inside gamma-plus and in the interference
    steps, summed over the steps; sizes an arbitrary-precision rerun."""
    loss = 0.0
    for it, core in zip(interfaces, cores):
        if abs(core) > 0.0:
            loss += max(0.0, float(np.log10(
                max(map(abs, it.gt_terms)) / abs(it.gt_plus)))) + max(
                0.0, float(np.log10((1.0 + abs(it.q)) / abs(core))))
    return loss


def _mp_dps(digits: float) -> int:
    """Working decimal digits of an arbitrary-precision rerun."""
    return 30 + int(math.ceil(digits))


def beta_sequence(spec: ProblemSpec) -> BetaSequence:
    """Run both recursions; for d=3, m=0 the simplified form is cross-checked.

    The chain runs in extended precision and carries a running first-order
    error bound through each step's Jacobian (see ``_recursion``).  The
    whole sequence is recomputed in arbitrary precision when that bound
    exceeds a relative error of 1e-13, or when the Im extraction loses
    more than ``_LOSS_LIMIT`` digits.  The rerun is sized from the summed
    per-step cancellation digits plus the Im loss, 1.2 * (sum + Im loss) +
    10, and runs once; nothing checks it at a second precision.  The
    bound's rounding unit comes from ``np.finfo``, so where ``np.longdouble``
    is plain double the same test escalates at its own limit.

    The d=3, m=0 cross-check asserts that the general (Wronskian-built)
    step and the jump-ratio step agree to 1e-12 in phase and log-modulus.
    """
    n = spec.n
    omega = _EXT(spec.omega)
    x = [_EXT(v) for v in spec.profile.jump_points]
    log_mod, phases, tlog, tphases, interfaces, cores, bound = _recursion(
        EXTENDED, spec, omega, x)
    log_mod = np.array(log_mod, dtype=_EXT)
    phases = np.array(phases, dtype=_CEXT)
    tlog = np.array(tlog, dtype=_EXT)
    tphases = np.array(tphases, dtype=_CEXT)
    if spec.dimension == 3 and spec.mode == 0:
        _check_m0(spec, omega, x, log_mod, phases)
    im_log, im_sign = _rotated_im(EXTENDED, spec, omega, x, log_mod, phases)
    im_log = np.array(im_log, dtype=_EXT)
    im_sign = np.array(im_sign)
    im_loss = _im_loss(n, log_mod, im_log, im_sign)
    tier = "extended"
    if _EPS * bound > _ERROR_LIMIT or im_loss > _LOSS_LIMIT:
        digits = 1.2 * (_summed_loss(interfaces, cores) + im_loss) + 10.0
        (log_mod, phases, tlog, tphases,
         im_log, im_sign) = _beta_mp(spec, digits)
        tier = f"mp@{_mp_dps(digits)}"
    return BetaSequence(n=n, log_moduli=log_mod, phases=phases,
                        tilde_log_moduli=tlog, tilde_phases=tphases,
                        q=np.array([complex(it.q) for it in interfaces],
                                   dtype=complex),
                        rot_im_log=im_log, rot_im_sign=im_sign, tier=tier,
                        error_bound_digits=float(np.log10(max(bound, 1))))


@dataclass(frozen=True)
class GreenColumn:
    """Last column of the Green's operator, odd/even rows separated.

    ``odd_entries[ell-1]`` is row 2*ell-1 (the B_ell slot) and
    ``even_entries[ell-1]`` row 2*ell (the A_{ell+1} slot).  ``odd_log_mag``
    and ``even_log_mag`` carry the magnitudes in log space for
    configurations whose entries overflow doubles.
    """

    odd_entries: np.ndarray
    even_entries: np.ndarray
    odd_log_mag: np.ndarray
    even_log_mag: np.ndarray

    @property
    def n(self) -> int:
        return len(self.odd_entries)

    def max_abs(self) -> float:
        return float(np.exp(max(np.max(self.odd_log_mag, initial=-np.inf),
                                np.max(self.even_log_mag, initial=-np.inf))))


def green_last_column(spec: ProblemSpec, beta: BetaSequence | None = None,
                      resonance_floor: float = NEAR_RESONANCE_FLOOR
                      ) -> GreenColumn:
    """Evaluate the closed-form last-column entries from the beta sequence."""
    if beta is None:
        beta = beta_sequence(spec)
    n = beta.n
    omega = _EXT(spec.omega)
    x = [_EXT(v) for v in spec.profile.jump_points]
    if beta.log_moduli[n] < math.log(resonance_floor):
        raise NearResonantDenominator(float(beta.log_moduli[n]))
    denom_phase = _cexp(omega * x[n] / _EXT(spec.speed(n + 1))) \
        * beta.phases[n]
    denom_log = beta.log_moduli[n]
    odd = np.zeros(n, dtype=complex)
    even = np.zeros(n, dtype=complex)
    odd_log = np.full(n, -np.inf)
    even_log = np.full(n, -np.inf)
    for ell in range(1, n + 1):
        num_phase = _cexp(omega * x[ell - 1] / _EXT(spec.speed(ell))) \
            * beta.phases[ell - 1]
        odd_log[ell - 1] = float(beta.log_moduli[ell - 1] - denom_log)
        odd[ell - 1] = complex(num_phase / denom_phase) * math.exp(
            min(odd_log[ell - 1], 700.0))
        im_log, sign = beta.rot_im_log[ell], beta.rot_im_sign[ell]
        if sign != 0.0:
            even_log[ell - 1] = float(im_log - denom_log)
            # the scalar products feeding the companion sequence are purely
            # imaginary, so conjugation contributes the factor -i here
            even[ell - 1] = complex(-_IU * _EXT(sign) / denom_phase) \
                * math.exp(min(even_log[ell - 1], 700.0))
    return GreenColumn(odd_entries=odd, even_entries=even,
                       odd_log_mag=odd_log, even_log_mag=even_log)


def layer_coefficients(spec: ProblemSpec,
                       column: GreenColumn | None = None) -> CoefficientVector:
    """Recover (A_j, B_j) by scaling the Green column with the boundary data.

    For d=3, m=0 the outer coefficient satisfies |B_N| = |g| exactly (the
    scaled outgoing solution has unit modulus on the boundary); this is
    asserted as a cheap sanity check.
    """
    if column is None:
        column = green_last_column(spec)
    scale = rhs_scale(spec)
    n = column.n
    entries = np.zeros(2 * n, dtype=complex)
    entries[0::2] = column.odd_entries * scale    # B_1..B_n
    entries[1::2] = column.even_entries * scale   # A_2..A_{n+1}
    if spec.dimension == 3 and spec.mode == 0:
        g_abs = abs(complex(spec.boundary_coefficient))
        if abs(abs(scale) - g_abs) > 1e-12 * max(1.0, g_abs):
            raise AssertionError("outer coefficient magnitude drifted from |g|")
    return CoefficientVector(entries=entries, b_last=scale)
