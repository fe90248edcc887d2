"""Recursive representation of the last Green's-operator column.

The inverse of the normalised interface matrix is never formed; its last
column is expressed through a complex scalar recursion (beta below).  The
recursion is real-linear in (beta, conj beta), so it can be advanced on the
unit circle while the modulus is accumulated in log space — configurations
with strong localisation reach moduli like 3^(n/2), which overflow doubles
long before the recursion itself loses accuracy.

Everything about the interfaces that does not depend on beta (reflection
strengths, Wronskians, layer phases, rotations, the bound's per-interface
factors) is formed first, as one array expression over all n interfaces
from one pair evaluation (``assembly.interface_pair``); the loop over the
interfaces then does only the scalar work that depends on the previous
beta.  The same body runs in both precision tiers.

The recursion runs in extended precision and carries a running first-order
error bound through each step's Jacobian.  One rule judges a run in either
precision: the bound in the tier's rounding unit, amplified by the digits
the extraction of the imaginary parts loses, must stay within a relative
1e-13 (``ERROR_LIMIT``).  In ``beta_sequence`` an extended run past it is
rerun once in mpmath, at digits sized from the summed per-step
cancellation; an mpmath run past it raises ZeroDivisionError.  Still open:
the estimate is first order and misses some rounding terms, and the
Im-loss weight ignores the size of the field term an entry feeds, so a few
high modes still come back wrong without an error from this route
(``beta_sequence``, ``green_last_column``, ``layer_coefficients``), which
serves only ``helmrad verify --suite oracle``, criterion 1 and the
stability certificates.

``evaluate.solve``, the one solve behind the library, ``helmrad solve`` and
``helmrad scan``, makes no rerun: it takes ``extended_run`` alone, accepts
its answer only when the estimate passes and the coefficients' interface
backward error is within 1e-9, and otherwise returns the banded route's
answer with its column (``banded_column``).  Both read its one pair
evaluation, at the 2n arguments z/c and kappa = omega/c_N: the recursion,
the backward error and the blocks the interface columns, B_N the kappa
column and the double-range envelope those at the layer ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .assembly import (CoefficientVector, InterfacePair, b_last_extended,
                       coefficient_vector, interface_pair)
from .problem import ProblemSpec
from .specfun import EXTENDED, Tier, mp_tier

#: |beta_n| below this is treated as a resonance of the denominator
NEAR_RESONANCE_FLOOR = 1e-250

# The recursion step u + q*conj(u) can cancel to ~1e-12 of its operands at
# near-critical interfaces; the chain therefore runs in extended precision
# (the problem data are exact doubles, so the extra bits are all signal).
_EXT = np.longdouble
_CEXT = np.clongdouble
_IU = _CEXT(1j)
_NEG_IU = -_IU


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
    """Per-interface quantities, each an array over ell = 1..n."""

    gt_plus: np.ndarray
    g_plus: np.ndarray
    q: np.ndarray       # relative reflection strength g_minus / g_plus
    w12: np.ndarray     # w^{1,2} of the right-hand layer at the jump point
    cancel: np.ndarray  # the larger product inside gamma-plus over |gt_plus|
    pair: InterfacePair  # the pair values all of the above come from


def _interfaces(tier: Tier, at: InterfacePair) -> _Interface:
    """Reflection quantities and w^{1,2} at every interface in ``tier``,
    from the pair values ``at``.  Raises GammaDegenerate naming the first
    interface whose gamma-plus vanishes, before anything is divided by it.
    """
    c, args, values = at
    n = len(c) - 1
    f1, df1, f2, df2 = values[:4, :2 * n]
    cl, cr, zl, zr = c[:-1], c[1:], args[:n], args[n:2 * n]
    f1l, df1l, f1r, df1r = f1[:n], df1[:n], f1[n:], df1[n:]
    t1 = f1r * df1l.conjugate() / cl
    t2 = df1r * f1l.conjugate() / cr
    gt_plus = t1 - t2
    size = np.abs(gt_plus)
    vanished = size < 1e-300
    if np.count_nonzero(vanished):
        raise GammaDegenerate(
            f"gamma-plus vanished at interface {np.argmax(vanished) + 1}")
    gt_minus = df1l * f1r / cl - df1r * f1l / cr
    g_plus = 1j * tier.cexp(zl - zr) * gt_plus
    g_minus = 1j * tier.cexp(-zl - zr) * gt_minus
    return _Interface(
        gt_plus, g_plus, g_minus / g_plus,
        w12=f1r * df2[n:] / cr - df1r * f2[n:] / cr,
        cancel=np.maximum(np.abs(t1), np.abs(t2)) / size, pair=at)


@dataclass(frozen=True)
class BetaSequence:
    """The scalar recursion beta_0..beta_n in log-modulus + unit-phase form.

    ``log_moduli[ell]`` and ``phases[ell]`` describe beta_ell, the
    phase-adjusted sequence entering the Green-column formulas.
    """

    n: int
    log_moduli: np.ndarray      # (n+1,)
    phases: np.ndarray          # (n+1,) complex, unit modulus
    # log magnitude and sign of Im(e^{i z_ell / c_{ell+1}} beta_ell): the
    # imaginary part can sit many digits below |beta_ell|, so it is
    # extracted at the working precision of the recursion itself
    rot_im_log: np.ndarray
    rot_im_sign: np.ndarray
    #: "extended", or "mp@<digits>" for an arbitrary-precision rerun at
    #: that many working decimal digits
    tier: str = "extended"
    #: decimal digits the extended recursion lost, a first-order estimate
    #: that decided the tier: its relative error is about
    #: eps * 10**error_bound_digits, eps the rounding unit of np.longdouble.
    #: Not a bound: no term covers the rounding of gamma-plus's phase factor
    #: exp(i(z/c_l - z/c_r)) or of the pair evaluations at z/c, both growing
    #: with the argument.  ``_beta_mp`` alone records the rerun's estimate.
    error_bound_digits: float = 0.0
    pair: InterfacePair | None = None   # the extended run's; see the module


class _Run(NamedTuple):
    """One pass of the recursion: lists of tier numbers per ell = 0..n, and
    the interfaces and cores that size an escalation."""

    log_mod: list
    phases: list
    im_log: list
    im_sign: list
    interfaces: _Interface
    cores: list
    bound: object       # running error bound, in rounding units


def _recursion(tier: Tier, spec: ProblemSpec, omega, x, shift=False) -> _Run:
    """Run the recursion in ``tier``; ``omega`` and ``x`` are tier numbers.

    Everything that does not depend on beta is one array expression over
    ell = 1..n, formed before the loop: the interface quantities, the
    layer phases delta and e^{-i delta}, the step factor g+/(2i w^{1,2}),
    the rotation e^{i z_ell/c_{ell+1}} and the bound's per-interface
    factors.  The loop keeps what depends on beta_{ell-1}: the step and
    its core, the Jacobian, the running bound, the advance in log form and
    the Im extraction.  Both tiers run this one body, on np.longdouble
    arrays or on object arrays of mpmath numbers; with ``shift`` the pair
    has the shifted orders.

    Each step extracts Im(e^{i z_ell/c_{ell+1}} beta_ell) and carries
    a running first-order error bound of (log_mod, phases) in units of the
    tier's rounding unit.  A phase error e of beta_{ell-1} moves the step's
    core u + q*conj(u) by i*e*(u - q*conj(u)), so with the step's Jacobian
    J = (u - q*conj(u)) / (u + q*conj(u)) it reaches beta_ell as Re J * e
    in phase and -Im J * e in log-modulus (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2002, ch. 3).  Each step adds its local
    rounding: the core cancelling against its operands, amplified by the
    cancellation inside gamma-plus, and the rounding of the layer phase
    delta carried through J.  The bound is the largest phase plus
    log-modulus error over the steps; a core that cancels to exactly zero
    has lost every digit and makes it infinite.
    """
    x = np.asarray(x)
    n = spec.n
    it = _interfaces(tier, interface_pair(tier, spec, omega, x, shift))
    c, args = it.pair.speeds, it.pair.args
    delta = omega * (x[1:n + 1] - x[:n]) / c[:-1]
    per_step = zip(tier.cexp(-delta), it.q, 1 + np.abs(it.q), 1 + it.cancel,
                   delta, it.g_plus / (2j * it.w12), tier.cexp(args[n:2 * n]))
    none, one = tier.real(-math.inf), tier.real(1) + 0j
    log_mod, phases = [tier.real(0)], [one]
    im_log, im_sign = [none], [0.0]
    cores = []
    lm, ph = log_mod[0], one
    phase_err = log_err = bound = tier.real(0)
    for turn, q, reflect, gamma, d, factor, rot in per_step:
        u = turn * ph
        qu = q * np.conjugate(u)
        core = u + qu
        cores.append(core)
        if core == 0:
            bound = tier.real(math.inf)
        else:
            jac = (u - qu) / core
            local = reflect / abs(core) * gamma + abs(jac) * d
            log_err += abs(jac.imag) * phase_err + local
            phase_err = abs(jac.real) * phase_err + local
            if phase_err + log_err > bound:
                bound = phase_err + log_err
        # the step, applied to a unit phase, folded into log form
        step = factor * core
        mag = abs(step)
        lm, ph = (lm + tier.log(mag), step / mag) if mag != 0 else \
            (none, one)
        log_mod.append(lm)
        phases.append(ph)
        im = (rot * ph).imag
        if im == 0:
            im_log.append(none)
            im_sign.append(0.0)
        else:
            im_log.append(tier.log(abs(im)) + lm)
            im_sign.append(1.0 if im > 0 else -1.0)
    return _Run(log_mod, phases, im_log, im_sign, it, cores, bound)


def _sequence(run: _Run, tier: str, digits: float, real=None, cplx=None
              ) -> BetaSequence:
    """``run`` as a record; ``real`` and ``cplx``, given for an mpmath
    run, convert its numbers to extended precision and drop its pair."""
    if real is not None:
        run = run._replace(log_mod=[real(v) for v in run.log_mod],
                           phases=[cplx(v) for v in run.phases],
                           im_log=[real(v) for v in run.im_log])
    return BetaSequence(
        n=len(run.log_mod) - 1,
        log_moduli=np.array(run.log_mod, dtype=_EXT),
        phases=np.array(run.phases, dtype=_CEXT),
        rot_im_log=np.array(run.im_log, dtype=_EXT),
        rot_im_sign=np.array(run.im_sign), tier=tier,
        error_bound_digits=digits, pair=None if real else run.interfaces.pair)


#: relative error estimate past which the extended recursion escalates
#: to arbitrary precision, and the arbitrary-precision rerun is refused
ERROR_LIMIT = 1e-13
_EPS = np.finfo(_EXT).eps
_LN10 = math.log(10.0)


def _to_longdouble(v) -> np.longdouble:
    import mpmath as mp
    return np.longdouble(mp.nstr(v, 25))


def _to_clongdouble(v) -> np.clongdouble:
    return np.clongdouble(_to_longdouble(v.real)) \
        + _IU * np.clongdouble(_to_longdouble(v.imag))


def _beta_mp(spec: ProblemSpec, digits: float, data=None) -> BetaSequence:
    """Arbitrary-precision rerun of the recursion at ``_mp_dps(digits)``
    working digits.  It raises ZeroDivisionError instead of returning when
    the run's own error estimate (``_error``, in mpmath's rounding unit)
    exceeds ``ERROR_LIMIT``; a step that cancels to exactly zero makes
    the estimate infinite.

    ``data``, when given, is a callable ``spec -> (omega, jump_points)``
    evaluated inside the high-precision context; it lets callers substitute
    idealised problem data (e.g. exactly-critical phases) for the
    double-rounded values stored on the spec.
    """
    import mpmath as mp
    with mp.workdps(_mp_dps(digits)):
        if data is None:
            omega = mp.mpf(spec.omega)
            x = [mp.mpf(v) for v in spec.profile.jump_points]
        else:
            omega, x = data(spec)
        run = _recursion(mp_tier(), spec, omega, x)
        error = _error(mp_tier(), run, mp.eps)
        if error > ERROR_LIMIT:
            raise ZeroDivisionError(
                f"arbitrary-precision rerun at {mp.mp.dps} digits: estimated "
                f"relative error {mp.nstr(error, 3)} exceeds "
                f"{ERROR_LIMIT:g}")
        return _sequence(run, f"mp@{mp.mp.dps}",
                         float(mp.log10(max(run.bound, 1))),
                         _to_longdouble, _to_clongdouble)


def _im_loss(run: _Run, digits: float) -> float:
    """Decimal digits the column entries would lose to the Im extraction.

    The imaginary part can cancel far below the unit-modulus rotated phase,
    and the loss is weighted by how close the affected entry sits to the
    column's largest one (cancellation inside an entry that is itself
    negligible cannot surface in the assembled coefficients).  An exact
    zero may mask a tiny true value and loses all ``digits`` of the tier.
    Entries after an exact zero step are skipped: its bound is infinite.
    """
    log_mod, im_log = run.log_mod, run.im_log
    top = float(max(log_mod[:-1] + im_log[1:], default=-math.inf))
    im_loss = 0.0
    for lm, il, sign in zip(log_mod[1:], im_log[1:], run.im_sign[1:]):
        if not math.isfinite(lm):
            continue
        if sign != 0.0:
            loss = (float(lm - il) - max(0.0, top - float(il))) / _LN10
        else:
            loss = digits - max(0.0, top - float(lm)) / _LN10
        if loss > im_loss:
            im_loss = loss
    return im_loss


def _error(tier: Tier, run: _Run, eps):
    """Relative error estimate of the column from ``run``: its bound in the
    tier's rounding unit ``eps``, times 10 to the Im-extraction loss.  It is
    a tier number; at hundreds of mpmath digits a float would underflow."""
    loss = _im_loss(run, -float(tier.log10(eps)))
    return eps * run.bound * tier.real(10) ** loss


def _summed_loss(interfaces: _Interface, cores) -> float:
    """Decimal digits cancelled inside gamma-plus and in the interference
    steps, summed left to right over the steps; sizes an
    arbitrary-precision rerun."""
    loss = 0.0
    for cancel, q, core in zip(interfaces.cancel, interfaces.q, cores):
        if abs(core) > 0.0:
            loss += max(0.0, float(np.log10(cancel))) + max(
                0.0, float(np.log10((1.0 + abs(q)) / abs(core))))
    return loss


def _mp_dps(digits: float) -> int:
    """Working decimal digits of an arbitrary-precision rerun."""
    return 30 + int(math.ceil(digits))


def extended_run(spec: ProblemSpec, shift=False
                 ) -> tuple[BetaSequence, _Run, object]:
    """The recursion in extended precision alone, with no rerun: its
    sequence, the run itself and its error estimate ``_error``.

    Where the estimate is within ``ERROR_LIMIT`` the sequence is
    ``beta_sequence``'s answer.  Its ``pair`` (the 2n interface arguments
    and kappa) gives ``evaluate.solve`` B_N, the interface backward error
    and a fallback's banded blocks, their shifted orders with ``shift``.
    """
    run = _recursion(EXTENDED, spec, _EXT(spec.omega),
                     _EXT(np.asarray(spec.profile.jump_points)), shift)
    return (_sequence(run, "extended", float(np.log10(max(run.bound, 1)))),
            run, _error(EXTENDED, run, _EPS))


def beta_sequence(spec: ProblemSpec) -> BetaSequence:
    """Run the recursion in extended precision, rerunning once in mpmath.

    The rerun happens when the extended estimate ``_error`` exceeds
    ``ERROR_LIMIT``.  Its working precision is ``_mp_dps`` of
    1.2 * (summed per-step cancellation digits + Im loss) + 10 digits, and
    it is judged by the same rule.  The estimate is first order, misses
    some rounding terms (see ``BetaSequence.error_bound_digits``) and weighs
    the Im loss by the entry's place in the column, not by the field term
    it feeds: specs 1 and 20 of the high-mode test population still come
    back wrong without an error.  The rounding unit comes from ``np.finfo``,
    so where ``np.longdouble`` is plain double the rule escalates there.
    """
    beta, run, error = extended_run(spec)
    if error > ERROR_LIMIT:
        digits = 1.2 * (_summed_loss(run.interfaces, run.cores)
                        + _im_loss(run, -float(np.log10(_EPS)))) + 10.0
        return replace(_beta_mp(spec, digits), pair=beta.pair,
                       error_bound_digits=beta.error_bound_digits)
    return beta


@dataclass(frozen=True)
class GreenColumn:
    """Last column of the Green's operator, odd/even rows separated.

    ``odd_entries[ell-1]`` is row 2*ell-1 (the B_ell slot) and
    ``even_entries[ell-1]`` row 2*ell (the A_{ell+1} slot): display values,
    clipped at e^700, that decide no coefficient.  The rows themselves are
    the unit phases ``odd_phase``, ``even_phase`` times e to the logs
    ``odd_log_mag``, ``even_log_mag``, since they can overflow doubles.
    ``tier`` names the route that formed it, the recursion's ("extended",
    "mp@<digits>") or "banded", and ``error_bound_digits`` is the extended
    recursion's estimate (``BetaSequence.error_bound_digits``), also where
    it was refused.
    """

    odd_entries: np.ndarray
    even_entries: np.ndarray
    odd_log_mag: np.ndarray
    even_log_mag: np.ndarray
    odd_phase: np.ndarray
    even_phase: np.ndarray
    pair: InterfacePair | None = None   # the extended pair it is read with
    tier: str = "extended"
    error_bound_digits: float = 0.0

    def max_abs(self) -> float:
        return float(np.exp(max(np.max(self.odd_log_mag, initial=-np.inf),
                                np.max(self.even_log_mag, initial=-np.inf))))


def _column(log: np.ndarray, phase: np.ndarray, pair: InterfacePair | None,
            tier: str, digits: float) -> GreenColumn:
    """The column with the logs ``log`` and unit phases ``phase`` of its
    odd rows then its even ones, and its display entries."""
    n = len(log) // 2
    # display entries by math.exp on the clipped logs: np.exp does not
    # always reproduce its bits
    entry = phase * np.array([math.exp(v) for v in
                              np.minimum(log, 700.0).tolist()])
    return GreenColumn(entry[:n], entry[n:], log[:n], log[n:], phase[:n],
                       phase[n:], pair, tier, digits)


def green_last_column(spec: ProblemSpec, beta: BetaSequence | None = None
                      ) -> GreenColumn:
    """Evaluate the closed-form last-column entries from the beta sequence."""
    if beta is None:
        beta = beta_sequence(spec)
    n = beta.n
    if beta.log_moduli[n] < math.log(NEAR_RESONANCE_FLOOR):
        raise NearResonantDenominator(float(beta.log_moduli[n]))
    # omega, x_0..x_n and c_1..c_{n+1} in one array, then the phases of
    # beta_0..beta_n turned by e^{i omega x_ell / c_{ell+1}}; the last one
    # is the denominator's
    data = np.array((spec.omega, *spec.profile.jump_points[:n + 1],
                     *spec.profile.speeds)).astype(_EXT)
    turned = np.exp(_IU * (data[0] * data[1:n + 2] / data[n + 2:])) \
        * beta.phases
    # the odd rows, then the even ones: the scalar products behind the even
    # entries are purely imaginary, so conjugation contributes the factor
    # -i there; a zero sign leaves a zero entry (its log is -inf)
    sign = beta.rot_im_sign[1:]
    phase = (np.concatenate((turned[:n], _NEG_IU * sign)) / turned[n]) \
        .astype(complex)
    phase[n:][sign == 0.0] = 0.0
    log = (np.concatenate((beta.log_moduli[:n], beta.rot_im_log[1:]))
           - beta.log_moduli[n]).astype(float)
    return _column(log, phase, beta.pair, beta.tier, beta.error_bound_digits)


def banded_column(column: np.ndarray, pair: InterfacePair, digits: float
                  ) -> GreenColumn:
    """The Green column of a banded solve from ``dense_solve``'s
    ``column``, read with the solve's extended ``pair``: tier "banded",
    with ``digits`` the refused extended recursion's estimate."""
    y = np.concatenate((column[0::2], column[1::2]))   # odd rows, then even
    size = np.abs(y)
    log, phase = np.full(len(y), -np.inf), np.zeros(len(y), dtype=complex)
    nonzero = size != 0
    log[nonzero] = np.log(size[nonzero]) if y.dtype != object \
        else [float(mp_tier().log(v)) for v in size[nonzero]]
    phase[nonzero] = (y[nonzero] / size[nonzero]).astype(complex)
    return _column(log, phase, pair, "banded", digits)


def layer_coefficients(spec: ProblemSpec,
                       column: GreenColumn | None = None) -> CoefficientVector:
    """Recover (A_j, B_j) by scaling the Green column with the boundary data.

    :func:`assembly.coefficient_vector` decides each from its column log
    magnitude plus log|B_N|, B_N in extended precision (rounded, it can
    flush to 0), never from the clipped display entries.
    One in range is the column entry times B_N as a double or, where its
    log passes +-700, its phase times e^(log held within +-700) times that
    B_N times e^(rest of the log); B_N and the envelope read the column's pair.
    """
    if column is None:
        column = green_last_column(spec)
    at = column.pair or interface_pair(EXTENDED, spec)
    b_last = b_last_extended(spec, at)
    scale = complex(b_last)
    log_col, entry = (np.ravel(rows, "F") for rows in (
        (column.odd_log_mag, column.even_log_mag),
        (column.odd_entries, column.even_entries)))

    def formed(inside):
        log, value = log_col[inside], entry[inside] * scale
        out = np.abs(log) > 700.0        # the display entry is clipped
        if out.any():
            held = np.clip(log[out], -700.0, 700.0)
            phase = np.ravel((column.odd_phase, column.even_phase), "F")
            value[out] = phase[inside][out] * np.exp(held) * scale \
                * np.exp(log[out] - held)
        return value
    return coefficient_vector(
        spec, log_col + (float(np.log(abs(b_last))) if b_last else -np.inf),
        formed, b_last, at)
