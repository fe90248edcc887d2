"""Recursive representation of the last Green's-operator column.

The inverse of the normalised interface matrix is never formed; its last
column is expressed through a complex scalar recursion (beta below).  The
recursion is real-linear in (beta, conj beta), so it can be advanced on the
unit circle while the modulus is accumulated in log space — configurations
with strong localisation reach moduli like 3^(n/2), which overflow doubles
long before the recursion itself loses accuracy.  The column's rows are in
the unknowns' order (B_1, A_2, B_2, ..., A_{n+1}), as in ``assembly``.

Everything about the interfaces that does not depend on beta (reflection
strengths, Wronskians, layer phases, rotations, the bound's per-interface
factors) is formed first, as one array expression over all n interfaces
from one pair evaluation (``assembly.interface_pair``); the loop over the
interfaces then does only the work that depends on the previous beta.
The same body runs in both precision tiers, on one problem's numbers or on
a batch's with a trailing sample axis (``evaluate.solve_many``).

The recursion runs in extended precision and carries a running first-order
error bound through each step's Jacobian.  Each run estimates the digits
it lost, log10 of the bound plus those the Im extraction loses, and one
rule judges a run in either precision: eps * 10**lost, eps the tier's
rounding unit (``Tier.eps``), must stay within 1e-13 (``ERROR_LIMIT``).
In ``beta_sequence`` an extended run past it is rerun once in mpmath,
sized by those digits; an mpmath run past it raises ZeroDivisionError.
Still open: the estimate is first order and misses some rounding terms,
and the Im-loss weight ignores the size of the field term an entry feeds,
so a few high modes still come back wrong without an error from this
route (``beta_sequence``, ``green_last_column``, ``layer_coefficients``),
which serves only ``helmrad verify --suite oracle``, criterion 1 and the
stability certificates.

``evaluate.solve``, the one solve behind the library, ``helmrad solve`` and
``helmrad scan``, makes no rerun: it takes ``recursion`` in EXTENDED alone
and otherwise the banded route's answer with its column
(``banded_column``), both read with the run's one pair evaluation (see
``evaluate.solve``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .assembly import (_DEGENERACY_FLOOR, CoefficientVector,
                       DegenerateNormaliser, InterfacePair, b_last_extended,
                       coefficient_vector, interface_pair, log_moduli)
from .problem import ProblemSpec
from .specfun import EXTENDED, Tier, mp_tier

#: |beta_n| below this is treated as a resonance of the denominator
NEAR_RESONANCE_FLOOR = 1e-250

# The recursion step u + q*conj(u) can cancel to ~1e-12 of its operands at
# near-critical interfaces; the chain therefore runs in extended precision
# (the problem data are exact doubles, so the extra bits are all signal).
_EXT = np.longdouble
_IU = np.clongdouble(1j)


class NearResonantDenominator(Exception):
    """|beta_n| fell below the representable floor."""

    def __init__(self, log_magnitude: float):
        self.log_magnitude = log_magnitude
        super().__init__(
            f"denominator near resonance: log10|beta_n| = "
            f"{log_magnitude / math.log(10.0):.3f}")


class _Interface(NamedTuple):
    """Per-interface quantities, each an array over ell = 1..n."""

    g_plus: np.ndarray
    q: np.ndarray       # relative reflection strength g_minus / g_plus
    w12: np.ndarray     # w^{1,2} of the right-hand layer at the jump point
    cancel: np.ndarray  # the larger product inside gamma-plus over |gt_plus|


def _interfaces(tier: Tier, at: InterfacePair) -> _Interface:
    """Reflection quantities and w^{1,2} at every interface in ``tier``,
    from the pair values ``at``.  Raises DegenerateNormaliser, as the banded
    route does for w^{2,1}, naming the first interface whose gamma-plus
    vanishes, before anything is divided by it.
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
    vanished = size < _DEGENERACY_FLOOR
    if np.count_nonzero(vanished):
        first = np.argmax(vanished.reshape(n, -1).any(1)) + 1
        raise DegenerateNormaliser(f"gamma-plus vanished at interface {first}")
    gt_minus = df1l * f1r / cl - df1r * f1l / cr
    g_plus = 1j * tier.cexp(zl - zr) * gt_plus
    g_minus = 1j * tier.cexp(-zl - zr) * gt_minus
    return _Interface(
        g_plus, g_minus / g_plus,
        w12=f1r * df2[n:] / cr - df1r * f2[n:] / cr,
        cancel=np.maximum(np.abs(t1), np.abs(t2)) / size)


@dataclass(frozen=True)
class BetaSequence:
    """The scalar recursion beta_0..beta_n in log-modulus + unit-phase form:
    the one record of a run (``recursion``), in its tier's numbers.

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
    #: decimal digits the extended recursion lost (``recursion``), which
    #: decided the tier and sized a rerun: its relative error is about
    #: eps * 10**error_bound_digits, eps the rounding unit ``EXTENDED.eps``.
    #: Not a bound: no term covers the rounding of gamma-plus's phase factor
    #: exp(i(z/c_l - z/c_r)) or of the pair evaluations at z/c, both growing
    #: with the argument.  ``_beta_mp`` alone records the rerun's own.
    error_bound_digits: float = 0.0
    pair: InterfacePair | None = None   # the extended run's; see the module


def recursion(tier: Tier, spec: ProblemSpec, omega=None, x=None
              ) -> tuple[BetaSequence, object]:
    """Run the recursion in ``tier`` on ``omega`` and ``x`` (tier numbers,
    by default the spec's), with no rerun.  Returns its sequence, in the
    tier's numbers with the pair it read and its digits lost, and its
    error estimate eps * 10**lost (``tier.eps``; a tier number, as a float
    can underflow).  ``omega`` and ``x`` with a trailing sample axis make
    the sequence and its estimate serve a batch.

    In EXTENDED, where the estimate is within ``ERROR_LIMIT``, the sequence
    is ``beta_sequence``'s answer.  Its ``pair`` (the 2n interface
    arguments and kappa) gives ``evaluate.solve`` B_N, the interface
    backward error and a fallback's banded blocks.

    Everything that does not depend on beta is one array expression over
    ell = 1..n, formed before the loop: the interface quantities, the
    layer phases delta and e^{-i delta}, the step factor g+/(2i w^{1,2}),
    the rotation e^{i z_ell/c_{ell+1}} and the bound's per-interface
    factors.  The loop keeps what depends on beta_{ell-1}, with no branch:
    the step, the Jacobian, the error terms, the advance in log form and
    the rotated phase; the Im parts' logs follow, and the digits lost:
    log10 of the bound's maximum (at least 1) plus ``_im_loss``.
    Both tiers run this one body, on np.longdouble numbers (a batch's with
    a trailing sample axis) or on mpmath numbers.

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
    log-modulus error over the steps.  A core that cancels to exactly zero
    has lost every digit: its NaN makes the bound infinite and the log
    moduli -inf from there on (beta is 0); mpmath raises ZeroDivisionError.
    """
    if omega is None:
        omega, x = tier.real(spec.omega), tier.real(
            np.asarray(spec.profile.jump_points))
    x = np.asarray(x)
    n = spec.n
    pair = interface_pair(tier, spec, omega, x)
    it = _interfaces(tier, pair)
    c, args = pair.speeds, pair.args
    delta = omega * (x[1:n + 1] - x[:n]) / c[:-1]
    per_step = zip(tier.cexp(-delta), it.q, 1 + np.abs(it.q), 1 + it.cancel,
                   delta, it.g_plus / (2j * it.w12), tier.cexp(args[n:2 * n]))
    lm = phase_err = log_err = omega * 0     # zeros shaped like omega
    ph = lm + 1 + 0j
    # ell = 0 has no Im part: a zero stands for it (log -inf, sign 0)
    log_mod, phases, rotated, errs = [lm], [ph], [lm], [lm]
    with np.errstate(divide="ignore", invalid="ignore"):
        for turn, q, reflect, gamma, d, factor, rot in per_step:
            u = turn * ph
            qu = q * np.conjugate(u)
            core = u + qu
            jac = (u - qu) / core
            local = reflect / abs(core) * gamma + abs(jac) * d
            log_err = log_err + (abs(jac.imag) * phase_err + local)
            phase_err = abs(jac.real) * phase_err + local
            errs.append(phase_err + log_err)
            # the step, applied to a unit phase, folded into log form
            step = factor * core
            mag = abs(step)
            lm = lm + tier.log(mag)
            ph = step / mag
            log_mod.append(lm)
            phases.append(ph)
            rotated.append((rot * ph).imag)
        im, log_mod = np.array(rotated), np.array(log_mod)
        # a step from a zero core on has NaN phases: beta is 0 there
        zero = im != im
        im[zero], log_mod[zero] = 0, -math.inf
        im_log, sign = tier.log(abs(im)) + log_mod, np.sign(im).astype(float)
        # NaN, from a zero core, is an infinite bound
        bound = np.fmin(np.maximum.reduce(errs), tier.real(math.inf))
        lost = np.float64(tier.log10(np.maximum(bound, 1))) + _im_loss(
            log_mod, im_log, sign, -float(tier.log10(tier.eps)))
    return (BetaSequence(n, log_mod, np.array(phases), im_log, sign,
                         error_bound_digits=lost, pair=pair),
            tier.eps * tier.real(10) ** lost)


#: relative error estimate past which the extended recursion escalates
#: to arbitrary precision, and the arbitrary-precision rerun is refused
ERROR_LIMIT = 1e-13
_LN10 = math.log(10.0)


def _beta_mp(spec: ProblemSpec, digits: float, data=None) -> BetaSequence:
    """Arbitrary-precision rerun of the recursion at ``_mp_dps(digits)``
    working digits, as extended numbers through 25 digits, with no pair.
    It raises ZeroDivisionError instead of returning when the run's own
    estimate (``recursion``'s, in mpmath's rounding unit) exceeds
    ``ERROR_LIMIT``; a step that cancels to exactly zero makes the estimate
    infinite.  Its ``error_bound_digits`` are its own.

    ``data``, when given, is a callable ``spec -> (omega, jump_points)``
    evaluated inside the high-precision context; it lets callers substitute
    idealised problem data (e.g. exactly-critical phases) for the
    double-rounded values stored on the spec.
    """
    import mpmath as mp
    with mp.workdps(_mp_dps(digits)):
        try:
            seq, error = recursion(mp_tier(), spec,
                                   *(data(spec) if data else ()))
        except ZeroDivisionError:   # a core cancelled to exactly zero
            error = mp.inf
        if error > ERROR_LIMIT:
            raise ZeroDivisionError(
                f"arbitrary-precision rerun at {mp.mp.dps} digits: estimated "
                f"relative error {mp.nstr(error, 3)} exceeds "
                f"{ERROR_LIMIT:g}")

        def ext(v):     # an mpmath real through its 25 digits
            return _EXT(mp.nstr(v, 25))
        return BetaSequence(
            seq.n, np.array([ext(v) for v in seq.log_moduli]),
            np.array([ext(v.real) + _IU * ext(v.imag) for v in seq.phases]),
            np.array([ext(v) for v in seq.rot_im_log]), seq.rot_im_sign,
            f"mp@{mp.mp.dps}", seq.error_bound_digits)


def _im_loss(log_moduli, rot_im_log, rot_im_sign, digits: float):
    """Decimal digits the column entries would lose to the Im extraction,
    one per sample of a batch.

    The imaginary part can cancel far below the unit-modulus rotated phase,
    and the loss is weighted by how close the affected entry sits to the
    column's largest one (cancellation inside an entry that is itself
    negligible cannot surface in the assembled coefficients).  An exact
    zero may mask a tiny true value and loses all ``digits`` of the tier.
    Entries after an exact zero step are skipped: its bound is infinite.
    """
    # in doubles, one sample at a time, the depth formed in the tier first
    rows = np.array((log_moduli, rot_im_log, log_moduli - rot_im_log,
                     rot_im_sign), dtype=float)
    losses = []
    for log_mod, im_log, depth, im_sign in rows.reshape(
            4, len(log_moduli), -1).transpose(2, 0, 1).tolist():
        # the column's largest entry
        top = max(log_mod[:-1] + im_log[1:], default=-math.inf)
        im_loss = 0.0
        for lm, il, d, sign in zip(log_mod[1:], im_log[1:], depth[1:],
                                   im_sign[1:]):
            if not math.isfinite(lm):
                continue
            if sign != 0.0:
                loss = (d - max(0.0, top - il)) / _LN10
            else:
                loss = digits - max(0.0, top - lm) / _LN10
            if loss > im_loss:
                im_loss = loss
        losses.append(im_loss)
    return np.array(losses).reshape(log_moduli.shape[1:])[()]


def _mp_dps(digits: float) -> int:
    """Working decimal digits of an arbitrary-precision rerun."""
    return 30 + int(math.ceil(digits))


def beta_sequence(spec: ProblemSpec) -> BetaSequence:
    """Run the recursion in extended precision, rerunning once in mpmath.

    The extended run is ``recursion(EXTENDED, spec)``, with its pair.  The
    rerun happens when the extended estimate exceeds ``ERROR_LIMIT``,
    its ``error_bound_digits`` past -log10 eps - 13, at ``_mp_dps`` of 1.2
    times those digits + 10 (-log10 eps if infinite); judged by the same
    rule in mpmath's eps, it passes with 27 digits to spare if it loses
    what the extended run lost.  The estimate is first order, misses some
    rounding terms (see ``BetaSequence.error_bound_digits``) and weighs the
    Im loss by the entry's place in the column, not by the field term it
    feeds: specs 1 and 20 of the high-mode test population still come back
    wrong without an error.  The rounding unit is ``EXTENDED.eps``,
    np.longdouble's, so where that is plain double the rule escalates there.
    """
    beta, error = recursion(EXTENDED, spec)
    if error > ERROR_LIMIT:
        lost = beta.error_bound_digits
        lost = lost if math.isfinite(lost) else -float(np.log10(EXTENDED.eps))
        return replace(_beta_mp(spec, 1.2 * lost + 10.0), pair=beta.pair,
                       error_bound_digits=beta.error_bound_digits)
    return beta


@dataclass(frozen=True)
class GreenColumn:
    """Last column of the Green's operator, rows 1..2n in the unknowns'
    order (``CoefficientVector.entries``): row 2*ell-1 is the B_ell slot
    and row 2*ell the A_{ell+1} slot.

    The rows, which can overflow doubles, are the unit phases ``phase``
    times e to the logs ``log``, a batch's with a trailing sample axis;
    ``entries`` are display values, clipped at e^700, that decide no
    coefficient.  ``tier`` names the route that formed it, the recursion's
    ("extended", "mp@<digits>") or "banded", and ``error_bound_digits`` is
    the extended recursion's estimate, also where it was refused.
    """

    log: np.ndarray
    phase: np.ndarray
    pair: InterfacePair | None = None   # the extended pair it is read with
    tier: str = "extended"
    error_bound_digits: float = 0.0

    @cached_property
    def entries(self) -> np.ndarray:
        # by math.exp on the clipped logs: np.exp does not always
        # reproduce its bits
        return self.phase * np.array([math.exp(v) for v in np.minimum(
            self.log, 700.0).ravel().tolist()]).reshape(self.log.shape)

    def max_abs(self) -> float:
        return float(np.exp(np.max(self.log, initial=-np.inf)))

    def sample(self, k: int) -> GreenColumn:
        """The column of sample ``k`` (see ``InterfacePair.sample``)."""
        if self.log.ndim == 1:
            return self
        return GreenColumn(self.log[:, k].copy(), self.phase[:, k].copy(),
                           self.pair.sample(k), self.tier,
                           float(self.error_bound_digits[k]))


def green_last_column(spec: ProblemSpec, beta: BetaSequence | None = None
                      ) -> GreenColumn:
    """Evaluate the closed-form last-column entries, in the unknowns' order,
    from the beta sequence; with a batched ``beta``'s trailing sample axis,
    of every sample, all refused if one is near resonance."""
    beta = beta or beta_sequence(spec)
    n = beta.n
    low = beta.log_moduli[n].min()
    if low < math.log(NEAR_RESONANCE_FLOOR):
        raise NearResonantDenominator(float(low))
    # the phases of beta_0..beta_n turned by e^{i omega x_ell / c_{ell+1}}:
    # 0 at x_0 = 0, then the pair's right-hand arguments; the last one is
    # the denominator's
    at = beta.pair or interface_pair(EXTENDED, spec)
    turned = np.exp(_IU * np.concatenate((np.zeros(
        (1,) + at.args.shape[1:], _EXT), at.args[n:2 * n]))) * beta.phases
    # each odd row beside the even one after it; the scalar products behind
    # the even ones are purely imaginary, so conjugation contributes the
    # factor -i there; a zero sign leaves a zero entry (its log is -inf)
    sign = beta.rot_im_sign[1:]
    rows = (2 * n,) + sign.shape[1:]
    phase = (np.stack((turned[:n], -_IU * sign), 1).reshape(rows)
             / turned[n]).astype(complex)
    phase[1::2][sign == 0.0] = 0.0
    log = (np.stack((beta.log_moduli[:n], beta.rot_im_log[1:]), 1)
           .reshape(rows) - beta.log_moduli[n]).astype(float)
    return GreenColumn(log, phase, beta.pair, beta.tier,
                       beta.error_bound_digits)


def banded_column(column: np.ndarray, pair: InterfacePair, digits: float
                  ) -> GreenColumn:
    """The Green column of a banded solve, ``dense_solve``'s ``column`` in
    the unknowns' order as it stands, read with the solve's extended
    ``pair``: tier "banded", ``digits`` the refused recursion's estimate."""
    size = np.abs(column)
    phase = np.zeros(len(column), dtype=complex)
    nonzero = size != 0
    phase[nonzero] = (column[nonzero] / size[nonzero]).astype(complex)
    return GreenColumn(log_moduli(column), phase, pair, "banded", digits)


def layer_coefficients(spec: ProblemSpec,
                       column: GreenColumn | None = None) -> CoefficientVector:
    """Recover (A_j, B_j) by scaling the Green column with the boundary data.

    :func:`assembly.coefficient_vector` decides entry i from row i's log
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

    def formed(inside):
        log, value = column.log[inside], column.entries[inside] * scale
        out = np.abs(log) > 700.0        # the display entry is clipped
        if out.any():
            held = np.clip(log[out], -700.0, 700.0)
            value[out] = column.phase[inside][out] * np.exp(held) * scale \
                * np.exp(log[out] - held)
        return value
    return coefficient_vector(
        spec, column.log + (float(np.log(abs(b_last))) if b_last else -np.inf),
        formed, b_last, at)
