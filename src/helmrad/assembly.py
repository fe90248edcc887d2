"""The normalised interface system and its banded solve.

The continuity conditions at the n interior jump points couple the layer
coefficients (A_j, B_j) through a complex 2n x 2n block-tridiagonal matrix.
Unknown ordering: (B_1, A_2, B_2, ..., A_n, B_n, A_{n+1}); A_1 = 0 and B_N
are fixed by the conditions at the origin and at r = 1 and carried
separately.  After row normalisation the sub/super-diagonal blocks become
the constant matrices R_HAT and T_HAT and the right-hand side has a single
nonzero entry at position 2n; each constant block has one nonzero entry,
so the normalised matrix is tridiagonal.  The diagonal blocks are written
once, over a precision tier of :mod:`specfun`: :func:`normalize` builds
them in extended precision, and the mpmath escalation builds the same
blocks in mpmath.  Their two same-family Wronskians (h with h, j with j)
are formed from the shifted orders of f' = (kappa/x) f + g, so that the
kappa/x parts, which cancel up to hundreds of digits at thin high-mode
layers, drop out exactly (DLMF 10.51.2; Wiscombe, Appl. Opt. 19:1505,
1980).  Their pair values come from :func:`interface_pair`, the one
evaluation of a solve, at 2n + 1 points: the interfaces, whose columns
the recursion and the interface residuals read too, and kappa = omega/c_N,
whose column gives B_N, the right-hand side, in each attempt's numbers.
:func:`dense_solve` factors the band in double and refines against the
extended blocks; when that is refused, it tries once more on the band
scaled exactly by powers of two, each unknown to its term in its layer and
each row to its largest entry, and only then solves the same scaled band
in mpmath, once, at 75 digits.  One rule, :func:`_refine`, accepts or
refuses an answer of either tier: the blocks kept enough digits, the
corrections stop shrinking by half, the last is negligible against every
layer's terms, and the componentwise backward error is a few eps of the
tier (Higham 2002, ch. 12; Arioli, Demmel and Duff 1989).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .problem import ProblemSpec
from .specfun import EXTENDED, FundamentalPair, Tier, mp_tier

#: exact sub/super-diagonal blocks of the normalised system
R_HAT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
T_HAT = np.array([[0.0, 0.0], [-1.0, 0.0]], dtype=complex)

#: pivot/normaliser magnitudes below this are treated as exactly singular
_DEGENERACY_FLOOR = 1e-300

# acceptance of the refined solve in both tiers (see _refine)
_MAX_SWEEPS = 4
_STEP_TOL = 1e-17
_SETTLE_TOL = 1e-15
_BERR_ULPS = 16
_LOG10_CANCEL_TOL = -12.0
# working digits of the mpmath tier
_MP_DIGITS = 75


class DegenerateNormaliser(Exception):
    """A row-normalising Wronskian is numerically zero (invalid profile)."""


class SingularSystem(Exception):
    """A vanishing pivot, or an mpmath answer that :func:`_refine` refuses."""


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for a tridiagonal M in the layout of :meth:`BlockSystem.band`."""
    y = band[1] * x
    y[:-1] += band[0, 1:] * x[1:]
    y[1:] += band[2, :-1] * x[:-1]
    return y


def _row_max(size: np.ndarray) -> np.ndarray:
    """The largest of each row's entries of ``size``, entry sizes of a
    matrix in the band layout."""
    row_max = size[1].copy()
    row_max[:-1] = np.maximum(row_max[:-1], size[0, 1:])
    row_max[1:] = np.maximum(row_max[1:], size[2, :-1])
    return row_max


def _backward_error(band: np.ndarray, size: np.ndarray, b: np.ndarray,
                    r: np.ndarray) -> float:
    """max_i |r|_i / (|M||x| + |b|)_i, r = b - M x for the matrix M in
    ``band`` and |x| = ``size``: the componentwise backward error of x
    (Oettli and Prager), 0 where a row's scale vanishes.  Scaling a row or
    an unknown, by any factor, leaves it as it is."""
    scale = _band_matvec(np.abs(band), size) + np.abs(b)
    return float(np.max(np.divide(np.abs(r), scale, out=np.zeros_like(scale),
                                  where=scale > 0)))


@dataclass(frozen=True)
class BlockSystem:
    """Normalised block-tridiagonal system; R/T blocks are R_HAT, T_HAT.

    ``S_hat`` is stored in extended precision, or as mpmath numbers in an
    object array; ``spec`` lets the solver rebuild the blocks in mpmath
    when the extended-precision solve fails its acceptance test.
    """

    n: int
    S_hat: np.ndarray      # (n, 2, 2)
    b_last: np.clongdouble  # B_N from b_last_extended (mpc in _solve_mp)
    spec: ProblemSpec
    pair: InterfacePair     # the extended pair values the blocks are from
    block_loss: float = 0.0   # decimal digits cancelled inside the blocks

    @cached_property
    def scales(self) -> np.ndarray:
        """One power of two 2**e per unknown (B_1, A_2, B_2, ..., A_{n+1})
        and one for B_N, in extended precision: e is the frexp exponent of
        max(|f|, |f'|) of the unknown's function (f_1 for an A, f_2 for a
        B) over its layer's interface ends, so that |x| 2**e is the
        unknown's term in its layer within a factor 2."""
        n = self.n
        size = np.abs(self.pair.values[:4])
        size = np.maximum(size[0::2], size[1::2])     # f_1 and f_2 rows
        ends = np.zeros((2, n + 1), dtype=size.dtype)
        ends[:, :n] = size[:, :n]                     # right ends of 1..n
        ends[:, 1:] = np.maximum(ends[:, 1:], size[:, n:2 * n])  # left 2..n+1
        # (A_1, B_1, A_2, ..., A_N, B_N) without A_1 = 0
        return np.ldexp(np.longdouble(1), np.frexp(ends.T.ravel()[1:])[1])

    def band(self) -> np.ndarray:
        """The diagonals in LAPACK band layout, in the blocks' dtype: column
        j holds M[j-1, j], M[j, j] and M[j+1, j].  The entries of R_HAT and
        T_HAT go in as reals, which mpmath multiplies 3 times faster."""
        S = self.S_hat
        band = np.zeros((3, 2 * self.n), dtype=S.dtype)
        band[0, 1::2] = S[:, 0, 1]
        band[0, 2::2] = T_HAT[1, 0].real
        band[1, 0::2] = S[:, 0, 0]
        band[1, 1::2] = S[:, 1, 1]
        band[2, 0::2] = S[:, 1, 0]
        band[2, 1:-1:2] = R_HAT[0, 1].real
        return band


@dataclass(frozen=True)
class CoefficientVector:
    """Layer coefficients of the fundamental-system ansatz.

    ``entries`` holds the 2n interior unknowns in the ordering
    (B_1, A_2, B_2, ..., A_n, B_n, A_{n+1}); B_N is stored separately,
    and A_1 is always 0 (regularity at the origin).  ``a(j)``/``b(j)``
    are 1-based per-layer accessors.
    """

    entries: np.ndarray
    b_last: complex

    @property
    def num_layers(self) -> int:
        return len(self.entries) // 2 + 1

    def a(self, j: int) -> complex:
        if j == 1:
            return 0j
        return complex(self.entries[2 * (j - 1) - 1])

    def b(self, j: int) -> complex:
        if j == self.num_layers:
            return complex(self.b_last)
        return complex(self.entries[2 * (j - 1)])


def b_last_extended(spec: ProblemSpec, at: InterfacePair) -> np.clongdouble:
    """B_N, the normalised right-hand side, in extended precision, from the
    kappa column, the last, of a solve's pair ``at``: a double can flush it
    to 0 or to a subnormal, or round it to inf past 1.8e308.

    The radiation condition fixes B_N = f_1(kappa) g / (omega w^{1,2}) at
    the outer boundary, kappa = omega / c_N.  There omega w^{1,2} = kappa
    W(f_1, f_2)(kappa), and the Wronskian is known in closed form:
    W(h_m, j_m)(x) = -i/x^2 for d=3 and W(e^{ix}, cos x) = -i for d=1.  So
    B_N = i kappa f_1(kappa) g for d=3 and i f_1(kappa) g / kappa for d=1.
    """
    kappa, f1 = at.args[-1], at.values[0, -1]
    factor = kappa if spec.dimension == 3 else 1 / kappa
    return 1j * factor * f1 * np.clongdouble(complex(spec.boundary_coefficient))


_LOG_TINY, _LOG_MAX, _LOG_EPS = (math.log(v) for v in (
    np.finfo(float).tiny, np.finfo(float).max, np.finfo(float).eps))


def coefficient_vector(spec: ProblemSpec, log_mag, formed, b_last,
                       at: InterfacePair) -> CoefficientVector:
    """The coefficients as doubles, by the one rule of both routes.

    ``log_mag`` is log|c| of each entry before rounding (-inf for 0);
    ``formed(inside)`` gives the entries at the mask ``inside``, all normal
    doubles, rounded as the route forms them; B_N is ``b_last``, judged in
    extended precision before it is rounded.  One below the normal doubles
    becomes 0 if its term |c| max|f| over its layer is below eps times the
    layer's largest, max|f| the larger hypot(|f|, |f'|) at the layer's ends
    r > 0, read from their columns of the extended pair ``at`` (|h_50| at k
    1e-8 passes 1e400).  Any other one outside the double range raises
    OverflowError.
    """
    log_mag = np.concatenate((log_mag, [float(np.log(abs(b_last)))
                                        if b_last else -np.inf]))
    inside = (log_mag >= _LOG_TINY) & (log_mag <= _LOG_MAX)
    keep = slice(None)
    if not inside.all():
        keep, n = inside[:-1], spec.n
        for i in np.flatnonzero(~inside & (log_mag != -np.inf)).tolist():
            j = (i + 1) // 2 + 1               # B_1 alone, then A_j, B_j
            own = slice(max(2 * j - 3, 0), 2 * j - 1)
            # its ends: left of interface j (or kappa), right of j - 1 (if any)
            ends = at.values[:4, [j - 1 if j <= n else 2 * n]
                             + [n + j - 2] * (j > 1)]
            # log max|f_1| and log max|f_2|, f_2 = Re f_1
            env = np.log(np.max(np.hypot(abs(ends[0::2]), abs(ends[1::2])),
                                axis=1))
            terms = log_mag[own] + (env[1:] if j == 1 else env)
            if not np.all(inside[own] | (log_mag[own] < _LOG_TINY)
                          & (terms < np.max(terms) + _LOG_EPS)):
                raise OverflowError(f"a coefficient of layer {j} is outside "
                                    f"the double range and not negligible")
    entries = np.zeros(len(log_mag) - 1, dtype=complex)
    entries[keep] = formed(keep)
    return CoefficientVector(entries, complex(b_last) if inside[-1] else 0j)


class InterfacePair(NamedTuple):
    """The pair on both sides of every interface (columns 0..2n-1: blocks,
    scales, recursion, backward error, envelope), in extended precision
    also at kappa (column 2n: B_N, envelope): a solve's one evaluation."""

    speeds: np.ndarray   # c_1..c_{n+1}, tier reals
    args: np.ndarray     # z_ell/c_ell for ell = 1..n, z_ell/c_{ell+1}[, kappa]
    values: np.ndarray   # rows (f_1, f_1', f_2, f_2'[, g_1, g_2]) at args


def interface_pair(tier: Tier, spec: ProblemSpec, omega=None, x=None,
                   shift: bool = False) -> InterfacePair:
    """The pair at the 2n interface arguments z_ell/c_ell and
    z_ell/c_{ell+1}, z_ell = omega x_ell, then in EXTENDED alone at kappa =
    omega/c_{n+1}, from one ``tier.pair_eval`` call, with the shifted
    orders if ``shift``.  ``omega`` and the jump points ``x`` are tier
    numbers, by default the spec's own."""
    if omega is None:
        omega = tier.real(spec.omega)
        x = tier.real(np.asarray(spec.profile.jump_points))
    c = tier.real(np.asarray(spec.profile.speeds))
    z = omega * np.asarray(x)[1:spec.n + 1]
    outer = (omega / c[-1],) if tier is EXTENDED else ()
    args = np.concatenate((z / c[:-1], z / c[1:], outer))
    return InterfacePair(c, args, tier.pair_eval(
        FundamentalPair(spec.dimension, spec.mode), args, shift))


#: the five Wronskians w^{p,q} of a block, one per row: w^{2,1} (the
#: normaliser), w^{2,2}, w^{1,2} on the right, w^{1,2} on the left and
#: w^{1,1}.  Columns: the row of f_p among the pair values (f_1 is 0, f_2
#: is 2), the row that stands for its slope, the side of the interface it
#: is taken on (0 left, 1 right), then the same for f_q.  A cross
#: Wronskian takes the slopes f_p', f_q' (rows 1 and 3); the same-family
#: ones take the shifted orders g_1, g_2 (rows 4 and 5) in their place.
_P_ROW, _P_SLOPE, _P_SIDE, _Q_ROW, _Q_SLOPE, _Q_SIDE = np.array([
    [2, 3, 1, 0, 1, 0],
    [2, 5, 1, 2, 5, 0],
    [0, 1, 1, 2, 3, 1],
    [0, 1, 0, 2, 3, 0],
    [0, 4, 0, 0, 4, 1]]).T[:, :, None]


def _blocks(tier: Tier, spec: ProblemSpec, at: InterfacePair | None = None
            ) -> tuple[np.ndarray, float]:
    """Wronskian-form diagonal blocks S_hat (n, 2, 2) in ``tier`` and the
    decimal digits cancelled while forming them, from the pair values
    ``at`` (by default :func:`interface_pair`'s in ``tier``).

    The three cross Wronskians are w^{p,q} = f_p f_q' / c_q - f_p' f_q /
    c_p.  The two same-family ones, w^{1,1} (h with h) and w^{2,2} (j with
    j), are formed as w^{q,q} = f(P) g(Q) / c_Q - g(P) f(Q) / c_P, g the
    shifted order of f in f' = (kappa/x) f + g (``specfun.Tier``): the two
    arguments of an interface satisfy P c_P = Q c_Q = z, so the kappa/x
    parts of the slopes, which grow like m/x and cancel up to hundreds of
    digits in f f' - f' f at thin high-mode layers, drop out exactly (the
    log-derivative form of multilayer-sphere codes: Wiscombe, Appl. Opt.
    19:1505, 1980; Yang, Appl. Opt. 42:1710, 2003).  What cancels is only
    the contrast 1/c_P^2 - 1/c_Q^2; for d=1, kappa = 0 and g = f'."""
    n = spec.n
    c, _, values = at or interface_pair(tier, spec, shift=True)
    w, ratio = _wronskians(c, values)
    vanished = np.abs(w[0]) < _DEGENERACY_FLOOR
    if np.count_nonzero(vanished):
        raise DegenerateNormaliser(f"normalising Wronskian vanished at "
                                   f"interface {np.argmax(vanished) + 1}")
    S_hat = np.empty((n, 2, 2), dtype=tier.cdtype)
    S_hat[:, 0, 0], S_hat[:, 0, 1], S_hat[:, 1, 1] = w[1], w[2], w[4]
    S_hat[:, 1, 0] = -w[3]
    S_hat /= w[0, :, None, None]
    return S_hat, float(tier.log10(ratio)) if ratio > 1 else 0.0


def _wronskians(c: np.ndarray, values: np.ndarray) -> tuple:
    """The five Wronskians of :func:`_blocks` at every interface, a (5, n)
    array, from the speeds ``c`` and the pair ``values`` of an
    :class:`InterfacePair`, as one array expression, and the largest ratio
    of a Wronskian's larger product to |w|, the cancellation it suffered
    (at least 1; a Wronskian that is 0 is left out)."""
    n = len(c) - 1
    ell = np.arange(n)
    p, q = _P_SIDE * n + ell, _Q_SIDE * n + ell
    t1 = values[_P_ROW, p] * values[_Q_SLOPE, q] / c[_Q_SIDE + ell]
    t2 = values[_P_SLOPE, p] * values[_Q_ROW, q] / c[_P_SIDE + ell]
    w = t1 - t2
    size = np.abs(w)
    cancels = size != 0
    return w, np.max(np.maximum(np.abs(t1), np.abs(t2))[cancels]
                     / size[cancels], initial=1)


def normalize(spec: ProblemSpec, at: InterfacePair | None = None
              ) -> BlockSystem:
    """Normalised system with Wronskian-form diagonal blocks, held in
    extended precision: the solve refines against them, and stiff modes
    can push the condition number past what double entries represent;
    from the extended pair values ``at`` (shifted orders) when given."""
    at = at or interface_pair(EXTENDED, spec, shift=True)
    S_hat, block_loss = _blocks(EXTENDED, spec, at)
    return BlockSystem(spec.n, S_hat, b_last_extended(spec, at), spec, at,
                       block_loss)


def _refine(system: BlockSystem, band: np.ndarray, solve, b: np.ndarray,
            eps, scaled: bool = False):
    """(x, its :func:`_backward_error`) with M x = b for the matrix M in
    ``band``, refined against ``band`` with ``solve(r)``, the correction
    of residual r by the attempt's factors, or None when refused or when
    ``solve`` is None.  ``band`` is the system's own, or
    :func:`_equilibrated`'s when ``scaled``, and x is then returned
    unscaled; ``eps`` is the rounding unit of its numbers, in either tier.

    Nothing is accepted when the blocks' cancellation leaves too few
    digits, eps * 10**block_loss > 1e-12.  The sweeps go on while each
    correction at least halves the one before, at most _MAX_SWEEPS past the
    first, and end early once one is at most 1e-17 max|x| and
    :func:`_settled`.  x is accepted when its last correction is settled,
    at most 1e-15 of the largest term in each layer, and its componentwise
    backward error max_i |r|_i / (|M||x| + |b|)_i is at most 16 eps."""
    # in log space: block_loss may be large or infinite
    if solve is None or math.log10(eps) + system.block_loss \
            > _LOG10_CANCEL_TOL:
        return None
    x, r, prev = np.zeros_like(b), b, np.inf
    for sweep in range(_MAX_SWEEPS + 1):
        dx = solve(r)
        step = np.abs(dx)
        x = x + dx
        r = b - _band_matvec(band, x)
        size = np.abs(x) if sweep else step     # x is dx at sweep 0
        settled = (sweep and step.max() <= _STEP_TOL * size.max()
                   and _settled(system, step, size, scaled))
        if settled or not step.max() <= 0.5 * prev:
            break
        prev = step.max()
    if not (settled or _settled(system, step, size, scaled)):
        return None
    berr = _backward_error(band, size, b, r)
    if berr > _BERR_ULPS * eps:
        return None
    return (x / system.scales[:-1] if scaled else x), berr


def _settled(system: BlockSystem, step: np.ndarray, size: np.ndarray,
             scaled: bool) -> bool:
    """Whether a correction of magnitudes ``step`` to an x of magnitudes
    ``size`` is at most 1e-15 of the largest term in each layer: step_i
    2**e_i against the largest size_k 2**e_k of i's layer
    (:attr:`BlockSystem.scales`; without the powers of two when x is
    ``scaled``), B_N's term counting in the last layer.  A layer whose
    terms are all 0 is not settled."""
    # within 1e-15 of each x_i is within 1e-15 of its layer's terms
    if np.all(step <= _SETTLE_TOL * size):
        return True
    weight = 1 if scaled else system.scales[:-1]

    def layers(terms, end):
        # A_1 = 0, then (B_1), (A_2, B_2), ..., (A_N, end)
        return np.concatenate(([0], terms, [end])).reshape(-1, 2).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.max(layers(step * weight, 0) / layers(
            size * weight, abs(system.b_last) * system.scales[-1]))
    return bool(ratio <= _SETTLE_TOL)


def _equilibrated(system: BlockSystem, band: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``band`` with each column divided by its unknown's term scale
    (:attr:`BlockSystem.scales`), then each row multiplied by 2**-e, e the
    frexp exponent of its largest entry (in mpmath ``mag``'s bound on it,
    at most 2 above), and those row factors: exact, in the band's numbers,
    and every row's largest entry in [1/2, 1) (in mpmath (1/8, 1]), so the
    cast to double does not overflow.  The solution of the scaled system
    is the unknowns' terms: x = y / scales, and the rhs takes the row
    factors."""
    if band.dtype != object:
        scaled = band / system.scales[:-1]
        rows = np.ldexp(np.longdouble(1),
                        -np.frexp(_row_max(np.abs(scaled)))[1])
    else:       # mpmath: mag's bound on log2|z| is 12 times cheaper than |z|
        import mpmath as mp
        scaled = band / np.frompyfunc(mp.mpmathify, 1, 1)(system.scales[:-1])
        rows = np.array([mp.ldexp(1, -e) for e in _row_max(
            np.frompyfunc(mp.mag, 1, 1)(scaled))])
    scaled[0, 1:] *= rows[:-1]          # row i of the matrix times rows[i]
    scaled[1] *= rows
    scaled[2, :-1] *= rows[1:]
    return scaled, rows


def _double_solve(band: np.ndarray, b: np.ndarray):
    """The correction solve of an extended attempt: zgbtrf's factors of
    ``band`` cast to double, applied by zgbtrs, or None when the cast
    overflows or a pivot is zero.  Each residual goes to double, and its
    correction comes back, in units of 2**e, e the exponent of max|b|: as
    they stand, those of a b below the double range would flush to 0 or to
    subnormal doubles.  The scaling is exact, so where both are normal
    doubles either way they keep their bits."""
    ab = np.zeros((4, band.shape[1]), dtype=complex)
    with np.errstate(over="ignore"):
        ab[1:] = band
    if not np.all(np.isfinite(ab)):
        return None
    lu, piv, info = lapack.zgbtrf(ab, 1, 1)
    unit = np.ldexp(band.real.dtype.type(1), np.frexp(np.max(np.abs(b)))[1])
    return None if info else lambda r: lapack.zgbtrs(
        lu, 1, 1, (r / unit).astype(complex), piv)[0] * unit


def _tridiag_lu(band: np.ndarray) -> tuple:
    """Factor the tridiagonal matrix in ``band`` (the layout of
    :meth:`BlockSystem.band`) by elimination with partial pivoting, as
    LAPACK's xGTTRF does.  Returns (multipliers, reciprocals of U's
    diagonal, its first and second superdiagonals, row interchanges); the
    superdiagonals are padded with zeros to length N."""
    N = band.shape[1]
    low, diag = list(band[2, :-1]), list(band[1])
    up, up2, swaps = list(band[0, 1:]) + [0], [0] * N, [False] * N
    for k in range(N - 1):
        if abs(diag[k]) < abs(low[k]):
            # rows k and k+1 change places; row k now reaches column k+2
            diag[k], low[k] = low[k], diag[k]
            diag[k + 1], up[k] = up[k], diag[k + 1]
            up2[k], up[k + 1] = up[k + 1], 0
            swaps[k] = True
        if not diag[k]:
            raise SingularSystem(f"zero pivot in column {k}")
        diag[k] = 1 / diag[k]
        low[k] = low[k] * diag[k]
        diag[k + 1] -= low[k] * up[k]
        up[k + 1] -= low[k] * up2[k]
    if not diag[-1]:
        raise SingularSystem(f"zero pivot in column {N - 1}")
    diag[-1] = 1 / diag[-1]
    return low, diag, up, up2, swaps


def _tridiag_solve(lu: tuple, b: list) -> np.ndarray:
    low, inverse, up, up2, swaps = lu
    y = list(b) + [0, 0]
    for k, m in enumerate(low):
        if swaps[k]:
            y[k], y[k + 1] = y[k + 1], y[k]
        y[k + 1] -= m * y[k]
    for k in reversed(range(len(inverse))):
        y[k] = (y[k] - up[k] * y[k + 1] - up2[k] * y[k + 2]) * inverse[k]
    return np.array(y[:-2])


def _solve_mp(system: BlockSystem, digits: int) -> tuple[np.ndarray, float]:
    """:func:`_solution`'s last attempt, in mpmath at ``digits`` working
    digits: the blocks rebuilt by :func:`_blocks`, the band equilibrated
    as the scaled extended attempt's (:func:`_equilibrated`), factored by
    :func:`_tridiag_lu`, then refined and judged by :func:`_refine` in
    mpmath's eps, block_loss as measured in mpmath.  Raises
    SingularSystem when it is refused: there is no second attempt."""
    import mpmath as mp

    with mp.workdps(digits):
        S_hat, block_loss = _blocks(mp_tier(), system.spec)
        system = replace(system, S_hat=S_hat, block_loss=block_loss,
                         b_last=mp.mpmathify(system.b_last))
        band, rows = _equilibrated(system, system.band())
        lu = _tridiag_lu(band)
        b = np.zeros(band.shape[1], dtype=object)
        b[-1] = rows[-1] * system.b_last
        solved = _refine(system, band, lambda r: _tridiag_solve(lu, r), b,
                         mp.eps, scaled=True)
    if not solved:
        raise SingularSystem("arbitrary-precision solve refused")
    return solved


def dense_solve(system: BlockSystem
                ) -> tuple[CoefficientVector, float, np.ndarray]:
    """Solve the normalised system by banded elimination.

    The right-hand side is B_N in the numbers of each attempt, extended
    (``b_last``, which a double would round to inf past 1.8e308) or
    mpmath.  The matrix is factored in double precision (zgbtrf) and the
    solution refined against the extended blocks, accepted or refused by
    :func:`_refine`.  When the blocks overflow double on the cast, a pivot
    is zero or the refinement is refused, one more attempt does the same
    with the band scaled exactly by powers of two (:func:`_equilibrated`):
    at high modes its entries and unknowns span hundreds of decades, which
    a double factorisation does not survive unscaled.  When that is
    refused too, :func:`_solve_mp` rebuilds the same blocks in mpmath at
    75 digits, solves them equilibrated the same way and judges the answer
    by the same rule, :func:`_refine`, in mpmath's eps; if it is refused,
    SingularSystem.
    Either answer becomes doubles by :func:`coefficient_vector`, the rule
    of the recursion route too, which reads its column's log magnitudes:
    the column's clipped entries are display values that decide no
    coefficient.
    Returns the coefficients, the componentwise backward error of the
    answer (:func:`_backward_error`), in the numbers of the attempt that
    solved the system, and the last column of the Green's operator: the
    answer over B_N, before rounding, in those numbers too (extended, or
    mpmath in an object array).  The backward error does not change with
    the scaling of the rows or of the unknowns, so every attempt, scaled
    or not, reports the same measure.  For n = 0, B_1 = B_N.  For g = 0
    the answer is 0 with backward error 0, the rule judges B_N itself, and
    the column is the answer to a unit right-hand side.
    """
    x, resid, rhs = np.zeros(2 * system.n), 0.0, system.b_last
    if system.n and rhs:
        x, resid = _solution(system)
    size = np.abs(x)
    log_mag = np.full(len(x), -np.inf)
    log_mag[size != 0] = np.log(size[size != 0]) if x.dtype != object \
        else [float(mp_tier().log(v)) for v in size[size != 0]]
    coeffs = coefficient_vector(system.spec, log_mag,
                                lambda inside: x[inside].astype(complex),
                                rhs, system.pair)
    if system.n and not rhs:
        x = _solution(replace(system, b_last=np.clongdouble(1)))[0]
    return coeffs, resid, x / (rhs or 1)


def _solution(system: BlockSystem) -> tuple[np.ndarray, float]:
    """:func:`dense_solve`'s answer to a nonzero right-hand side and its
    backward error, before rounding."""
    band = system.band()
    b = np.zeros(band.shape[1], dtype=band.dtype)
    b[-1] = system.b_last
    eps = np.finfo(band.real.dtype).eps
    solved = _refine(system, band, _double_solve(band, b), b, eps)
    if not solved:
        scaled, rows = _equilibrated(system, band)
        b = rows * b
        solved = _refine(system, scaled, _double_solve(scaled, b), b, eps,
                         scaled=True)
    return solved or _solve_mp(system, _MP_DIGITS)


def solve_spec(spec: ProblemSpec) -> tuple[CoefficientVector, float]:
    """Assemble, normalise and solve in one step."""
    return dense_solve(normalize(spec))[:2]
