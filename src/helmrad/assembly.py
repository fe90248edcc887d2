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
blocks in mpmath.  :func:`dense_solve` says when its refined
extended-precision solve is accepted and when mpmath runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .problem import ProblemSpec
from .specfun import EXTENDED, FundamentalPair, Tier, fundamental_eval, mp_tier

#: exact sub/super-diagonal blocks of the normalised system
R_HAT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
T_HAT = np.array([[0.0, 0.0], [-1.0, 0.0]], dtype=complex)

#: pivot/normaliser magnitudes below this are treated as exactly singular
_DEGENERACY_FLOOR = 1e-300

# acceptance of the refined solve (see dense_solve)
_MAX_SWEEPS = 4
_STEP_TOL = 1e-17
_BERR_ULPS = 16
_LOG10_CANCEL_TOL = -12.0
# mpmath tier: working digits of the first attempt (the retry doubles
# them), and the largest relative refinement step before the blocks'
# cancellation is accounted for
_MP_DIGITS = 75
_MP_TOL = 1e-20


class DegenerateNormaliser(Exception):
    """A row-normalising Wronskian is numerically zero (invalid profile)."""


class SingularSystem(Exception):
    """A vanishing pivot, or an mpmath answer failing its residual check."""


def _pair(spec: ProblemSpec) -> FundamentalPair:
    return FundamentalPair(spec.dimension, spec.mode)


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for a tridiagonal M in the layout of :meth:`BlockSystem.band`."""
    y = band[1] * x
    y[:-1] += band[0, 1:] * x[1:]
    y[1:] += band[2, :-1] * x[:-1]
    return y


@dataclass(frozen=True)
class BlockSystem:
    """Normalised block-tridiagonal system; R/T blocks are R_HAT, T_HAT.

    ``S_hat`` is stored in extended precision, or as mpmath numbers in an
    object array; ``spec`` lets the solver rebuild the blocks in mpmath
    when the extended-precision solve fails its acceptance test.
    """

    n: int
    S_hat: np.ndarray      # (n, 2, 2)
    rhs_scale: complex     # single nonzero rhs entry, at position 2n
    spec: ProblemSpec
    block_loss: float = 0.0   # decimal digits cancelled inside the blocks

    def band(self) -> np.ndarray:
        """The diagonals in LAPACK band layout, in the blocks' dtype: column
        j holds M[j-1, j], M[j, j] and M[j+1, j]."""
        S = self.S_hat
        band = np.zeros((3, 2 * self.n), dtype=S.dtype)
        band[0, 1::2] = S[:, 0, 1]
        band[0, 2::2] = T_HAT[1, 0]
        band[1, 0::2] = S[:, 0, 0]
        band[1, 1::2] = S[:, 1, 1]
        band[2, 0::2] = S[:, 1, 0]
        band[2, 1:-1:2] = R_HAT[0, 1]
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


def rhs_scale(spec: ProblemSpec) -> complex:
    """The single nonzero entry of the normalised right-hand side.

    Coincides with the boundary coefficient B_N fixed by the radiation
    condition, f_1(kappa) g / (omega w^{1,2}) at the outer boundary, where
    kappa = omega / c_N.  There omega w^{1,2} = kappa W(f_1, f_2)(kappa),
    and the Wronskian is known in closed form: W(h_m, j_m)(x) = -i/x^2 for
    d=3 and W(e^{ix}, cos x) = -i for d=1.  So B_N = i kappa f_1(kappa) g
    for d=3 and i f_1(kappa) g / kappa for d=1, with kappa and f_1
    evaluated in extended precision.
    """
    ext = np.longdouble
    kappa = ext(spec.omega) / ext(spec.speed(spec.n + 1))
    f1, _ = fundamental_eval(_pair(spec), 1, kappa, ext)
    factor = kappa if spec.dimension == 3 else 1 / kappa
    return complex(1j * factor * f1
                   * np.clongdouble(complex(spec.boundary_coefficient)))


def _wronskian_terms(tier: Tier, fp, dfp, fq, dfq, c_j, c_k):
    """(w^{p,q}, digits cancelled) from pre-evaluated pair values."""
    t1 = fp * dfq / c_k
    t2 = dfp * fq / c_j
    w = t1 - t2
    scale = max(abs(t1), abs(t2))
    loss = 0.0 if (scale == 0.0 or abs(w) == 0.0) \
        else max(0.0, float(tier.log10(scale / abs(w))))
    return w, loss


def _blocks(tier: Tier, spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """Wronskian-form diagonal blocks S_hat (n, 2, 2) in ``tier`` and the
    decimal digits cancelled while forming them."""
    pair = _pair(spec)
    omega = tier.real(spec.omega)
    blocks, norms, block_loss = [], [], 0.0
    for ell in range(1, spec.n + 1):
        c_l = tier.real(spec.speed(ell))
        c_r = tier.real(spec.speed(ell + 1))
        z = omega * tier.real(spec.profile.jump_points[ell])
        f1l, df1l, f2l, df2l = tier.pair_eval(pair, z / c_l)
        f1r, df1r, f2r, df2r = tier.pair_eval(pair, z / c_r)
        w21, l0 = _wronskian_terms(tier, f2r, df2r, f1l, df1l, c_r, c_l)
        if abs(w21) < _DEGENERACY_FLOOR:
            raise DegenerateNormaliser(
                f"normalising Wronskian vanished at interface {ell}")
        w22, l1 = _wronskian_terms(tier, f2r, df2r, f2l, df2l, c_r, c_l)
        w12rr, l2 = _wronskian_terms(tier, f1r, df1r, f2r, df2r, c_r, c_r)
        w12ll, l3 = _wronskian_terms(tier, f1l, df1l, f2l, df2l, c_l, c_l)
        w11, l4 = _wronskian_terms(tier, f1l, df1l, f1r, df1r, c_l, c_r)
        blocks.append([[w22, w12rr], [-w12ll, w11]])
        norms.append(w21)
        block_loss = max(block_loss, l0, l1, l2, l3, l4)
    S_hat = np.array(blocks, dtype=tier.cdtype).reshape(spec.n, 2, 2)
    S_hat /= np.array(norms, dtype=tier.cdtype)[:, None, None]
    return S_hat, block_loss


def normalize(spec: ProblemSpec) -> BlockSystem:
    """Normalised system with Wronskian-form diagonal blocks, held in
    extended precision: the solve refines against them, and stiff modes
    can push the condition number past what double entries represent."""
    S_hat, block_loss = _blocks(EXTENDED, spec)
    return BlockSystem(n=spec.n, S_hat=S_hat, rhs_scale=rhs_scale(spec),
                       spec=spec, block_loss=block_loss)


def _refine(system: BlockSystem, band: np.ndarray, lu: np.ndarray,
            piv: np.ndarray):
    """(entries, relative residual) of the solution refined with the double
    factors, or None if it fails the acceptance tests of dense_solve."""
    eps = np.finfo(band.real.dtype).eps
    # in log space: block_loss may be large or infinite
    if not math.log10(eps) + system.block_loss <= _LOG10_CANCEL_TOL:
        return None
    b = np.zeros(band.shape[1], dtype=band.dtype)
    b[-1] = system.rhs_scale
    x, r, prev = np.zeros_like(b), b, np.inf
    for sweep in range(_MAX_SWEEPS + 1):
        dx, _ = lapack.zgbtrs(lu, 1, 1, r.astype(complex), piv)
        x = x + dx
        r = b - _band_matvec(band, x)
        size = np.max(np.abs(dx))
        if not size <= 0.5 * prev:
            return None
        if sweep and size <= _STEP_TOL * np.max(np.abs(x)):
            break
        prev = size
    else:
        return None
    scale = _band_matvec(np.abs(band), np.abs(x)) + np.abs(b)
    berr = np.max(np.divide(np.abs(r), scale, out=np.zeros_like(scale),
                            where=scale > 0))
    if not berr <= _BERR_ULPS * eps:
        return None
    with np.errstate(over="ignore", under="ignore"):
        entries = _double(x.astype(complex), x != 0)
    return entries, float(np.max(np.abs(r)) / abs(system.rhs_scale))


def _double(x: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """``x`` if each entry whose exact value is nonzero is a normal double."""
    normal = np.abs(x) >= np.finfo(float).tiny
    if not np.all(np.isfinite(x) & (normal | ~nonzero)):
        raise OverflowError("coefficients outside the double range")
    return x


def _tridiag_lu(band: np.ndarray) -> tuple:
    """Factor the tridiagonal matrix in ``band`` (the layout of
    :meth:`BlockSystem.band`) by elimination with partial pivoting, as
    LAPACK's xGTTRF does.  Returns (multipliers, diagonal of U, its first
    and second superdiagonals, row interchanges); the superdiagonals are
    padded with zeros to length N."""
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
        low[k] = low[k] / diag[k]
        diag[k + 1] -= low[k] * up[k]
        up[k + 1] -= low[k] * up2[k]
    if not diag[-1]:
        raise SingularSystem(f"zero pivot in column {N - 1}")
    return low, diag, up, up2, swaps


def _tridiag_solve(lu: tuple, b: list) -> list:
    low, diag, up, up2, swaps = lu
    y = list(b) + [0, 0]
    for k, m in enumerate(low):
        if swaps[k]:
            y[k], y[k + 1] = y[k + 1], y[k]
        y[k + 1] -= m * y[k]
    for k in reversed(range(len(diag))):
        y[k] = (y[k] - up[k] * y[k + 1] - up2[k] * y[k + 2]) / diag[k]
    return y[:-2]


def _solve_mp(system: BlockSystem, digits: int) -> tuple[np.ndarray, float]:
    """Entries and relative residual of ``system``, with its blocks rebuilt
    by :func:`_blocks` in mpmath at ``digits`` working digits and solved by
    row-scaled tridiagonal elimination.  Raises SingularSystem unless, for
    every entry, max(|step|, 10**-digits |x|) * 10**block_loss <= _MP_TOL
    |x|, where the step is one refinement step against the answer's own
    residual and block_loss the digits cancelled in the blocks as measured
    in mpmath.  The step estimates the condition number times the unit
    roundoff, and the blocks carry 10**block_loss unit roundoffs of error
    from cancellation, so the scaled step bounds the error of the answer to
    first order.  A step far below the unit roundoff vouches for no more
    than the roundoff itself: the blocks' cancellation error still reaches
    the answer componentwise, hence the floor of 10**-digits."""
    import mpmath as mp

    with mp.workdps(digits):
        S_hat, block_loss = _blocks(mp_tier(), system.spec)
        band = replace(system, S_hat=S_hat).band()
        # scale each row by a power of two: its entries span hundreds of
        # orders of magnitude at high modes, and pivoting compares them
        size = np.abs(band)
        row_max = size[1].copy()
        row_max[:-1] = np.maximum(row_max[:-1], size[0, 1:])
        row_max[1:] = np.maximum(row_max[1:], size[2, :-1])
        # no row vanishes: each row but the first and the last holds an
        # entry +-1, and those two hold w^{1,2} of one layer, a Wronskian
        # with no zeros
        s = np.array([mp.ldexp(1, -mp.frexp(v)[1]) for v in row_max])
        band[0, 1:] *= s[:-1]
        band[1] *= s
        band[2, :-1] *= s[1:]
        b = np.zeros(band.shape[1], dtype=object)
        b[-1] = s[-1] * mp.mpc(system.rhs_scale)
        lu = _tridiag_lu(band)
        x = np.array(_tridiag_solve(lu, b))
        r = b - _band_matvec(band, x)
        dx = _tridiag_solve(lu, r)
        amp = mp.mpf(10) ** block_loss
        unit = mp.mpf(10) ** -digits
        if not all(amp * max(abs(d), unit * abs(v)) <= _MP_TOL * abs(v)
                   for d, v in zip(dx, x)):
            raise SingularSystem(
                "arbitrary-precision solve failed its residual check")
        resid = float(max(abs(v) for v in r) / abs(b[-1]))
        x = x + dx
        return _double(np.array([complex(v) for v in x]),
                       np.array([bool(v) for v in x])), resid


def dense_solve(system: BlockSystem) -> tuple[CoefficientVector, float]:
    """Solve the normalised system by banded elimination.

    The matrix is factored once in double precision (zgbtrf) and the
    solution refined against the extended blocks.  The refined solution is
    accepted when each correction is at most half the previous one and the
    last at most 1e-17 max|x| within 4 sweeps, its componentwise backward
    error max_i |r|_i / (|M||x| + |b|)_i is at most 16 eps of the blocks'
    dtype, and eps * 10**block_loss <= 1e-12.  Otherwise (or when the
    blocks overflow double) :func:`_solve_mp` rebuilds the same blocks in
    mpmath at 75 digits and solves them there; if its answer fails its
    refinement check, once more at 150 digits, then SingularSystem.
    Coefficients outside the double range raise OverflowError.
    Returns the coefficients and the relative residual
    ||M x - rhs||_inf / ||rhs||_inf; for n = 0, B_1 = rhs_scale.
    """
    if system.n == 0:
        return CoefficientVector(entries=np.zeros(0, dtype=complex),
                                 b_last=system.rhs_scale), 0.0
    band = system.band()
    ab = np.zeros((4, band.shape[1]), dtype=complex)
    with np.errstate(over="ignore"):
        ab[1:] = band
    if np.all(np.isfinite(ab)):
        lu, piv, info = lapack.zgbtrf(ab, 1, 1)
        if info == 0:
            accepted = _refine(system, band, lu, piv)
            if accepted is not None:
                return CoefficientVector(entries=accepted[0],
                                         b_last=system.rhs_scale), accepted[1]
    try:
        x, resid = _solve_mp(system, _MP_DIGITS)
    except SingularSystem:     # the check failed: double the digits
        x, resid = _solve_mp(system, 2 * _MP_DIGITS)
    return CoefficientVector(entries=x, b_last=system.rhs_scale), resid


def solve_spec(spec: ProblemSpec) -> tuple[CoefficientVector, float]:
    """Assemble, normalise and solve in one step."""
    return dense_solve(normalize(spec))
