"""The normalised interface system and its banded solve.

The continuity conditions at the n interior jump points couple the layer
coefficients (A_j, B_j) through a complex 2n x 2n block-tridiagonal matrix.
Unknown ordering: (B_1, A_2, B_2, ..., A_n, B_n, A_{n+1}); A_1 = 0 and B_N
are fixed by the conditions at the origin and at r = 1 and carried
separately.  After row normalisation the sub/super-diagonal blocks become
the constant matrices R_HAT and T_HAT and the right-hand side has a single
nonzero entry at position 2n; each constant block has one nonzero entry,
so the normalised matrix is tridiagonal.  :func:`dense_solve` says when
its refined extended-precision solve is accepted and when mpmath runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .problem import ProblemSpec
from .specfun import FundamentalPair, fundamental_eval, wronskian_w

#: exact sub/super-diagonal blocks of the normalised system
R_HAT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
T_HAT = np.array([[0.0, 0.0], [-1.0, 0.0]], dtype=complex)

#: pivot/normaliser magnitudes below this are treated as exactly singular
_DEGENERACY_FLOOR = 1e-300

# diagonal blocks are kept in extended precision: the solve refines against
# them, and stiff modes can push the condition number past what double
# entries can represent faithfully
_EXT = np.longdouble
_CEXT = np.clongdouble

# acceptance of the refined solve (see dense_solve)
_MAX_SWEEPS = 4
_STEP_TOL = 1e-17
_BERR_ULPS = 16
_LOG10_CANCEL_TOL = -12.0
# mpmath tier: guard digits over the condition estimate; the estimate used
# without one, and its cap (high-mode normwise estimates reach 1e300 from
# row and column scaling alone); the largest relative refinement step
_GUARD_DIGITS = 25
_MAX_DIGITS = 50
_MP_TOL = 1e-20
#: half-bandwidth of the raw (unnormalised) system
_RAW_BAND = 2


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

    ``S_hat`` may be stored in extended precision; ``spec`` lets the solver
    rebuild the system in arbitrary precision when the extended-precision
    solve fails its acceptance test.
    """

    n: int
    S_hat: np.ndarray      # (n, 2, 2)
    rhs_scale: complex     # single nonzero rhs entry, at position 2n
    spec: ProblemSpec
    block_loss: float = 0.0   # decimal digits cancelled inside the blocks

    @property
    def rhs(self) -> np.ndarray:
        r = np.zeros(2 * self.n, dtype=complex)
        r[-1] = self.rhs_scale
        return r

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

    def to_dense(self) -> np.ndarray:
        b = self.band().astype(complex)
        return np.diag(b[1]) + np.diag(b[0, 1:], 1) + np.diag(b[2, :-1], -1)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x in the widest precision of the blocks and x."""
        return _band_matvec(self.band(), x)


@dataclass(frozen=True)
class CoefficientVector:
    """Layer coefficients of the fundamental-system ansatz.

    ``entries`` holds the 2n interior unknowns in the ordering
    (B_1, A_2, B_2, ..., A_n, B_n, A_{n+1}); A_1 = 0 and B_N are stored
    separately.  ``a(j)``/``b(j)`` are 1-based per-layer accessors.
    """

    entries: np.ndarray
    b_last: complex
    a_first: complex = 0.0 + 0.0j

    @property
    def num_layers(self) -> int:
        return len(self.entries) // 2 + 1

    def a(self, j: int) -> complex:
        if j == 1:
            return self.a_first
        return complex(self.entries[2 * (j - 1) - 1])

    def b(self, j: int) -> complex:
        if j == self.num_layers:
            return complex(self.b_last)
        return complex(self.entries[2 * (j - 1)])

    def a_coeffs(self) -> np.ndarray:
        return np.array([self.a(j) for j in range(1, self.num_layers + 1)])

    def b_coeffs(self) -> np.ndarray:
        return np.array([self.b(j) for j in range(1, self.num_layers + 1)])


def rhs_scale(spec: ProblemSpec) -> complex:
    """The single nonzero entry of the normalised right-hand side.

    Coincides with the boundary coefficient B_N fixed by the radiation
    condition, since omega * w^{1,2} at the outer boundary equals
    kappa_{N,N} * W(f_1, f_2)(kappa_{N,N}).
    """
    pair = _pair(spec)
    N = spec.n + 1
    kappa = spec.kappa(N, N)
    f1, _ = fundamental_eval(pair, 1, kappa)
    w12 = wronskian_w(pair, 1, 2, spec.speed(N), spec.speed(N), spec.z[N])
    return f1 * complex(spec.boundary_coefficient) / (spec.omega * w12)


def _wronskian_terms(fp, dfp, fq, dfq, c_j, c_k):
    """(w^{p,q}, digits cancelled) from pre-evaluated pair values."""
    t1 = fp * dfq / c_k
    t2 = dfp * fq / c_j
    w = t1 - t2
    scale = max(abs(t1), abs(t2))
    loss = 0.0 if (scale == 0.0 or abs(w) == 0.0) \
        else max(0.0, float(np.log10(scale / abs(w))))
    return w, loss


def normalize(spec: ProblemSpec) -> BlockSystem:
    """Normalised system with Wronskian-form diagonal blocks."""
    n = spec.n
    pair = _pair(spec)
    S_hat = np.zeros((n, 2, 2), dtype=_CEXT)
    block_loss = 0.0
    for ell in range(1, n + 1):
        c_l = _EXT(spec.speed(ell))
        c_r = _EXT(spec.speed(ell + 1))
        z = _EXT(spec.omega) * _EXT(spec.profile.jump_points[ell])
        f1l, df1l = fundamental_eval(pair, 1, z / c_l, _EXT)
        f2l, df2l = fundamental_eval(pair, 2, z / c_l, _EXT)
        f1r, df1r = fundamental_eval(pair, 1, z / c_r, _EXT)
        f2r, df2r = fundamental_eval(pair, 2, z / c_r, _EXT)
        w21, l0 = _wronskian_terms(f2r, df2r, f1l, df1l, c_r, c_l)
        if abs(w21) < _DEGENERACY_FLOOR:
            raise DegenerateNormaliser(
                f"normalising Wronskian vanished at interface {ell}")
        w22, l1 = _wronskian_terms(f2r, df2r, f2l, df2l, c_r, c_l)
        w12rr, l2 = _wronskian_terms(f1r, df1r, f2r, df2r, c_r, c_r)
        w12ll, l3 = _wronskian_terms(f1l, df1l, f2l, df2l, c_l, c_l)
        w11, l4 = _wronskian_terms(f1l, df1l, f1r, df1r, c_l, c_r)
        S_hat[ell - 1, 0, 0] = w22
        S_hat[ell - 1, 0, 1] = w12rr
        S_hat[ell - 1, 1, 0] = -w12ll
        S_hat[ell - 1, 1, 1] = w11
        S_hat[ell - 1] /= w21
        block_loss = max(block_loss, l0, l1, l2, l3, l4)
    return BlockSystem(n=n, S_hat=S_hat, rhs_scale=rhs_scale(spec),
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


def _band_lu_mp(A: list) -> list:
    """Factor the list-of-rows matrix A (half-bandwidth _RAW_BAND) in place
    with partial pivoting in the band.  Returns the steps (pivot row,
    multipliers); A's upper triangle then holds U."""
    N = len(A)
    steps = []
    for k in range(N):
        last = min(k + _RAW_BAND, N - 1)
        p = max(range(k, last + 1), key=lambda i: abs(A[i][k]))
        if not A[p][k]:
            raise SingularSystem(f"zero pivot in column {k}")
        A[k], A[p] = A[p], A[k]
        mults = []
        for i in range(k + 1, last + 1):
            m = A[i][k] / A[k][k]
            mults.append(m)
            for j in range(k + 1, min(k + 2 * _RAW_BAND + 1, N)):
                A[i][j] -= m * A[k][j]
        steps.append((p, mults))
    return steps


def _band_lu_solve_mp(U: list, steps: list, b: list) -> list:
    y = list(b)
    for k, (p, mults) in enumerate(steps):
        y[k], y[p] = y[p], y[k]
        for i, m in enumerate(mults, start=k + 1):
            y[i] -= m * y[k]
    for k in reversed(range(len(y))):
        s = y[k]
        for j in range(k + 1, min(k + 2 * _RAW_BAND + 1, len(y))):
            s -= U[k][j] * y[j]
        y[k] = s / U[k][k]
    return y


def _solve_mp(spec: ProblemSpec, digits: float) -> tuple[np.ndarray, float]:
    """Entries and relative residual of the raw system, solved in mpmath
    at _GUARD_DIGITS + ``digits`` digits by row-scaled banded elimination.
    Raises SingularSystem unless one refinement step against the answer's
    own residual moves no entry by more than _MP_TOL of itself."""
    import mpmath as mp

    from .specfun import fundamental_eval_mp
    pair = _pair(spec)
    n = spec.n
    N = 2 * n
    with mp.workdps(_GUARD_DIGITS + int(math.ceil(digits))):
        omega = mp.mpf(spec.omega)
        xs = [mp.mpf(v) for v in spec.profile.jump_points]
        zero = mp.mpc(0)
        M = [[zero] * N for _ in range(N)]
        # rows 2(ell-1), +1: continuity of u and u'/c at interface ell.  On
        # the positive axis f_2 = Re f_1 (j_m = Re h_m, cos = Re e^{ix}), so
        # one f_1 evaluation per side gives both.
        for ell in range(1, n + 1):
            c_l, c_r = mp.mpf(spec.speed(ell)), mp.mpf(spec.speed(ell + 1))
            z = omega * xs[ell]
            f1l, df1l = fundamental_eval_mp(pair, 1, z / c_l)
            f1r, df1r = fundamental_eval_mp(pair, 1, z / c_r)
            i = 2 * (ell - 1)
            if ell > 1:
                M[i][i - 1], M[i + 1][i - 1] = f1l, df1l / c_l
            M[i][i], M[i + 1][i] = mp.re(f1l), mp.re(df1l) / c_l
            M[i][i + 1], M[i + 1][i + 1] = -f1r, -df1r / c_r
            if ell < n:
                M[i][i + 2], M[i + 1][i + 2] = -mp.re(f1r), -mp.re(df1r) / c_r
        cN = mp.mpf(spec.speed(n + 1))
        kappa = omega / cN
        f1b, df1b = fundamental_eval_mp(pair, 1, kappa)
        w12 = f1b * mp.re(df1b) - df1b * mp.re(f1b)
        C = f1b * mp.mpc(complex(spec.boundary_coefficient)) / (kappa * w12)
        f2o, df2o = fundamental_eval_mp(pair, 2, omega * xs[n] / cN)
        rhs = [zero] * N
        rhs[N - 2] = C * f2o
        rhs[N - 1] = C * df2o / cN
        for i, row in enumerate(M):
            band = slice(max(0, i - _RAW_BAND), i + _RAW_BAND + 1)
            # f_1 = h_m (or e^{ix}) has no zeros, so no row vanishes
            s = mp.mpf(2) ** -mp.frexp(max(abs(v) for v in row[band]))[1]
            row[band] = [v * s for v in row[band]]
            rhs[i] *= s
        U = [list(row) for row in M]
        steps = _band_lu_mp(U)
        x = _band_lu_solve_mp(U, steps, rhs)
        r = [b - mp.fsum(M[i][j] * x[j] for j in range(
                max(0, i - _RAW_BAND), min(N, i + _RAW_BAND + 1)))
             for i, b in enumerate(rhs)]
        dx = _band_lu_solve_mp(U, steps, r)
        if not all(abs(d) <= _MP_TOL * abs(v) for d, v in zip(dx, x)):
            raise SingularSystem(
                "arbitrary-precision solve failed its residual check")
        resid = float(max(abs(v) for v in r) / max(abs(v) for v in rhs))
        x = [v + d for v, d in zip(x, dx)]
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
    blocks overflow double) :func:`_solve_mp` solves the raw system in
    mpmath, with digits from the condition estimate of the double factors
    (zgbcon); if its answer fails its residual check, once more at twice
    the precision, then SingularSystem.  Coefficients outside the double
    range raise OverflowError.
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
    digits = _MAX_DIGITS
    if np.all(np.isfinite(ab)):
        lu, piv, info = lapack.zgbtrf(ab, 1, 1)
        if info == 0:
            accepted = _refine(system, band, lu, piv)
            if accepted is not None:
                return CoefficientVector(entries=accepted[0],
                                         b_last=system.rhs_scale), accepted[1]
            rcond, _ = lapack.zgbcon(1, 1, lu, piv, np.abs(ab).sum(0).max())
            if rcond > 0.0:
                digits = min(digits, -math.log10(rcond) + system.block_loss)
    try:
        x, resid = _solve_mp(system.spec, digits)
    except SingularSystem:     # the estimate fell short: double the digits
        x, resid = _solve_mp(system.spec, 2 * digits + _GUARD_DIGITS)
    return CoefficientVector(entries=x, b_last=system.rhs_scale), resid


def solve_spec(spec: ProblemSpec) -> tuple[CoefficientVector, float]:
    """Assemble, normalise and solve in one step."""
    return dense_solve(normalize(spec))
