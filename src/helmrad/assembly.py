"""Interface linear systems: raw and normalised block-tridiagonal forms.

The continuity conditions at the n interior jump points couple the layer
coefficients (A_j, B_j) through a complex 2n x 2n block-tridiagonal matrix.
Unknown ordering: (B_1, A_2, B_2, ..., A_n, B_n, A_{n+1}); A_1 = 0 and B_N
are fixed by the conditions at the origin and at r = 1 and carried
separately.  After row normalisation the sub/super-diagonal blocks become
the constant matrices R_HAT and T_HAT and the right-hand side has a single
nonzero entry at position 2n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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

#: forward-error target of the refined solve; beyond it the solve escalates
#: to arbitrary precision
_REFINE_TOL = 1e-12


class DegenerateNormaliser(Exception):
    """A row-normalising Wronskian is numerically zero (invalid profile)."""


class SingularSystem(Exception):
    """The banded elimination hit a vanishing pivot."""


def _pair(spec: ProblemSpec) -> FundamentalPair:
    return FundamentalPair(spec.dimension, spec.mode)


@dataclass(frozen=True)
class RawSystem:
    """Blocks of the unnormalised interface system."""

    n: int
    S: np.ndarray          # (n, 2, 2)
    R: np.ndarray          # (n-1, 2, 2)
    T: np.ndarray          # (n-1, 2, 2)
    rhs: np.ndarray        # (2n,), only the last two entries nonzero
    scale: complex         # common factor C of the right-hand side


@dataclass(frozen=True)
class BlockSystem:
    """Normalised block-tridiagonal system; R/T blocks are R_HAT, T_HAT.

    ``S_hat`` may be stored in extended precision; ``spec`` (when set by
    :func:`normalize`) lets the solver rebuild entries at higher precision
    if the conditioning demands it.
    """

    n: int
    S_hat: np.ndarray      # (n, 2, 2)
    rhs_scale: complex     # single nonzero rhs entry, at position 2n
    spec: ProblemSpec | None = None
    block_loss: float = 0.0   # decimal digits cancelled inside the blocks

    @property
    def rhs(self) -> np.ndarray:
        r = np.zeros(2 * self.n, dtype=complex)
        r[-1] = self.rhs_scale
        return r

    def to_dense(self) -> np.ndarray:
        n = self.n
        M = np.zeros((2 * n, 2 * n), dtype=complex)
        for ell in range(n):
            i = 2 * ell
            M[i:i + 2, i:i + 2] = self.S_hat[ell].astype(complex)
            if ell < n - 1:
                M[i:i + 2, i + 2:i + 4] = T_HAT
                M[i + 2:i + 4, i:i + 2] = R_HAT
        return M

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x in the widest precision of the blocks and x."""
        n = self.n
        y = np.zeros(2 * n, dtype=np.result_type(self.S_hat, x))
        for ell in range(n):
            i = 2 * ell
            y[i:i + 2] += self.S_hat[ell] @ x[i:i + 2]
            if ell < n - 1:
                y[i:i + 2] += T_HAT @ x[i + 2:i + 4]
                y[i + 2:i + 4] += R_HAT @ x[i:i + 2]
        return y


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


def assemble_raw(spec: ProblemSpec) -> RawSystem:
    """Populate the raw S/R/T blocks and right-hand side."""
    n = spec.n
    if n < 1:
        raise ValueError("need at least one interior jump")
    pair = _pair(spec)
    S = np.zeros((n, 2, 2), dtype=complex)
    R = np.zeros((max(n - 1, 0), 2, 2), dtype=complex)
    T = np.zeros((max(n - 1, 0), 2, 2), dtype=complex)
    for ell in range(1, n + 1):
        c_l, c_r = spec.speed(ell), spec.speed(ell + 1)
        f2l, df2l = fundamental_eval(pair, 2, spec.kappa(ell, ell))
        f1r, df1r = fundamental_eval(pair, 1, spec.kappa(ell + 1, ell))
        S[ell - 1] = [[f2l, -f1r], [df2l / c_l, -df1r / c_r]]
        if ell < n:
            f1d, df1d = fundamental_eval(pair, 1, spec.kappa(ell + 1, ell + 1))
            R[ell - 1] = [[0.0, f1d], [0.0, df1d / c_r]]
            f2r, df2r = fundamental_eval(pair, 2, spec.kappa(ell + 1, ell))
            T[ell - 1] = [[-f2r, 0.0], [-df2r / c_r, 0.0]]
    # boundary factor C multiplying the raw right-hand side
    N = n + 1
    kappa = spec.kappa(N, N)
    f1b, _ = fundamental_eval(pair, 1, kappa)
    w12b = wronskian_w(pair, 1, 2, spec.speed(N), spec.speed(N), spec.z[N])
    C = f1b * complex(spec.boundary_coefficient) / (kappa * spec.speed(N) * w12b)
    rhs = np.zeros(2 * n, dtype=complex)
    f2b, df2b = fundamental_eval(pair, 2, spec.kappa(N, n))
    rhs[-2] = C * f2b
    rhs[-1] = C * df2b / spec.speed(N)
    return RawSystem(n=n, S=S, R=R, T=T, rhs=rhs, scale=C)


def normalizer_blocks(spec: ProblemSpec) -> np.ndarray:
    """The 2x2 row-normalising blocks D^(ell), ell = 1..n.

    Row 1 is the perpendicular of the T-column at ell, row 2 the
    perpendicular of the R-column at ell-1, both divided by
    w^{2,1}_{m,ell+1,ell,ell}.
    """
    n = spec.n
    pair = _pair(spec)
    D = np.zeros((n, 2, 2), dtype=complex)
    for ell in range(1, n + 1):
        c_l, c_r = spec.speed(ell), spec.speed(ell + 1)
        w21 = wronskian_w(pair, 2, 1, c_r, c_l, spec.z[ell])
        if abs(w21) < _DEGENERACY_FLOOR:
            raise DegenerateNormaliser(
                f"normalising Wronskian vanished at interface {ell}")
        f2r, df2r = fundamental_eval(pair, 2, spec.kappa(ell + 1, ell))
        f1l, df1l = fundamental_eval(pair, 1, spec.kappa(ell, ell))
        # (a, b)^perp = (b, -a) applied to the t- and r-columns
        D[ell - 1, 0] = [-df2r / c_r, f2r]
        D[ell - 1, 1] = [df1l / c_l, -f1l]
        D[ell - 1] /= w21
    return D


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


def _to_banded(system: BlockSystem, lo: int = 2, up: int = 2) -> np.ndarray:
    """Pack the system into LAPACK band storage (up upper, lo lower)."""
    n2 = 2 * system.n
    M = system.to_dense()
    ab = np.zeros((lo + up + 1, n2), dtype=complex)
    for i in range(n2):
        for j in range(max(0, i - lo), min(n2, i + up + 1)):
            ab[up + i - j, j] = M[i, j]
    return ab


def _solve_mp(spec: ProblemSpec, digits: float) -> np.ndarray:
    """Arbitrary-precision elimination on the raw interface system."""
    import math

    import mpmath as mp

    from .specfun import fundamental_eval_mp
    pair = _pair(spec)
    n = spec.n
    with mp.workdps(25 + int(math.ceil(digits))):
        omega = mp.mpf(spec.omega)
        xs = [mp.mpf(v) for v in spec.profile.jump_points]
        M = mp.matrix(2 * n, 2 * n)
        for ell in range(1, n + 1):
            c_l, c_r = mp.mpf(spec.speed(ell)), mp.mpf(spec.speed(ell + 1))
            z = omega * xs[ell]
            f2l, df2l = fundamental_eval_mp(pair, 2, z / c_l)
            f1r, df1r = fundamental_eval_mp(pair, 1, z / c_r)
            i = 2 * (ell - 1)
            M[i, i], M[i, i + 1] = f2l, -f1r
            M[i + 1, i], M[i + 1, i + 1] = df2l / c_l, -df1r / c_r
            if ell < n:
                f2r, df2r = fundamental_eval_mp(pair, 2, z / c_r)
                M[i, i + 2], M[i + 1, i + 2] = -f2r, -df2r / c_r
                zn = omega * xs[ell + 1]
                f1d, df1d = fundamental_eval_mp(pair, 1, zn / c_r)
                M[i + 2, i + 1], M[i + 3, i + 1] = f1d, df1d / c_r
        N = n + 1
        cN = mp.mpf(spec.speed(N))
        kappa = omega / cN
        f1b, df1b = fundamental_eval_mp(pair, 1, kappa)
        f2b, df2b = fundamental_eval_mp(pair, 2, kappa)
        w12 = f1b * df2b - df1b * f2b
        g = mp.mpc(complex(spec.boundary_coefficient))
        C = f1b * g / (kappa * w12)
        f2o, df2o = fundamental_eval_mp(pair, 2, omega * xs[n] / cN)
        rhs = mp.matrix(2 * n, 1)
        rhs[2 * n - 2] = C * f2o
        rhs[2 * n - 1] = C * df2o / cN
        try:
            x = mp.lu_solve(M, rhs)
        except ZeroDivisionError as exc:
            raise SingularSystem(str(exc)) from exc
        r = M * x - rhs
        resid = float(mp.norm(r, mp.inf) / mp.norm(rhs, mp.inf))
        return np.array([complex(x[i]) for i in range(2 * n)]), resid


def dense_solve(system: BlockSystem) -> tuple[CoefficientVector, float]:
    """Solve the normalised system by banded elimination (bandwidth 2).

    The double-precision factorisation is refined against the
    extended-precision blocks; when the condition number is too large for
    even extended entries to carry the answer, the solve is redone in
    arbitrary precision on the raw system.  Returns the coefficient vector
    together with the relative residual ||M x - rhs||_inf / ||rhs||_inf.
    A single layer (n = 0) has no interior unknowns: B_1 = rhs_scale.
    """
    if system.n == 0:
        return CoefficientVector(entries=np.zeros(0, dtype=complex),
                                 b_last=system.rhs_scale), 0.0
    rhs = system.rhs
    ab = _to_banded(system)
    try:
        x = scipy.linalg.solve_banded((2, 2), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("non-finite solution from banded elimination")
    cond = np.linalg.cond(system.to_dense())
    eps_blocks = float(np.finfo(system.S_hat.real.dtype).eps) \
        * 10.0 ** system.block_loss
    if (not np.isfinite(cond) or cond * eps_blocks > _REFINE_TOL) \
            and system.spec is not None:
        digits = max(0.0, math.log10(cond)) if np.isfinite(cond) else 50.0
        x, resid = _solve_mp(system.spec, digits)
        return CoefficientVector(entries=x, b_last=system.rhs_scale), resid
    # refinement against the extended blocks removes the double-LU
    # forward error; two sweeps suffice for cond*eps_double << 1
    rhs_ext = np.zeros(2 * system.n, dtype=_CEXT)
    rhs_ext[-1] = system.rhs_scale
    xe = x.astype(_CEXT)
    for _ in range(2):
        r = rhs_ext - system.matvec(xe)
        dx = scipy.linalg.solve_banded((2, 2), ab, r.astype(complex))
        xe = xe + dx
        if np.max(np.abs(dx)) <= 1e-17 * np.max(np.abs(xe)):
            break
    x = xe.astype(complex)
    resid = float(np.max(np.abs(system.matvec(xe) - rhs_ext)).astype(float)
                  / np.max(np.abs(rhs)))
    return CoefficientVector(entries=x, b_last=system.rhs_scale), resid


def solve_spec(spec: ProblemSpec) -> tuple[CoefficientVector, float]:
    """Assemble, normalise and solve in one step."""
    return dense_solve(normalize(spec))


def w_sequence(spec: ProblemSpec) -> np.ndarray:
    """Determinant companion sequence (W_{m,ell,1}, W_{m,ell,2}), ell=0..n."""
    pair = _pair(spec)
    W = np.zeros((spec.n + 1, 2), dtype=complex)
    W[0] = [1.0, 0.0]
    for ell in range(1, spec.n + 1):
        c_l, c_r = spec.speed(ell), spec.speed(ell + 1)
        z = spec.z[ell]
        for q in (1, 2):
            w1q = wronskian_w(pair, 1, q, c_l, c_r, z)
            w2q = wronskian_w(pair, 2, q, c_l, c_r, z)
            W[ell, q - 1] = W[ell - 1, 0] * w2q - W[ell - 1, 1] * w1q
    return W


def determinant_recursion(spec: ProblemSpec) -> complex:
    """det of the normalised matrix via the W-sequence."""
    if spec.n < 1:
        raise ValueError("need at least one interior jump")
    pair = _pair(spec)
    W = w_sequence(spec)
    denom = 1.0 + 0.0j
    for ell in range(1, spec.n + 1):
        denom *= wronskian_w(pair, 2, 1, spec.speed(ell + 1), spec.speed(ell),
                             spec.z[ell])
    return complex(W[spec.n, 0] / denom)
