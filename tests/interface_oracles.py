"""Test oracles for the interface system, independent of its normalised form.

The raw (unnormalised) block system, the row-normalising blocks that turn
it into the normalised one, and the determinant companion recursion are
written here in plain double precision from ``wronskian_w`` and
``fundamental_eval``; the raw system is also built in mpmath and solved
densely.  The dense form of a normalised system is assembled from its
blocks.  The tests compare helmrad's normalised system, its banded solve
and its beta recursion against them; the determinant identities read the
companion of beta through a closed-form map.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from helmrad.assembly import R_HAT, T_HAT, BlockSystem, DegenerateNormaliser
from helmrad.problem import ProblemSpec
from helmrad.specfun import (FundamentalPair, fundamental_eval,
                             fundamental_eval_mp, wronskian_w)

#: normaliser magnitudes below this are treated as exactly singular
_DEGENERACY_FLOOR = 1e-300


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


def rhs(system: BlockSystem) -> np.ndarray:
    """The normalised right-hand side: rhs_scale at position 2n, else 0."""
    r = np.zeros(2 * system.n, dtype=complex)
    r[-1] = system.rhs_scale
    return r


def beta_tilde(spec: ProblemSpec, beta: complex) -> complex:
    """The companion value beta-tilde_n of the determinant identities,
    mapped in closed form from beta_n.

    beta-tilde_ell = (-i)^ell e^{i z_ell/c_{ell+1}} beta_ell / prod R_k over
    k = 1..ell, with R_k = z_k^2/c_{k+1} for d=3 and c_{k+1} for d=1: the
    Wronskians W(h_m, j_m)(x) = -i/x^2 and W(e^{ix}, cos x) = -i give
    1/w^{1,2}_k = i R_k.
    """
    n = spec.n
    z = spec.z
    prod = 1.0
    for k in range(1, n + 1):
        c = spec.speed(k + 1)
        prod *= z[k] ** 2 / c if spec.dimension == 3 else c
    return (-1j) ** n * np.exp(1j * z[n] / spec.speed(n + 1)) * beta / prod


def to_dense(system: BlockSystem) -> np.ndarray:
    """The normalised matrix in double, placed block by block."""
    n = system.n
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    for ell in range(n):
        i = 2 * ell
        M[i:i + 2, i:i + 2] = system.S_hat[ell].astype(complex)
        if ell < n - 1:
            M[i:i + 2, i + 2:i + 4] = T_HAT
            M[i + 2:i + 4, i:i + 2] = R_HAT
    return M


def raw_solve_mp(spec: ProblemSpec, digits: int = 60) -> np.ndarray:
    """Interior coefficients (B_1, A_2, ..., A_{n+1}) from the raw system.

    The continuity rows and the boundary right-hand side are built in
    mpmath at ``digits`` digits from separate f_1 and f_2 evaluations,
    each row and then each column is scaled to unit maximum, and the
    system is solved by mpmath's dense LU.
    """
    pair = _pair(spec)
    n = spec.n
    N = 2 * n
    with mp.workdps(digits):
        omega = mp.mpf(spec.omega)
        xs = [mp.mpf(v) for v in spec.profile.jump_points]
        M = mp.matrix(N, N)
        # rows 2(ell-1), +1: continuity of u and u'/c at interface ell
        for ell in range(1, n + 1):
            c_l, c_r = mp.mpf(spec.speed(ell)), mp.mpf(spec.speed(ell + 1))
            z = omega * xs[ell]
            f1l, df1l = fundamental_eval_mp(pair, 1, z / c_l)
            f2l, df2l = fundamental_eval_mp(pair, 2, z / c_l)
            f1r, df1r = fundamental_eval_mp(pair, 1, z / c_r)
            f2r, df2r = fundamental_eval_mp(pair, 2, z / c_r)
            i = 2 * (ell - 1)
            if ell > 1:
                M[i, i - 1], M[i + 1, i - 1] = f1l, df1l / c_l
            M[i, i], M[i + 1, i] = f2l, df2l / c_l
            M[i, i + 1], M[i + 1, i + 1] = -f1r, -df1r / c_r
            if ell < n:
                M[i, i + 2], M[i + 1, i + 2] = -f2r, -df2r / c_r
        cN = mp.mpf(spec.speed(n + 1))
        kappa = omega / cN
        f1b, df1b = fundamental_eval_mp(pair, 1, kappa)
        f2b, df2b = fundamental_eval_mp(pair, 2, kappa)
        C = f1b * mp.mpc(complex(spec.boundary_coefficient)) \
            / (kappa * (f1b * df2b - df1b * f2b))
        f2o, df2o = fundamental_eval_mp(pair, 2, omega * xs[n] / cN)
        rhs = mp.matrix(N, 1)
        rhs[N - 2] = C * f2o
        rhs[N - 1] = C * df2o / cN
        # rows, then columns, to unit maximum: at high modes the entries
        # span hundreds of orders of magnitude
        for i in range(N):
            s = 1 / max(abs(M[i, j]) for j in range(N))
            M[i, :] *= s
            rhs[i] *= s
        cols = [1 / max(abs(M[i, j]) for i in range(N)) for j in range(N)]
        for j in range(N):
            M[:, j] *= cols[j]
        x = mp.lu_solve(M, rhs)
        return np.array([complex(x[j] * cols[j]) for j in range(N)])
