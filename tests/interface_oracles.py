"""Test oracles for the interface system, independent of its normalised form.

The raw (unnormalised) block system, the row-normalising blocks that turn
it into the normalised one, and the determinant companion recursion are
written here in plain double precision from ``wronskian_w`` and
``fundamental_eval``; the raw system is also built in mpmath and solved
densely.  The dense form of a normalised system is assembled from the
diagonal blocks of its band and the constant couplings R_HAT and T_HAT.
The tests compare helmrad's normalised system, its banded solve and its
beta recursion against them; the determinant identities read the
companion of beta through a closed-form map.  ``interface`` is the
reflection data of one interface, formed point by point in a precision
tier from scalar pair evaluations: the reference for the recursion's
array pass over all interfaces.  ``exact_interface_residuals`` is the
interface backward error of given coefficients with every pair value and
every sum in mpmath: the reference for ``evaluate.interface_residuals``.
``former_b_last``, ``former_envelope`` and ``former_coefficient_vector``
are B_N, the layer envelope and the double-range rule as helmrad formed
them from pair evaluations of their own, before they read the columns of
the solve's one pair evaluation: the references for
``assembly.b_last_extended`` and the envelope of
``assembly.coefficient_vector``.  ``fundamental_eval_mp`` is the pair of
``fundamental_eval`` in mpmath, read from the rows of the package's one
mpmath evaluator, ``specfun._rows_mp``.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from helmrad.assembly import (_LOG_EPS, _LOG_MAX, _LOG_TINY, BlockSystem,
                              CoefficientVector, DegenerateNormaliser)
from helmrad.problem import ProblemSpec
from helmrad.specfun import (EXTENDED, FundamentalPair, Tier, _outgoing,
                             _rows_mp, fundamental_eval, wronskian_w)

#: normaliser magnitudes below this are treated as exactly singular
_DEGENERACY_FLOOR = 1e-300

#: exact sub/super-diagonal blocks of the normalised system
R_HAT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
T_HAT = np.array([[0.0, 0.0], [-1.0, 0.0]], dtype=complex)


def fundamental_eval_mp(pair: FundamentalPair, which: int, x) -> tuple:
    """Value and derivative of f_{m,d,which} at x > 0 as mpc, in the active
    mpmath context; f_2 is Re f_1, bit for bit."""
    re, im = _rows_mp(pair, x)      # value and slope, then shifted orders
    return tuple(map(mp.mpc, re[:2], im[:2] if _outgoing(which) else (0, 0)))


def _pair(spec: ProblemSpec) -> FundamentalPair:
    return FundamentalPair(spec.dimension, spec.mode)


def kappa(spec: ProblemSpec, j: int, ell: int) -> float:
    """Scaled argument kappa_{j,ell} = z_ell / c_j (1-based j, 0-based ell)."""
    return float(spec.z[ell] / spec.speed(j))


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
        f2l, df2l = fundamental_eval(pair, 2, kappa(spec, ell, ell))
        f1r, df1r = fundamental_eval(pair, 1, kappa(spec, ell + 1, ell))
        S[ell - 1] = [[f2l, -f1r], [df2l / c_l, -df1r / c_r]]
        if ell < n:
            f1d, df1d = fundamental_eval(pair, 1,
                                         kappa(spec, ell + 1, ell + 1))
            R[ell - 1] = [[0.0, f1d], [0.0, df1d / c_r]]
            f2r, df2r = fundamental_eval(pair, 2, kappa(spec, ell + 1, ell))
            T[ell - 1] = [[-f2r, 0.0], [-df2r / c_r, 0.0]]
    # boundary factor C multiplying the raw right-hand side
    N = n + 1
    k_bdy = kappa(spec, N, N)
    f1b, _ = fundamental_eval(pair, 1, k_bdy)
    w12b = wronskian_w(pair, 1, 2, spec.speed(N), spec.speed(N), spec.z[N])
    C = f1b * complex(spec.boundary_coefficient) \
        / (k_bdy * spec.speed(N) * w12b)
    rhs = np.zeros(2 * n, dtype=complex)
    f2b, df2b = fundamental_eval(pair, 2, kappa(spec, N, n))
    rhs[-2] = C * f2b
    rhs[-1] = C * df2b / spec.speed(N)
    return RawSystem(n=n, S=S, R=R, T=T, rhs=rhs, scale=C)


def former_b_last(spec: ProblemSpec) -> np.clongdouble:
    """B_N in extended precision from its own scalar evaluation of f_1 at
    kappa = omega/c_N."""
    ext = np.longdouble
    kappa = ext(spec.omega) / ext(spec.speed(spec.n + 1))
    f1, _ = fundamental_eval(_pair(spec), 1, kappa, ext)
    factor = kappa if spec.dimension == 3 else 1 / kappa
    return 1j * factor * f1 * np.clongdouble(complex(spec.boundary_coefficient))


def former_envelope(spec: ProblemSpec, j: int) -> list:
    """[log max hypot(|f_1|, |f_1'|), the same for f_2] over the ends r > 0
    of layer ``j``, from one extended evaluation of f_1 at (omega/c_j) r."""
    ext = np.longdouble
    r = np.array([v for v in spec.profile.jump_points[j - 1:j + 1] if v > 0],
                 dtype=ext)
    f, df = fundamental_eval(_pair(spec), 1, ext(spec.omega)
                             / ext(spec.speed(j)) * r, ext)
    return [np.log(np.max(np.hypot(abs(g), abs(dg))))
            for g, dg in ((f, df), (f.real, df.real))]


def former_coefficient_vector(spec: ProblemSpec, log_mag, formed,
                              b_last) -> CoefficientVector:
    """``assembly.coefficient_vector`` with each out-of-range coefficient's
    layer envelope from ``former_envelope``."""
    log_mag = np.concatenate((log_mag, [float(np.log(abs(b_last)))
                                        if b_last else -np.inf]))
    inside = (log_mag >= _LOG_TINY) & (log_mag <= _LOG_MAX)
    keep = slice(None)
    if not inside.all():
        keep = inside[:-1]
        for i in np.flatnonzero(~inside & (log_mag != -np.inf)):
            j = (i + 1) // 2 + 1
            at = slice(max(2 * j - 3, 0), 2 * j - 1)
            env = former_envelope(spec, j)
            terms = log_mag[at] + (env[1:] if j == 1 else env)
            if not np.all(inside[at] | (log_mag[at] < _LOG_TINY)
                          & (terms < np.max(terms) + _LOG_EPS)):
                raise OverflowError(f"a coefficient of layer {j} is outside "
                                    f"the double range and not negligible")
    entries = np.zeros(len(log_mag) - 1, dtype=complex)
    entries[keep] = formed(keep)
    return CoefficientVector(entries, complex(b_last) if inside[-1] else 0j)


def _scalar_pair(tier: Tier, pair: FundamentalPair, x):
    """(f_1, f_1', f_2, f_2') at one argument, f_2 = Re f_1 kept complex."""
    if tier is EXTENDED:
        f, df = fundamental_eval(pair, 1, x, np.longdouble)
        return f, df, np.clongdouble(f.real), np.clongdouble(df.real)
    f, df = fundamental_eval_mp(pair, 1, x)
    return f, df, mp.mpc(f.real), mp.mpc(df.real)


def interface(tier: Tier, spec: ProblemSpec, omega, x, ell: int) -> tuple:
    """(g-plus, q, w^{1,2}) at interface ``ell`` in ``tier``, one scalar
    at a time; ``omega`` and the jump points ``x`` are tier numbers."""
    pair = _pair(spec)
    c_l, c_r = tier.real(spec.speed(ell)), tier.real(spec.speed(ell + 1))
    z = omega * x[ell]
    f1l, df1l, _, _ = _scalar_pair(tier, pair, z / c_l)
    f1r, df1r, f2r, df2r = _scalar_pair(tier, pair, z / c_r)
    gt_plus = f1r * df1l.conjugate() / c_l - df1r * f1l.conjugate() / c_r
    gt_minus = df1l * f1r / c_l - df1r * f1l / c_r
    g_plus = 1j * tier.cexp(z / c_l - z / c_r) * gt_plus
    g_minus = 1j * tier.cexp(-z / c_l - z / c_r) * gt_minus
    return (g_plus, g_minus / g_plus,
            f1r * df2r / c_r - df1r * f2r / c_r)


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
        f2r, df2r = fundamental_eval(pair, 2, kappa(spec, ell + 1, ell))
        f1l, df1l = fundamental_eval(pair, 1, kappa(spec, ell, ell))
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
    """The normalised right-hand side: B_N, as a double, at 2n, else 0."""
    r = np.zeros(2 * system.n, dtype=complex)
    r[-1] = complex(system.b_last)
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


def diagonal_block(system: BlockSystem, ell: int) -> np.ndarray:
    """The normalised system's diagonal block ell (0-based) in its band's
    numbers, taken out of rows 1, 0 and 2 of columns 2 ell, 2 ell + 1."""
    (up, diag, low), i = system.band, 2 * ell
    return np.array([[diag[i], up[i + 1]], [low[i], diag[i + 1]]])


def to_dense(system: BlockSystem) -> np.ndarray:
    """The normalised matrix in double, placed block by block: the
    diagonal blocks out of the band, the couplings R_HAT and T_HAT."""
    n = system.n
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    for ell in range(n):
        i = 2 * ell
        M[i:i + 2, i:i + 2] = diagonal_block(system, ell).astype(complex)
        if ell < n - 1:
            M[i:i + 2, i + 2:i + 4] = T_HAT
            M[i + 2:i + 4, i:i + 2] = R_HAT
    return M


def raw_solve_mp(spec: ProblemSpec, digits: int = 60) -> np.ndarray:
    """Interior coefficients (B_1, A_2, ..., A_{n+1}) from the raw system.

    The continuity rows and the boundary right-hand side are built in
    mpmath at ``digits`` digits from separate f_1 and f_2 evaluations,
    each row and then each column is scaled to unit maximum, and the
    system is solved by mpmath's dense LU.  When that LU finds the matrix
    numerically singular at ``digits`` (ZeroDivisionError), the solve runs
    once more at twice the digits, so no caller picks them by hand.
    """
    try:
        return _raw_solve_mp(spec, digits)
    except ZeroDivisionError:
        return _raw_solve_mp(spec, 2 * digits)


def _raw_solve_mp(spec: ProblemSpec, digits: int) -> np.ndarray:
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
        C = outer_coefficient_mp(spec, digits)
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


def outer_coefficient_mp(spec: ProblemSpec, digits: int = 60):
    """B_N = f_1(kappa) g / (kappa W(f_1, f_2)(kappa)), kappa = omega/c_N,
    from separate f_1 and f_2 evaluations in mpmath at ``digits`` digits."""
    pair = _pair(spec)
    with mp.workdps(digits):
        kappa = mp.mpf(spec.omega) / mp.mpf(spec.speed(spec.n + 1))
        f1, df1 = fundamental_eval_mp(pair, 1, kappa)
        f2, df2 = fundamental_eval_mp(pair, 2, kappa)
        return f1 * mp.mpc(complex(spec.boundary_coefficient)) \
            / (kappa * (f1 * df2 - df1 * f2))


def exact_interface_residuals(spec: ProblemSpec, coeffs: CoefficientVector,
                              digits: int = 40) -> list:
    """(value, slope) per interface, as ``evaluate.interface_residuals``
    defines them, every pair value from ``fundamental_eval_mp`` and every
    sum formed at ``digits`` digits: the jumps over the summed term sizes
    |coef| hypot(|f|, |f'|), the slope jump in units of the larger
    wavenumber; (0, 0) where every term vanishes."""
    pair = _pair(spec)
    out = []
    with mp.workdps(digits):
        omega = mp.mpf(spec.omega)
        for ell in range(1, spec.n + 1):
            x = mp.mpf(spec.profile.jump_points[ell])
            speeds = [mp.mpf(spec.speed(j)) for j in (ell, ell + 1)]
            value = slope = size = 0
            for j, c, sign in ((ell, speeds[0], 1), (ell + 1, speeds[1], -1)):
                f, df = fundamental_eval_mp(pair, 1, omega * x / c)
                a, b = mp.mpc(coeffs.a(j)), mp.mpc(coeffs.b(j))
                value += sign * (a * f + b * f.real)
                slope += sign * (a * df + b * df.real) / c
                size += abs(a) * mp.hypot(abs(f), abs(df)) \
                    + abs(b) * mp.hypot(abs(f.real), abs(df.real))
            out.append((float(abs(value) / size),
                        float(abs(slope) * min(speeds) / size))
                       if size else (0.0, 0.0))
    return out
