"""Fundamental systems of the radial wave ODE.

For d=3 these are the spherical Hankel/Bessel pair (h_m^(1), j_m), for d=1
the pair (e^{ix}, cos x).  Bessel values are produced by recurrences chosen
for stability: downward (Miller) recurrence for j_m, upward recurrence for
y_m.  All arguments are real and positive; everything here is a pure
function.

The double/extended recurrences and the fundamental-pair evaluators also
take a 1-D array of arguments.  Their results then gain a trailing point
axis, and a float argument keeps its scalar path.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

#: extra orders above m for the downward recurrence start index; the flat
#: margin keeps the dominant-solution contamination below extended-precision
#: rounding even in the turning-point region (order comparable to argument)
_MILLER_GUARD = 20
_MILLER_MARGIN = 30

#: arguments of this exact type take the array path; a type identity test
#: keeps the positivity check on a float within ~30 ns of a bare compare
_NDARRAY = np.ndarray

#: rescale threshold while recurring downward, to stay clear of overflow
_RESCALE = 1e250


class SingularAtOrigin(Exception):
    """The outgoing (Hankel-type) branch has no finite limit at r = 0."""


@dataclass(frozen=True)
class FundamentalPair:
    """Dimension/mode selector for the fundamental system (f_1, f_2)."""

    d: int
    m: int

    def __post_init__(self):
        if self.d not in (1, 3):
            raise ValueError(f"dimension must be 1 or 3, got {self.d}")
        if self.m < 0:
            raise ValueError(f"mode must be non-negative, got {self.m}")
        if self.d == 1 and self.m != 0:
            raise ValueError("mode must be 0 in dimension 1")


def _complex_dtype(dtype):
    return np.clongdouble if dtype == np.longdouble else np.complex128


def spherical_jn_seq(m_max: int, x: float, dtype=np.float64) -> np.ndarray:
    """j_0(x)..j_{m_max}(x) for x > 0, shape (m_max + 1,) + x.shape.

    Orders >= 2 come from downward recurrence started ``m_max + max(20,
    ceil(1.5 x))`` orders up, normalised against the closed-form j_0 (or
    j_1 near zeros of sin).  An array of arguments shares one start, taken
    from its largest entry.  ``dtype`` selects the working precision; the
    recursion paths run in extended precision where cancellation would
    otherwise be the accuracy limit.
    """
    if (x <= 0.0).any() if type(x) is _NDARRAY else x <= 0.0:
        raise ValueError("argument must be positive")
    x = dtype(x)
    j0 = np.sin(x) / x
    if m_max == 0:
        return np.array([j0], dtype=dtype)
    j1 = np.sin(x) / x**2 - np.cos(x) / x
    if m_max == 1:
        return np.array([j0, j1], dtype=dtype)
    if x.shape:
        return _miller_rows(m_max, x, j0, j1)

    start = m_max + max(_MILLER_GUARD, math.ceil(1.5 * float(x))) \
        + _MILLER_MARGIN
    f = np.zeros(start + 2, dtype=dtype)
    f[start + 1] = 0.0
    f[start] = 1.0
    for k in range(start, 0, -1):
        f[k - 1] = (2 * k + 1) / x * f[k] - f[k + 1]
        if abs(f[k - 1]) > _RESCALE:
            f[k - 1:] *= dtype(1.0) / _RESCALE
    # normalise against whichever closed form is better conditioned
    if abs(j0) >= abs(j1):
        scale = j0 / f[0]
    else:
        scale = j1 / f[1]
    return f[: m_max + 1] * scale


def _miller_rows(m_max: int, x: np.ndarray, j0, j1) -> np.ndarray:
    """The downward recurrence of ``spherical_jn_seq`` over an array x.

    Only the two running rows and the m_max + 1 returned rows are held; a
    point that passes the rescale threshold has its own rows scaled down.
    """
    start = m_max + max(_MILLER_GUARD, math.ceil(1.5 * float(x.max()))) \
        + _MILLER_MARGIN
    f = np.empty((m_max + 1,) + x.shape, dtype=x.dtype)
    upper, cur = np.zeros_like(x), np.ones_like(x)
    shrink = x.dtype.type(1.0) / _RESCALE
    for k in range(start, 0, -1):
        if k <= m_max:
            f[k] = cur
        lower = (2 * k + 1) / x * cur - upper
        big = np.abs(lower) > _RESCALE
        if big.any():
            lower[big] *= shrink
            cur[big] *= shrink
            f[k:, big] *= shrink
        upper, cur = cur, lower
    f[0] = cur
    return f * np.where(np.abs(j0) >= np.abs(j1), j0 / f[0], j1 / f[1])


def spherical_yn_seq(m_max: int, x: float, dtype=np.float64) -> np.ndarray:
    """y_0(x)..y_{m_max}(x) for x > 0, by upward recurrence (stable)."""
    if (x <= 0.0).any() if type(x) is _NDARRAY else x <= 0.0:
        raise ValueError("argument must be positive")
    x = dtype(x)
    # an int length allocates faster than a shape tuple on the float path
    y = np.zeros((m_max + 1,) + x.shape if x.shape else m_max + 1,
                 dtype=dtype)
    y[0] = -np.cos(x) / x
    if m_max >= 1:
        y[1] = -np.cos(x) / x**2 - np.sin(x) / x
    for k in range(1, m_max):
        y[k + 1] = (2 * k + 1) / x * y[k] - y[k - 1]
    return y


def spherical_bessel_j(m: int, x: float) -> float:
    """Spherical Bessel function j_m(x), x > 0."""
    return float(spherical_jn_seq(m, x)[m])


def spherical_bessel_y(m: int, x: float) -> float:
    """Spherical Bessel function of the second kind y_m(x), x > 0."""
    return float(spherical_yn_seq(m, x)[m])


def spherical_hankel_h1(m: int, x: float) -> complex:
    """Outgoing spherical Hankel function h_m^(1)(x) = j_m(x) + i y_m(x)."""
    return complex(spherical_bessel_j(m, x), spherical_bessel_y(m, x))


def _family_seq(d: int, which: int, m_max: int, x: float,
                dtype=np.float64) -> np.ndarray:
    """Orders 0..m_max of the selected spherical family (complex for h)."""
    re = spherical_jn_seq(m_max, x, dtype)
    out = np.zeros(re.shape, dtype=_complex_dtype(dtype))
    out.real = re
    if which == 1:
        out.imag = spherical_yn_seq(m_max, x, dtype)
    return out


def fundamental_eval(pair: FundamentalPair, which: int, x: float,
                     dtype=np.float64):
    """Value and derivative of f_{m,d,which} at x > 0 (or at each entry).

    Derivatives use f'_m = f_{m-1} - (m+1)/x f_m (and f'_0 = -f_1), never
    finite differences.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if (x <= 0.0).any() if type(x) is _NDARRAY else x <= 0.0:
        raise ValueError("argument must be positive")
    if pair.d == 1:
        xe = dtype(x)
        iu = _complex_dtype(dtype)(1j)
        if which == 1:
            v = np.exp(iu * xe)
            return v, iu * v
        cdt = _complex_dtype(dtype)
        return cdt(np.cos(xe)), cdt(-np.sin(xe))
    m = pair.m
    seq = _family_seq(pair.d, which, max(m, 1), x, dtype)
    if m == 0:
        return seq[0], -seq[1]
    return seq[m], seq[m - 1] - (m + 1) / dtype(x) * seq[m]


def fundamental_eval_d2(pair: FundamentalPair, which: int, x: float,
                        dtype=np.float64):
    """(f, f', f'') of f_{m,d,which} at x > 0 (or at each entry).

    The second derivative is assembled from the order-raising identity
    f'_m = -f_{m+1} + (m/x) f_m applied twice, so an ODE residual formed
    from it measures only the rounding of the recurrences.  Near the
    origin the equation's terms grow like m^2/x^2 relative to the
    solution, so callers needing residuals at the 1e-9 level pass an
    extended ``dtype``.
    """
    if pair.d == 1:
        xe = dtype(x)
        iu = _complex_dtype(dtype)(1j)
        if which == 1:
            v = np.exp(iu * xe)
            return v, iu * v, -v
        cdt = _complex_dtype(dtype)
        return cdt(np.cos(xe)), cdt(-np.sin(xe)), cdt(-np.cos(xe))
    m = pair.m
    xe = dtype(x)
    seq = _family_seq(pair.d, which, m + 2, x, dtype)
    f = seq[m]
    df = -seq[m + 1] + (m / xe) * f
    df_up = -seq[m + 2] + ((m + 1) / xe) * seq[m + 1]
    d2f = -df_up + (m / xe) * df - (m / xe**2) * f
    return f, df, d2f


def wronskian_w(pair: FundamentalPair, p: int, q: int,
                c_j: float, c_k: float, z: float,
                dtype=np.float64) -> complex:
    """Scaled Wronskian w^{p,q} of f_p(./c_j), f_q(./c_k) at (each) z > 0."""
    if min(c_j, c_k) <= 0.0 or \
            ((z <= 0.0).any() if type(z) is _NDARRAY else z <= 0.0):
        raise ValueError("speeds and evaluation point must be positive")
    # arguments are formed in working precision so z/c carries no rounding
    # beyond the representation of z and c themselves
    fp, dfp = fundamental_eval(pair, p, dtype(z) / dtype(c_j), dtype)
    fq, dfq = fundamental_eval(pair, q, dtype(z) / dtype(c_k), dtype)
    return fp * dfq / dtype(c_k) - dfp * fq / dtype(c_j)


def fundamental_eval_mp(pair: FundamentalPair, which: int, x):
    """Arbitrary-precision value/derivative in the active mpmath context.

    Used by the precision-escalation tiers when cancellation or
    conditioning exceeds what extended hardware floats can absorb.  The
    real part of f_1 is formed by the same operations for either ``which``,
    so f_2 = Re f_1 and f_2' = Re f_1' hold bit for bit.
    """
    import mpmath as mp
    x = mp.mpf(x)
    if x <= 0:
        raise ValueError("argument must be positive")
    part = mp.mpc if which == 1 else lambda re, im: mp.mpc(re)
    if pair.d == 1:
        c, s = mp.cos_sin(x)
        return part(c, s), part(-s, c)

    m = pair.m
    # cos x and sin x are shared by the closed forms of orders 0 and 1;
    # the prefactor only by the Bessel-function orders >= 2
    if m <= 2:
        c, s = mp.cos_sin(x)
        j0, y0 = s / x, -c / x
    if m >= 2:
        pref = mp.sqrt(mp.pi / (2 * x))

    def f(mm):
        # orders 0 and 1 in elementary closed form; the generic path via
        # half-integer Bessel functions is orders of magnitude slower
        if mm == 0:
            return part(j0, y0)
        if mm == 1:
            return part((j0 - c) / x, (y0 - s) / x)
        nu = mm + mp.mpf(1) / 2
        return part(pref * mp.besselj(nu, x),
                    pref * mp.bessely(nu, x) if which == 1 else None)

    v = f(m)
    dv = -f(1) if m == 0 else f(m - 1) - (m + 1) / x * v
    return v, dv


class Tier(NamedTuple):
    """The arithmetic one computation is carried out in.

    ``real`` builds a real number from a double, ``cexp(t)`` is exp(i t),
    ``log`` and ``log10`` are logarithms of reals, ``pair_eval(pair, x)``
    gives (f_1, f_1', f_2, f_2') of the fundamental system from one f_1
    evaluation, and ``cdtype`` is the dtype of an array of the tier's
    complex numbers.
    """

    real: Callable
    cexp: Callable
    log: Callable
    log10: Callable
    pair_eval: Callable
    cdtype: object


def _with_f2(f, df):
    """(f_1, f_1', f_2, f_2') from f_1: on the positive axis f_2 = Re f_1
    and f_2' = Re f_1', bit for bit in both tiers (not so in double, where
    y_m can overflow and make Re f_1' NaN).  f_2 keeps the complex type,
    so products with it round as those of a ``which=2`` evaluation."""
    return f, df, type(f)(f.real), type(df)(df.real)


_IU_EXT = np.clongdouble(1j)

#: numpy's extended precision: the problem data are exact doubles, so the
#: extra bits are all signal
EXTENDED = Tier(
    real=np.longdouble, cexp=lambda t: np.exp(_IU_EXT * np.longdouble(t)),
    log=np.log, log10=np.log10,
    pair_eval=lambda pair, x: _with_f2(
        *fundamental_eval(pair, 1, x, np.longdouble)),
    cdtype=np.clongdouble)


@functools.cache
def mp_tier() -> Tier:
    """mpmath, at the precision of the active context (built on first use)."""
    import mpmath as mp
    return Tier(
        real=mp.mpf, cexp=lambda t: mp.exp(1j * t), log=mp.log,
        log10=mp.log10,
        pair_eval=lambda pair, x: _with_f2(*fundamental_eval_mp(pair, 1, x)),
        cdtype=object)


def eval_limit_at_origin(pair: FundamentalPair, which: int) -> complex:
    """Limit of f_{m,d,which} at 0; raises SingularAtOrigin for which=1."""
    if which == 1:
        raise SingularAtOrigin("outgoing branch behaves like O(r^-1) at 0")
    if pair.d == 1:
        return 1.0 + 0.0j
    return (1.0 if pair.m == 0 else 0.0) + 0.0j
