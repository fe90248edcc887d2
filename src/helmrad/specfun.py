"""Fundamental systems of the radial wave ODE.

For d=3 these are the spherical Hankel/Bessel pair (h_m^(1), j_m), for d=1
the pair (e^{ix}, cos x).  Bessel values are produced by recurrences chosen
for stability: upward recurrence for y_m, and for j_m above the turning
point (x > m_max, where it is stable and takes m_max steps); downward
(Miller) recurrence for j_m at or below it.  All arguments are real and
positive; everything here is a pure function.

The double/extended recurrences and the fundamental-pair evaluators also
take a 1-D array of arguments.  Their results then gain a trailing point
axis, and a float argument keeps its scalar path.  Each point of an array
takes the branch, and the downward start, that its scalar call would, from
its own argument, so its value does not depend on the other points of its
batch.  The closed forms of orders 0 and 1 take one sin and one cos per
argument for j and y together.

One evaluator, ``_fundamental``, forms the pair from one sin and one cos
per point: the real rows of f_2 = Re f_1 (j_m, or cos x) and their
derivatives at every argument, those of Im f_1 (y_m, or sin x) only where
asked.  The public evaluators, the extended tier's included, are views of
it; ``fundamental_eval_mp`` shares its d=1 rows, slope identity and
assembly of f_1.
"""

from __future__ import annotations

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
#: keeps the argument check on a float within ~50 ns of a bare compare
_NDARRAY = np.ndarray

#: rescale threshold while recurring downward, to stay clear of overflow
_RESCALE = 1e250

#: terms of the series for j_2 below x = 1 past its leading one: the
#: eleventh is below 5e-22 of the sum there
_J2_TERMS = 10


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


def _positive(x, dtype):
    """``x`` as ``dtype`` numbers, once every entry is checked finite and
    positive."""
    if not (((0.0 < x) & (x < math.inf)).all() if type(x) is _NDARRAY
            else 0.0 < x < math.inf):
        raise ValueError("argument must be positive and finite")
    return dtype(x)


def spherical_jn_seq(m_max: int, x: float, dtype=np.float64) -> np.ndarray:
    """j_0(x)..j_{m_max}(x) for x > 0, shape (m_max + 1,) + x.shape.

    An argument above the turning point, x > m_max, takes every order by
    the forward three-term recurrence from the closed forms of orders 0 and
    1, stable there (Gautschi, SIAM Rev. 9:24, 1967).  Orders >= 2 at any
    other argument come from downward recurrence started at order ``m_max +
    max(20, ceil(1.5 x)) + 30``, normalised against the closed-form j_0 (or
    j_1 near zeros of sin).  Each entry of an array of arguments takes the
    branch and the start of its own value, as a float call would.
    ``dtype`` selects the working precision; the recursion paths run in
    extended precision where cancellation would otherwise be the accuracy
    limit.
    """
    x = _positive(x, dtype)
    return _jn_seq(m_max, x, np.sin(x), np.cos(x))


def _jn_seq(m_max: int, x, s, c, up: bool = False) -> np.ndarray:
    """``spherical_jn_seq`` at checked ``x`` with s = sin x, c = cos x;
    with ``up`` (m_max >= 1) also order m_max + 1, from the same pass.

    The branch and the downward start are m_max's with or without ``up``,
    so orders 0..m_max keep their bits.  Only the two running orders and
    the returned ones are held; a pass that crosses the rescale threshold
    scales its held orders down.
    """
    j0 = s / x
    if m_max == 0:
        return np.array([j0], dtype=x.dtype)
    j1 = s / x**2 - c / x
    if m_max == 1:
        return np.array([j0, j1, _j2(x, j0, j1)] if up else [j0, j1],
                        dtype=x.dtype)
    if x.shape:
        high = x > m_max
        if high.all():
            return _forward(m_max + up, x, j0, j1)
        if not high.any():
            return _miller_rows(m_max, x, j0, j1, up)
        f = np.empty((m_max + 1 + up,) + x.shape, dtype=x.dtype)
        f[:, high] = _forward(m_max + up, x[high], j0[high], j1[high])
        low = ~high
        f[:, low] = _miller_rows(m_max, x[low], j0[low], j1[low], up)
        return f
    if x > m_max:
        return _forward(m_max + up, x, j0, j1)

    dtype = x.dtype.type
    start = m_max + max(_MILLER_GUARD, math.ceil(1.5 * float(x))) \
        + _MILLER_MARGIN
    top = m_max + up
    f = np.empty(top + 1, dtype=dtype)
    upper, cur = dtype(0.0), dtype(1.0)
    shrink = dtype(1.0) / _RESCALE
    for k in range(start, 0, -1):
        if k <= top:
            f[k] = cur
        lower = (2 * k + 1) / x * cur - upper
        if abs(lower) > _RESCALE:
            lower *= shrink
            cur *= shrink
            f[k:] *= shrink
        upper, cur = cur, lower
    f[0] = cur
    # normalise against whichever closed form is better conditioned
    return f * (j0 / f[0] if abs(j0) >= abs(j1) else j1 / f[1])


def _forward(m_max: int, x, f0, f1) -> np.ndarray:
    """Orders 0..m_max by the forward three-term recurrence from orders 0
    and 1: y_m at every argument, j_m above the turning point."""
    # an int length allocates faster than a shape tuple on the float path
    f = np.empty((m_max + 1,) + x.shape if x.shape else m_max + 1,
                 dtype=x.dtype)
    f[0] = f0
    if m_max >= 1:
        f[1] = f1
    for k in range(1, m_max):
        f[k + 1] = (2 * k + 1) / x * f[k] - f[k - 1]
    return f


def _miller_rows(m_max: int, x: np.ndarray, j0, j1, up: bool = False
                 ) -> np.ndarray:
    """The downward recurrence of ``_jn_seq`` over an array x.

    Each point starts where the scalar path would start at its entry, and
    waits at (0, 1) until then, so its rows have the bits of the scalar
    path's.  Only the two running rows and the returned rows are held; a
    point that passes the rescale threshold has its own rows scaled down.
    """
    starts = m_max + np.maximum(_MILLER_GUARD, np.ceil(
        1.5 * x.astype(np.float64))).astype(int) + _MILLER_MARGIN
    first = int(starts.max(initial=0))
    last = int(starts.min(initial=first))
    top = m_max + up
    f = np.empty((top + 1,) + x.shape, dtype=x.dtype)
    upper, cur = np.zeros_like(x), np.ones_like(x)
    shrink = x.dtype.type(1.0) / _RESCALE
    for k in range(first, 0, -1):
        if k <= top:
            f[k] = cur
        lower = (2 * k + 1) / x * cur - upper
        big = np.abs(lower) > _RESCALE
        if big.any():
            lower[big] *= shrink
            cur[big] *= shrink
            f[k:, big] *= shrink
        upper, cur = cur, lower
        if k > last:
            wait = starts < k
            upper[wait], cur[wait] = 0.0, 1.0
    f[0] = cur
    return f * np.where(np.abs(j0) >= np.abs(j1), j0 / f[0], j1 / f[1])


def _j2(x, j0, j1):
    """j_2 beside the closed forms j_0 and j_1: by the forward step 3/x j_1
    - j_0 from x = 1 on, and below, where the step would magnify the
    closed forms' own error, by its power series x^2/15 sum_k (-x^2)^k /
    prod_{i<=k} 2i(2i+5) (DLMF 10.53.1)."""
    out = np.atleast_1d(3 / x * j1 - j0)
    small = np.atleast_1d(x < 1)
    if small.any():
        u = np.atleast_1d(x)[small] ** 2
        term = total = np.ones_like(u)
        for k in range(1, _J2_TERMS + 1):
            term = term * -u / (2 * k * (2 * k + 5))
            total = total + term
        out[small] = u / 15 * total
    return out if x.shape else out[0]


def spherical_yn_seq(m_max: int, x: float, dtype=np.float64) -> np.ndarray:
    """y_0(x)..y_{m_max}(x) for x > 0, by upward recurrence (stable)."""
    x = _positive(x, dtype)
    return _yn_seq(m_max, x, np.sin(x), np.cos(x))


def _yn_seq(m_max: int, x, s, c) -> np.ndarray:
    """``spherical_yn_seq`` at checked ``x`` with s = sin x, c = cos x."""
    y0 = -c / x
    return _forward(m_max, x, y0, -c / x**2 - s / x if m_max else y0)


def spherical_bessel_j(m: int, x: float) -> float:
    """Spherical Bessel function j_m(x), x > 0."""
    return float(spherical_jn_seq(m, x)[m])


def spherical_bessel_y(m: int, x: float) -> float:
    """Spherical Bessel function of the second kind y_m(x), x > 0."""
    return float(spherical_yn_seq(m, x)[m])


def spherical_hankel_h1(m: int, x: float) -> complex:
    """Outgoing spherical Hankel function h_m^(1)(x) = j_m(x) + i y_m(x)."""
    return complex(spherical_bessel_j(m, x), spherical_bessel_y(m, x))


def _value_slope(m: int, x, lo, hi):
    """(f_m, f_m') of one spherical family at x from its orders (f_{m-1},
    f_m), or (f_0, f_1) for m = 0, by f'_m = f_{m-1} - (m+1)/x f_m and
    f'_0 = -f_1 (DLMF 10.51)."""
    return (lo, -hi) if m == 0 else (hi, lo - (m + 1) / x * hi)


def _rows(pair: FundamentalPair, deriv: int, x, s, c, imag: bool,
          shift: bool = False):
    """Value and first ``deriv`` derivatives (0, 1 or 2) at checked ``x`` of
    f_2 = Re f_1 (j_m; cos x for d=1) or, with ``imag``, of Im f_1 (y_m;
    sin x), as real numbers like x, from s = sin x and c = cos x; the
    second derivative as ``fundamental_eval_d2`` states.  With ``shift``
    (deriv 1) the rows of the shifted orders follow: Re g_1, then g_2 (or
    Im g_1 alone, with ``imag``), g_p as ``pair_eval`` states."""
    if pair.d == 1:                     # f'' = -f for cos x and sin x
        f = (s, c) if imag else (c, -s) if deriv else (c,)
        if shift:                       # g = f' for both
            return (*f, c) if imag else (*f, -s, -s)
        return (*f, -f[0]) if deriv == 2 else f[:deriv + 1]
    m = pair.m
    top = (m, max(m, 1), m + 2)[deriv]
    f = _yn_seq(top, x, s, c) if imag else _jn_seq(top, x, s, c,
                                                  shift and m > 0)
    if deriv == 0:
        return f[m],
    if deriv == 1:
        lo = max(m - 1, 0)
        rows = _value_slope(m, x, f[lo], f[lo + 1])
        if not shift:
            return rows
        if m == 0:      # h_{-1} = e^{ix}/x, and -j_1 is the slope
            return (*rows, s / x) if imag else (*rows, c / x, rows[1])
        return (*rows, f[lo]) if imag else (*rows, f[lo], -f[m + 1])
    df = -f[m + 1] + (m / x) * f[m]
    df_up = -f[m + 2] + ((m + 1) / x) * f[m + 1]
    return f[m], df, -df_up + (m / x) * df - (m / x**2) * f[m]


def _fundamental(pair: FundamentalPair, x, deriv: int, imag: bool = True,
                 at=None, shift: bool = False):
    """(Re rows, Im rows) of f_1 at checked ``x``, from one sin and one cos
    per point: the ``_rows`` of f_2 = Re f_1 at every entry and, with
    ``imag``, those of Im f_1 at x[at] (every entry if None); else None."""
    s, c = np.sin(x), np.cos(x)
    re = _rows(pair, deriv, x, s, c, False, shift)
    if not imag:
        return re, None
    if at is not None:
        x, s, c = x[at], s[at], c[at]
    return re, _rows(pair, deriv, x, s, c, True, shift)


def _assemble(re, im, cdtype):
    """Rows f_1 = Re + i Im as one array of ``cdtype`` numbers (a tuple of
    mpc for object); rows past those of ``im`` (all, if None) are f_2 =
    Re f_1 as complex numbers.  No complex product reaches a real part, so
    Re f_1 has the bits of f_2."""
    if cdtype is object:
        import mpmath as mp
        return tuple(map(mp.mpc, re, im or (0,) * len(re)))
    out = np.array(re, dtype=cdtype)
    if im is not None:
        out.imag[:len(im)] = im
    return out


def _outgoing(which: int) -> bool:
    """Whether ``which`` names f_1 (1) rather than f_2 (2)."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return which == 1


def fundamental_eval(pair: FundamentalPair, which: int, x: float,
                     dtype=np.float64):
    """Value and derivative of f_{m,d,which} at x > 0 (or at each entry).

    Derivatives use f'_m = f_{m-1} - (m+1)/x f_m (and f'_0 = -f_1), never
    finite differences.
    """
    return tuple(_assemble(*_fundamental(pair, _positive(x, dtype), 1,
                                         _outgoing(which)),
                           _complex_dtype(dtype)))


def fundamental_pair_eval(pair: FundamentalPair, x: np.ndarray,
                          outgoing=None, slope: bool = False):
    """f_2 at each entry of the 1-D array ``x`` and f_1 at ``x[outgoing]``
    (every entry if None), in double, from one sin and one cos per point;
    with ``slope`` also f_2' and f_1'.  Returns (f_2, f_1) or (f_2, f_1,
    f_2', f_1').

    f_2 and f_2' are real, the j_m rows alone (cos x and -sin x for d=1),
    so a y_m that overflows reaches Im f_1 only.  Every value has the bits
    of a ``fundamental_eval`` array call.
    """
    x = _positive(x, np.float64)
    if outgoing is not None and outgoing.all():
        outgoing = None
    re, im = _fundamental(pair, x, int(slope), True, outgoing)
    f1 = _assemble(re if outgoing is None else [r[outgoing] for r in re], im,
                   np.complex128)
    return (re[0], f1[0], re[1], f1[1]) if slope else (re[0], f1[0])


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
    return tuple(_assemble(*_fundamental(pair, _positive(x, dtype), 2,
                                         _outgoing(which)),
                           _complex_dtype(dtype)))


def wronskian_w(pair: FundamentalPair, p: int, q: int,
                c_j: float, c_k: float, z: float,
                dtype=np.float64) -> complex:
    """Scaled Wronskian w^{p,q} of f_p(./c_j), f_q(./c_k) at (each) z > 0."""
    z, c_j, c_k = (_positive(v, dtype) for v in (z, c_j, c_k))
    # arguments are formed in working precision so z/c carries no rounding
    # beyond the representation of z and c themselves
    fp, dfp = fundamental_eval(pair, p, z / c_j, dtype)
    fq, dfq = fundamental_eval(pair, q, z / c_k, dtype)
    return fp * dfq / c_k - dfp * fq / c_j


def fundamental_eval_mp(pair: FundamentalPair, which: int, x):
    """Arbitrary-precision value/derivative in the active mpmath context.

    Used by the precision-escalation tiers when cancellation or
    conditioning exceeds what extended hardware floats can absorb.  y_m
    comes from the upward recurrence on the closed forms of orders 0 and 1,
    and j_m, j_{m-1} from one hypergeometric series per order.  The d=1
    rows, slope identity and assembly are the hardware evaluator's, so
    f_2 = Re f_1 and f_2' = Re f_1' hold bit for bit.
    """
    return _assemble(*_rows_mp(pair, x, _outgoing(which)), object)


def _rows_mp(pair: FundamentalPair, x, imag: bool, shift: bool = False):
    """(Re rows, Im rows) of f_1 at ``x`` in the active mpmath context, as
    ``_fundamental`` gives them at deriv 1 (Im rows None without
    ``imag``); with ``shift``, j_{m+1} from one more series."""
    import mpmath as mp
    x = mp.mpf(x)
    if not 0 < x < mp.inf:
        raise ValueError("argument must be positive and finite")
    if pair.d == 1:
        c, s = mp.cos_sin(x)
        return (_rows(pair, 1, x, s, c, False, shift),
                _rows(pair, 1, x, s, c, True, shift) if imag else None)

    m = pair.m
    # the closed forms of orders 0 and 1 get 10 guard digits for the y
    # recurrence; for x < 1 the closed form j_1 = (j_0 - cos x)/x cancels
    # 2 log10(1/x) digits
    guard = 10 if m >= 2 else \
        5 + int(mp.ceil(-2 * mp.log10(x))) if x < 1 else 0
    with mp.workdps(mp.mp.dps + guard):
        c, s = mp.cos_sin(x)
        j_lo, y_lo = s / x, -c / x
        j, y = (j_lo - c) / x, (y_lo - s) / x

    def series(k):
        # j_k(x) = x^k/(2k+1)!! 0F1(; k + 3/2; -x^2/4), z formed exactly
        z = mp.ldexp(mp.fmul(x, -x, exact=True), -2)
        return x**k / math.prod(range(3, 2 * k + 2, 2)) \
            * mp.hyp0f1(mp.mpf(2 * k + 3) / 2, z)
    if m >= 2:
        if imag:
            y_lo, y = _yn_fixed(m, x, y_lo, y, mp.mp.prec + 64)
        j_lo, j = series(m - 1), series(m)
    # unary + rounds each order to the working precision
    re = _value_slope(m, x, +j_lo, +j)
    im = _value_slope(m, x, +y_lo, +y) if imag else None
    if shift:
        # h_{-1} = e^{ix}/x = -y_0 + i j_0 at m = 0, where -j_1 = j_0'
        re += (-y_lo, re[1]) if m == 0 else (+j_lo, -series(m + 1))
        if imag:
            im += (+(j_lo if m == 0 else y_lo),)
    return re, im


def _yn_fixed(m: int, x, y0, y1, bits: int):
    """(y_{m-1}, y_m) at the mpf ``x`` from y_0 and y_1 by the upward
    recurrence, run in fixed point with ``bits`` fraction bits: 2**bits / x
    once as an integer (x = man * 2**exp exactly), then per step one
    integer multiply, one shift and one subtraction, in place of three
    mpf operations.  The values grow upward, so a fixed absolute unit
    loses nothing; the results are rounded to the active precision."""
    import mpmath as mp
    shift = bits - x.exp
    inv = (1 << shift) // x.man if shift >= 0 else 0
    lo, hi = (int(mp.ldexp(v, bits)) for v in (y0, y1))
    for k in range(1, m):
        lo, hi = hi, ((2 * k + 1) * inv * hi >> bits) - lo
    return mp.ldexp(lo, -bits), mp.ldexp(hi, -bits)


class Tier(NamedTuple):
    """The arithmetic one computation is carried out in.

    ``real`` builds a real number from a double, or an array of them from
    an array of doubles, ``cexp(t)`` is exp(i t), ``log`` and ``log10`` are
    logarithms of reals, and ``cdtype`` is the dtype of an array of the
    tier's complex numbers.  ``pair_eval(pair, x, shift=True)`` takes a 1-D
    array of arguments, of the tier's reals, and gives (f_1, f_1', f_2,
    f_2', g_1, g_2) of the fundamental system at each, as the six rows of
    one array of the tier's complex numbers (the first four alone without
    ``shift``), from one f_1 evaluation per point.  g_p is
    the shifted order of f_p in f_p' = (kappa_p/x) f_p + g_p, for d=3
    kappa_1 = -(m+1), g_1 = h_{m-1} (e^{ix}/x at m = 0) and kappa_2 = m,
    g_2 = -j_{m+1} (DLMF 10.51.2), for d=1 kappa = 0 and g_p = f_p'.  The
    kappa terms of two same-family products at arguments a, b with a c_a =
    b c_b cancel exactly, so a Wronskian formed from f and g does not
    cancel them in rounding.  ``cexp`` takes a
    tier number or an array of them.  The extended tier's arrays are
    np.longdouble/np.clongdouble; the mpmath tier's are object arrays of
    mpf/mpc.
    """

    real: Callable
    cexp: Callable
    log: Callable
    log10: Callable
    pair_eval: Callable
    cdtype: object


def _pair_eval_ext(pair: FundamentalPair, x: np.ndarray,
                   shift: bool = True) -> np.ndarray:
    """Rows (f_1, f_1', f_2, f_2', g_1, g_2) at each entry of ``x``, in
    extended precision; the first four alone without ``shift``.

    f_2 and f_2' are the real rows of f_1 and f_1', kept complex, so
    products with them round as those of a ``which=2`` evaluation.  Every
    point above the turning point, x > m, and every point of a closed form
    goes in one array call.  A point at or below it with m >= 2 goes alone:
    the routes pass only 2n points per spec, and a batched Miller pass over
    a few points costs more than the scalar loop.
    """
    x = _positive(x, np.longdouble)
    # the real rows (f_2, f_2'[, Re g_1, g_2]) and the imaginary ones of
    # (f_1, f_1'[, g_1])
    re = np.empty((4 if shift else 2, len(x)), dtype=x.dtype)
    im = np.empty((3 if shift else 2, len(x)), dtype=x.dtype)
    low = np.flatnonzero(x <= pair.m) if pair.d == 3 and pair.m >= 2 else ()
    groups = list(low)
    if len(low) < len(x):
        groups.append(x > pair.m if len(low) else slice(None))
    for at in groups:
        re[:, at], im[:, at] = _fundamental(pair, x[at], 1, shift=shift)
    out = np.zeros((6 if shift else 4, len(x)), dtype=np.clongdouble)
    out.real[:4] = re[[0, 1, 0, 1]]
    out.imag[:2] = im[:2]
    if shift:
        out.real[4:] = re[2:]
        out.imag[4] = im[2]
    return out


_IU_EXT = np.clongdouble(1j)

#: numpy's extended precision: the problem data are exact doubles, so the
#: extra bits are all signal
EXTENDED = Tier(
    real=np.longdouble, cexp=lambda t: np.exp(_IU_EXT * t),
    log=np.log, log10=np.log10, pair_eval=_pair_eval_ext,
    cdtype=np.clongdouble)


@functools.cache
def mp_tier() -> Tier:
    """mpmath, at the precision of the active context (built on first use)."""
    import mpmath as mp

    def pair_eval(pair, x, shift=True):
        out = np.empty((6 if shift else 4, len(x)), dtype=object)
        for i, v in enumerate(x):
            (f, df, *g), (f_im, df_im, *g_im) = _rows_mp(pair, v, True,
                                                         shift)
            out[:4, i] = (mp.mpc(f, f_im), mp.mpc(df, df_im), mp.mpc(f),
                          mp.mpc(df))
            if shift:
                out[4:, i] = mp.mpc(g[0], g_im[0]), mp.mpc(g[1])
        return out
    return Tier(
        real=np.frompyfunc(mp.mpf, 1, 1),
        cexp=np.frompyfunc(lambda t: mp.exp(1j * t), 1, 1),
        log=mp.log, log10=mp.log10, pair_eval=pair_eval, cdtype=object)


def eval_limit_at_origin(pair: FundamentalPair, which: int) -> complex:
    """Limit of f_{m,d,which} at 0; raises SingularAtOrigin for which=1."""
    if which == 1:
        raise SingularAtOrigin("outgoing branch behaves like O(r^-1) at 0")
    if pair.d == 1:
        return 1.0 + 0.0j
    return (1.0 if pair.m == 0 else 0.0) + 0.0j
