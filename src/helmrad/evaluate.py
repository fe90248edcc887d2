"""Solution reconstruction, residual diagnostics and energy quantities.

One field evaluator, ``_field``, takes radii of any layers with their layer
indices and evaluates the pair once per point (one sin and one cos, f_1
only where A != 0); it gives values only unless asked for u' too.  The sup
norm, the grids, the energy and ``eval_radial`` use it, so a radius has one
value whichever of them asks.  The interface residuals are one backward
error, ``_backward_errors``, formed in extended precision from the pair
values the routes themselves use (``assembly.interface_pair``): ``solve``
gates the recursion's answer on it, and ``interface_residuals`` reports
it for any solution.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import assembly, green
from .assembly import CoefficientVector
from .problem import ProblemSpec
from .specfun import (EXTENDED, FundamentalPair, eval_limit_at_origin,
                      fundamental_eval, fundamental_eval_d2,
                      fundamental_pair_eval)

#: surface measure factor |Y_{0,0}| = (4 pi)^{-1/2} for d=3
Y00_3D = 1.0 / math.sqrt(4.0 * math.pi)

#: default Gauss-Legendre order per layer; doubled until 1e-10 agreement
_QUAD_ORDER = 32
_QUAD_TOL = 1e-10
_QUAD_MAX_ORDER = 4096

#: most points one pass of the field evaluator holds (about 150 bytes each
#: at its peak); the sup norm and the energy pass whole layers at a time
_BLOCK = 1 << 13

#: coefficients past 2**_SCALE_FROM are evaluated in units of a power of
#: two, since the field's squares would otherwise leave the double range
_SCALE_FROM = 512

#: interface backward error past which ``solve`` rejects the recursion's
#: answer and takes the banded route's
_GATE_LIMIT = 1e-9

_log = logging.getLogger(__name__)


class UnsupportedMode(Exception):
    """Operation restricted to d=3, m=0."""


@dataclass(frozen=True)
class RadialSolution:
    """A solved problem: the spec, its layer coefficients and, from
    ``solve``, the Green column of the route that answered."""

    spec: ProblemSpec
    coeffs: CoefficientVector
    column: green.GreenColumn | None = None

    @property
    def pair(self) -> FundamentalPair:
        return FundamentalPair(self.spec.dimension, self.spec.mode)

    @functools.cached_property
    def layers(self):
        """(k, A, B, e), formed once for every field pass: k = omega/c in
        double (inf or 0 out of range), A and B by layer j = 1..N, and e,
        the coefficients divided by 2**e: e > 0 only past 2**_SCALE_FROM,
        exactly, keeping the field's squares in range and its bits."""
        # (_, _, A_1 = 0, B_1, A_2, B_2, ..., A_N, B_N)
        coef = np.concatenate((np.zeros(3, dtype=complex),
                               self.coeffs.entries, [self.coeffs.b_last]))
        e = math.frexp(float(np.max(np.abs(coef))))[1]
        e = e if e > _SCALE_FROM else 0
        if e:
            coef = np.ldexp(coef.real, -e) + np.ldexp(coef.imag, -e) * 1j
        with np.errstate(over="ignore", under="ignore"):
            k = self.spec.omega / np.array((np.inf, *self.spec.profile.speeds))
        return k, coef[0::2], coef[1::2], e


def solve(spec: ProblemSpec) -> RadialSolution:
    """Solve by the recursion where it is checked right, else by banded
    elimination: the one solve of the library and ``helmrad solve``, and
    the one-spec case, with no sample axis, of ``solve_many``.

    The recursion runs once, in extended precision, and evaluates the pair
    once, at the interfaces and at kappa (B_N).  Its answer is taken only
    when its own error estimate is within ``green.ERROR_LIMIT`` (1e-13)
    and the largest of the coefficients' ``interface_residuals``, formed
    from those pair values, is within 1e-9.  Otherwise the answer is
    ``solve_direct``'s, its blocks and B_N from the same pair values,
    judged by the banded route's own a-posteriori tests, and one debug
    record on the ``helmrad`` logger gives the reason; the recursion is
    never rerun in mpmath here.  The answering route's Green column, read
    with that pair, comes with the answer.  A refusal of the banded route
    propagates (``SingularSystem``, or ``OverflowError`` for a coefficient
    outside the double range), as do either route's DegenerateNormaliser
    (a vanished normaliser) and the recursion's NearResonantDenominator
    and ``OverflowError`` on its accepted path.
    """
    return _solve([spec], np.longdouble(spec.omega),
                  np.longdouble(np.asarray(spec.profile.jump_points)))[0]


def solve_many(specs: list[ProblemSpec]) -> list[RadialSolution]:
    """``solve`` of each spec, bit for bit, for specs that differ only in
    omega and the jump points (else ValueError), as ``helmrad scan``'s do:
    each stage runs once, on arrays with a trailing sample axis, and a
    sample the estimate or the gate refuses falls back alone to the banded
    route.  The first refused spec in order raises; a batch refused as a
    whole is solved one spec at a time to find it."""
    if len({(s.dimension, s.mode, s.profile.speeds, s.boundary_coefficient)
            for s in specs}) > 1:
        raise ValueError("the specs differ in more than omega and x")
    if not specs:
        return []
    try:
        return _solve(specs, np.longdouble([s.omega for s in specs]), np.array(
            [s.profile.jump_points for s in specs], np.longdouble).T)
    except (assembly.DegenerateNormaliser, green.NearResonantDenominator):
        return [solve(s) for s in specs]


def _solve(specs: list[ProblemSpec], omega, x) -> list[RadialSolution]:
    """``solve`` of ``specs`` at the extended ``omega`` and jump points
    ``x``, one spec's with no sample axis or a batch's with a trailing one;
    a refusal raises for the first refused spec in order."""
    base, count = specs[0], len(specs)
    beta, error = green.recursion(EXTENDED, base, omega, x)
    accepted = [k for k, ok in enumerate(
        (error <= green.ERROR_LIMIT).reshape(-1).tolist()) if ok]
    column = accepted and green.green_last_column(base, beta)
    # the coefficients and the gate: every sample's at once, 0 if refused
    entries = np.zeros((2 * base.n,) + np.shape(omega), complex)
    b_last = np.zeros(np.shape(omega), complex)
    columns, coeffs = {}, {}
    for k in accepted:
        columns[k] = column.sample(k)
        try:
            coeffs[k] = c = green.layer_coefficients(specs[k], columns[k])
        except OverflowError as exc:    # raised below, in order
            coeffs[k] = exc
            continue
        entries.reshape(2 * base.n, count)[:, k] = c.entries
        b_last.reshape(count)[k] = c.b_last
    if accepted:
        errors = np.atleast_3d(_backward_errors(
            base, beta.pair.values, CoefficientVector(entries, b_last)))
    solved = []
    for k, spec in enumerate(specs):
        c = coeffs.get(k)
        if isinstance(c, Exception):
            raise c
        if c is None:
            reason = (f"estimated relative error "
                      f"{float(error.reshape(-1)[k]):.3g} exceeds "
                      f"{green.ERROR_LIMIT:g}")
        elif (gate := errors[..., k].max(initial=0)) <= _GATE_LIMIT:
            solved.append(RadialSolution(spec, c, columns[k]))
            continue
        else:
            reason = (f"interface backward error {gate:.3g} exceeds "
                      f"{_GATE_LIMIT:g}")
        _log.debug("solve: banded route, the recursion's %s", reason)
        pair = beta.pair.sample(k)
        answer, _, column = assembly.dense_solve(
            assembly.normalize(spec, pair))
        solved.append(RadialSolution(spec, answer, green.banded_column(
            column, pair, float(beta.error_bound_digits.reshape(-1)[k]))))
    return solved


def solve_direct(spec: ProblemSpec) -> tuple[RadialSolution, float]:
    """Solve through banded elimination; returns the relative residual."""
    coeffs, resid, _ = assembly.dense_solve(assembly.normalize(spec))
    return RadialSolution(spec=spec, coeffs=coeffs), resid


def _field(sol: RadialSolution, layer: np.ndarray, r: np.ndarray,
           slope: bool = False):
    """(e, u, u') at radii r > 0, r[i] in layer ``layer[i]``: u = A f_1(k r)
    + B f_2(k r) and, with ``slope``, u' (else None), in units of 2**e; a
    k r that is not a positive finite double raises OverflowError.

    One ``fundamental_pair_eval`` per block of at most _BLOCK points.  Each
    sum adds the A term to 0, then the B term, as a per-layer array
    evaluation did, so every value keeps its bits.
    """
    k, a, b, e = sol.layers
    k, a, b = k[layer], a[layer], b[layer]
    x = k * r
    if not ((x > 0.0) & (x < np.inf)).all():
        raise OverflowError("a field argument k r is outside the double range")
    u, du = np.zeros(len(r), dtype=complex), None
    if slope:
        du, ka, kb = np.zeros(len(r), dtype=complex), a * k, b * k
    for lo in range(0, len(r), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        use = a[blk] != 0.0
        f2, f1, *df = fundamental_pair_eval(sol.pair, x[blk], use, slope)
        u[blk][use] += a[blk][use] * f1
        u[blk] += b[blk] * f2
        if slope:
            du[blk][use] += ka[blk][use] * df[1]
            du[blk] += kb[blk] * df[0]
    return e, u, du


def _radial_values(sol: RadialSolution, rs: np.ndarray) -> np.ndarray:
    """u at each radius of ``rs`` in [0, 1], as ``eval_radial`` takes it."""
    profile = sol.spec.profile
    layer = np.clip(np.searchsorted(profile.jump_points, rs, side="left"),
                    1, profile.num_layers)
    u = np.empty(len(rs), dtype=complex)
    u[rs == 0.0] = eval_radial(sol, 0.0)[0]
    pos = rs > 0.0
    e, v, _ = _field(sol, layer[pos], rs[pos])
    if e:
        v.real, v.imag = np.ldexp(v.real, e), np.ldexp(v.imag, e)
    u[pos] = v
    return u


def eval_radial(sol: RadialSolution, r: float):
    """(u(r), u'(r)); left limit at jump points, exact limit at the origin."""
    spec = sol.spec
    if not 0.0 <= r <= 1.0:
        raise ValueError("radius must lie in [0, 1]")
    if r == 0.0:
        b1 = sol.coeffs.b(1)
        val = b1 * eval_limit_at_origin(sol.pair, 2)
        # regular-branch slope at 0: zero except for the m=1 spherical mode
        if spec.dimension == 3 and spec.mode == 1:
            der = b1 * spec.omega / (3.0 * spec.speed(1))
        else:
            der = 0.0 + 0.0j
        return val, der
    e, val, der = _field(sol, np.array([spec.profile.layer_of(r)]),
                         np.array([r]), slope=True)
    return tuple(complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))
                 for v in (val.item(), der.item()))


def interface_residuals(sol: RadialSolution) -> list:
    """Per-interface backward errors (|[u]|, |[u']|), ``_backward_errors``
    in extended precision of the solve's pair (its column's), or of one
    evaluated here for a solution built by hand; on the recursion route
    the same array ``solve`` gated the answer on, formed again."""
    at = getattr(sol.column, "pair", None) \
        or assembly.interface_pair(EXTENDED, sol.spec)
    errors = _backward_errors(sol.spec, at.values, sol.coeffs)
    return [tuple(p) for p in errors.T.tolist()]


def _backward_errors(spec: ProblemSpec, values: np.ndarray,
                     coeffs: CoefficientVector) -> np.ndarray:
    """The interface backward errors of ``coeffs``, value jumps then slope
    jumps, as a (2, n) array, from the rows (f_1, f_1', f_2, f_2') of
    ``values``: ``interface_pair``'s in extended precision, where no term
    leaves the range.

    Each jump is divided by the summed sizes |coef| hypot(|f|, |f'|) of
    the ansatz terms on both sides, the slope jump also by the larger of
    the two wavenumbers: near a zero of f the value alone would understate
    the rounding a term carries.  A term that is not finite makes its
    interface NaN; an interface where every term vanishes reads 0.  With
    a trailing sample axis on ``values``, ``coeffs.entries`` and
    ``coeffs.b_last`` (a batch of ``solve_many``), the array gets it too.
    """
    n = spec.n
    b_last = np.asarray(coeffs.b_last)
    # (A_j, B_j), j = 1..n+1 with A_1 = 0: the left side of interface ell
    # takes layer ell, the right side layer ell + 1
    rows = np.concatenate((np.zeros((1,) + b_last.shape), coeffs.entries,
                           b_last[None])).reshape((n + 1, 2) + b_last.shape)
    coef = np.concatenate((rows[:n], rows[1:])).swapaxes(0, 1)
    # terms[i, j]: A (i = 0) or B (i = 1) times the value (j = 0) or the
    # slope (j = 1) of its function, at each point
    values = values[:4, :2 * n]
    terms = values.reshape((2, 2) + values.shape[1:]) * coef[:, None]
    mags = np.abs(terms)
    size = np.hypot(mags[:, 0], mags[:, 1]).reshape(
        (4, n) + b_last.shape).sum(0)
    # u and du/d(kr) at each point, then the jumps: the slope's in units
    # of the larger wavenumber, k/k_top = min(c_l, c_r)/c
    sums = terms.sum(0)
    c = np.asarray(spec.profile.speeds).reshape((-1,) + (1,) * b_last.ndim)
    sums[1] /= np.concatenate((c[:-1], c[1:]))
    jump = sums[:, :n] - sums[:, n:]
    jump[1] *= np.minimum(c[:-1], c[1:])
    return np.divide(np.abs(jump), size, out=np.zeros(jump.shape, size.dtype),
                     where=size != 0).astype(float)


def ode_residual(sol: RadialSolution, samples_per_layer: int = 8) -> float:
    """Max scaled collocation residual of the radial equation.

    The fundamental solutions satisfy the equation identically, so the
    residual measures only the rounding of the special-function
    recurrences.  Normalisation uses the magnitude of the two ansatz terms
    separately, which keeps the measure meaningful at zeros of u.  A layer
    whose A and B both vanish has no nodes.
    """
    if samples_per_layer < 3:
        raise ValueError("need at least 3 samples per layer")
    spec = sol.spec
    d = spec.dimension
    lam = np.longdouble(spec.angular_eigenvalue)
    # Chebyshev nodes in the open interior of each layer
    theta = (2.0 * np.arange(samples_per_layer) + 1.0) \
        / (2.0 * samples_per_layer) * math.pi
    unit = (0.5 * (1.0 - np.cos(theta))).astype(np.longdouble)
    # the equation's terms grow like lam/x^2 relative to the solution near
    # the origin, so the collocation runs in extended precision to keep the
    # evaluator's own floor well under the acceptance tolerance; the nodes
    # of every layer form one batch, each carrying its layer's k, A and B
    cdt = np.clongdouble
    rows = np.concatenate(([0j], sol.coeffs.entries, [sol.coeffs.b_last])
                          ).astype(cdt).reshape(-1, 2)
    keep = (rows != 0.0).any(1)
    x = np.asarray(spec.profile.jump_points, np.longdouble)
    r = (x[:-1, None] + (x[1:] - x[:-1])[:, None] * unit)[keep]
    k = spec.omega / np.asarray(spec.profile.speeds, np.longdouble)
    pos = r > 0.0
    r, k, a, b = (np.broadcast_to(v, r.shape)[pos] for v in (
        r, k[keep, None], rows[keep, :1], rows[keep, 1:]))
    # one evaluation of f_1 at every node; f_2 = Re f_1 in extended
    # precision, kept complex so its products round as f_1's do
    f1 = fundamental_eval_d2(sol.pair, 1, k * r, dtype=np.longdouble)
    f2 = tuple(v.real.astype(cdt) for v in f1)
    val, der, dd = (np.zeros(r.shape, dtype=cdt) for _ in range(3))
    mag = np.zeros(r.shape, dtype=np.longdouble)
    for coef, terms in ((a, f1), (b, f2)):
        use = coef != 0.0
        if not use.any():
            continue
        f, df, d2f = (v[use] for v in terms)
        c, kc = coef[use], k[use]
        val[use] += c * f
        der[use] += c * kc * df
        dd[use] += c * kc * kc * d2f
        mag[use] += np.abs(c * f)
    resid = -dd - (d - 1) / r * der + (lam / r**2 - k * k) * val
    return float(np.max(np.abs(resid) / (k * k * np.maximum(mag, 1e-300)),
                        initial=0.0))


def dtn_residual(sol: RadialSolution) -> float:
    """Scaled defect of the radiating boundary condition at r = 1."""
    spec = sol.spec
    val, der = eval_radial(sol, 1.0)    # refuses a k_N out of range first
    kN = float(sol.layers[0][-1])
    f1, df1 = fundamental_eval(sol.pair, 1, kN)
    g = complex(spec.boundary_coefficient)
    defect = der - kN * (df1 / f1) * val - g
    return abs(defect) / max(1.0, abs(g))


@functools.lru_cache(maxsize=16)
def _gauss_legendre(order: int):
    """Nodes and weights of the order-``order`` rule on [-1, 1] (read-only)."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.setflags(write=False)
    return rule


def _energy_sum(sol: RadialSolution, order: int):
    """(e, the energy-density integral at a fixed quadrature order in units
    of 2**(2e)): the nodes of whole layers in each ``_field`` pass, each
    layer's integral its own dot product, summed over the layers in
    order."""
    spec = sol.spec
    x = np.asarray(spec.profile.jump_points)
    nodes, weights = _gauss_legendre(order)
    d, lam = spec.dimension, spec.angular_eigenvalue
    step = max(1, _BLOCK // order)
    total = 0
    for j in range(1, len(x), step):
        xs = x[j - 1:j + step]
        half, mid = 0.5 * (xs[1:] - xs[:-1]), 0.5 * (xs[:-1] + xs[1:])
        r = (half[:, None] * nodes + mid[:, None]).ravel()
        # a node that rounds to r = 0 is left out: its density is 0 for
        # d=3, and for d=1 its weight is a subnormal half-width
        pos = r > 0.0
        r, layer = r[pos], np.repeat(np.arange(j, j + len(half)), order)[pos]
        e, val, der = _field(sol, layer, r, slope=True)
        k = sol.layers[0][layer]
        dens = np.zeros(pos.shape)
        dens[pos] = (np.abs(der) ** 2 + (k * np.abs(val)) ** 2) * r ** (d - 1)
        if lam != 0.0:
            dens[pos] += lam * np.abs(val) ** 2 * r ** (d - 3)
        total = sum((float(w @ v) for w, v in zip(
            half[:, None] * weights, dens.reshape(-1, order))), total)
    return e, total


def energy_norm(sol: RadialSolution, quad_order: int = _QUAD_ORDER) -> float:
    """Gauss-Legendre energy norm, order doubled from ``quad_order``, in
    [8, ``_QUAD_MAX_ORDER``] (else ValueError), until 1e-10 agreement; at a
    total not finite or past ``_QUAD_MAX_ORDER``, the last, with a warning."""
    if not 8 <= quad_order <= _QUAD_MAX_ORDER:
        raise ValueError(f"quadrature order must be in [8, {_QUAD_MAX_ORDER}]")
    totals = []
    order = quad_order
    while order <= _QUAD_MAX_ORDER:
        e, total = _energy_sum(sol, order)
        # the test's floor 1.0, in the units of the sums
        if totals and abs(total - totals[-1]) \
                <= _QUAD_TOL * max(totals[-1], math.ldexp(1.0, -2 * e)):
            return math.ldexp(math.sqrt(total), e)
        totals.append(total)
        order *= 2
        if not math.isfinite(total):    # no higher order mends it
            break
    # as norms: a total in absolute units overflows for scaled coefficients
    _log.warning("energy_norm: no %g agreement by quadrature order %d, "
                 "last norms %s", _QUAD_TOL, order // 2,
                 [math.ldexp(math.sqrt(t), e) for t in totals[-2:]])
    return math.ldexp(math.sqrt(totals[-1]), e)


def energy_upper_bound(sol: RadialSolution) -> float:
    """Closed-form energy bound from the per-layer integral estimates.

    Only available for d=3, m=0.  The first layer's outgoing term is
    skipped (its coefficient is identically zero and the bound would
    otherwise divide by z_0 = 0).
    """
    spec = sol.spec
    if spec.dimension != 3 or spec.mode != 0:
        raise UnsupportedMode("closed-form energy bound needs d=3, m=0")
    total = 0.0
    h = spec.profile.widths
    z = spec.z
    _, a, b, e = sol.layers
    for j in range(1, spec.profile.num_layers + 1):
        cj = spec.speed(j)
        scale = (cj / spec.omega) ** 2 * h[j - 1]
        aj, bj = abs(complex(a[j])), abs(complex(b[j]))
        kfac = (spec.omega / cj) ** 2
        if aj > 0.0:
            h_sq = scale
            dh_sq = (1.0 + (cj / z[j - 1]) ** 2) * scale
            total += kfac * aj ** 2 * (h_sq + dh_sq)
        j_sq = (2.0 * z[j] / (cj + z[j])) ** 2 * scale
        # z_j and c_j in units of 2**e_j, exactly: z_j**4 stays in range
        e_j = math.frexp(max(z[j], cj))[1]
        zs, cs = math.ldexp(z[j], -e_j), math.ldexp(cj, -e_j)
        dj_sq = 16.0 * zs ** 4 / (2.0 * cs ** 2 + zs ** 2) ** 2 * scale
        total += kfac * bj ** 2 * (j_sq + dj_sq)
    return math.ldexp(math.sqrt(2.0 * total), e)


def energy_lower_bound(sol: RadialSolution) -> float:
    """Closed-form lower bound from the innermost layer alone (d=3, m=0).

    On the first layer u = B_1 sin(k r)/(k r), so the (omega/c)|u| part of
    the energy integrates exactly: ||u||^2 >= |B_1|^2 * (x_1/2 -
    sin(2 k x_1)/(4 k)).  For the critical construction (k x_1 = pi/2) this
    is |B_1|^2 * pi c_1 / (4 omega) and grows like the interference rate
    ((1+q)/(1-q))^ceil(n/2) in the number of jumps.
    """
    spec = sol.spec
    if spec.dimension != 3 or spec.mode != 0:
        raise UnsupportedMode("closed-form energy bound needs d=3, m=0")
    k = spec.omega / spec.speed(1)
    x1 = spec.profile.jump_points[1]
    integral = x1 / 2.0 - math.sin(2.0 * k * x1) / (4.0 * k)
    return abs(sol.coeffs.b(1)) * math.sqrt(max(integral, 0.0))


def sup_radial(sol: RadialSolution, samples_per_layer: int = 512) -> float:
    """sup |u| over a dense radial grid (including r = 0 and all jumps)."""
    if samples_per_layer < 1:
        raise ValueError("need at least one sample per layer")
    tops = [abs(eval_radial(sol, 0.0)[0])]
    x, S = np.asarray(sol.spec.profile.jump_points), samples_per_layer
    step = max(1, _BLOCK // S)
    for j in range(1, len(x), step):
        # whole layers per pass, row i the layer's np.linspace(xs[i],
        # xs[i + 1], S) bit for bit: the same products and sums, the last
        # point the jump point itself
        xs = x[j - 1:j + step]
        step_r = (xs[1:] - xs[:-1]) / max(S - 1, 1)
        rs = np.arange(float(S)) * step_r[:, None] + xs[:-1, None]
        if S > 1:
            rs[:, -1] = xs[1:]
        rs = rs.ravel()
        layer = np.repeat(np.arange(j, j + len(xs) - 1), S)
        pos = rs > 0.0
        e, u, _ = _field(sol, layer[pos], rs[pos])
        mag = np.zeros(rs.shape)       # r = 0 reads 0: the origin is in tops
        mag[pos] = np.abs(u)
        tops += [math.ldexp(top, e) for top in np.maximum.reduceat(
            mag, np.arange(0, rs.size, S)).tolist()]
    # folded layer by layer as max does: a layer holding a NaN is passed over
    return max(tops)


def sup_scaled(sol: RadialSolution, samples_per_layer: int = 512) -> float:
    """sup |u * Y| for the radial m=0 mode in d=3."""
    if sol.spec.dimension != 3 or sol.spec.mode != 0:
        raise UnsupportedMode("scaled sup norm needs d=3, m=0")
    return sup_radial(sol, samples_per_layer) * Y00_3D


@functools.lru_cache(maxsize=4)
def _lattice(grid: int):
    """The grid x grid lattice over [-1, 1]^2 (read-only): its axis, its
    distinct radii in ascending order and the index of each point's radius
    among them, row by row."""
    axis = np.linspace(-1.0, 1.0, grid)
    radii, where = np.unique(np.hypot(*np.meshgrid(axis, axis)).ravel(),
                             return_inverse=True)
    for a in (axis, radii, where):
        a.setflags(write=False)
    return axis, radii, where


def _disc_values(sol: RadialSolution, grid: int) -> np.ndarray:
    """|u * Y| at each distinct radius of ``_lattice(grid)``, NaN outside
    the unit disc: the mode is radially symmetric (d=3, m=0 only)."""
    if sol.spec.dimension != 3 or sol.spec.mode != 0:
        raise UnsupportedMode("disc rendering needs d=3, m=0")
    radii = _lattice(grid)[1]
    inside = radii <= 1.0
    values = np.full(radii.shape, np.nan)
    values[inside] = np.abs(_radial_values(sol, radii[inside])) * Y00_3D
    return values


def disc_slice(sol: RadialSolution, grid: int):
    """|u * Y| on a grid x grid lattice over the equatorial disc.

    Returns (x, y, field, sup); lattice points outside the unit disc carry
    NaN.  Restricted to the radial mode (d=3, m=0).
    """
    field = _disc_values(sol, grid)[_lattice(grid)[2]].reshape(grid, grid)
    sup = float(np.nanmax(field)) if np.any(np.isfinite(field)) else 0.0
    axis = _lattice(grid)[0].copy()
    return axis, axis, field, sup


@dataclass
class DiagnosticsReport:
    """Flat bundle of residuals and norms for one solve."""

    interface_residuals: list
    ode_residual: float
    dtn_residual: float
    energy_norm: float
    energy_upper_bound: float | None
    energy_lower_bound: float | None
    sup_norm: float | None
    max_green_magnitude: float | None = None

    @property
    def max_interface_residual(self) -> float:
        """The largest interface residual, NaN if any is NaN."""
        if not self.interface_residuals:
            return 0.0
        return float(np.max(self.interface_residuals))

    def passes(self, tol: float = 1e-9) -> bool:
        return (self.max_interface_residual <= tol
                and self.ode_residual <= tol and self.dtn_residual <= tol)

    def to_dict(self) -> dict:
        return {
            "interface_residuals": [list(p) for p in self.interface_residuals],
            "max_interface_residual": self.max_interface_residual,
            "ode_residual": self.ode_residual,
            "dtn_residual": self.dtn_residual,
            "energy_norm": self.energy_norm,
            "energy_upper_bound": self.energy_upper_bound,
            "energy_lower_bound": self.energy_lower_bound,
            "sup_norm": self.sup_norm,
            "max_green_magnitude": self.max_green_magnitude,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def diagnostics(sol: RadialSolution, quad_order: int = _QUAD_ORDER
                ) -> DiagnosticsReport:
    spec = sol.spec
    radial_mode = spec.dimension == 3 and spec.mode == 0
    return DiagnosticsReport(
        interface_residuals=interface_residuals(sol),
        ode_residual=ode_residual(sol),
        dtn_residual=dtn_residual(sol),
        energy_norm=energy_norm(sol, quad_order),
        energy_upper_bound=energy_upper_bound(sol) if radial_mode else None,
        energy_lower_bound=energy_lower_bound(sol) if radial_mode else None,
        sup_norm=sup_scaled(sol) if radial_mode else None,
        max_green_magnitude=sol.column.max_abs() if sol.column else None,
    )


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


#: the mode ``open()`` gives a new file; mkstemp's own is 0600
_FILE_MODE = 0o666 & ~_umask()


def _atomic_write(path, text: str):
    """Write ``text`` verbatim to ``path`` through a temp file and a rename;
    the file gets the mode ``open()`` would give it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-helmrad-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The text of the CSV artifacts that depends only on their size argument is
# built once per process; a call formats only the field's cells.  Every
# cell is what csv.writer writes for "%.17g" of the value: no quoting is
# needed, and its line terminator is \r\n.

@functools.lru_cache(maxsize=4)
def _radial_template(samples: int):
    """The radii of ``radial.csv`` (read-only) and its text with every r
    cell written and a %.17g hole for each of re_u, im_u and abs_u."""
    rs = np.linspace(0.0, 1.0, samples)
    rs.setflags(write=False)
    rows = "%.17g,%%.17g,%%.17g,%%.17g\r\n" * samples % tuple(rs.tolist())
    return rs, "r,re_u,im_u,abs_u\r\n" + rows


@functools.lru_cache(maxsize=4)
def _disc_template(grid: int) -> str:
    """The text of ``disc.csv`` on ``_lattice(grid)``, every x and y cell
    written and a %s hole for each abs_u cell, row by row."""
    axis = [f"{v:.17g}" for v in _lattice(grid)[0].tolist()]
    return "x,y,abs_u\r\n" + "".join([f"{x},{y},%s\r\n"
                                       for y in axis for x in axis])


def write_radial_csv(sol: RadialSolution, path, samples: int = 1024):
    rs, template = _radial_template(samples)
    u = _radial_values(sol, rs)
    # Python's abs, whose bits numpy's complex abs does not always match
    cells = np.column_stack((u.real, u.imag,
                             [abs(v) for v in u.tolist()])).ravel().tolist()
    _atomic_write(path, template % tuple(cells))


def write_disc_csv(sol: RadialSolution, path, grid: int = 64):
    # each distinct radius's value is formatted once (about grid^2 / 8 of
    # them), then every cell takes its radius's text
    cells = np.array([f"{v:.17g}" for v in _disc_values(sol, grid).tolist()],
                     dtype=object)[_lattice(grid)[2]]
    _atomic_write(path, _disc_template(grid) % tuple(cells.tolist()))
