"""Solution reconstruction, residual diagnostics and energy quantities."""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import assembly, green
from .assembly import CoefficientVector
from .problem import ProblemSpec
from .specfun import (FundamentalPair, eval_limit_at_origin, fundamental_eval,
                      fundamental_eval_d2)

#: surface measure factor |Y_{0,0}| = (4 pi)^{-1/2} for d=3
Y00_3D = 1.0 / math.sqrt(4.0 * math.pi)

#: default Gauss-Legendre order per layer; doubled until 1e-10 agreement
_QUAD_ORDER = 32
_QUAD_TOL = 1e-10
_QUAD_MAX_ORDER = 4096


class UnsupportedMode(Exception):
    """Operation restricted to d=3, m=0."""


@dataclass(frozen=True)
class RadialSolution:
    """A solved problem: the spec plus its layer coefficients."""

    spec: ProblemSpec
    coeffs: CoefficientVector

    @property
    def pair(self) -> FundamentalPair:
        return FundamentalPair(self.spec.dimension, self.spec.mode)


def solve(spec: ProblemSpec) -> RadialSolution:
    """Solve through the recursion representation (production path)."""
    return RadialSolution(spec=spec, coeffs=green.layer_coefficients(spec))


def solve_direct(spec: ProblemSpec) -> tuple[RadialSolution, float]:
    """Solve through banded elimination; returns the relative residual."""
    coeffs, resid = assembly.solve_spec(spec)
    return RadialSolution(spec=spec, coeffs=coeffs), resid


def _layer_terms(sol: RadialSolution, j: int, r):
    """Wavenumber k of layer j and, for each ansatz term there, its
    coefficient with f and f' (in the argument k r) at radius r > 0 (or at
    each entry of a 1-D array of radii)."""
    spec = sol.spec
    k = spec.omega / spec.speed(j)
    a, b = sol.coeffs.a(j), sol.coeffs.b(j)
    x = k * r
    terms = [(a, 1), (b, 2)] if a != 0.0 else [(b, 2)]
    return k, [(c, *fundamental_eval(sol.pair, which, x))
               for c, which in terms]


def _eval_in_layer(sol: RadialSolution, j: int, r):
    """Ansatz value/derivative on layer j at radius r > 0 (or at each entry
    of a 1-D array of radii)."""
    k, terms = _layer_terms(sol, j, r)
    val = 0.0 + 0.0j
    der = 0.0 + 0.0j
    for c, f, df in terms:
        val += c * f
        der += c * k * df
    return val, der


def _radial_values(sol: RadialSolution, rs: np.ndarray) -> np.ndarray:
    """u at each radius of ``rs`` in [0, 1], as ``eval_radial`` takes it."""
    profile = sol.spec.profile
    N = profile.num_layers
    layer = np.clip(np.searchsorted(profile.jump_points, rs, side="left"),
                    1, N)
    u = np.empty(len(rs), dtype=complex)
    u[rs == 0.0] = eval_radial(sol, 0.0)[0]
    for j in range(1, N + 1):
        sel = (layer == j) & (rs > 0.0)
        if sel.any():
            u[sel] = _eval_in_layer(sol, j, rs[sel])[0]
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
    return _eval_in_layer(sol, spec.profile.layer_of(r), r)


def interface_residuals(sol: RadialSolution) -> list:
    """Per-interface backward errors (|[u]|, |[u']|).

    Each jump is divided by the summed sizes |coef| * hypot(|f|, |f'|) of
    the ansatz terms on both sides, the slope jump also by the larger of
    the two wavenumbers: near a zero of f the value alone would understate
    the rounding a term carries.  An interface where every term vanishes
    reads 0.
    """
    spec = sol.spec
    out = []
    for j in range(1, spec.n + 1):
        xj = spec.profile.jump_points[j]
        jump = slope = 0.0 + 0.0j
        size = 0.0
        for layer, sign in ((j, 1.0), (j + 1, -1.0)):
            k, terms = _layer_terms(sol, layer, xj)
            for c, f, df in terms:
                jump += sign * c * f
                slope += sign * c * k * df
                size += abs(c) * math.hypot(abs(f), abs(df))
        if size == 0.0:
            out.append((0.0, 0.0))
            continue
        k_top = spec.omega / min(spec.speed(j), spec.speed(j + 1))
        out.append((abs(jump) / size, abs(slope) / (k_top * size)))
    return out


def ode_residual(sol: RadialSolution, samples_per_layer: int = 8) -> float:
    """Max scaled collocation residual of the radial equation.

    The fundamental solutions satisfy the equation identically, so the
    residual measures only the rounding of the special-function
    recurrences.  Normalisation uses the magnitude of the two ansatz terms
    separately, which keeps the measure meaningful at zeros of u.
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
    nodes = []
    for j in range(1, spec.profile.num_layers + 1):
        a, b = cdt(sol.coeffs.a(j)), cdt(sol.coeffs.b(j))
        if a == 0.0 and b == 0.0:
            continue
        x0, x1 = map(np.longdouble, spec.profile.jump_points[j - 1:j + 1])
        r = x0 + (x1 - x0) * unit
        r = r[r > 0.0]
        k = np.longdouble(spec.omega) / np.longdouble(spec.speed(j))
        nodes.append((r, np.full_like(r, k), np.full(r.shape, a),
                      np.full(r.shape, b)))
    if not nodes:
        return 0.0
    r, k, a, b = (np.concatenate(col) for col in zip(*nodes))
    x = k * r
    val, der, dd = (np.zeros(r.shape, dtype=cdt) for _ in range(3))
    mag = np.zeros(r.shape, dtype=np.longdouble)
    for coef, which in ((a, 1), (b, 2)):
        use = coef != 0.0
        if not use.any():
            continue
        f, df, d2f = fundamental_eval_d2(sol.pair, which, x[use],
                                         dtype=np.longdouble)
        c, kc = coef[use], k[use]
        val[use] += c * f
        der[use] += c * kc * df
        dd[use] += c * kc * kc * d2f
        mag[use] += np.abs(c * f)
    resid = -dd - (d - 1) / r * der + (lam / r**2 - k * k) * val
    return float(np.max(np.abs(resid) / (k * k * np.maximum(mag, 1e-300))))


def dtn_residual(sol: RadialSolution) -> float:
    """Scaled defect of the radiating boundary condition at r = 1."""
    spec = sol.spec
    kN = spec.omega / spec.speed(spec.profile.num_layers)
    f1, df1 = fundamental_eval(sol.pair, 1, kN)
    val, der = eval_radial(sol, 1.0)
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


def _layer_quad(sol: RadialSolution, j: int, order: int) -> float:
    """Energy-density integral over layer j at a fixed quadrature order."""
    spec = sol.spec
    x0, x1 = spec.profile.jump_points[j - 1], spec.profile.jump_points[j]
    nodes, weights = _gauss_legendre(order)
    r = 0.5 * (x1 - x0) * nodes + 0.5 * (x0 + x1)
    w = 0.5 * (x1 - x0) * weights
    d, lam = spec.dimension, spec.angular_eigenvalue
    kj = spec.omega / spec.speed(j)
    val, der = _eval_in_layer(sol, j, r)
    dens = (np.abs(der) ** 2 + (kj * np.abs(val)) ** 2) * r ** (d - 1)
    if lam != 0.0:
        dens += lam * np.abs(val) ** 2 * r ** (d - 3)
    return float(w @ dens)


def energy_norm(sol: RadialSolution, quad_order: int = _QUAD_ORDER) -> float:
    """Gauss-Legendre energy norm, order doubled until 1e-10 agreement."""
    if quad_order < 8:
        raise ValueError("quadrature order must be at least 8")
    N = sol.spec.profile.num_layers
    prev = None
    order = quad_order
    while order <= _QUAD_MAX_ORDER:
        total = sum(_layer_quad(sol, j, order) for j in range(1, N + 1))
        if prev is not None and abs(total - prev) <= _QUAD_TOL * max(prev, 1.0):
            return math.sqrt(total)
        prev = total
        order *= 2
    return math.sqrt(prev)


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
    for j in range(1, spec.profile.num_layers + 1):
        cj = spec.speed(j)
        scale = (cj / spec.omega) ** 2 * h[j - 1]
        aj, bj = abs(sol.coeffs.a(j)), abs(sol.coeffs.b(j))
        kfac = (spec.omega / cj) ** 2
        if aj > 0.0:
            h_sq = scale
            dh_sq = (1.0 + (cj / z[j - 1]) ** 2) * scale
            total += kfac * aj ** 2 * (h_sq + dh_sq)
        j_sq = (2.0 * z[j] / (cj + z[j])) ** 2 * scale
        dj_sq = 16.0 * z[j] ** 4 / (2.0 * cj ** 2 + z[j] ** 2) ** 2 * scale
        total += kfac * bj ** 2 * (j_sq + dj_sq)
    return math.sqrt(2.0 * total)


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
    spec = sol.spec
    best = abs(eval_radial(sol, 0.0)[0])
    x = spec.profile.jump_points
    for j in range(1, spec.profile.num_layers + 1):
        rs = np.linspace(x[j - 1], x[j], samples_per_layer, endpoint=True)
        rs = rs[rs > 0.0]
        if rs.size:
            best = max(best, np.max(np.abs(_eval_in_layer(sol, j, rs)[0])))
    return best


def sup_scaled(sol: RadialSolution, samples_per_layer: int = 512) -> float:
    """sup |u * Y| for the radial m=0 mode in d=3."""
    if sol.spec.dimension != 3 or sol.spec.mode != 0:
        raise UnsupportedMode("scaled sup norm needs d=3, m=0")
    return sup_radial(sol, samples_per_layer) * Y00_3D


def disc_slice(sol: RadialSolution, grid: int):
    """|u * Y| on a grid x grid lattice over the equatorial disc.

    Returns (x, y, field, sup); lattice points outside the unit disc carry
    NaN.  Restricted to the radial mode (d=3, m=0).
    """
    spec = sol.spec
    if spec.dimension != 3 or spec.mode != 0:
        raise UnsupportedMode("disc rendering needs d=3, m=0")
    axis = np.linspace(-1.0, 1.0, grid)
    # the mode is radially symmetric: evaluate each distinct radius once
    radii, where = np.unique(np.hypot(*np.meshgrid(axis, axis)).ravel(),
                             return_inverse=True)
    inside = radii <= 1.0
    values = np.full(radii.shape, np.nan)
    values[inside] = np.abs(_radial_values(sol, radii[inside])) * Y00_3D
    field = values[where].reshape(grid, grid)
    sup = float(np.nanmax(field)) if np.any(np.isfinite(field)) else 0.0
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
        if not self.interface_residuals:
            return 0.0
        return max(max(pair) for pair in self.interface_residuals)

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
    )


def _atomic_write(path, text: str):
    """Write ``text`` verbatim to ``path`` through a temp file and a rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-helmrad-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_radial_csv(sol: RadialSolution, path, samples: int = 1024):
    rs = np.linspace(0.0, 1.0, samples)
    u = _radial_values(sol, rs)
    # the bytes csv.writer writes: its \r\n terminator, no quoting needed
    lines = ["r,re_u,im_u,abs_u\r\n"]
    lines += [f"{r:.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}\r\n"
              for r, v in zip(rs.tolist(), u.tolist())]
    _atomic_write(path, "".join(lines))


def write_disc_csv(sol: RadialSolution, path, grid: int = 64):
    xs, ys, field, _ = disc_slice(sol, grid)
    # each distinct bit pattern is formatted once: the axes hold grid values
    # and the radially symmetric field about grid^2 / 8 (NaN outside)
    xf, yf = ([f"{v:.17g}" for v in axis.tolist()] for axis in (xs, ys))
    bits, where = np.unique(np.ascontiguousarray(field, dtype=np.float64)
                            .view(np.uint64), return_inverse=True)
    cells = np.array([f"{v:.17g}" for v in bits.view(np.float64).tolist()],
                     dtype=object)[where.ravel()].reshape(field.shape)
    lines = ["x,y,abs_u\r\n"]
    for y, row in zip(yf, cells.tolist()):
        lines += [f"{x},{y},{v}\r\n" for x, v in zip(xf, row)]
    _atomic_write(path, "".join(lines))
