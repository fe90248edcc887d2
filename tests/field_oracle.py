"""Test oracle for the field: the layer-by-layer evaluation.

Each layer is evaluated on its own, f_1 and f_2 by two separate
``fundamental_eval`` calls (which=1, which=2), and u = A f_1 + B f_2 and
u' = A k f_1' + B k f_2' are summed term by term from 0, the A term
skipped where A = 0.  Radii are taken as arrays, a single radius as a
one-element array, so every point takes the array path of the special
functions.  The quantities below are built from it the way
``helmrad.evaluate`` built them before its field evaluator took every
layer in one pass: the tests compare that evaluator against them, bit for
bit where the evaluation order is the same.
"""

import math

import numpy as np

from helmrad.evaluate import RadialSolution
from helmrad.specfun import (eval_limit_at_origin, fundamental_eval,
                             fundamental_eval_d2)


def layer_terms(sol: RadialSolution, j: int, r):
    """Wavenumber k of layer j and its ansatz terms (c, f, f') at r."""
    spec = sol.spec
    k = spec.omega / spec.speed(j)
    a, b = sol.coeffs.a(j), sol.coeffs.b(j)
    terms = [(a, 1), (b, 2)] if a != 0.0 else [(b, 2)]
    return k, [(c, *fundamental_eval(sol.pair, which, k * r))
               for c, which in terms]


def eval_in_layer(sol: RadialSolution, j: int, r):
    """(u, u') of layer j's ansatz at r > 0 (or at each entry)."""
    k, terms = layer_terms(sol, j, r)
    val = der = 0.0 + 0.0j
    for c, f, df in terms:
        val += c * f
        der += c * k * df
    return val, der


def eval_radial(sol: RadialSolution, r: float):
    """(u(r), u'(r)); left limit at jump points, exact limit at 0."""
    spec = sol.spec
    if r == 0.0:
        b1 = sol.coeffs.b(1)
        val = b1 * eval_limit_at_origin(sol.pair, 2)
        if spec.dimension == 3 and spec.mode == 1:
            return val, b1 * spec.omega / (3.0 * spec.speed(1))
        return val, 0.0 + 0.0j
    val, der = eval_in_layer(sol, spec.profile.layer_of(r), np.array([r]))
    return val.item(), der.item()


def radial_values(sol: RadialSolution, rs: np.ndarray) -> np.ndarray:
    """u at each radius of ``rs`` in [0, 1], layer by layer."""
    profile = sol.spec.profile
    layer = np.clip(np.searchsorted(profile.jump_points, rs, side="left"),
                    1, profile.num_layers)
    u = np.empty(len(rs), dtype=complex)
    u[rs == 0.0] = eval_radial(sol, 0.0)[0]
    for j in range(1, profile.num_layers + 1):
        sel = (layer == j) & (rs > 0.0)
        if sel.any():
            u[sel] = eval_in_layer(sol, j, rs[sel])[0]
    return u


def sup_radial(sol: RadialSolution, samples_per_layer: int = 512) -> float:
    """max |u| over r = 0 and each layer's np.linspace grid."""
    best = abs(eval_radial(sol, 0.0)[0])
    x = sol.spec.profile.jump_points
    for j in range(1, len(x)):
        rs = np.linspace(x[j - 1], x[j], samples_per_layer)
        rs = rs[rs > 0.0]
        if rs.size:
            best = max(best, np.max(np.abs(eval_in_layer(sol, j, rs)[0])))
    return best


def energy_norm(sol: RadialSolution, order: int = 32) -> float:
    """Gauss-Legendre energy norm, layer by layer, the order doubled until
    1e-10 agreement."""
    spec = sol.spec
    d, lam = spec.dimension, spec.angular_eigenvalue
    x = spec.profile.jump_points
    prev = None
    while True:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        total = 0.0
        for j in range(1, len(x)):
            half = 0.5 * (x[j] - x[j - 1])
            r = half * nodes + 0.5 * (x[j - 1] + x[j])
            kj = spec.omega / spec.speed(j)
            val, der = eval_in_layer(sol, j, r)
            dens = (np.abs(der) ** 2 + (kj * np.abs(val)) ** 2) \
                * r ** (d - 1)
            if lam != 0.0:
                dens += lam * np.abs(val) ** 2 * r ** (d - 3)
            total += float(half * weights @ dens)
        if prev is not None and abs(total - prev) <= 1e-10 * max(prev, 1.0):
            return math.sqrt(total)
        prev = total
        order *= 2


def ode_residual(sol: RadialSolution, samples_per_layer: int = 8) -> float:
    """The collocation residual of the radial equation, its nodes, k, A
    and B gathered layer by layer, each layer's nodes in extended
    precision and a layer whose A and B both vanish left out."""
    spec = sol.spec
    d = spec.dimension
    lam = np.longdouble(spec.angular_eigenvalue)
    theta = (2.0 * np.arange(samples_per_layer) + 1.0) \
        / (2.0 * samples_per_layer) * math.pi
    unit = (0.5 * (1.0 - np.cos(theta))).astype(np.longdouble)
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
    return float(np.max(np.abs(resid) / (k * k * np.maximum(mag, 1e-300))))
