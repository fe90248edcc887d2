"""Arbitrary-precision reference coefficients for the high-mode workload.

This solver shares no code with helmrad.  It assembles the raw transmission
system (continuity of u and u' at every interior jump point, A_1 = 0 at the
origin, the radiating condition at r = 1) from mpmath's cylinder Bessel
functions and their derivatives, solves it by mpmath's LU, and doubles the
working precision until two successive answers agree.

Regenerate the stored reference with

    python3 perfbench/reference.py

which rewrites ``perfbench/high_mode_ref.json`` from
``inputs.high_mode_population()``.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

REF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "high_mode_ref.json")

#: successive precisions must agree to this, per layer and relative to the
#: layer's largest term
AGREE = mp.mpf("1e-30")
START_DIGITS = 40
MAX_DIGITS = 6400


def fundamental(d: int, m: int, which: int, x):
    """(f, f') of the outgoing (which=1) or regular (which=2) solution.

    d=3: f_1 = h_m^(1) = j_m + i y_m and f_2 = j_m, built from J and Y of
    order m + 1/2; d=1: f_1 = e^{ix}, f_2 = cos x.
    """
    x = mp.mpf(x)
    if d == 1:
        if which == 1:
            v = mp.expj(x)
            return v, 1j * v
        return mp.mpc(mp.cos(x)), mp.mpc(-mp.sin(x))
    nu = m + mp.mpf(1) / 2
    pref = mp.sqrt(mp.pi / (2 * x))
    dpref = -pref / (2 * x)

    def sph(bessel):
        return (pref * bessel(nu, x),
                pref * bessel(nu, x, derivative=1) + dpref * bessel(nu, x))

    j, dj = sph(mp.besselj)
    if which == 2:
        return mp.mpc(j), mp.mpc(dj)
    y, dy = sph(mp.bessely)
    return mp.mpc(j, y), mp.mpc(dj, dy)


def solve_raw(doc: dict):
    """Layer coefficients [(A_1, B_1), ..., (A_N, B_N)] at the active dps."""
    d, m = doc["dimension"], doc["mode"]
    omega = mp.mpf(doc["omega"])
    x = [mp.mpf(v) for v in doc["jump_points"]]
    c = [mp.mpf(v) for v in doc["speeds"]]
    g = mp.mpc(*doc["boundary_coefficient"])
    N = len(c)
    k = [omega / cj for cj in c]
    # unknowns 2(j-1) -> A_j, 2(j-1)+1 -> B_j
    M = mp.matrix(2 * N, 2 * N)
    rhs = mp.matrix(2 * N, 1)
    M[0, 0] = 1                                   # A_1 = 0
    for ell in range(1, N):                       # interface at x_ell
        for side, j, sign in ((0, ell - 1, 1), (1, ell, -1)):
            for which, col in ((1, 2 * j), (2, 2 * j + 1)):
                f, df = fundamental(d, m, which, k[j] * x[ell])
                M[2 * ell - 1, col] = sign * f
                M[2 * ell, col] = sign * k[j] * df
    # radiating condition u'(1) - k h'(k)/h(k) u(1) = g; the outgoing term
    # drops out, leaving one equation for B_N
    h, dh = fundamental(d, m, 1, k[-1])
    f, df = fundamental(d, m, 2, k[-1])
    M[2 * N - 1, 2 * N - 1] = k[-1] * (df - dh / h * f)
    rhs[2 * N - 1] = g
    # the entries span hundreds of orders of magnitude at high modes, and
    # mpmath's LU judges pivots against the matrix norm: equilibrate rows,
    # then columns, and undo the column scaling on the answer
    for i in range(2 * N):
        s = max(abs(M[i, col]) for col in range(2 * N))
        for col in range(2 * N):
            M[i, col] /= s
        rhs[i] /= s
    col_scale = [max(abs(M[i, col]) for i in range(2 * N))
                 for col in range(2 * N)]
    for col in range(2 * N):
        for i in range(2 * N):
            M[i, col] /= col_scale[col]
    sol = mp.lu_solve(M, rhs)
    return [(sol[2 * j] / col_scale[2 * j],
             sol[2 * j + 1] / col_scale[2 * j + 1]) for j in range(N)]


def term_scales(doc: dict):
    """Per layer, log10 of max |f_1| and max |f_2| over the layer.

    Sampled at the two ends (the origin excluded) and the midpoint.
    """
    d, m = doc["dimension"], doc["mode"]
    x = [mp.mpf(v) for v in doc["jump_points"]]
    omega = mp.mpf(doc["omega"])
    out = []
    for j, cj in enumerate(doc["speeds"]):
        k = omega / mp.mpf(cj)
        radii = [r for r in (x[j], (x[j] + x[j + 1]) / 2, x[j + 1]) if r > 0]
        logs = []
        for which in (1, 2):
            top = max(abs(fundamental(d, m, which, k * r)[0]) for r in radii)
            logs.append(float(mp.log10(top)) if top > 0 else -1e300)
        out.append(logs)
    return out


def layer_errors(coeffs, ref, scales):
    """Per layer max(|dA| F1, |dB| F2) / max(|A| F1, |B| F2), in mpmath.

    ``coeffs`` and ``ref`` are sequences of (A_j, B_j); ``scales`` holds
    log10 F1, log10 F2 per layer as returned by ``term_scales``.
    """
    errs = []
    for (a, b), (ar, br), (l1, l2) in zip(coeffs, ref, scales):
        f1, f2 = mp.mpf(10) ** l1, mp.mpf(10) ** l2
        size = max(abs(ar) * f1, abs(br) * f2)
        diff = max(abs(mp.mpc(a) - ar) * f1, abs(mp.mpc(b) - br) * f2)
        if size == 0:
            errs.append(mp.mpf(0) if diff == 0 else mp.inf)
        else:
            errs.append(diff / size)
    return errs


def reference(doc: dict):
    """(coefficients, digits) once two successive precisions agree."""
    scales = term_scales(doc)
    digits, prev = START_DIGITS, None
    while digits <= MAX_DIGITS:
        with mp.workdps(digits):
            try:
                cur = solve_raw(doc)
            except ZeroDivisionError:     # singular at this precision
                cur = None
            if prev is not None and cur is not None \
                    and max(layer_errors(prev, cur, scales)) <= AGREE:
                return cur, digits, scales
        prev, digits = cur, 2 * digits
    raise RuntimeError(f"no agreement up to {MAX_DIGITS} digits: {doc}")


def _num(z) -> list:
    return [mp.nstr(mp.re(z), 25), mp.nstr(mp.im(z), 25)]


def parse_num(pair):
    return mp.mpc(mp.mpf(pair[0]), mp.mpf(pair[1]))


def build(docs) -> dict:
    cases = []
    for doc in docs:
        coeffs, digits, scales = reference(doc)
        cases.append({
            "spec": doc,
            "digits": digits,
            "layers": [{"a": _num(a), "b": _num(b),
                        "log10_f1": l1, "log10_f2": l2}
                       for (a, b), (l1, l2) in zip(coeffs, scales)],
        })
    return {"agree": mp.nstr(AGREE, 3), "cases": cases}


def load(path: str = REF_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import inputs
    doc = build(inputs.high_mode_population())
    tmp = REF_PATH + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, REF_PATH)
    print(f"wrote {len(doc['cases'])} cases to {REF_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
