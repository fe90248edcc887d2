"""Correctness checks made apart from helmrad.

None of these calls helmrad: special functions come from scipy.special and
mpmath, the recursion and the bounds are re-derived from the problem data,
and coefficient vectors are read in their documented layout
(B_1, A_2, B_2, ..., A_n, B_n, A_{n+1}) plus the outer B_N.

``self_test`` feeds every check an answer known to be right and the same
answer perturbed, and fails unless each check accepts the first and rejects
the second.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp
import numpy as np
import scipy.special as sp

import reference

#: backward-error and agreement tolerance of the oracle checks; it is the
#: threshold helmrad applies to its own residuals
TOL = 1e-9
#: tolerance, in log|beta|, of the alternating-population comparison
LOG_TOL = 1e-9
#: slack of the paper's log-space bound checks
BOUND_SLACK = 1e-12
#: the two-step majorant constant
C0 = 20.0
#: tolerance of the closed-form Green-column magnitudes (log space)
GROWTH_TOL = 1e-6


def layers(entries, b_last) -> list:
    """[(A_j, B_j)] for j = 1..N from the interior unknowns and B_N."""
    e = list(entries)
    n = len(e) // 2
    out = []
    for j in range(1, n + 2):
        a = 0.0 if j == 1 else e[2 * j - 3]
        b = b_last if j == n + 1 else e[2 * j - 2]
        out.append((complex(a), complex(b)))
    return out


def _pair(d, m, x):
    """(f1, f1', f2, f2') in double precision from scipy/numpy."""
    x = float(x)
    if d == 1:
        e = complex(math.cos(x), math.sin(x))
        return e, 1j * e, complex(math.cos(x)), complex(-math.sin(x))
    j, dj = sp.spherical_jn(m, x), sp.spherical_jn(m, x, derivative=True)
    y, dy = sp.spherical_yn(m, x), sp.spherical_yn(m, x, derivative=True)
    return complex(j, y), complex(dj, dy), complex(j), complex(dj)


def backward_error(doc: dict, coeffs: list) -> float:
    """Largest scaled defect of the interface and radiating conditions.

    Each defect is divided by the summed sizes of the ansatz terms that
    enter it.  A term's size is |coefficient| * hypot(|f|, |f'|), its
    envelope in value and slope: near a zero of f the value alone would
    understate how much rounding the term carries, and a correct solve
    would read as wrong.
    """
    d, m, omega = doc["dimension"], doc["mode"], doc["omega"]
    x, c = doc["jump_points"], doc["speeds"]
    if coeffs[0][0] != 0:
        return math.inf                       # A_1 must vanish
    worst = 0.0
    for ell in range(1, len(c)):
        vals, ders, size = [], [], 0.0
        for j, sign in ((ell - 1, 1), (ell, -1)):
            k = omega / c[j]
            f1, df1, f2, df2 = _pair(d, m, k * x[ell])
            a, b = coeffs[j]
            vals += [sign * a * f1, sign * b * f2]
            ders += [sign * k * a * df1, sign * k * b * df2]
            size += abs(a) * math.hypot(abs(f1), abs(df1)) \
                + abs(b) * math.hypot(abs(f2), abs(df2))
        k_top = omega / min(c[ell - 1], c[ell])
        if size:
            worst = max(worst, abs(sum(vals)) / size,
                        abs(sum(ders)) / (k_top * size))
    k = omega / c[-1]
    f1, df1, f2, df2 = _pair(d, m, k)
    a, b = coeffs[-1]
    dtn = k * df1 / f1
    g = complex(*doc["boundary_coefficient"])
    terms = [k * a * df1, k * b * df2, -dtn * a * f1, -dtn * b * f2, -g]
    size = (k + abs(dtn)) * (abs(a) * math.hypot(abs(f1), abs(df1))
                             + abs(b) * math.hypot(abs(f2), abs(df2))) \
        + abs(g)
    return max(worst, abs(sum(terms)) / size)


def route_disagreement(rec_entries, dir_entries) -> float:
    """max |rec - direct| over the larger of the two max magnitudes."""
    rec, dirc = np.asarray(rec_entries), np.asarray(dir_entries)
    if rec.shape != dirc.shape or not (np.all(np.isfinite(rec))
                                       and np.all(np.isfinite(dirc))):
        return math.inf
    scale = max(np.max(np.abs(rec)), np.max(np.abs(dirc)))
    return float(np.max(np.abs(rec - dirc)) / scale) if scale else 0.0


def jump_ratio_log_beta(doc: dict, dps: int = 40) -> list:
    """log|beta_ell|, ell = 0..n, from the d=3, m=0 jump-ratio recursion.

    beta_0 = 1 and beta_ell = (u + q_ell conj u) / (1 + q_ell) with
    u = exp(-i delta_ell) beta_{ell-1}, delta_ell = omega h_ell / c_ell and
    q_ell = (c_{ell+1} - c_ell) / (c_{ell+1} + c_ell).
    """
    with mp.workdps(dps):
        omega = mp.mpf(doc["omega"])
        x = [mp.mpf(v) for v in doc["jump_points"]]
        c = [mp.mpf(v) for v in doc["speeds"]]
        beta, out = mp.mpc(1), [0.0]
        for ell in range(1, len(c)):
            q = (c[ell] - c[ell - 1]) / (c[ell] + c[ell - 1])
            u = mp.expj(-omega * (x[ell] - x[ell - 1]) / c[ell - 1]) * beta
            beta = (u + q * mp.conj(u)) / (1 + q)
            out.append(float(mp.log(abs(beta))))
        return out


def bound_violations(doc: dict, log_beta) -> tuple[list, list]:
    """Indices violating the per-step bracket and the two-step majorant.

    Per step: (1-|q|)/(1+q) <= |beta_ell| / |beta_{ell-1}| <= (1+|q|)/(1+q).
    Two-step: |beta_2l|^2 <= |beta_2l-2|^2 (1 + C0 |q| / (1-q^2)^2
    * min(delta_2l, 1)), with |q| the common jump of the two speeds.
    """
    x, c, omega = doc["jump_points"], doc["speeds"], doc["omega"]
    step, major = [], []
    for ell in range(1, len(c)):
        q = (c[ell] - c[ell - 1]) / (c[ell] + c[ell - 1])
        lo = math.log((1.0 - abs(q)) / (1.0 + q))
        hi = math.log((1.0 + abs(q)) / (1.0 + q))
        ratio = log_beta[ell] - log_beta[ell - 1]
        if not lo - BOUND_SLACK <= ratio <= hi + BOUND_SLACK:
            step.append(ell)
    if len(c) > 1:
        q = abs((c[1] - c[0]) / (c[1] + c[0]))
        growth = C0 * q / (1.0 - q * q) ** 2
        for ell in range(2, len(c), 2):
            delta = omega * (x[ell] - x[ell - 1]) / c[ell - 1]
            bound = 0.5 * math.log1p(growth * min(delta, 1.0))
            if log_beta[ell] - log_beta[ell - 2] > bound + BOUND_SLACK:
                major.append(ell)
    return step, major


def certify_problem(doc: dict, log_moduli, per_step_ok, majorant_ok):
    """None if a certification report is right and the bounds hold."""
    own = jump_ratio_log_beta(doc)
    log_moduli = [float(v) for v in log_moduli]
    if len(log_moduli) != len(own):
        return "wrong number of log moduli"
    err = max(abs(a - b) for a, b in zip(log_moduli, own))
    if not err <= LOG_TOL:
        return f"log|beta| off by {err:.3e}"
    step, major = bound_violations(doc, own)
    if step or major:
        return f"paper's bounds violated at {step} / {major}"
    if not (per_step_ok and majorant_ok):
        return "report flags a violation the recursion does not show"
    return None


def localised_odd_log(speeds) -> list:
    """log of prod_{k=ell}^{n} (1+q_k) / (1 - (-1)^{k-1} q_k), ell = 1..n."""
    q = [(b - a) / (b + a) for a, b in zip(speeds[:-1], speeds[1:])]
    n = len(q)
    f = [math.log1p(q[k - 1]) - math.log1p(-(-1) ** (k - 1) * q[k - 1])
         for k in range(1, n + 1)]
    return [math.fsum(f[ell - 1:]) for ell in range(1, n + 1)]


def parse_csv(text: str, header: list, rows: int) -> list:
    """Float rows of a CSV artifact; raises ValueError if malformed."""
    table = list(csv.reader(io.StringIO(text)))
    if table[0] != header or len(table) != rows + 1:
        raise ValueError(f"expected header {header} and {rows} rows")
    out = []
    for row in table[1:]:
        if len(row) != len(header):
            raise ValueError("ragged row")
        out.append([float(v) for v in row])
    return out


def solve_artifacts(kind: str, doc: dict, code: int, files: dict,
                    grid: int = 64):
    """None if a ``helmrad solve`` run exited 0 with sound artifacts."""
    if code != 0:
        return f"exit code {code}"
    try:
        radial = parse_csv(files["radial.csv"], ["r", "re_u", "im_u", "abs_u"],
                           1024)
        disc = parse_csv(files["disc.csv"], ["x", "y", "abs_u"], grid * grid)
        column = json.loads(files["green_column.json"])
        diag = json.loads(files["diagnostics.json"])
    except (KeyError, ValueError, IndexError) as exc:
        return f"unreadable artifacts: {exc}"
    if not all(math.isfinite(v) for row in radial for v in row):
        return "non-finite radial field"
    if not any(math.isfinite(row[2]) for row in disc):
        return "empty disc slice"
    if not isinstance(diag.get("energy_norm"), float):
        return "diagnostics without an energy norm"
    n = len(doc["speeds"]) - 1
    odd = column.get("odd_log_magnitude", [])
    if len(odd) != n:
        return "wrong Green-column length"
    target = localised_odd_log(doc["speeds"]) if kind == "localised" \
        else [0.0] * n
    err = max(abs(a - b) for a, b in zip(odd, target))
    if not err <= GROWTH_TOL:
        return f"odd Green-column magnitudes off by {err:.3e} (log)"
    return None


def scan_artifact(base: dict, seed: int, samples: int, code: int,
                  text: str):
    """None if a ``helmrad scan`` run exited 0 with a sound scan.csv."""
    if code != 0:
        return f"exit code {code}"
    try:
        table = list(csv.reader(io.StringIO(text)))
        header = ["seed", "jitter", "omega", "sup_norm", "max_green_magnitude"]
        if table[0] != header or len(table) != samples + 2:
            return "scan.csv has the wrong shape"
        rows = [[float(v) for v in r] for r in table[1:]]
    except (ValueError, IndexError) as exc:
        return f"unreadable scan.csv: {exc}"
    if [int(r[0]) for r in rows] != list(range(seed, seed + samples + 1)):
        return "scan seeds out of order"
    if rows[0][1] != 0.0 or rows[0][2] != base["omega"]:
        return "first scan row is not the unperturbed base"
    if not all(math.isfinite(v) and v > 0 for r in rows for v in r[2:]):
        return "non-finite or non-positive scan values"
    return None


def high_mode_error(case: dict, coeffs) -> float:
    """Largest per-layer error against a stored reference case."""
    if not all(np.isfinite(complex(a)) and np.isfinite(complex(b))
               for a, b in coeffs):
        return math.inf
    ref = [(reference.parse_num(L["a"]), reference.parse_num(L["b"]))
           for L in case["layers"]]
    scales = [(L["log10_f1"], L["log10_f2"]) for L in case["layers"]]
    if len(coeffs) != len(ref):
        return math.inf
    with mp.workdps(30):
        return float(max(reference.layer_errors(coeffs, ref, scales)))


# -- self-tests ---------------------------------------------------------------

def _perturb(coeffs, j, rel):
    """Scale both coefficients of layer j by 1 + rel."""
    out = list(coeffs)
    a, b = out[j]
    out[j] = (a * (1 + rel), b * (1 + rel))
    return out


def self_test(ref_case: dict) -> list:
    """Problems found; every check must pass exact data and flag bad data."""
    problems = []

    def expect(name, good, bad):
        if not good:
            problems.append(f"{name}: rejects a correct answer")
        if not bad:
            problems.append(f"{name}: accepts a perturbed answer")

    # interface / radiating backward error on mpmath-exact coefficients
    for doc in (dict(dimension=3, mode=2, omega=7.5,
                     boundary_coefficient=[1.0, 0.0],
                     jump_points=[0.0, 0.3, 0.55, 1.0],
                     speeds=[1.0, 2.5, 0.7]),
                dict(dimension=1, mode=0, omega=11.0,
                     boundary_coefficient=[1.0, 0.0],
                     jump_points=[0.0, 0.4, 1.0], speeds=[2.0, 0.5])):
        with mp.workdps(30):
            exact = [(complex(a), complex(b))
                     for a, b in reference.solve_raw(doc)]
        expect(f"backward error (d={doc['dimension']})",
               backward_error(doc, exact) <= TOL,
               backward_error(doc, _perturb(exact, 1, 1e-6)) > TOL)
    entries = np.array([1.0 + 2.0j, -3.0, 0.5j])
    bad = entries.copy()
    bad[1] *= 1.0 + 1e-6
    expect("route agreement", route_disagreement(entries, entries) <= TOL,
           route_disagreement(entries, bad) > TOL)

    # alternating population: recursion and the paper's bounds
    doc = dict(dimension=3, mode=0, omega=9.0, boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 0.2, 0.45, 0.7, 1.0],
               speeds=[1.0, 2.0, 1.0, 2.0])
    own = jump_ratio_log_beta(doc)
    shifted = list(own)
    shifted[2] += 1e-6
    expect("certification log|beta|",
           certify_problem(doc, own, True, True) is None,
           certify_problem(doc, shifted, True, True) is not None)
    grown = list(own)
    grown[2] += 0.5
    expect("paper's bounds", not any(bound_violations(doc, own)),
           any(bound_violations(doc, grown)))

    # constructed examples: closed-form magnitudes and artifacts
    speeds = [1.0, 3.0] * 4 + [1.0]
    target = localised_odd_log(speeds)
    ok_files = _fake_artifacts(target)
    bad_files = _fake_artifacts([t * (1 + 1e-3) for t in target])
    doc = dict(jump_points=[0.0] * 10, speeds=speeds)
    expect("localised Green column",
           solve_artifacts("localised", doc, 0, ok_files) is None,
           solve_artifacts("localised", doc, 0, bad_files) is not None)
    expect("stable Green column",
           solve_artifacts("stable", doc, 0, _fake_artifacts([0.0] * 8))
           is None,
           solve_artifacts("stable", doc, 0, _fake_artifacts([1e-3] * 8))
           is not None)
    torn = dict(ok_files, **{"radial.csv": ok_files["radial.csv"][:-40]})
    expect("artifact parsing",
           solve_artifacts("localised", doc, 0, ok_files) is None,
           solve_artifacts("localised", doc, 0, torn) is not None)

    # high modes: stored mpmath reference, entry-wise per layer
    exact = [(complex(reference.parse_num(L["a"])),
              complex(reference.parse_num(L["b"])))
             for L in ref_case["layers"]]
    expect("high-mode reference", high_mode_error(ref_case, exact) <= TOL,
           high_mode_error(ref_case, _perturb(exact, 1, 1e-6)) > TOL)
    return problems


def _fake_artifacts(odd_log) -> dict:
    radial = "r,re_u,im_u,abs_u\r\n" + "".join(
        f"{i / 1023},1,0,1\r\n" for i in range(1024))
    disc = "x,y,abs_u\r\n" + "0,0,1\r\n" * (64 * 64)
    return {"radial.csv": radial, "disc.csv": disc,
            "green_column.json": json.dumps({"odd_log_magnitude": odd_log}),
            "diagnostics.json": json.dumps({"energy_norm": 1.5})}
