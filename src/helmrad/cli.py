"""Command-line front end.

Subcommands: solve, construct, scan, verify, whisper.  solve takes its
answer, and its Green column, from ``evaluate.solve``, and scan its
samples' from ``evaluate.solve_many``: one batched recursion whose refused
samples fall back to the banded route one at a time.  All file
output is written atomically (temp file + rename) so identical runs produce
byte-identical artifacts: the CSV files with "%.17g" floats, the JSON files
through ``json.dumps`` (Python's shortest round-trip repr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import assembly, evaluate, green, stability
from .problem import (ProblemSpec, construct_localisation_example,
                      construct_stable_example, random_alternating,
                      random_spec)

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NEAR_RESONANT = 3


def _load_spec(arg: str) -> ProblemSpec:
    text = arg
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    return ProblemSpec.from_json(text)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _finite(values) -> list:
    """``values`` as a list of floats, None for each one not finite."""
    return [v if math.isfinite(v) else None for v in map(float, values)]


def cmd_solve(args) -> int:
    sol = evaluate.solve(args.spec)
    report = evaluate.diagnostics(sol, quad_order=args.quad_order)
    column = sol.column

    os.makedirs(args.output_dir, exist_ok=True)
    out = os.path.join
    evaluate.write_radial_csv(sol, out(args.output_dir, "radial.csv"))
    if args.spec.dimension == 3 and args.spec.mode == 0:
        evaluate.write_disc_csv(sol, out(args.output_dir, "disc.csv"),
                                grid=args.grid)
    green_doc = {
        "odd": [[v.real, v.imag] for v in column.entries[0::2]],
        "even": [[v.real, v.imag] for v in column.entries[1::2]],
        # a zero entry's log is -inf, not a JSON number
        "odd_log_magnitude": _finite(column.log[0::2]),
        "even_log_magnitude": _finite(column.log[1::2]),
    }
    evaluate._atomic_write(out(args.output_dir, "green_column.json"),
                           _json_dumps(green_doc))
    diag_doc = dict(report.to_dict(), recursion={
        "tier": column.tier,
        "error_bound_digits": _finite([column.error_bound_digits])[0]})
    evaluate._atomic_write(out(args.output_dir, "diagnostics.json"),
                           _json_dumps(diag_doc))
    if not report.passes():
        print("residual thresholds exceeded", file=sys.stderr)
        return EXIT_SUITE_FAILED
    return EXIT_OK


def cmd_construct(args) -> int:
    try:
        if args.kind == "localised":
            spec = construct_localisation_example(args.n, args.c1, args.c2)
        else:
            spec = construct_stable_example(args.n, args.c1, args.c2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    sys.stdout.write(_json_dumps(spec.to_dict()))
    return EXIT_OK


def _scan_spec(base: ProblemSpec, rng_seed: int, jitter: float
               ) -> ProblemSpec:
    """``base`` with omega and one jump point perturbed by ``jitter``."""
    rng = np.random.default_rng(rng_seed)
    omega = base.omega * (1.0 + jitter * (2.0 * rng.random() - 1.0))
    x = list(base.profile.jump_points)
    if jitter > 0.0 and base.n >= 1:
        j = int(rng.integers(1, base.n + 1))
        lo, hi = x[j - 1], x[j + 1]
        width = hi - lo
        x[j] = min(max(x[j] + jitter * width * (2.0 * rng.random() - 1.0),
                       lo + 1e-9 * width), hi - 1e-9 * width)
    return replace(base, omega=omega,
                   profile=replace(base.profile, jump_points=tuple(x)))


def cmd_scan(args) -> int:
    seeds = [(args.seed, 0.0)] + [
        (args.seed + 1 + k, args.jitter) for k in range(args.samples)]
    sup = evaluate.sup_scaled if (args.spec.dimension, args.spec.mode) \
        == (3, 0) else evaluate.sup_radial
    lines = ["seed,jitter,omega,sup_norm,max_green_magnitude"]
    # one batched solve per 256 samples, so that a long scan holds one
    # batch's solutions at a time; the sup norms one sample at a time, as
    # one pass over every sample's radii measured slower
    for lo in range(0, len(seeds), 256):
        batch = seeds[lo:lo + 256]
        for (seed, jit), sol in zip(batch, evaluate.solve_many(
                [_scan_spec(args.spec, *sj) for sj in batch])):
            lines.append(f"{seed},{jit:.17g},{sol.spec.omega:.17g},"
                         f"{sup(sol):.17g},{sol.column.max_abs():.17g}")
    os.makedirs(args.output_dir, exist_ok=True)
    evaluate._atomic_write(os.path.join(args.output_dir, "scan.csv"),
                           "\n".join(lines) + "\n")
    return EXIT_OK


def _suite_oracle(rng) -> list:
    results = []
    for k in range(200):
        spec = random_spec(rng)
        direct = evaluate.solve_direct(spec)[0].coeffs
        rec = green.layer_coefficients(spec)
        scale = max(np.max(np.abs(direct.entries)),
                    np.max(np.abs(rec.entries)))
        err = np.max(np.abs(direct.entries - rec.entries)) / scale
        results.append({"case": k, "max_relative_error": float(err),
                        "ok": bool(err <= 1e-9)})
    return results


def _suite_bounds(rng) -> list:
    results = []
    for k in range(500):
        spec = random_alternating(rng)
        rep = stability.certify_beta_bounds(spec)
        results.append({"case": k, "per_step_ok": rep.per_step_ok,
                        "majorant_ok": rep.majorant_ok,
                        "ok": rep.per_step_ok and rep.majorant_ok})
    return results


def _suite_figures() -> list:
    targets = {2: (0.85, 0.10), 4: (2.5, 0.10), 8: (22.0, 0.10),
               16: (1850.0, 0.15)}
    results = []
    for n, (target, tol) in targets.items():
        spec = construct_localisation_example(n, 1.0, 3.0)
        sol = evaluate.solve(spec)
        sup = evaluate.sup_scaled(sol)
        ok = abs(sup - target) <= tol * target
        results.append({"n": n, "sup": sup, "target": target,
                        "ok": bool(ok)})
    return results


def _suite_specfun() -> list:
    from .specfun import (spherical_bessel_j, spherical_hankel_h1,
                          FundamentalPair, fundamental_eval)
    results = []
    xs = np.linspace(0.05, 100.0, 257)
    err = max(abs(x * abs(spherical_hankel_h1(0, x)) - 1.0) for x in xs)
    results.append({"check": "unit_outgoing_modulus",
                    "max_error": err, "ok": bool(err <= 1e-13)})
    pair = FundamentalPair(3, 0)
    err = 0.0
    for x in xs:
        _, dh = fundamental_eval(pair, 1, float(x))
        target = 1.0 / x ** 2 + 1.0 / x ** 4
        err = max(err, abs(abs(dh) ** 2 - target) / target)
    results.append({"check": "outgoing_derivative_modulus",
                    "max_relative_error": err, "ok": bool(err <= 1e-12)})
    err = max(abs(x * spherical_bessel_j(0, x)) - 2 * x / (1 + x)
              for x in xs)
    results.append({"check": "regular_branch_bound", "ok": bool(err <= 0.0)})
    return results


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    suites = {
        "oracle": lambda: _suite_oracle(rng),
        "bounds": lambda: _suite_bounds(rng),
        "figures": _suite_figures,
        "specfun": _suite_specfun,
    }
    results = suites[args.suite]()
    ok = all(r["ok"] for r in results)
    doc = {"suite": args.suite, "ok": ok, "results": results}
    sys.stdout.write(_json_dumps(doc))
    return EXIT_OK if ok else EXIT_SUITE_FAILED


def cmd_whisper(args) -> int:
    try:
        res = stability.whispering_gallery_scan(
            args.m, args.c1, args.c2, args.x1,
            tuple(args.omega_window), samples=args.samples)
    except (ValueError, stability.WindowTooCoarse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    doc = {
        "omega_star": res.omega_star,
        "min_wronskian_modulus": res.min_wronskian,
        "a2": [res.a2.real, res.a2.imag],
        "b1": [res.b1.real, res.b1.imag],
        "b2": [res.b2.real, res.b2.imag],
    }
    sys.stdout.write(_json_dumps(doc))
    return EXIT_OK


def _within(low, below=math.inf, kind=int, name="integer"):
    """An argparse type: a ``kind`` number in [low, below), nan refused;
    text that is no ``kind`` number reads as an invalid ``name`` value."""
    def convert(text: str):
        value = kind(text)
        if not low <= value < below:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}" if below == math.inf else
                f"must be {'finite and ' * (kind is float)}in "
                f"[{low:g}, {below:g})")
        return value
    convert.__name__ = name
    return convert


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="helmrad",
        description="Layered radial wave transmission solver")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one problem and emit data files")
    s.add_argument("--input", required=True,
                   help="path to, or inline, problem JSON")
    s.add_argument("--output-dir", default=".")
    s.add_argument("--grid", type=_within(1), default=64)
    s.add_argument("--quad-order", default=32,
                   type=_within(8, evaluate._QUAD_MAX_ORDER + 1))

    c = sub.add_parser("construct", help="emit a constructed example spec")
    c.add_argument("--kind", choices=["localised", "stable"], required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--c1", type=float, required=True)
    c.add_argument("--c2", type=float, required=True)

    sc = sub.add_parser("scan", help="perturbation sweep around a base spec")
    sc.add_argument("--input", required=True)
    sc.add_argument("--output-dir", default=".")
    sc.add_argument("--seed", type=_within(0, name="int"), required=True)
    sc.add_argument("--samples", type=_within(0, name="int"), default=100)
    sc.add_argument("--jitter", type=_within(0, 1, float, "float"),
                    default=0.01)

    v = sub.add_parser("verify", help="run a named acceptance suite")
    v.add_argument("--suite", choices=["oracle", "bounds", "figures",
                                       "specfun"], required=True)
    v.add_argument("--seed", type=_within(0, name="int"), default=20260823)

    w = sub.add_parser("whisper", help="single-interface resonance scan")
    w.add_argument("--m", type=int, required=True)
    w.add_argument("--c1", type=float, required=True)
    w.add_argument("--c2", type=float, required=True)
    w.add_argument("--x1", type=float, required=True)
    w.add_argument("--omega-window", type=float, nargs=2, required=True)
    w.add_argument("--samples", type=int, default=400)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  The one place where an invalid problem
    description, a path that cannot be read or created, a near resonance
    or a refused solve becomes an exit code and one ``error:`` line, with
    no traceback and no artifact."""
    args = _parser().parse_args(argv)
    if "input" in args:
        try:
            args.spec = _load_spec(args.input)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: invalid problem description: {exc}",
                  file=sys.stderr)
            return EXIT_VALIDATION
    try:
        # looked up at call time, so a replaced module attribute is what runs
        return globals()[f"cmd_{args.command}"](args)
    except OSError as exc:
        # an --output-dir that cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except green.NearResonantDenominator as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEAR_RESONANT
    except (ZeroDivisionError, OverflowError, assembly.SingularSystem,
            assembly.DegenerateNormaliser) as exc:
        # a refused solve
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SUITE_FAILED


if __name__ == "__main__":
    sys.exit(main())
