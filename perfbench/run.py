"""helmrad benchmark: fixed workloads, end-to-end metrics, independent checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-200 --seed 1 --seconds 15 --trace 0

It imports helmrad from ``src/`` of that checkout (never an installed copy),
times one workload in this process for ``--seconds`` (in whole rounds, at
least three), checks every output with the code in ``checks.py``, and
prints one JSON object as its last line.  Set-up is timed in fresh child
interpreters, one at a time; ``helmrad scan`` runs its own thread pool.  With
``--trace 1`` it alternates untraced and traced rounds instead and reports
the per-layer metrics of ``tracer.py`` plus the tracing overhead.  See
README.md for the workloads, the metrics and the faults kept as failures.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np

import checks
import inputs
import reference
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")

WORKLOADS = ("oracle-200", "alternating-500", "solve-cli", "high-mode")
MIN_ROUNDS = 3
SETUP_REPEATS = 5

# Speed calibration.  On a shared host the machine's speed moves by up to
# 40% between phases lasting seconds to minutes, and helmrad's operations
# and a plain Python loop slow down together: their ratio held within 1.5%
# over 10 s windows while each moved by 7%.  Every run times that loop
# before an operation whenever CAL_EVERY_S have passed since the last time,
# and after any operation longer than that, and scales each operation's
# time by CAL_REF_S / (median of the last CAL_WINDOW loop times).  The
# figures are times at the speed at which the loop takes CAL_REF_S, its
# median on the 2-core machine the benchmark was tuned on.  The unscaled
# figures are printed on the line before the result.
CAL_LOOP = 20000
CAL_EVERY_S = 0.2
CAL_WINDOW = 5
CAL_REF_S = 1.7e-3

#: set-up as a user pays it: a fresh interpreter imports numpy, scipy,
#: mpmath and helmrad and solves one small problem
SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, scipy, scipy.linalg, mpmath, helmrad
from helmrad import construct_localisation_example, solve
solve(construct_localisation_example(4, 1.0, 3.0))
elapsed = time.perf_counter() - t0
if not helmrad.__file__.startswith(sys.argv[1]):
    sys.exit("helmrad imported from " + helmrad.__file__)
print(repr(elapsed))
"""


class Op:
    """One timed call into helmrad plus what is needed to check it."""

    def __init__(self, key, kind, doc, run, collect, check, native=True,
                 samples=0):
        self.key, self.kind, self.doc = key, kind, doc
        self.run = run            # timed
        self.collect = collect    # untimed: result -> checkable output
        self.check = check        # (output, outputs) -> None or problem
        self.native = native
        self.samples = samples    # scan rows produced


def _interrupt(signum, frame):
    raise SystemExit(128 + signum)


class Calibration:
    """Times of a fixed Python loop, taken between operations."""

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(CAL_LOOP):
            s += i * i
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self._last > CAL_EVERY_S:
            self.sample()

    def time_scale(self) -> float:
        """Factor taking a time measured now to reference speed."""
        return CAL_REF_S / statistics.median(self.samples[-CAL_WINDOW:])


# -- set-up -----------------------------------------------------------------

def measure_setup(repeats: int, cal: Calibration) -> tuple[float, float]:
    """Median set-up time over fresh child interpreters, run one by one.

    Returns the scaled and the unscaled median.
    """
    times, scaled = [], []
    for _ in range(repeats):
        for _ in range(CAL_WINDOW):
            cal.sample()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(times[-1] * cal.time_scale())
    return statistics.median(scaled), statistics.median(times)


def import_helmrad():
    if not os.path.isfile(os.path.join(SRC, "helmrad", "__init__.py")):
        raise RuntimeError(f"no helmrad sources under {SRC}")
    sys.path.insert(0, SRC)
    import helmrad
    if not os.path.abspath(helmrad.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"helmrad imported from {helmrad.__file__}")
    import helmrad.cli
    helmrad.solve(helmrad.construct_localisation_example(4, 1.0, 3.0))
    return helmrad


# -- operations ---------------------------------------------------------------

def _coeffs(c):
    return np.array(c.entries, dtype=complex), complex(c.b_last)


def _raised(out):
    return f"raised {type(out).__name__}: {out}"


def solve_pair_ops(hr, docs, tag, native, check):
    """A recursion and a banded op per spec, called through module names.

    ``check(i, doc, route)`` returns the check of one op, a callable
    ``(output, all outputs by key) -> None or problem``.
    """
    ops = []
    for i, doc in enumerate(docs):
        spec = inputs.to_spec(doc)
        ops.append(Op(f"{tag}/{i}/rec", "recursion", doc,
                      lambda s=spec: hr.evaluate.solve(s).coeffs,
                      _coeffs, check(i, doc, "rec"), native))
        ops.append(Op(f"{tag}/{i}/dir", "banded", doc,
                      lambda s=spec: hr.evaluate.solve_direct(s)[0].coeffs,
                      _coeffs, check(i, doc, "dir"), native))
    return ops


def oracle_ops(hr, docs, tag, native):
    """Both routes; backward error of each, and agreement of the two."""

    def check(i, doc, route):
        def run_check(out, outputs):
            if isinstance(out, BaseException):
                return _raised(out)
            err = checks.backward_error(doc, checks.layers(*out))
            if not err <= checks.TOL:
                return f"backward error {err:.3e}"
            rec = outputs[f"{tag}/{i}/rec"]
            if route == "dir" and not isinstance(rec, BaseException):
                gap = checks.route_disagreement(rec[0], out[0])
                if not gap <= checks.TOL:
                    return f"routes disagree by {gap:.3e}"
            return None
        return run_check
    return solve_pair_ops(hr, docs, tag, native, check)


def high_mode_ops(hr, ref):
    """Both routes against the stored arbitrary-precision reference."""

    def check(i, doc, route):
        def run_check(out, outputs):
            if isinstance(out, BaseException):
                return _raised(out)
            err = checks.high_mode_error(ref["cases"][i], checks.layers(*out))
            return None if err <= checks.TOL else \
                f"wrong coefficients, per-layer error {err:.3e}"
        return run_check
    docs = [case["spec"] for case in ref["cases"]]
    return solve_pair_ops(hr, docs, "high-mode", True, check)


def known_fault(workload, op, out):
    """Letter of a documented fault an op failure belongs to, else None.

    Failures are kept only on inputs that do not depend on the seed: the
    high-mode population and the unjittered oracle specs.
    """
    route = op.key.rsplit("/", 1)[1]
    if workload == "oracle-200":
        index = int(op.key.split("/")[1])
        fixed = index in inputs.ORACLE_FIXED and route == "rec"
        return "f" if fixed and not isinstance(out, BaseException) else None
    if workload != "high-mode":
        return None
    if len(op.doc["speeds"]) == 1 and isinstance(out, BaseException):
        return "b"
    if not isinstance(out, BaseException):
        return "a" if route == "rec" else None
    name = type(out).__name__
    if route == "rec" and name == "ZeroDivisionError":
        return "c"
    if route == "dir" and name == "SingularSystem":
        return "d"
    if route == "dir" and (name == "OverflowError" or (
            name == "ValueError" and "infs or NaNs" in str(out))):
        return "e"
    return None


def certify_ops(hr, docs, tag, native):
    def collect(rep):
        return (np.array(rep.log_beta_moduli, dtype=float),
                bool(rep.per_step_ok), bool(rep.majorant_ok))
    ops = []
    for i, doc in enumerate(docs):
        def check(out, outputs, doc=doc):
            return _raised(out) if isinstance(out, BaseException) \
                else checks.certify_problem(doc, *out)
        spec = inputs.to_spec(doc)
        ops.append(Op(f"{tag}/{i}", "certify", doc,
                      lambda s=spec: hr.stability.certify_beta_bounds(s),
                      collect, check, native))
    return ops


def _read_dir(path):
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name)) as fh:
            files[name] = fh.read()
    return files


def cli_solve_op(hr, kind, doc, workdir, key, native):
    out_dir = os.path.join(workdir, key.replace("/", "_"))
    argv = ["solve", "--input", json.dumps(doc), "--output-dir", out_dir]
    return Op(key, "solve", doc, lambda: hr.cli.main(argv),
              lambda code: (code, _read_dir(out_dir)),
              lambda out, outputs: _raised(out)
              if isinstance(out, BaseException)
              else checks.solve_artifacts(kind, doc, *out), native)


def cli_scan_op(hr, doc, seed, samples, workdir, key, native):
    out_dir = os.path.join(workdir, key.replace("/", "_"))
    argv = ["scan", "--input", json.dumps(doc), "--output-dir", out_dir,
            "--seed", str(seed), "--samples", str(samples)]
    return Op(key, "scan", doc, lambda: hr.cli.main(argv),
              lambda code: (code, _read_dir(out_dir).get("scan.csv", "")),
              lambda out, outputs: _raised(out)
              if isinstance(out, BaseException)
              else checks.scan_artifact(doc, seed, samples, *out), native,
              samples=samples + 1)


def constructed(hr, kind, n, c2):
    build = hr.construct_localisation_example if kind == "localised" \
        else hr.construct_stable_example
    return build(n, 1.0, c2).to_dict()


def build_ops(hr, workload, seed, workdir, ref):
    native = []
    if workload == "oracle-200":
        native = oracle_ops(hr, inputs.oracle_population(seed), "oracle",
                            True)
    elif workload == "alternating-500":
        native = certify_ops(hr, inputs.alternating_population(seed),
                             "alternating", True)
    elif workload == "solve-cli":
        c2 = 3.0 * (1.0 + inputs.JITTER * (
            2.0 * np.random.default_rng([seed, 3]).random() - 1.0))
        for kind, n in [("localised", n) for n in (2, 4, 8, 16)] + \
                [("stable", n) for n in (2, 4, 8, 16, 32)]:
            native.append(cli_solve_op(hr, kind, constructed(hr, kind, n, c2),
                                       workdir, f"solve/{kind}{n}", True))
        native.append(cli_scan_op(hr, constructed(hr, "localised", 8, c2),
                                  seed, 40, workdir, "scan/localised8", True))
    elif workload == "high-mode":
        native = high_mode_ops(hr, ref)
    kinds = {op.kind for op in native}
    extra = []
    # every run reports every end-to-end metric: kinds of operation the
    # workload lacks are timed on a small fixed companion set
    if not kinds & {"recursion", "banded"}:
        extra += oracle_ops(hr, inputs.companion_oracle(), "companion",
                            False)
    if "certify" not in kinds:
        extra += certify_ops(hr, inputs.companion_alternating(),
                             "companion", False)
    if "solve" not in kinds:
        for kind, n in (("localised", 1), ("localised", 2), ("localised", 3),
                        ("stable", 1), ("stable", 2)):
            extra.append(cli_solve_op(hr, kind, constructed(hr, kind, n, 3.0),
                                      workdir, f"companion/solve/{kind}{n}",
                                      False))
    if "scan" not in kinds:
        for scan_seed in (1, 2):
            extra.append(cli_scan_op(hr, constructed(hr, "localised", 1, 3.0),
                                     scan_seed, 40, workdir,
                                     f"companion/scan/{scan_seed}", False))
    return native + extra


# -- rounds -------------------------------------------------------------------

def _fingerprint(out) -> str:
    h = hashlib.sha256()
    if isinstance(out, BaseException):
        h.update(f"{type(out).__name__}:{out}".encode())
    else:
        for part in out if isinstance(out, tuple) else (out,):
            if isinstance(part, np.ndarray):
                h.update(part.tobytes())
            elif isinstance(part, dict):
                for name, text in part.items():
                    h.update(name.encode() + text.encode())
            else:
                h.update(repr(part).encode())
    return h.hexdigest()


def run_round(ops, order, times, raw_times, outputs, prints, problems, cal):
    """Run every op once, in the given order; returns the summed op time."""
    total = 0.0
    for op in (ops[i] for i in order):
        cal.maybe_sample()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:       # a failed operation, kept and checked
            result = exc
        dt = time.perf_counter() - t0
        if dt > CAL_EVERY_S:
            cal.sample()     # a long op is scaled by the speed after it too
        raw_times.setdefault(op.key, []).append(dt)
        times.setdefault(op.key, []).append(dt * cal.time_scale())
        total += dt
        out = result if isinstance(result, BaseException) \
            else op.collect(result)
        fp = _fingerprint(out)
        if op.key not in outputs:
            outputs[op.key], prints[op.key] = out, fp
        elif prints[op.key] != fp:
            problems.append(f"{op.key}: output differs between rounds")
    return total


def metrics_from(ops, times):
    """End-to-end metrics from per-op median times."""
    med = {op.key: statistics.median(times[op.key]) for op in ops}

    def of(kind):
        return [med[op.key] for op in ops if op.kind == kind]
    rec, ban, cert = of("recursion"), of("banded"), of("certify")
    scans = [op for op in ops if op.kind == "scan"]
    return {
        "recursion_solves_per_s": len(rec) / sum(rec),
        "recursion_p95_ms": 1e3 * float(np.percentile(rec, 95)),
        "banded_solves_per_s": len(ban) / sum(ban),
        "certify_per_s": len(cert) / sum(cert),
        "solve_ms": 1e3 * statistics.median(of("solve")),
        "scan_samples_per_s": sum(op.samples for op in scans)
        / sum(med[op.key] for op in scans),
    }


def check_outputs(workload, ops, outputs, problems):
    """(failed ops per round, faults seen); unexplained failures -> problems.

    A failure is kept only if it belongs to a documented fault; any other
    failed op fails the run.
    """
    failed, faults = 0, {}
    for op in ops:
        problem = op.check(outputs[op.key], outputs)
        if problem is None:
            continue
        failed += 1
        fault = known_fault(workload, op, outputs[op.key]) \
            if op.native else None
        if fault is None:
            problems.append(f"{op.key}: {problem}")
        else:
            faults[fault] = faults.get(fault, 0) + 1
    return failed, faults


def artifact_bytes(workdir):
    total = 0
    for base, _, names in os.walk(workdir):
        total += sum(os.path.getsize(os.path.join(base, n)) for n in names)
    return total


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", as declared."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def per_layer(names, summary, rounds, nbytes, overhead):
    """Per-layer metrics per traced round (every traced round is the same)."""
    def per(v):
        return v / rounds

    def count(v):
        return v // rounds if v % rounds == 0 else v / rounds
    calls, selfs = summary["calls"], summary["self_s"]
    out = {
        "specfun.calls": count(summary["entries"].get("specfun", 0)),
        "specfun.self_s": per(summary["layer_self_s"].get("specfun", 0.0)),
        "specfun.mp_calls": count(calls.get("specfun.fundamental_eval_mp", 0)),
        "green.beta_sequence.calls":
            count(calls.get("green.beta_sequence", 0)),
        "green.mp_escalations":
            count(summary["mp_escalations"].get("green", 0)),
        "green.mp_s": per(summary["mp_s"].get("green", 0.0)),
        "assembly.mp_escalations":
            count(summary["mp_escalations"].get("assembly", 0)),
        "assembly.mp_s": per(summary["mp_s"].get("assembly", 0.0)),
        "cli.artifact_bytes": nbytes,
        "trace.overhead_pct": overhead,
    }
    for name in names:
        if name.endswith(".self_s") and name not in out:
            out[name] = per(selfs.get(name[:-len(".self_s")], 0.0))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    signal.signal(signal.SIGTERM, _interrupt)
    # one CPU for this process and its set-up children: helmrad computes
    # under the interpreter lock anyway, and the scan pool's threads handing
    # that lock between cores made scan times spread 10-12% run to run,
    # against 3-7% on one core
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warnings.simplefilter("ignore", RuntimeWarning)
    os.environ.pop("HELM_THREADS", None)   # the scan pool at its default
    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        return _run(args, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    hr = import_helmrad()
    ref = reference.load()
    problems = checks.self_test(ref["cases"][0])
    ops = build_ops(hr, args.workload, args.seed, workdir, ref)
    times, raw_times, outputs, prints = {}, {}, {}, {}
    # a fresh seeded order every round spreads each kind of operation over
    # the whole round, so a burst of load elsewhere on the machine cannot
    # fall on one kind only
    orders = (np.random.default_rng([args.seed, 4, r]).permutation(len(ops))
              for r in itertools.count())
    rounds, start = 0, time.perf_counter()
    cal = Calibration()
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(SETUP_REPEATS, cal)
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start \
                < args.seconds:
            run_round(ops, next(orders), times, raw_times, outputs, prints,
                      problems, cal)
            rounds += 1
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = dict(metrics_from(ops, times), setup_s=setup_s,
                      peak_rss_mb=rss)
        raw = dict(metrics_from(ops, raw_times), setup_s=raw_setup_s)
        loop_ms = 1e3 * statistics.median(cal.samples)
        print(f"unscaled (loop median {loop_ms:.4f} ms): "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        names = metric_units("end_to_end")
    else:
        ops = [op for op in ops if op.native]
        tr = tracer.Tracer()
        plain, traced = [], []
        while len(traced) < 1 or time.perf_counter() - start < args.seconds:
            order = next(orders)
            plain.append(run_round(ops, order, times, raw_times, outputs,
                                   prints, problems, cal))
            tr.install()
            try:
                traced.append(run_round(ops, order, times, raw_times,
                                        outputs, prints, problems, cal))
            finally:
                tr.uninstall()
        rounds = 2 * len(traced)
        overhead = 100.0 * (statistics.median(traced)
                            / statistics.median(plain) - 1.0)
        os.makedirs(OUT, exist_ok=True)
        tr.write(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json.gz"))
        names = metric_units("per_layer")
        values = per_layer(names, tr.summary(), len(traced),
                           artifact_bytes(workdir), overhead)
    failed, faults = check_outputs(args.workload, ops, outputs, problems)
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(ops)} operations x {rounds} rounds in "
          f"{time.perf_counter() - start:.1f} s, {failed} failing per round"
          + "".join(f", fault ({k}) {v}" for k, v in sorted(faults.items())))
    result = {
        "correct": not problems,
        "attempted": len(ops) * rounds,
        "failed": failed * rounds,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
