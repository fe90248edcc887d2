"""The golden outputs: ``ENTRIES`` maps each name to the ``cli.main``
arguments of one helmrad run, or to a library call, whose bytes a change
keeps.  ``python tests/golden.py REV`` runs each in a fresh interpreter
against a git worktree of REV and against this checkout, into
``golden-out/``, and lists every file that differs or exists on one side.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))    # the checkout's own package

import numpy as np

from helmrad import assembly, cli, green
from helmrad.problem import (construct_localisation_example,
                             construct_stable_example, random_spec)
from populations import (EXTREME, EXTREME_IDS, FAULT_C,
                         high_mode_population)

OUT = ROOT / "golden-out"
LOCALISED = construct_localisation_example(8, 1.0, 3.0).to_json()
REFUSED = dict(zip(EXTREME_IDS, (json.dumps(doc) for doc, _ in EXTREME)))


def _records(out: Path) -> None:
    """Each run's records through ``repr``: a longdouble's bytes carry
    padding that equal values need not share."""
    rng = np.random.default_rng(20260823)
    text = []
    for spec in [random_spec(rng) for _ in range(200)] \
            + high_mode_population():
        try:
            seq = green.beta_sequence(spec)
        except (ZeroDivisionError, assembly.DegenerateNormaliser) as exc:
            text.append(f"{type(exc).__name__}: {exc}")
            continue
        text.append(f"{seq.tier} {float(seq.error_bound_digits)!r}")
        text += (" ".join(repr(v) for v in rows) for rows in (
            seq.log_moduli, seq.phases, seq.rot_im_log, seq.rot_im_sign))
    (out / "records.txt").write_bytes("".join(text).encode())


ENTRIES = {
    "solve-localised": ["solve", "--input", LOCALISED],
    "solve-stable": ["solve", "--input",
                     construct_stable_example(8, 1.0, 3.0).to_json()],
    "solve-localised16": ["solve", "--input", construct_localisation_example(
        16, 1.0, 3.0).to_json()],
    "solve-fault-c": ["solve", "--input", json.dumps(FAULT_C)],
    "scan-localised": ["scan", "--input", LOCALISED, "--seed", "1",
                       "--samples", "40"],
    "scan-fault-c": ["scan", "--input", json.dumps(FAULT_C), "--seed", "3",
                     "--samples", "2"],
    "verify-oracle": ["verify", "--suite", "oracle"],
    "verify-bounds": ["verify", "--suite", "bounds"],
    "verify-figures": ["verify", "--suite", "figures"],
    "verify-specfun": ["verify", "--suite", "specfun"],
    "construct-localised": ["construct", "--kind", "localised", "--n", "8",
                            "--c1", "1", "--c2", "3"],
    "construct-stable": ["construct", "--kind", "stable", "--n", "8",
                         "--c1", "1", "--c2", "3"],
    "whisper": ["whisper", "--m", "5", "--c1", "1.0", "--c2", "2.0",
                "--x1", "0.5", "--omega-window", "15.66", "15.68"],
    # refused: w^{2,1} vanishes on the banded route; k r leaves the doubles
    "vanished-normaliser": ["solve", "--input", REFUSED["d3-m20-w3-c1e-300"]],
    "field-out-of-range": ["solve", "--input",
                           REFUSED["d3-m0-w1e+100-c1e-300"]],
    "recursion-records": _records,
}


def write(name: str, out) -> int:
    """Run entry ``name`` against the helmrad imported, into the directory
    ``out``: a command's files go to its ``--output-dir``, or its stdout to
    ``stdout``.  Returns the exit code."""
    out, entry = Path(out), ENTRIES[name]
    if callable(entry):
        entry(out)
        return cli.EXIT_OK
    if entry[0] in ("solve", "scan"):
        return cli.main([*entry, "--output-dir", str(out)])
    with open(out / "stdout", "w") as fh, contextlib.redirect_stdout(fh):
        return cli.main(entry)


def _run(tree: Path, out: Path) -> None:
    """Every entry in a fresh interpreter that imports ``tree/src`` (its
    working directory, first on its path, is ``ROOT``, which holds no
    package); a nonzero exit leaves ``exit``, its code and last stderr
    line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), str(ROOT / "tests")]))
    for name in ENTRIES:
        (out / name).mkdir(parents=True)
        run = subprocess.run(
            [sys.executable, "-c", "import sys, golden; "
             "sys.exit(golden.write(*sys.argv[1:]))", name, out / name],
            cwd=ROOT, env=env, capture_output=True, text=True)
        if run.returncode:
            tail = [f"exit {run.returncode}", *run.stderr.splitlines()[-1:]]
            (out / name / "exit").write_text("".join(f"{s}\n" for s in tail))
            print(f"{out.name} {name}:", *tail)
    lines = sum(p.read_bytes().count(b"\n")
                for p in (tree / "src" / "helmrad").glob("*.py"))
    print(f"{out.name} src/helmrad: {lines} lines")


def report(base: Path, head: Path) -> int:
    """Print every file that differs or exists on one side only; 1 if
    there is one, else 0."""
    files = sorted({p.relative_to(tree).as_posix() for tree in (base, head)
                    for p in tree.rglob("*") if p.is_file()})
    drift = [f for f in files if not all((t / f).is_file() for t in (
        base, head)) or (base / f).read_bytes() != (head / f).read_bytes()]
    print("drift:", *drift or ["none"], sep="\n  ")
    return 1 if drift else 0


def main(rev: str) -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tree:
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", tree, rev],
                       check=True)
        try:
            _run(Path(tree), OUT / "base")
        finally:
            subprocess.run([*git, "remove", "--force", tree], check=True)
    _run(ROOT, OUT / "head")
    return report(OUT / "base", OUT / "head")


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]) if len(sys.argv) == 2
             else "usage: python tests/golden.py REV")
