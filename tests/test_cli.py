"""Command-line interface: exit codes, artifacts, and determinism."""

import hashlib
import json
import math
import os
import platform
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest

from helmrad import assembly, cli, evaluate, green, specfun
from helmrad.assembly import SingularSystem
from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example,
                             construct_stable_example, random_spec)
from interface_oracles import outer_coefficient_mp, raw_solve_mp
from populations import FAULT_C, S35, high_mode_population

# refused solves, coefficients past the largest double: on the banded route
# (fault (c), whose recursion is refused by its estimate, at g = 1e300)
# and on the recursion's accepted path (localised n = 8 at g = 1.7e308)
REFUSED = [
    json.dumps(dict(FAULT_C, boundary_coefficient=[1e300, 0.0])),
    replace(construct_localisation_example(8, 1.0, 3.0),
            boundary_coefficient=1.7e308).to_json(),
]

# a spec validate accepts whose gamma-plus is below the degeneracy floor
# at its one interface: refused by the pair evaluation of either route
DEGENERATE = json.dumps({
    "dimension": 3, "mode": 0, "omega": 1e151,
    "boundary_coefficient": [1.0, 0.0],
    "jump_points": [0.0, 0.5, 1.0], "speeds": [1.0, 2.0]})


def _strict_json(text):
    """The JSON document ``text``, refusing NaN and +-Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _spec_json(**overrides):
    doc = {
        "dimension": 3, "mode": 0, "omega": 3.0,
        "boundary_coefficient": [1.0, 0.0],
        "jump_points": [0.0, 0.4, 1.0],
        "speeds": [1.0, 2.0],
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestSolve:
    def test_writes_all_artifacts_and_exits_cleanly(self, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(["solve", "--input", _spec_json(),
                       "--output-dir", str(out), "--grid", "16"])
        assert rc == cli.EXIT_OK
        for name in ("radial.csv", "disc.csv", "green_column.json",
                     "diagnostics.json"):
            assert (out / name).exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["max_interface_residual"] <= 1e-9
        assert diag["max_green_magnitude"] > 0.0
        col = json.loads((out / "green_column.json").read_text())
        assert len(col["odd"]) == 1 and len(col["even"]) == 1

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["solve", "--input", _spec_json(),
                             "--output-dir", str(out),
                             "--grid", "16"]) == cli.EXIT_OK
        for name in ("radial.csv", "disc.csv", "green_column.json",
                     "diagnostics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_accepts_a_spec_file_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(_spec_json())
        rc = cli.main(["solve", "--input", str(path),
                       "--output-dir", str(tmp_path / "out"), "--grid", "8"])
        assert rc == cli.EXIT_OK

    def test_nonradial_mode_skips_the_disc_rendering(self, tmp_path):
        out = tmp_path / "m2"
        rc = cli.main(["solve", "--input", _spec_json(mode=2),
                       "--output-dir", str(out)])
        assert rc == cli.EXIT_OK
        assert (out / "radial.csv").exists()
        assert not (out / "disc.csv").exists()

    @pytest.mark.parametrize("bad", [
        "not json at all",
        _spec_json(jump_points=[0.0, 1.4, 1.0]),
        _spec_json(speeds=[1.0, -2.0]),
        _spec_json(omega=-3.0),
        _spec_json(mode=2.7),
        _spec_json(mode=True),
        _spec_json(dimension=3.5),
        _spec_json(boundary_coefficient=[float("nan"), 0.0]),
        _spec_json(boundary_coefficient=[float("inf"), 0.0]),
    ])
    def test_invalid_input_exits_with_validation_code(self, bad, tmp_path,
                                                      capsys):
        rc = cli.main(["solve", "--input", bad,
                       "--output-dir", str(tmp_path)])
        assert rc == cli.EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        _spec_json(omega=True),
        _spec_json(speeds=[True, 2.0]),
        _spec_json(jump_points=[0.0, "0.4", 1.0]),
    ])
    def test_non_real_numbers_exit_with_validation_code(self, bad, tmp_path,
                                                        capsys):
        rc = cli.main(["solve", "--input", bad,
                       "--output-dir", str(tmp_path)])
        assert rc == cli.EXIT_VALIDATION == 2
        assert "must be a real number" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_near_resonant_denominator_exits_with_code_3(self, tmp_path,
                                                         monkeypatch):
        def boom(spec, beta=None):
            raise green.NearResonantDenominator(-700.0)
        monkeypatch.setattr(cli.green, "green_last_column", boom)
        rc = cli.main(["solve", "--input", _spec_json(),
                       "--output-dir", str(tmp_path)])
        assert rc == cli.EXIT_NEAR_RESONANT

    @pytest.mark.parametrize("doc,tier", [
        (_spec_json(), "extended"),
        # oracle spec 123: the running error bound exceeds 1e-13, so the
        # banded route answers
        (_spec_json(mode=2, omega=1.176961883771309,
                    jump_points=[0.0, 0.28568229931158484,
                                 0.8554825316138414, 1.0],
                    speeds=[3.211782823521993, 1.414705653870246,
                            1.37354058243666]), "banded"),
        # oracle spec 48: the bound alone reads 2.82 digits, below the
        # limit; with the Im extraction's 3.45 the estimate is refused
        (_spec_json(mode=5, omega=34.175057815722944,
                    jump_points=[0.0, 0.052792302582718734, 1.0],
                    speeds=[0.6686862522171253, 3.4996970060292973]),
         "banded"),
    ])
    def test_diagnostics_record_the_recursion_tier(self, doc, tier,
                                                   tmp_path):
        out = tmp_path / "tier"
        cli.main(["solve", "--input", doc, "--output-dir", str(out),
                  "--grid", "8"])
        diag = json.loads((out / "diagnostics.json").read_text())
        beta, _ = green.extended_run(ProblemSpec.from_json(doc))
        assert diag["recursion"] == {
            "tier": tier, "error_bound_digits": beta.error_bound_digits}
        limit = -13.0 - float(np.log10(np.finfo(np.longdouble).eps))
        assert (diag["recursion"]["error_bound_digits"] > limit) \
            == (tier != "extended")

    @pytest.mark.parametrize("doc", [
        json.dumps(S35), high_mode_population()[1].to_json(),
        high_mode_population()[2].to_json(),
        high_mode_population()[24].to_json()],
        ids=["S35", "high_mode_1", "high_mode_2", "high_mode_24"])
    def test_answers_what_the_recursion_gets_wrong(self, doc, tmp_path):
        """The recursion's mpmath rerun accepted wrong answers on S35 and
        high-mode spec 1 and refused specs 2 and 24; through
        ``evaluate.solve`` each passes (24 by the banded route's mpmath
        tier), and its odd Green entries are B_ell / B_N of the raw system
        solved in mpmath, to 1e-9 in the log."""
        out = tmp_path / "out"
        assert cli.main(["solve", "--input", doc, "--output-dir", str(out),
                         "--grid", "8"]) == cli.EXIT_OK
        col = _strict_json((out / "green_column.json").read_text())
        diag = _strict_json((out / "diagnostics.json").read_text())
        assert diag["recursion"]["tier"] == "banded"
        spec = ProblemSpec.from_json(doc)
        with mp.workdps(60):
            log_b_last = mp.log(abs(outer_coefficient_mp(spec)))
            want = [float(mp.log(abs(mp.mpc(b))) - log_b_last)
                    for b in raw_solve_mp(spec)[0::2]]
        assert len(col["odd_log_magnitude"]) == spec.n
        for got, ref in zip(col["odd_log_magnitude"], want):
            assert abs(got - ref) <= 1e-9

    @pytest.mark.parametrize("doc", [
        construct_localisation_example(8, 1.0, 3.0).to_json(),
        json.dumps(FAULT_C)], ids=["recursion", "banded"])
    def test_one_extended_pair_evaluation(self, doc, tmp_path,
                                          monkeypatch):
        """The diagnostics read the solve's pair, at its 2n + 1 points."""
        calls = []

        def spy(pair, x, shift=True):
            calls.append(len(x))
            return specfun._pair_eval_ext(pair, x, shift)
        tier = specfun.EXTENDED._replace(pair_eval=spy)
        for module in (specfun, assembly, green, evaluate):
            monkeypatch.setattr(module, "EXTENDED", tier)
        assert cli.main(["solve", "--input", doc, "--output-dir",
                         str(tmp_path), "--grid", "8"]) == cli.EXIT_OK
        assert calls == [2 * ProblemSpec.from_json(doc).n + 1]

    def test_zero_boundary_data_on_the_banded_route(self, tmp_path):
        """Fault (c) at g = 0, whose coefficients are 0: the Green column,
        which does not depend on g, is the one of g = 1."""
        columns = []
        for g in (0.0, 1.0):
            out = tmp_path / f"g{g}"
            assert cli.main(["solve", "--input", json.dumps(dict(
                FAULT_C, boundary_coefficient=[g, 0.0])), "--output-dir",
                str(out), "--grid", "8"]) == cli.EXIT_OK
            columns.append(_strict_json(
                (out / "green_column.json").read_text()))
            diag = _strict_json((out / "diagnostics.json").read_text())
            assert diag["recursion"]["tier"] == "banded"
        zero, one = columns
        for key in ("odd_log_magnitude", "even_log_magnitude"):
            assert all(math.isfinite(v) for v in zero[key])
            assert np.allclose(zero[key], one[key], rtol=0, atol=1e-12)

    def test_non_finite_magnitudes_are_written_as_null(self, tmp_path,
                                                       monkeypatch):
        """A zero entry's log magnitude is -inf, in either list."""
        solve = evaluate.solve

        def zero_entries(spec):
            sol = solve(spec)
            col = sol.column
            return replace(sol, column=replace(
                col, odd_log_mag=np.array([-np.inf, *col.odd_log_mag[1:]]),
                even_log_mag=np.array([-np.inf, *col.even_log_mag[1:]])))
        monkeypatch.setattr(cli.evaluate, "solve", zero_entries)
        cli.main(["solve", "--input", _spec_json(), "--output-dir",
                  str(tmp_path), "--grid", "8"])
        col = _strict_json((tmp_path / "green_column.json").read_text())
        assert col["odd_log_magnitude"] == [None]
        assert col["even_log_magnitude"] == [None]

    def test_localised_n32_passes_the_residual_gate(self, tmp_path):
        """Its field grows by 3^16 across the layers: interface jumps
        scaled by max(1, |u|) failed this correct solve at 1.5e-7."""
        doc = json.dumps(construct_localisation_example(32, 1.0, 3.0)
                         .to_dict())
        rc = cli.main(["solve", "--input", doc,
                       "--output-dir", str(tmp_path / "loc32"),
                       "--grid", "8"])
        assert rc == cli.EXIT_OK

    def test_single_layer(self, tmp_path):
        out = tmp_path / "one"
        rc = cli.main(["solve", "--input",
                       _spec_json(jump_points=[0.0, 1.0], speeds=[1.3]),
                       "--output-dir", str(out), "--grid", "8"])
        assert rc == cli.EXIT_OK
        col = json.loads((out / "green_column.json").read_text())
        assert col["odd"] == [] and col["even"] == []

    @pytest.mark.parametrize("doc", REFUSED + [None, DEGENERATE],
                             ids=["banded", "coefficients", "diagnostic",
                                  "degenerate"])
    def test_refusal_is_one_error_line_and_no_artifact(self, doc, tmp_path,
                                                       capsys, monkeypatch):
        if doc is None:
            # as the closed-form energy bound squaring |B_j| ~ 1e306 raises
            def overflow(sol):
                raise OverflowError(34, "Numerical result out of range")
            monkeypatch.setattr(cli.evaluate, "energy_upper_bound", overflow)
            doc = _spec_json()
        rc = cli.main(["solve", "--input", doc,
                       "--output-dir", str(tmp_path / "out")])
        assert rc == cli.EXIT_SUITE_FAILED == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if doc == DEGENERATE:
            assert err.startswith("error: GammaDegenerate: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option,value", [
        ("--grid", "0"), ("--grid", "-1"), ("--quad-order", "4")])
    def test_parser_rejects_out_of_range_sizes(self, option, value,
                                               tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--input", _spec_json(),
                      "--output-dir", str(tmp_path / "out"), option, value])
        assert exc.value.code == cli.EXIT_VALIDATION == 2
        assert f"{option}: must be at least" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_no_leftover_temp_files(self, tmp_path):
        out = tmp_path / "clean"
        cli.main(["solve", "--input", _spec_json(),
                  "--output-dir", str(out), "--grid", "8"])
        assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]

    def test_artifacts_get_the_mode_open_gives(self, tmp_path):
        # the temp file behind each rename is made with mode 0600
        out = tmp_path / "out"
        assert cli.main(["solve", "--input", _spec_json(), "--output-dir",
                         str(out), "--grid", "8"]) == cli.EXIT_OK
        assert cli.main(["scan", "--input", _spec_json(), "--output-dir",
                         str(out), "--seed", "1", "--samples", "1"]
                        ) == cli.EXIT_OK
        with open(out / "sibling", "w"):
            pass
        mode = (out / "sibling").stat().st_mode
        names = {"radial.csv", "disc.csv", "green_column.json",
                 "diagnostics.json", "scan.csv"}
        assert {p.name: p.stat().st_mode for p in out.iterdir()
                if p.name in names} == dict.fromkeys(names, mode)


class TestConstruct:
    @pytest.mark.parametrize("kind", ["localised", "stable"])
    def test_emits_a_valid_spec(self, kind, capsys):
        rc = cli.main(["construct", "--kind", kind, "--n", "4",
                       "--c1", "1.0", "--c2", "3.0"])
        assert rc == cli.EXIT_OK
        spec = ProblemSpec.from_json(capsys.readouterr().out)
        assert spec.n == 4
        assert set(spec.profile.speeds) == {1.0, 3.0}

    def test_invalid_speeds_exit_with_validation_code(self, capsys):
        rc = cli.main(["construct", "--kind", "stable", "--n", "4",
                       "--c1", "3.0", "--c2", "1.0"])
        assert rc == cli.EXIT_VALIDATION
        assert "error" in capsys.readouterr().err


class TestScan:
    def test_scan_is_deterministic(self, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            rc = cli.main(["scan", "--input", _spec_json(),
                           "--output-dir", str(out), "--seed", "7",
                           "--samples", "6", "--jitter", "0.01"])
            assert rc == cli.EXIT_OK
            outs.append((out / "scan.csv").read_bytes())
        assert outs[0] == outs[1]
        header, *rows = outs[0].decode().strip().splitlines()
        assert header == "seed,jitter,omega,sup_norm,max_green_magnitude"
        assert len(rows) == 7  # the unjittered base plus 6 samples
        assert rows[0].split(",")[1] == "0"

    def test_banded_base_is_finite_and_deterministic(self, tmp_path):
        """Fault (c), whose recursion is refused by its estimate: every
        sample is answered by the banded route."""
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert cli.main(["scan", "--input", json.dumps(FAULT_C),
                             "--output-dir", str(out), "--seed", "3",
                             "--samples", "2"]) == cli.EXIT_OK
            outs.append((out / "scan.csv").read_bytes())
        assert outs[0] == outs[1]
        _, *rows = outs[0].decode().strip().splitlines()
        assert len(rows) == 3
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.split(","))

    @pytest.mark.parametrize("doc,name", [
        (REFUSED[0], "OverflowError"), (DEGENERATE, "GammaDegenerate")],
        ids=["banded", "degenerate"])
    def test_refusal_is_one_error_line_and_no_artifact(self, doc, name,
                                                       tmp_path, capsys):
        rc = cli.main(["scan", "--input", doc, "--output-dir",
                       str(tmp_path / "out"), "--seed", "1",
                       "--samples", "2"])
        assert rc == cli.EXIT_SUITE_FAILED
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_near_resonant_denominator_exits_with_code_3(self, tmp_path,
                                                         monkeypatch, capsys):
        def boom(spec, beta=None):
            raise green.NearResonantDenominator(-700.0)
        monkeypatch.setattr(cli.green, "green_last_column", boom)
        rc = cli.main(["scan", "--input", _spec_json(),
                       "--output-dir", str(tmp_path / "out"), "--seed", "1",
                       "--samples", "2"])
        assert rc == cli.EXIT_NEAR_RESONANT == 3
        assert capsys.readouterr().err.startswith(
            "error: denominator near resonance: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option,value,message", [
        ("--jitter", "2", "must be finite and in [0, 1)"),
        ("--jitter", "nan", "must be finite and in [0, 1)"),
        ("--jitter", "-0.1", "must be finite and in [0, 1)"),
        ("--jitter", "abc", "invalid float value: 'abc'"),
        ("--samples", "-1", "must be at least 0"),
        ("--samples", "abc", "invalid int value: 'abc'"),
        ("--seed", "-1", "must be at least 0")])
    def test_parser_rejects_out_of_range_options(self, option, value,
                                                 message, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--input", _spec_json(), "--output-dir",
                      str(tmp_path / "out"), "--seed", "1", option, value])
        assert exc.value.code == cli.EXIT_VALIDATION == 2
        assert f"{option}: {message}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_invalid_base_spec(self, tmp_path):
        rc = cli.main(["scan", "--input", "{}", "--output-dir",
                       str(tmp_path), "--seed", "1"])
        assert rc == cli.EXIT_VALIDATION


def _oracle_spec(index: int) -> ProblemSpec:
    rng = np.random.default_rng(20260823)
    return [random_spec(rng) for _ in range(index + 1)][index]


def _bits(*values) -> bytes:
    return b"".join(np.asarray(v).tobytes() for v in values)


class TestBatchedScan:
    """``helmrad scan`` solves its samples in one batch
    (``evaluate.solve_many``): every sample's answer, column and scan.csv
    row are ``evaluate.solve``'s alone, bit for bit.  No multi-layer base of
    the high-mode population splits between the routes (their extended
    runs are all refused, at every jitter up to 0.9), so the split scan is
    oracle spec 48 of seed 20260823, 5 samples on the recursion and 36 on
    the banded route."""

    SCANS = {
        "localised8": (lambda: construct_localisation_example(8, 1.0, 3.0),
                       1, 40, {"extended"}),
        "fault_c": (lambda: ProblemSpec.from_dict(FAULT_C), 3, 2,
                    {"banded"}),
        "oracle48": (lambda: _oracle_spec(48), 1, 40,
                     {"extended", "banded"}),
    }

    @pytest.mark.parametrize("name", SCANS)
    def test_each_sample_is_its_own_solve(self, name, tmp_path):
        build, seed, samples, tiers = self.SCANS[name]
        base = build()
        assert cli.main(["scan", "--input", base.to_json(), "--output-dir",
                         str(tmp_path), "--seed", str(seed), "--samples",
                         str(samples)]) == cli.EXIT_OK
        _, *rows = (tmp_path / "scan.csv").read_text().splitlines()
        seeds = [(seed, 0.0)] + [(seed + 1 + k, 0.01)
                                 for k in range(samples)]
        specs = [cli._scan_spec(base, *sj) for sj in seeds]
        sup = evaluate.sup_scaled if (base.dimension, base.mode) == (3, 0) \
            else evaluate.sup_radial
        names = [f.name for f in fields(green.GreenColumn)[:6]]
        seen = set()
        for (s, jit), spec, mine, row in zip(seeds, specs,
                                             evaluate.solve_many(specs),
                                             rows, strict=True):
            ref = evaluate.solve(spec)
            assert _bits(mine.coeffs.entries, mine.coeffs.b_last) \
                == _bits(ref.coeffs.entries, ref.coeffs.b_last)
            # display entries, log magnitudes and phases, odd and even
            assert _bits(*(getattr(mine.column, a) for a in names)) \
                == _bits(*(getattr(ref.column, a) for a in names))
            assert (mine.column.tier, mine.column.error_bound_digits) \
                == (ref.column.tier, ref.column.error_bound_digits)
            assert evaluate.interface_residuals(mine) \
                == evaluate.interface_residuals(ref)
            assert row == (f"{s},{jit:.17g},{spec.omega:.17g},"
                           f"{sup(ref):.17g},{ref.column.max_abs():.17g}")
            seen.add(ref.column.tier)
        assert seen == tiers

    def test_one_spec_is_solve(self):
        """A batch of one, with a sample axis of length 1, on the oracle
        seed-20260823 specs."""
        rng = np.random.default_rng(20260823)
        for _ in range(200):
            spec = random_spec(rng)
            mine, = evaluate.solve_many([spec])
            ref = evaluate.solve(spec)
            assert _bits(mine.coeffs.entries, mine.coeffs.b_last) \
                == _bits(ref.coeffs.entries, ref.coeffs.b_last)
            assert mine.column.tier == ref.column.tier

    def test_specs_must_share_all_but_omega_and_x(self):
        spec = construct_localisation_example(2, 1.0, 3.0)
        with pytest.raises(ValueError):
            evaluate.solve_many([spec, replace(spec, mode=1)])
        assert evaluate.solve_many([]) == []

    REFUSED = {"singular": (cli.EXIT_SUITE_FAILED, "error: SingularSystem: "),
               "overflow": (cli.EXIT_SUITE_FAILED, "error: OverflowError: "),
               "resonant": (cli.EXIT_NEAR_RESONANT,
                            "error: denominator near resonance: ")}

    @pytest.mark.parametrize("first,later", [
        ("singular", "resonant"), ("resonant", "singular"),
        ("singular", "overflow"), ("overflow", "singular")])
    def test_first_refused_sample_decides(self, first, later, tmp_path,
                                          monkeypatch, capsys):
        """Samples 3 and 7 of 11 are refused: by a zero pivot of the banded
        fallback (their coefficients doubled, so that the gate refuses
        them), near resonance, or for a coefficient past the double range.
        The one first in seed order decides the exit code and the one
        error line, and no scan.csv is written, as when each sample was
        solved alone."""
        base = construct_localisation_example(8, 1.0, 3.0)
        refusal = {cli._scan_spec(base, 1 + k, 0.01).omega: why
                   for k, why in ((3, first), (7, later))}
        layer = green.layer_coefficients

        def coefficients(spec, column=None):
            why = refusal.get(spec.omega)
            if why == "resonant":
                raise green.NearResonantDenominator(-700.0)
            if why == "overflow":
                raise OverflowError("a coefficient is past the double range")
            c = layer(spec, column)
            return replace(c, entries=2 * c.entries) if why else c

        def refused(system):
            raise SingularSystem("zero pivot in column 0")
        monkeypatch.setattr(green, "layer_coefficients", coefficients)
        monkeypatch.setattr(assembly, "dense_solve", refused)
        code, line = self.REFUSED[first]
        assert cli.main(["scan", "--input", base.to_json(), "--output-dir",
                         str(tmp_path / "out"), "--seed", "1", "--samples",
                         "10"]) == code
        err = capsys.readouterr().err
        assert err.startswith(line) and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


class TestVerify:
    @pytest.mark.parametrize("suite", ["specfun", "oracle", "bounds"])
    def test_suite_passes(self, suite, capsys):
        rc = cli.main(["verify", "--suite", suite])
        assert rc == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert all(r["ok"] for r in doc["results"])

    def test_figures_suite_passes(self, capsys):
        rc = cli.main(["verify", "--suite", "figures"])
        assert rc == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert {r["n"] for r in doc["results"]} == {2, 4, 8, 16}

    @pytest.mark.parametrize("value,message", [
        ("-1", "must be at least 0"), ("abc", "invalid int value: 'abc'")])
    def test_parser_rejects_a_negative_seed(self, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "oracle", "--seed", value])
        assert exc.value.code == cli.EXIT_VALIDATION == 2
        out, err = capsys.readouterr()
        assert f"--seed: {message}" in err and out == ""

    def test_refused_solve_is_one_error_line(self, capsys, monkeypatch):
        """A suite solve refused by the banded route reads as a refused
        solve, not a traceback."""
        def refused(spec):
            raise SingularSystem("residual check failed")
        monkeypatch.setattr(cli.evaluate, "solve", refused)
        rc = cli.main(["verify", "--suite", "figures"])
        assert rc == cli.EXIT_SUITE_FAILED == 1
        err = capsys.readouterr().err
        assert err == "error: SingularSystem: residual check failed\n"


class TestWhisper:
    def test_reports_the_resonant_frequency(self, capsys):
        rc = cli.main(["whisper", "--m", "5", "--c1", "1.0", "--c2", "2.0",
                       "--x1", "0.5", "--omega-window", "15.66", "15.68",
                       "--samples", "801"])
        assert rc == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert 15.66 < doc["omega_star"] < 15.68

    def test_coarse_window_is_rejected(self, capsys):
        rc = cli.main(["whisper", "--m", "5", "--c1", "1.0", "--c2", "2.0",
                       "--x1", "0.5", "--omega-window", "16.2", "16.3",
                       "--samples", "50"])
        assert rc == cli.EXIT_VALIDATION


class TestGoldenBytes:
    """Artifacts of localised and stable n = 8 (c_2 = 3) against SHA-256
    digests recorded before the field evaluator took every layer in one
    pass; those of diagnostics.json since j_m above the turning point took
    the forward recurrence, which moved its ode_residual.  ``RECORDS`` pins
    the recursion's sequences, recorded before ``BetaSequence`` became the
    run's one record.  The bits come from numpy's and the C library's
    kernels, so the digests hold on the build they were recorded with:
    numpy 2.4.6 on x86_64 (with AVX-512)."""

    RECORDED_WITH = ("2.4.6", "x86_64")
    SOLVE = {
        "localised": {
            "diagnostics.json": "29e2f6a91ec75f50075342cf733784b3"
                                "62804978f71d67c9d7963a151f559c13",
            "disc.csv": "59c30086d3ec636e06312d6b8d605ec2"
                        "1916b1d9f2046075e31511782d8fd37f",
            "green_column.json": "61e6cd4c2a646a3d9ea467a8b5e4e2ee"
                                 "bbf272debbf8accaba0ac14120e373a0",
            "radial.csv": "a59d156e5b9db6a64e89bf7876c7506f"
                          "ef6b9d2834d3d895ea863e777d99b398",
        },
        "stable": {
            "diagnostics.json": "7fccc65bf4182bf203a7f822b16e09a2"
                                "f176f8e79b2fc5b6deac36610f0eaa92",
            "disc.csv": "710b95d5562d3eed9c49c26ac05dd662"
                        "7d3d49ef30d21b5b6260083139f69c50",
            "green_column.json": "b4527f450b243dcd487101ffb8936f50"
                                 "12dd7a3b91ab6d937d35147fecb8775e",
            "radial.csv": "38c0ec0836d8c52b5d58dc8e8275d067"
                          "f22a30aeb87520b764b702855b2a4c3b",
        },
    }
    SCAN = ("9a2c4649aa0f5028e8e2b495828c208d"
            "062de3c421b5b2321888030a1595a5d2")
    RECORDS = ("98ca8158a180c2efe526c070da4ece0b"
               "738db7263614d18949cde4d4049569a6")

    @pytest.fixture(autouse=True)
    def _recorded_build(self):
        build = (np.__version__, platform.machine())
        if build != self.RECORDED_WITH:
            pytest.skip(f"digests recorded with numpy {self.RECORDED_WITH[0]}"
                        f" on {self.RECORDED_WITH[1]}, not {build}")

    @staticmethod
    def _digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("kind", ["localised", "stable"])
    def test_solve_artifacts(self, kind, tmp_path):
        build = construct_localisation_example if kind == "localised" \
            else construct_stable_example
        assert cli.main(["solve", "--input", build(8, 1.0, 3.0).to_json(),
                         "--output-dir", str(tmp_path)]) == cli.EXIT_OK
        assert {name: self._digest(tmp_path / name)
                for name in self.SOLVE[kind]} == self.SOLVE[kind]

    def test_scan(self, tmp_path):
        spec = construct_localisation_example(8, 1.0, 3.0)
        assert cli.main(["scan", "--input", spec.to_json(), "--output-dir",
                         str(tmp_path), "--seed", "1", "--samples", "40"]
                        ) == cli.EXIT_OK
        assert self._digest(tmp_path / "scan.csv") == self.SCAN

    def test_recursion_records(self):
        """``beta_sequence`` over the oracle seed-20260823 specs and the
        high-mode population: tier, digits and every array, mpmath reruns
        included, and each refusal's message, hashed through ``repr`` of
        each value (the bytes of an np.longdouble carry padding that equal
        values need not share)."""
        rng = np.random.default_rng(20260823)
        specs = [random_spec(rng) for _ in range(200)] \
            + high_mode_population()
        h = hashlib.sha256()
        for spec in specs:
            try:
                seq = green.beta_sequence(spec)
            except (ZeroDivisionError, green.GammaDegenerate) as exc:
                h.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            h.update(f"{seq.tier} {float(seq.error_bound_digits)!r}".encode())
            for rows in (seq.log_moduli, seq.phases, seq.rot_im_log,
                         seq.rot_im_sign):
                h.update(" ".join(repr(v) for v in rows).encode())
        assert h.hexdigest() == self.RECORDS
