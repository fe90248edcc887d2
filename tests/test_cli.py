"""Command-line interface: exit codes, artifacts, and determinism."""

import json
import os

import numpy as np
import pytest

from helmrad import cli, green
from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example)


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
    ])
    def test_invalid_input_exits_with_validation_code(self, bad, tmp_path,
                                                      capsys):
        rc = cli.main(["solve", "--input", bad,
                       "--output-dir", str(tmp_path)])
        assert rc == cli.EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

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
        # recursion reruns in mpmath
        (_spec_json(mode=2, omega=1.176961883771309,
                    jump_points=[0.0, 0.28568229931158484,
                                 0.8554825316138414, 1.0],
                    speeds=[3.211782823521993, 1.414705653870246,
                            1.37354058243666]), "mp@51"),
    ])
    def test_diagnostics_record_the_recursion_tier(self, doc, tier,
                                                   tmp_path):
        out = tmp_path / "tier"
        cli.main(["solve", "--input", doc, "--output-dir", str(out),
                  "--grid", "8"])
        diag = json.loads((out / "diagnostics.json").read_text())
        beta = green.beta_sequence(ProblemSpec.from_json(doc))
        assert diag["recursion"] == {
            "tier": tier, "error_bound_digits": beta.error_bound_digits}
        limit = -13.0 - float(np.log10(np.finfo(np.longdouble).eps))
        assert (diag["recursion"]["error_bound_digits"] > limit) \
            == (tier != "extended")

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

    def test_no_leftover_temp_files(self, tmp_path):
        out = tmp_path / "clean"
        cli.main(["solve", "--input", _spec_json(),
                  "--output-dir", str(out), "--grid", "8"])
        assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


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

    def test_invalid_base_spec(self, tmp_path):
        rc = cli.main(["scan", "--input", "{}", "--output-dir",
                       str(tmp_path), "--seed", "1"])
        assert rc == cli.EXIT_VALIDATION


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
