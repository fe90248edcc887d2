"""Field reconstruction, residual diagnostics, and energy quantities.

Includes the brute-force quadrature cross-check of the energy norm and the
verification of the first-layer closed-form energy lower bound on the
localised examples.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
import scipy.integrate

from helmrad import evaluate
from helmrad.assembly import CoefficientVector, rhs_scale
from helmrad.evaluate import (RadialSolution, UnsupportedMode, diagnostics,
                              dtn_residual, energy_lower_bound, energy_norm,
                              energy_upper_bound, eval_radial,
                              interface_residuals, ode_residual, solve,
                              solve_direct, sup_radial, sup_scaled)
from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example)
from interface_oracles import raw_solve_mp


def _spec(speeds, cuts, omega, d=3, m=0, g=1.0 + 0.0j):
    return ProblemSpec(WaveSpeedProfile((0.0, *cuts, 1.0), tuple(speeds)),
                       dimension=d, mode=m, omega=omega,
                       boundary_coefficient=g)


SPECS = [
    _spec((1.0, 2.0), (0.4,), 3.0),
    _spec((2.0, 0.7, 1.3), (0.3, 0.8), 11.0, m=2),
    _spec((0.6, 1.9), (0.55,), 20.0, d=1),
    _spec((1.1, 0.9, 2.2, 0.5, 1.7), (0.1, 0.3, 0.6, 0.85), 5.0,
          g=2.0 - 1.0j),
]


class TestFieldEvaluation:
    @pytest.mark.parametrize("spec", SPECS)
    def test_routes_agree_pointwise(self, spec):
        a = solve(spec)
        b, _ = solve_direct(spec)
        for r in np.linspace(0.0, 1.0, 41):
            va, _ = eval_radial(a, float(r))
            vb, _ = eval_radial(b, float(r))
            assert va == pytest.approx(vb, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("spec", SPECS)
    def test_continuity_across_interfaces(self, spec):
        sol = solve(spec)
        for xj in spec.profile.jump_points[1:-1]:
            eps = 1e-9
            vl, _ = eval_radial(sol, xj - eps)
            vr, _ = eval_radial(sol, xj + eps)
            assert abs(vl - vr) <= 1e-6 * max(1.0, abs(vl))

    def test_origin_value_uses_the_regular_branch(self):
        sol = solve(SPECS[0])
        v0, d0 = eval_radial(sol, 0.0)
        assert v0 == pytest.approx(sol.coeffs.b(1), rel=1e-12)
        assert d0 == 0.0
        # the limit matches the field just inside
        v_eps, _ = eval_radial(sol, 1e-8)
        assert v_eps == pytest.approx(v0, rel=1e-16 + 1e-6)

    def test_radius_is_validated(self):
        sol = solve(SPECS[0])
        with pytest.raises(ValueError):
            eval_radial(sol, -0.1)
        with pytest.raises(ValueError):
            eval_radial(sol, 1.1)


class TestResiduals:
    @pytest.mark.parametrize("spec", SPECS)
    def test_all_residuals_below_tolerance_on_both_routes(self, spec):
        for sol in (solve(spec), solve_direct(spec)[0]):
            assert np.max(np.asarray(interface_residuals(sol))) < 1e-10
            assert ode_residual(sol) < 1e-10
            assert dtn_residual(sol) < 1e-10

    def test_ode_residual_flags_wrong_coefficients(self):
        sol = solve(SPECS[0])
        bad = RadialSolution(
            spec=sol.spec,
            coeffs=type(sol.coeffs)(entries=sol.coeffs.entries * 1.01,
                                    b_last=sol.coeffs.b_last))
        assert np.max(np.asarray(interface_residuals(bad))) > 1e-4

    def test_interface_residuals_are_backward_errors(self):
        """Localised n = 32: the field grows by 3^16 across the layers, and
        jumps scaled by max(1, |u|) read 1.5e-7 on these mpmath-exact
        coefficients.  Against the term sizes they read rounding, and a
        relative 1e-8 in one coefficient still shows."""
        spec = construct_localisation_example(32, 1.0, 3.0)
        exact = CoefficientVector(entries=raw_solve_mp(spec),
                                  b_last=rhs_scale(spec))
        sol = RadialSolution(spec=spec, coeffs=exact)
        assert np.max(np.asarray(interface_residuals(sol))) <= 1e-14
        entries = exact.entries.copy()
        entries[20] *= 1.0 + 1e-8
        bad = RadialSolution(spec=spec, coeffs=CoefficientVector(
            entries=entries, b_last=exact.b_last))
        assert np.max(np.asarray(interface_residuals(bad))) > 1e-9

    def test_zero_field_has_zero_interface_residuals(self):
        sol = solve(_spec((1.0, 2.0), (0.4,), 3.0, g=0.0))
        assert interface_residuals(sol) == [(0.0, 0.0)]

    def test_sample_count_is_validated(self):
        with pytest.raises(ValueError):
            ode_residual(solve(SPECS[0]), samples_per_layer=2)


class TestSingleLayer:
    """n = 0: no interior unknowns, and B_1 is the boundary coefficient."""

    SPEC = _spec((1.3,), (), 3.0, m=10, g=2.0 - 1.0j)

    def test_both_routes_give_the_closed_form(self):
        sol = solve(self.SPEC)
        direct, resid = solve_direct(self.SPEC)
        b1 = rhs_scale(self.SPEC)
        for s in (sol, direct):
            assert len(s.coeffs.entries) == 0
            assert s.coeffs.b(1) == b1
        assert resid == 0.0
        assert diagnostics(sol).passes()


def _energy_by_uniform_grid(sol, samples=100001):
    """Brute-force energy integral on a uniform grid, split per layer."""
    spec = sol.spec
    d, lam = spec.dimension, spec.angular_eigenvalue
    total = 0.0
    for j in range(1, spec.profile.num_layers + 1):
        x0, x1 = spec.profile.jump_points[j - 1], spec.profile.jump_points[j]
        n = max(int(samples * (x1 - x0)), 1001)
        rs = np.linspace(x0, x1, n)
        kj = spec.omega / spec.speed(j)
        dens = np.empty(n)
        for i, r in enumerate(rs):
            if r == 0.0:
                # the r^(d-1) weight kills the origin except in d=1, where
                # the regular branch contributes (k |u(0)|)^2
                val0, _ = eval_radial(sol, 0.0)
                dens[i] = (kj * abs(val0)) ** 2 if d == 1 else 0.0
                continue
            val, der = evaluate._eval_in_layer(sol, j, float(r))
            dens[i] = (abs(der) ** 2 + (kj * abs(val)) ** 2) * r ** (d - 1)
            if lam != 0.0:
                dens[i] += lam * abs(val) ** 2 * r ** (d - 3)
        total += scipy.integrate.simpson(dens, x=rs)
    return math.sqrt(total)


class TestEnergy:
    @pytest.mark.parametrize("spec", SPECS)
    def test_gauss_quadrature_matches_brute_force(self, spec):
        sol = solve(spec)
        assert energy_norm(sol) == pytest.approx(
            _energy_by_uniform_grid(sol), rel=1e-7)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_localised_energy_cross_checked_by_brute_force(self, n):
        sol = solve(construct_localisation_example(n, 1.0, 3.0))
        assert energy_norm(sol) == pytest.approx(
            _energy_by_uniform_grid(sol), rel=1e-7)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_first_layer_lower_bound_holds_and_grows(self, n):
        """The corrected closed-form bound: the zeroth-order part of the
        first-layer energy is |B_1|^2 (x_1/2 - sin(2 k x_1)/(4 k))."""
        spec = construct_localisation_example(n, 1.0, 3.0)
        sol = solve(spec)
        bound = energy_lower_bound(sol)
        assert bound <= energy_norm(sol)
        # at the critical frequency k x_1 = pi/2 the integral is exact
        k = spec.omega / spec.speed(1)
        expected = abs(sol.coeffs.b(1)) * math.sqrt(
            math.pi * spec.speed(1) / (4.0 * spec.omega))
        assert bound == pytest.approx(expected, rel=1e-10)
        # |B_1| carries the interference growth 3^(n/2)
        assert abs(sol.coeffs.b(1)) == pytest.approx(3.0 ** (n // 2),
                                                     rel=1e-9)
        assert k * spec.profile.jump_points[1] == pytest.approx(
            math.pi / 2.0, rel=1e-12)

    @pytest.mark.parametrize("spec", [SPECS[0], SPECS[3]])
    def test_upper_bound_dominates_the_energy(self, spec):
        sol = solve(spec)
        assert energy_norm(sol) <= energy_upper_bound(sol)

    def test_bounds_require_the_radial_mode(self):
        sol = solve(SPECS[1])
        with pytest.raises(UnsupportedMode):
            energy_upper_bound(sol)
        with pytest.raises(UnsupportedMode):
            energy_lower_bound(sol)
        with pytest.raises(UnsupportedMode):
            sup_scaled(sol)


def _energy_pointwise(sol, order=32):
    """energy_norm's adaptive Gauss-Legendre rule, one eval_radial a node."""
    spec = sol.spec
    d, lam = spec.dimension, spec.angular_eigenvalue
    x = spec.profile.jump_points
    prev = None
    while True:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        total = 0.0
        for j in range(1, len(x)):
            half = 0.5 * (x[j] - x[j - 1])
            kj = spec.omega / spec.speed(j)
            for t, w in zip(nodes, weights):
                r = half * t + 0.5 * (x[j - 1] + x[j])
                val, der = eval_radial(sol, float(r))
                dens = (abs(der) ** 2 + (kj * abs(val)) ** 2) * r ** (d - 1)
                if lam != 0.0:
                    dens += lam * abs(val) ** 2 * r ** (d - 3)
                total += half * w * dens
        if prev is not None and abs(total - prev) <= 1e-10 * max(prev, 1.0):
            return math.sqrt(total)
        prev = total
        order *= 2


class TestBatchedFieldQuantities:
    """The array evaluator against pointwise references from eval_radial."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_sup_radial(self, spec):
        sol = solve(spec)
        x = spec.profile.jump_points
        ref = max(abs(eval_radial(sol, float(r))[0])
                  for j in range(1, len(x))
                  for r in np.linspace(x[j - 1], x[j], 64))
        assert sup_radial(sol, 64) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("spec", SPECS)
    def test_energy_norm(self, spec):
        sol = solve(spec)
        assert energy_norm(sol) == pytest.approx(_energy_pointwise(sol),
                                                 rel=1e-13)

    @pytest.mark.parametrize("spec", SPECS)
    def test_disc_slice(self, spec):
        sol = solve(spec)
        if spec.dimension != 3 or spec.mode != 0:
            with pytest.raises(UnsupportedMode):
                evaluate.disc_slice(sol, 9)
            return
        xs, ys, field, sup = evaluate.disc_slice(sol, 9)
        ref = np.full((9, 9), np.nan)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                r = math.hypot(x, y)
                if r <= 1.0:
                    ref[iy, ix] = abs(eval_radial(sol, r)[0]) \
                        / math.sqrt(4.0 * math.pi)
        assert np.array_equal(np.isnan(field), np.isnan(ref))
        inside = ~np.isnan(ref)
        assert np.max(np.abs(field[inside] - ref[inside])) \
            <= 1e-14 * np.max(ref[inside])
        assert sup == np.max(field[inside])

    @pytest.mark.parametrize("spec", SPECS)
    def test_radial_csv(self, spec, tmp_path):
        sol = solve(spec)
        path = tmp_path / "radial.csv"
        evaluate.write_radial_csv(sol, path, samples=101)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["r", "re_u", "im_u", "abs_u"]
        got = np.array(rows[1:], dtype=float)
        rs = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(got[:, 0], rs)
        ref = np.array([eval_radial(sol, float(r))[0] for r in rs])
        scale = np.max(np.abs(ref))
        for col, want in zip(got[:, 1:].T, (ref.real, ref.imag,
                                            np.abs(ref))):
            assert np.max(np.abs(col - want)) <= 1e-14 * scale


class TestCsvBytes:
    """The CSV writers emit exactly what csv.writer writes for the field."""

    @staticmethod
    def _csv_writer_text(rows):
        buf = io.StringIO()
        wr = csv.writer(buf)
        # the cells the writers used to hand csv.writer: "%.17g", or "nan"
        for row in rows:
            wr.writerow([v if isinstance(v, str) else
                         "nan" if math.isnan(v) else f"{v:.17g}"
                         for v in row])
        return buf.getvalue().encode()

    def test_disc_csv(self, tmp_path, monkeypatch):
        axis = np.linspace(-1.0, 1.0, 5)
        field = np.array([
            [np.nan, 0.25, 1e-300, 0.25, np.nan],
            [0.1, -0.0, 123456.789, 0.1, 2.0 / 3.0],
            [1e-300, 123456.789, 7.0, 123456.789, 1e-300],
            [0.1, 0.0, 123456.789, 0.1, 2.0 / 3.0],
            [np.nan, 0.25, 1e-300, 0.25, np.nan]])
        monkeypatch.setattr(evaluate, "disc_slice",
                            lambda sol, grid: (axis, axis, field, 7.0))
        evaluate.write_disc_csv(None, tmp_path / "disc.csv", grid=5)
        expected = self._csv_writer_text(
            [["x", "y", "abs_u"]]
            + [[float(x), float(y), float(field[iy, ix])]
               for iy, y in enumerate(axis) for ix, x in enumerate(axis)])
        assert (tmp_path / "disc.csv").read_bytes() == expected

    def test_radial_csv(self, tmp_path, monkeypatch):
        u = np.array([1.0 + 0.0j, -0.0 - 1e-300j, 2.0 / 3.0 + 1e17j,
                      complex(np.nan, 0.5), -123.456 + 7.0j])
        monkeypatch.setattr(evaluate, "_radial_values", lambda sol, rs: u)
        evaluate.write_radial_csv(None, tmp_path / "radial.csv",
                                  samples=len(u))
        rs = np.linspace(0.0, 1.0, len(u))
        expected = self._csv_writer_text(
            [["r", "re_u", "im_u", "abs_u"]]
            + [[float(r), v.real, v.imag, abs(v)]
               for r, v in zip(rs, u.tolist())])
        assert (tmp_path / "radial.csv").read_bytes() == expected


class TestNormsAndReports:
    def test_sup_scaled_is_the_surface_factor_times_radial_sup(self):
        sol = solve(SPECS[0])
        assert sup_scaled(sol) == pytest.approx(
            sup_radial(sol) / math.sqrt(4.0 * math.pi), rel=1e-12)

    def test_diagnostics_report_round_trips_to_json(self):
        rep = diagnostics(solve(SPECS[0]))
        doc = json.loads(rep.to_json())
        assert doc["ode_residual"] == rep.ode_residual
        assert doc["max_interface_residual"] == rep.max_interface_residual
        assert doc["energy_lower_bound"] <= doc["energy_norm"] \
            <= doc["energy_upper_bound"]
        assert rep.passes(1e-9)
        assert not rep.passes(0.0)

    def test_nonradial_mode_reports_omit_the_bounds(self):
        rep = diagnostics(solve(SPECS[1]))
        assert rep.energy_upper_bound is None
        assert rep.energy_lower_bound is None
        assert rep.sup_norm is None

    def test_disc_slice_masks_outside_the_disc(self):
        xs, ys, field, sup = evaluate.disc_slice(solve(SPECS[0]), 21)
        assert math.isnan(field[0, 0])        # corner lies outside
        centre = field[10, 10]
        assert math.isfinite(centre) and sup >= centre
