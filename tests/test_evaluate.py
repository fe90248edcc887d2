"""Field reconstruction, residual diagnostics, and energy quantities.

Includes the brute-force quadrature cross-check of the energy norm and the
verification of the first-layer closed-form energy lower bound on the
localised examples.
"""

import csv
import io
import json
import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

from helmrad import evaluate
from helmrad.assembly import CoefficientVector, normalize
from helmrad.evaluate import (RadialSolution, UnsupportedMode, diagnostics,
                              dtn_residual, energy_lower_bound, energy_norm,
                              energy_upper_bound, eval_radial,
                              interface_residuals, ode_residual, solve,
                              solve_direct, sup_radial, sup_scaled)
from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example)
from helmrad.specfun import (FundamentalPair, fundamental_eval,
                             fundamental_pair_eval)
import field_oracle
from interface_oracles import exact_interface_residuals, raw_solve_mp


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
        """Built by hand, or ``solve``'s answer with its coefficients
        replaced: both are judged on the coefficients they hold."""
        sol = solve(SPECS[0])
        wrong = type(sol.coeffs)(entries=sol.coeffs.entries * 1.01,
                                 b_last=sol.coeffs.b_last)
        for bad in (RadialSolution(spec=sol.spec, coeffs=wrong),
                    replace(sol, coeffs=wrong)):
            assert np.max(np.asarray(interface_residuals(bad))) > 1e-4

    def test_recursion_answer_reads_the_gate(self):
        """On the recursion route the interface residuals read the solve's
        pair: those of a solution built by hand from its coefficients and
        column, bit for bit."""
        spec = construct_localisation_example(8, 1.0, 3.0)
        sol = solve(spec)
        assert sol.column.tier == "extended"
        assert interface_residuals(sol) == interface_residuals(
            RadialSolution(spec, sol.coeffs, sol.column))

    def test_interface_residuals_are_backward_errors(self):
        """Localised n = 32: the field grows by 3^16 across the layers, and
        jumps scaled by max(1, |u|) read 1.5e-7 on these mpmath-exact
        coefficients.  Against the term sizes they read rounding, and a
        relative 1e-8 in one coefficient still shows."""
        spec = construct_localisation_example(32, 1.0, 3.0)
        exact = CoefficientVector(entries=raw_solve_mp(spec),
                                  b_last=complex(normalize(spec).b_last))
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
        b1 = complex(normalize(self.SPEC).b_last)
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
                val0, _ = field_oracle.eval_radial(sol, 0.0)
                dens[i] = (kj * abs(val0)) ** 2 if d == 1 else 0.0
                continue
            val, der = field_oracle.eval_in_layer(sol, j, float(r))
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

    def test_upper_bound_is_finite_at_huge_frequency(self):
        """z_j^4 alone overflows from omega = 1e77 on this spec: the bound
        read inf there and nan from 1e78, with RuntimeWarnings."""
        sol = solve(_spec((1.0, 2.0), (0.5,), 1e100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = energy_upper_bound(sol)
        assert math.isfinite(bound) and bound >= energy_norm(sol)

    def test_unconverged_energy_norm_warns(self, monkeypatch, caplog):
        """Capped at order 16, the 8- and 16-point sums of SPECS[1] differ
        by 2.6e-6 relative: the 16-point norm is returned as before, with
        one warning naming the order and both orders' norms."""
        sol = solve(SPECS[1])
        monkeypatch.setattr(evaluate, "_QUAD_MAX_ORDER", 16)
        with caplog.at_level(logging.WARNING, logger="helmrad.evaluate"):
            got = energy_norm(sol, 8)
        norms = [math.ldexp(math.sqrt(t), e)
                 for e, t in (evaluate._energy_sum(sol, k) for k in (8, 16))]
        assert got == norms[-1]
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            f"energy_norm: no 1e-10 agreement by quadrature order 16, last "
            f"norms {norms!r}")

    def test_unconverged_scaled_energy_norm_warns(self, monkeypatch, caplog):
        """Sums in units of 2**(2e), e = 600 as for coefficients past
        2**_SCALE_FROM: the totals in absolute units would overflow, the
        norms warned of and returned do not."""
        sums = iter([1.0, 4.0])
        monkeypatch.setattr(evaluate, "_energy_sum",
                            lambda sol, order: (600, next(sums)))
        monkeypatch.setattr(evaluate, "_QUAD_MAX_ORDER", 16)
        with caplog.at_level(logging.WARNING, logger="helmrad.evaluate"):
            got = energy_norm(None, 8)
        assert got == math.ldexp(2.0, 600)
        [record] = caplog.records
        assert record.getMessage() == (
            f"energy_norm: no 1e-10 agreement by quadrature order 16, last "
            f"norms {[math.ldexp(1.0, 600), math.ldexp(2.0, 600)]!r}")

    def test_bounds_require_the_radial_mode(self):
        sol = solve(SPECS[1])
        with pytest.raises(UnsupportedMode):
            energy_upper_bound(sol)
        with pytest.raises(UnsupportedMode):
            energy_lower_bound(sol)
        with pytest.raises(UnsupportedMode):
            sup_scaled(sol)


def _energy_pointwise(sol, order=32):
    """energy_norm's adaptive Gauss-Legendre rule, one oracle evaluation
    a node."""
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
                val, der = field_oracle.eval_radial(sol, float(r))
                dens = (abs(der) ** 2 + (kj * abs(val)) ** 2) * r ** (d - 1)
                if lam != 0.0:
                    dens += lam * abs(val) ** 2 * r ** (d - 3)
                total += half * w * dens
        if prev is not None and abs(total - prev) <= 1e-10 * max(prev, 1.0):
            return math.sqrt(total)
        prev = total
        order *= 2


class TestBatchedFieldQuantities:
    """The field evaluator against pointwise references from the
    layer-by-layer oracle."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_sup_radial(self, spec):
        sol = solve(spec)
        x = spec.profile.jump_points
        ref = max(abs(field_oracle.eval_radial(sol, float(r))[0])
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
                    ref[iy, ix] = abs(field_oracle.eval_radial(sol, r)[0]) \
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
        ref = np.array([field_oracle.eval_radial(sol, float(r))[0]
                        for r in rs])
        scale = np.max(np.abs(ref))
        for col, want in zip(got[:, 1:].T, (ref.real, ref.imag,
                                            np.abs(ref))):
            assert np.max(np.abs(col - want)) <= 1e-14 * scale


# d=1, and d=3 with m = 0, 1, 2 and 5: the field evaluator takes every layer
# in one pass, and each value keeps the bits of the layer-by-layer oracle
# (the m = 5 spec's values move if the layers share one downward-recurrence
# start)
ORACLE_SPECS = [
    SPECS[2], SPECS[0], SPECS[3], SPECS[1],
    _spec((0.8, 1.7, 1.1), (0.35, 0.7), 9.0, m=1, g=0.5 + 2.0j),
    _spec((0.5, 3.0, 0.25), (0.4, 0.7), 25.0, m=5),
    construct_localisation_example(8, 1.0, 3.0),
]


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


class TestFieldBitsAgainstOracle:
    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_grids(self, spec):
        sol = solve(spec)
        for samples in (1, 2, 64, 512):
            assert sup_radial(sol, samples) \
                == field_oracle.sup_radial(sol, samples)
        rs = np.unique(np.concatenate((np.linspace(0.0, 1.0, 1001),
                                       spec.profile.jump_points)))
        assert _bits(evaluate._radial_values(sol, rs)) \
            == _bits(field_oracle.radial_values(sol, rs))
        assert energy_norm(sol) == field_oracle.energy_norm(sol)

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_interfaces(self, spec):
        """The interface residuals take the pair in extended precision, not
        from the field evaluator: within 1e-15 + 1e-3 relative of the
        same residuals evaluated in mpmath."""
        sol = solve(spec)
        mine = interface_residuals(sol)
        exact = exact_interface_residuals(spec, sol.coeffs)
        assert len(mine) == len(exact) == spec.n
        for got, want in zip(np.ravel(mine), np.ravel(exact)):
            assert abs(got - want) <= 1e-15 + 1e-3 * want

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_single_points(self, spec):
        sol = solve(spec)
        for r in (0.0, 1e-9, 0.013, 0.5, 0.77, 1.0,
                  *spec.profile.jump_points[1:-1]):
            assert _bits(eval_radial(sol, r)) \
                == _bits(field_oracle.eval_radial(sol, r))

    @pytest.mark.parametrize("spec", [ORACLE_SPECS[0], ORACLE_SPECS[5],
                                      ORACLE_SPECS[6]],
                             ids=["d=1", "m=5", "localised-8"])
    def test_one_radius_has_one_value(self, spec):
        """A single radius and the radial.csv grid take the same path."""
        sol = solve(spec)
        rs = np.linspace(0.0, 1.0, 1024)
        grid = evaluate._radial_values(sol, rs)
        assert _bits([eval_radial(sol, r)[0] for r in rs.tolist()]) \
            == _bits(grid)

    def test_overflowing_y_leaves_the_b_term_finite(self):
        """d=3, m=30 at x = 1e-9: y_30 overflows, and with it Im f_1; f_2
        and f_2' come from j alone, and so does Re f_1'."""
        pair = FundamentalPair(3, 30)
        x = np.array([1e-9, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            f2, f1, df2, _ = fundamental_pair_eval(pair, x, slope=True)
            _, h1 = fundamental_eval(pair, 1, 1e-9)
        assert np.isinf(f1[0].imag) and h1.real == df2[0]
        assert np.all(np.isfinite(f2)) and np.all(np.isfinite(df2))
        for i, v in enumerate(x.tolist()):
            j, dj = fundamental_eval(pair, 2, v)
            assert (f2[i], df2[i]) == (j.real, dj.real)
        sol = RadialSolution(
            spec=_spec((1.0, 2.0), (0.5,), 1.0, m=30),
            coeffs=CoefficientVector(entries=np.array([1e250 + 0j, 0j]),
                                     b_last=0j))
        val, der = eval_radial(sol, 1e-9)
        assert math.isfinite(abs(val)) and math.isfinite(abs(der))


class TestCoefficientsNearTheDoubleRange:
    """Coefficients past 2**512 are evaluated in units of a power of two."""

    def test_a_power_of_two_scales_every_quantity_exactly(self):
        sol = solve(SPECS[3])
        big = RadialSolution(spec=sol.spec, coeffs=CoefficientVector(
            entries=np.ldexp(sol.coeffs.entries.real, 600)
            + 1j * np.ldexp(sol.coeffs.entries.imag, 600),
            b_last=complex(math.ldexp(sol.coeffs.b_last.real, 600),
                           math.ldexp(sol.coeffs.b_last.imag, 600))))
        assert interface_residuals(big) == interface_residuals(sol)
        for f in (sup_radial, energy_norm, energy_upper_bound):
            assert f(big) == math.ldexp(f(sol), 600)
        for r in (0.05, 0.3, 1.0):
            val, der = eval_radial(sol, r)
            assert eval_radial(big, r) == (
                complex(math.ldexp(val.real, 600),
                        math.ldexp(val.imag, 600)),
                complex(math.ldexp(der.real, 600),
                        math.ldexp(der.imag, 600)))

    def test_diagnostics_stay_finite(self):
        """g = 1e305 on localised n = 8 gives coefficients up to 8.1e306:
        the residuals, the energy norm and its bounds stay finite and
        scale with g."""
        base = construct_localisation_example(8, 1.0, 3.0)
        sol = solve(replace(base, boundary_coefficient=1e305))
        ref = solve(base)
        assert np.max(np.abs(sol.coeffs.entries)) > 8e306
        rep = diagnostics(sol)
        assert rep.passes()
        assert rep.max_interface_residual <= 1e-15
        for got, want in ((rep.energy_norm, energy_norm(ref)),
                          (rep.energy_upper_bound, energy_upper_bound(ref)),
                          (rep.energy_lower_bound, energy_lower_bound(ref)),
                          (rep.sup_norm, sup_scaled(ref))):
            assert got == pytest.approx(1e305 * want, rel=1e-12)
        # twenty times larger, the upper bound itself passes 1.8e308
        big = RadialSolution(spec=sol.spec, coeffs=CoefficientVector(
            entries=sol.coeffs.entries * 20.0,
            b_last=sol.coeffs.b_last * 20.0))
        assert energy_norm(big) == pytest.approx(20.0 * rep.energy_norm,
                                                 rel=1e-12)
        with pytest.raises(OverflowError):
            energy_upper_bound(big)


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
        """One value per distinct lattice radius (0, 0.5, 0.707, 1, 1.118
        and 1.414 at grid 5), every cell written as its radius's."""
        axis, radii, where = evaluate._lattice(5)
        values = np.array([7.0, 123456.789, -0.0, 1e-300, 2.0 / 3.0, np.nan])
        assert len(values) == len(radii)
        field = values[where].reshape(5, 5)
        monkeypatch.setattr(evaluate, "_disc_values", lambda sol, grid: values)
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


class TestArtifactCaches:
    """The text and lattice the CSV writers keep per size argument: the
    bytes stay csv.writer's whichever size came before, and no caller can
    write to what is kept."""

    @pytest.fixture(scope="class")
    def sol(self):
        return solve(construct_localisation_example(3, 1.0, 3.0))

    def test_radial_csv_across_sample_counts(self, sol, tmp_path):
        path = tmp_path / "radial.csv"
        for samples in (101, 1024, 101):
            evaluate.write_radial_csv(sol, path, samples=samples)
            rs = np.linspace(0.0, 1.0, samples)
            u = evaluate._radial_values(sol, rs)
            assert path.read_bytes() == TestCsvBytes._csv_writer_text(
                [["r", "re_u", "im_u", "abs_u"]]
                + [[float(r), v.real, v.imag, abs(v)]
                   for r, v in zip(rs, u.tolist())])

    def test_disc_csv_across_grids(self, sol, tmp_path):
        path = tmp_path / "disc.csv"
        for grid in (5, 64, 5):
            evaluate.write_disc_csv(sol, path, grid=grid)
            xs, ys, field, _ = evaluate.disc_slice(sol, grid)
            assert path.read_bytes() == TestCsvBytes._csv_writer_text(
                [["x", "y", "abs_u"]]
                + [[float(x), float(y), float(field[iy, ix])]
                   for iy, y in enumerate(ys) for ix, x in enumerate(xs)])

    def test_disc_slice_across_grids(self, sol):
        # the field as disc_slice computed it before the lattice was kept
        for grid in (5, 64, 5):
            axis = np.linspace(-1.0, 1.0, grid)
            radii, where = np.unique(
                np.hypot(*np.meshgrid(axis, axis)).ravel(),
                return_inverse=True)
            inside = radii <= 1.0
            values = np.full(radii.shape, np.nan)
            values[inside] = np.abs(evaluate._radial_values(
                sol, radii[inside])) * evaluate.Y00_3D
            xs, ys, field, _ = evaluate.disc_slice(sol, grid)
            np.testing.assert_array_equal(xs, axis)
            np.testing.assert_array_equal(ys, axis)
            np.testing.assert_array_equal(field,
                                          values[where].reshape(grid, grid))

    def test_kept_arrays_are_read_only(self):
        rs, _ = evaluate._radial_template(101)
        for a in (rs, *evaluate._lattice(5)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_disc_slice_returns_writable_arrays_of_its_own(self, sol):
        xs, ys, field, _ = evaluate.disc_slice(sol, 5)
        kept = evaluate._lattice(5)
        for a in (xs, ys, field):
            assert a.flags.writeable
            assert not any(np.shares_memory(a, k) for k in kept)
        xs[:] = 7.0
        field[:] = 7.0
        again, _, field_again, _ = evaluate.disc_slice(sol, 5)
        np.testing.assert_array_equal(again, np.linspace(-1.0, 1.0, 5))
        assert not np.any(field_again == 7.0)


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

    @pytest.mark.parametrize("residuals", [
        [(1e-16, 2e-16), (math.nan, math.nan)],
        [(math.nan, 1e-16), (1e-16, 2e-16)]])
    def test_a_nan_interface_residual_fails_wherever_it_sits(self,
                                                             residuals):
        rep = evaluate.DiagnosticsReport(
            interface_residuals=residuals, ode_residual=0.0,
            dtn_residual=0.0, energy_norm=1.0, energy_upper_bound=None,
            energy_lower_bound=None, sup_norm=None)
        assert math.isnan(rep.max_interface_residual)
        assert not rep.passes()

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
