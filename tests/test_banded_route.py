"""The banded route's a-posteriori acceptance and its mpmath escalation.

The refined extended-precision solve is accepted on its own convergence
and componentwise backward error; the banded elimination in mpmath runs
only when that test fails, and returns only answers its residual confirms.
Every answer is compared with the raw system solved densely in mpmath
(``interface_oracles.raw_solve_mp``), which shares no code with either
tier.  Also covers the array Wronskian behind the whispering-gallery scan
and the reused command-line parser.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from helmrad import assembly, cli
from helmrad.assembly import SingularSystem, normalize, solve_spec
from helmrad.evaluate import (energy_norm, interface_residuals, solve,
                              solve_direct, sup_radial)
from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example,
                             construct_stable_example, random_spec)
from helmrad.specfun import FundamentalPair, wronskian_w
from helmrad.stability import single_interface_wronskian
from interface_oracles import raw_solve_mp, to_dense
from populations import FAULT_C, FAULT_D, high_mode_population

# high-mode specs, literals as stored with the benchmark's population
# A_2 is about 1e-828, below the smallest double
TINY_A2 = dict(dimension=3, mode=50, omega=5.352878199020918,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 1e-08, 1.0],
               speeds=[9.385380815093153, 0.17982042923902544])
# the blocks of this system lose 19 digits to cancellation in mpmath
CANCELLING = dict(dimension=3, mode=15, omega=2.5990971183721125,
                  boundary_coefficient=[1.0, 0.0],
                  jump_points=[0.0, 1e-08, 0.951770860405345, 1.0],
                  speeds=[2.898948072996783, 5.754224440156181,
                          4.346961346264625])


# high-mode specs whose A_2 lies below the double range
BELOW_RANGE = (6, 9, 12, 18, 20, 21, 23, 24, 26, 32)


def _normwise(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _forced_mp(spec, digits=assembly._MP_DIGITS):
    x, _ = assembly._solve_mp(normalize(spec), digits)
    return x


@pytest.fixture(scope="module")
def formerly_escalated():
    """The oracle-200 specs whose normwise condition number sent them to
    mpmath, with their raw-system references."""
    rng = np.random.default_rng(20260823)
    specs = []
    for spec in (random_spec(rng) for _ in range(200)):
        system = normalize(spec)
        eps = float(np.finfo(system.S_hat.real.dtype).eps)
        if np.linalg.cond(to_dense(system)) * eps \
                * 10.0 ** system.block_loss > 1e-12:
            specs.append(spec)
    return [(spec, raw_solve_mp(spec)) for spec in specs]


@pytest.fixture
def mp_calls(monkeypatch):
    """Record every arbitrary-precision solve the banded route starts."""
    calls = []
    solve_mp = assembly._solve_mp

    def spy(system, digits):
        calls.append(digits)
        return solve_mp(system, digits)
    monkeypatch.setattr(assembly, "_solve_mp", spy)
    return calls


class TestRefinedAcceptance:
    def test_formerly_escalated_oracle_specs_stay_in_extended(
            self, monkeypatch, formerly_escalated):
        """The specs a normwise condition number sent to mpmath are solved
        by the refined extended-precision answer, which agrees with a
        60-digit solve."""
        assert len(formerly_escalated) == 31

        def refuse(system, digits):
            raise AssertionError("escalated to arbitrary precision")
        monkeypatch.setattr(assembly, "_solve_mp", refuse)
        for spec, ref in formerly_escalated:
            coeffs, resid = solve_spec(spec)
            assert resid < 1e-15
            assert _normwise(coeffs.entries, ref) <= 1e-13

    def test_wrong_refined_solve_escalates(self, mp_calls):
        spec = ProblemSpec.from_dict(FAULT_C)
        coeffs, _ = solve_spec(spec)
        assert mp_calls == [assembly._MP_DIGITS]
        assert _normwise(coeffs.entries, raw_solve_mp(spec)) <= 1e-13

    def test_badly_scaled_high_mode_system_solves(self):
        spec = ProblemSpec.from_dict(FAULT_D)
        coeffs, _ = solve_spec(spec)
        assert _normwise(coeffs.entries, raw_solve_mp(spec)) <= 1e-13

    def test_failed_residual_check_doubles_the_precision(self, monkeypatch):
        spec = ProblemSpec.from_dict(FAULT_C)
        calls = []
        solve_mp = assembly._solve_mp

        def short_first(spec, digits):
            calls.append(digits)
            if len(calls) == 1:
                raise SingularSystem("residual check failed")
            return solve_mp(spec, digits)
        monkeypatch.setattr(assembly, "_solve_mp", short_first)
        coeffs, _ = solve_spec(spec)
        assert calls[1] == 2 * calls[0]
        monkeypatch.undo()
        assert _normwise(coeffs.entries, raw_solve_mp(spec)) <= 1e-13

    def test_second_failure_raises(self, monkeypatch):
        def fail(system, digits):
            raise SingularSystem("residual check failed")
        monkeypatch.setattr(assembly, "_solve_mp", fail)
        with pytest.raises(SingularSystem):
            solve_spec(ProblemSpec.from_dict(FAULT_C))

    def test_negligible_coefficient_below_double_range_is_zero(self,
                                                              mp_calls):
        """A_2 is about 1e-828, and its term lies hundreds of digits below
        B_2's in layer 2, so it becomes 0; B_1 and B_2 keep the values of
        a 150-digit solve."""
        spec = ProblemSpec.from_dict(TINY_A2)
        coeffs, _ = solve_spec(spec)
        assert len(mp_calls) == 1
        system = normalize(spec)
        x, _ = assembly._solve_mp(system, 150)
        assert coeffs.a(2) == 0.0 and abs(x[1]) < mp.mpf("1e-800")
        for got, ref in ((coeffs.b(1), x[0]),
                         (coeffs.b(2), system.rhs_scale)):
            assert abs(got - complex(ref)) <= 1e-15 * abs(ref)


class TestDoubleRange:
    """Both routes build their coefficients by one rule: a coefficient
    below the normal doubles becomes 0 only when its term is negligible in
    its layer, and any other outside the double range raises
    OverflowError."""

    def test_flushed_high_mode_answers_have_finite_diagnostics(self):
        population = high_mode_population()
        for index in BELOW_RANGE:
            sol, _ = solve_direct(population[index])
            assert sol.coeffs.a(2) == 0.0
            assert np.all(np.isfinite(interface_residuals(sol)))
            assert math.isfinite(sup_radial(sol))
            assert math.isfinite(energy_norm(sol))

    def test_high_mode_answers_pass_the_interface_residuals(self):
        """Every high-mode banded answer reads at most 1e-9.  Specs 12, 18
        and 32 read 1.0 while the residuals took the pair in double, where
        j_m(k_1 1e-8) underflows to 0 beside a B_1 of 1e49 to 1e82."""
        for spec in high_mode_population():
            sol, _ = solve_direct(spec)
            assert max(map(max, interface_residuals(sol)),
                       default=0.0) <= 1e-9

    @pytest.mark.parametrize("route", [
        solve, lambda spec: solve_direct(spec)[0]],
        ids=["recursion", "banded"])
    @pytest.mark.parametrize("spec", [
        replace(construct_localisation_example(8, 1.0, 3.0),
                boundary_coefficient=1.7e308),
        replace(construct_stable_example(4, 1.0, 3.0),
                boundary_coefficient=1e-310)], ids=["huge", "subnormal"])
    def test_coefficients_outside_the_range_raise(self, route, spec):
        with pytest.raises(OverflowError):
            route(spec)


    @pytest.mark.parametrize("route", [
        solve, lambda spec: solve_direct(spec)[0]],
        ids=["recursion", "banded"])
    def test_boundary_coefficient_rounding_to_zero_raises(self, route):
        """B_N = i f_1 g / kappa is 1.7e-324 here: a double rounds it to
        0, which made the recursion return zeros and the banded route
        divide 0 by 0.  Judged in extended precision, it raises."""
        spec = ProblemSpec(WaveSpeedProfile((0.0, 0.5, 1.0), (1.0, 1 / 3)),
                           dimension=1, omega=1.0,
                           boundary_coefficient=5e-324)
        assert assembly.rhs_scale(spec) == 0
        with pytest.raises(OverflowError):
            route(spec)

    @pytest.mark.parametrize("route", [
        solve, lambda spec: solve_direct(spec)[0]],
        ids=["recursion", "banded"])
    def test_zero_boundary_data_give_zero_coefficients(self, route):
        spec = replace(construct_stable_example(4, 1.0, 3.0),
                       boundary_coefficient=0.0)
        coeffs = route(spec).coeffs
        assert not coeffs.entries.any() and coeffs.b_last == 0


class TestBandedMpElimination:
    @pytest.mark.parametrize("doc", [FAULT_C, FAULT_D])
    def test_forced_escalation_matches_the_raw_system(self, doc):
        spec = ProblemSpec.from_dict(doc)
        assert _normwise(_forced_mp(spec), raw_solve_mp(spec)) <= 1e-13

    def test_forced_escalation_on_formerly_escalated_specs(
            self, formerly_escalated):
        for spec, ref in formerly_escalated:
            assert _normwise(_forced_mp(spec), ref) <= 1e-13

    def test_matches_dense_lu(self):
        rng = np.random.default_rng(3)
        N = 12
        with mp.workdps(30):
            A = mp.matrix(N, N)
            band = np.zeros((3, N), dtype=object)
            for i in range(N):
                for j in range(max(0, i - 1), min(N, i + 2)):
                    # rows of very different size, as in the high-mode
                    # systems
                    A[i, j] = mp.mpc(*rng.normal(size=2)) * 10.0 ** (3 * i)
                    band[1 + i - j, j] = A[i, j]
            b = [mp.mpc(*rng.normal(size=2)) for _ in range(N)]
            ref = mp.lu_solve(A, mp.matrix(b))
            x = assembly._tridiag_solve(assembly._tridiag_lu(band), b)
            err = max(abs(x[i] - ref[i]) / abs(ref[i]) for i in range(N))
        assert err < 1e-25

    def test_zero_pivot_raises(self):
        with mp.workdps(30):
            # [[1, 2], [2, 4]] in band layout
            band = np.array([[0, mp.mpc(2)], [mp.mpc(1), mp.mpc(4)],
                             [mp.mpc(2), 0]], dtype=object)
            with pytest.raises(SingularSystem):
                assembly._tridiag_lu(band)

    def test_too_few_digits_fail_the_residual_check(self):
        # 10 working digits cannot resolve this system; the answer must
        # not come back
        with pytest.raises(SingularSystem):
            _forced_mp(ProblemSpec.from_dict(FAULT_D), 10)

    def test_tiny_step_vouches_for_no_more_than_the_roundoff(self):
        """At 25 digits the refinement step here is about 1e-66, far below
        the roundoff, while 19 digits cancel in the blocks and leave the
        answer's smallest entry off by 9e-8.  The step test floors the step
        at 10**-digits, so this answer is refused."""
        with pytest.raises(SingularSystem):
            _forced_mp(ProblemSpec.from_dict(CANCELLING), 25)

    def test_high_mode_escalations_pass_at_the_working_digits(self,
                                                              mp_calls):
        """The floor on the step refuses no high-mode answer at 75
        digits: every escalation runs once."""
        escalated = 0
        for spec in high_mode_population():
            del mp_calls[:]
            solve_spec(spec)
            assert mp_calls in ([], [assembly._MP_DIGITS])
            escalated += bool(mp_calls)
        assert escalated > 0

    def test_block_cancellation_tightens_the_step_test(self):
        """19 of the blocks' 35 digits cancel here.  The refinement step,
        about 1e-36, passes 1e-20 alone but not once scaled by the
        cancellation; at the working 75 digits the answer is accepted."""
        spec = ProblemSpec.from_dict(CANCELLING)
        with pytest.raises(SingularSystem):
            _forced_mp(spec, 35)
        assert _normwise(_forced_mp(spec), raw_solve_mp(spec)) <= 1e-13


class TestBandStorage:
    @pytest.mark.parametrize("doc", [FAULT_C, FAULT_D])
    def test_band_holds_the_block_tridiagonal_matrix(self, doc):
        system = normalize(ProblemSpec.from_dict(doc))
        M = to_dense(system)
        band = system.band()
        b = band.astype(complex)
        assert np.array_equal(
            np.diag(b[1]) + np.diag(b[0, 1:], 1) + np.diag(b[2, :-1], -1), M)
        x = np.arange(1, 2 * system.n + 1) * (1.0 - 0.5j)
        y = assembly._band_matvec(band, x).astype(complex)
        assert np.max(np.abs(y - M @ x)) \
            <= 1e-15 * np.max(np.abs(M) @ np.abs(x))


class TestArrayWronskian:
    # values of the scalar path, pinned bit for bit; m = 5 and m = 20
    # re-pinned when j_m above the turning point took the forward recurrence
    PINNED = [
        ((3, 5, 1, 2, 2.0, 1.0, 7.8326825),
         "-0x1.9aee4b493190dp-8", "-0x1.296f0bc0dc980p-12"),
        ((3, 20, 1, 2, 2.0, 1.0, 24.6681),
         "-0x1.08de51cc1c81dp-18", "0x1.0d22c56600000p-20"),
        ((1, 0, 2, 1, 1.3, 0.7, 3.25),
         "-0x1.2c783988a86d1p+0", "-0x1.84d99a1f75dcap-2"),
        ((3, 0, 2, 2, 0.9, 1.7, 0.75), "0x1.a007da5072d18p-3", "0x0.0p+0"),
    ]

    @pytest.mark.parametrize("args,re,im", PINNED)
    def test_scalar_path_is_unchanged(self, args, re, im):
        d, m, p, q, c_j, c_k, z = args
        w = wronskian_w(FundamentalPair(d, m), p, q, c_j, c_k, z)
        assert (w.real.hex(), w.imag.hex()) == (re, im)

    @pytest.mark.parametrize("m,window", [(5, (15.66, 15.68)),
                                          (20, (49.32, 49.35))])
    def test_batch_matches_pointwise(self, m, window):
        grid = np.linspace(*window, 41)
        batch = single_interface_wronskian(m, 1.0, 2.0, 0.5, grid)
        point = np.array([single_interface_wronskian(m, 1.0, 2.0, 0.5, w)
                          for w in grid])
        assert batch.shape == grid.shape
        assert np.max(np.abs(batch - point)) <= 1e-12 * np.max(np.abs(point))
        assert np.argmin(np.abs(batch)) == np.argmin(np.abs(point))

    def test_array_validation(self):
        with pytest.raises(ValueError):
            wronskian_w(FundamentalPair(3, 2), 1, 2, 1.0, 2.0,
                        np.array([1.0, 0.0]))


class TestParser:
    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli._parser()

    def test_command_is_looked_up_at_call_time(self, monkeypatch):
        monkeypatch.setattr(cli, "cmd_construct", lambda args: 42)
        assert cli.main(["construct", "--kind", "stable", "--n", "2",
                         "--c1", "1", "--c2", "3"]) == 42
