"""The banded route's a-posteriori acceptance and its mpmath escalation.

The refined extended-precision solve is accepted on its own convergence
and componentwise backward error; the banded elimination in mpmath runs
only when that test fails, and returns only answers its residual confirms.
Also covers the array Wronskian behind the whispering-gallery scan and the
reused command-line parser.
"""

import mpmath as mp
import numpy as np
import pytest

from helmrad import assembly, cli
from helmrad.assembly import (R_HAT, T_HAT, SingularSystem, normalize,
                              solve_spec)
from helmrad.problem import ProblemSpec, random_spec
from helmrad.specfun import FundamentalPair, wronskian_w
from helmrad.stability import single_interface_wronskian

#: digits on top of the 25 guard digits for the forced mpmath reference
_REF_DIGITS = 35

# high-mode specs, literals as stored with the benchmark's population:
# fault (c): refinement with the double factors diverges here; taken as
# it stands, the answer is wrong by a factor of 1e21 or more
FAULT_C = dict(dimension=3, mode=30, omega=7.086389133912954,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 0.05638264574284964, 0.631148806017453, 1.0],
               speeds=[10.155648231717109, 0.22163251877829607,
                       0.13984743380345396])
# fault (d): mpmath's dense LU called this system numerically singular
FAULT_D = dict(dimension=3, mode=20, omega=0.5605376570828529,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 0.17974365144767035, 0.9037845024235195,
                            0.9054173266933417, 1.0],
               speeds=[0.5888156532791181, 9.618509570750803,
                       0.5340690479615751, 1.408578525350417])
# A_2 is about 1e-828, below the smallest double
TINY_A2 = dict(dimension=3, mode=50, omega=5.352878199020918,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 1e-08, 1.0],
               speeds=[9.385380815093153, 0.17982042923902544])


def _normwise(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _forced_mp(spec):
    x, _ = assembly._solve_mp(spec, _REF_DIGITS)
    return x


@pytest.fixture
def mp_calls(monkeypatch):
    """Record every arbitrary-precision solve the banded route starts."""
    calls = []
    solve_mp = assembly._solve_mp

    def spy(spec, digits):
        calls.append(digits)
        return solve_mp(spec, digits)
    monkeypatch.setattr(assembly, "_solve_mp", spy)
    return calls


class TestRefinedAcceptance:
    def test_formerly_escalated_oracle_specs_stay_in_extended(
            self, monkeypatch):
        """The specs a normwise condition number sent to mpmath are solved
        by the refined extended-precision answer, which agrees with a
        60-digit solve."""
        rng = np.random.default_rng(20260823)
        specs = []
        for spec in (random_spec(rng) for _ in range(200)):
            system = normalize(spec)
            eps = float(np.finfo(system.S_hat.real.dtype).eps)
            if np.linalg.cond(system.to_dense()) * eps \
                    * 10.0 ** system.block_loss > 1e-12:
                specs.append(spec)
        assert len(specs) == 31
        refs = [_forced_mp(spec) for spec in specs]

        def refuse(spec, digits):
            raise AssertionError("escalated to arbitrary precision")
        monkeypatch.setattr(assembly, "_solve_mp", refuse)
        for spec, ref in zip(specs, refs):
            coeffs, resid = solve_spec(spec)
            assert resid < 1e-15
            assert _normwise(coeffs.entries, ref) <= 1e-13

    def test_wrong_refined_solve_escalates(self, mp_calls):
        spec = ProblemSpec.from_dict(FAULT_C)
        coeffs, _ = solve_spec(spec)
        assert len(mp_calls) == 1
        assert _normwise(coeffs.entries, _forced_mp(spec)) <= 1e-13

    def test_badly_scaled_high_mode_system_solves(self):
        spec = ProblemSpec.from_dict(FAULT_D)
        coeffs, _ = solve_spec(spec)
        assert _normwise(coeffs.entries, _forced_mp(spec)) <= 1e-13

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
        assert calls[1] == 2 * calls[0] + assembly._GUARD_DIGITS
        monkeypatch.undo()
        assert _normwise(coeffs.entries, _forced_mp(spec)) <= 1e-13

    def test_second_failure_raises(self, monkeypatch):
        def fail(spec, digits):
            raise SingularSystem("residual check failed")
        monkeypatch.setattr(assembly, "_solve_mp", fail)
        with pytest.raises(SingularSystem):
            solve_spec(ProblemSpec.from_dict(FAULT_C))

    def test_coefficient_below_double_range_raises(self, mp_calls):
        with pytest.raises(OverflowError):
            solve_spec(ProblemSpec.from_dict(TINY_A2))
        assert len(mp_calls) == 1


class TestBandedMpElimination:
    def test_matches_dense_lu(self):
        rng = np.random.default_rng(3)
        N, kl, ku = 12, assembly._RAW_BAND, assembly._RAW_BAND
        with mp.workdps(30):
            A = [[mp.mpc(0)] * N for _ in range(N)]
            for i in range(N):
                for j in range(max(0, i - kl), min(N, i + ku + 1)):
                    # rows of very different size, as in the raw system
                    A[i][j] = mp.mpc(*rng.normal(size=2)) * 10.0 ** (3 * i)
            b = [mp.mpc(*rng.normal(size=2)) for _ in range(N)]
            ref = mp.lu_solve(mp.matrix(A), mp.matrix(b))
            U = [list(row) for row in A]
            steps = assembly._band_lu_mp(U)
            x = assembly._band_lu_solve_mp(U, steps, b)
            err = max(abs(x[i] - ref[i]) / abs(ref[i]) for i in range(N))
        assert err < 1e-25

    def test_zero_pivot_raises(self):
        with mp.workdps(30):
            A = [[mp.mpc(1), mp.mpc(2)], [mp.mpc(2), mp.mpc(4)]]
            with pytest.raises(SingularSystem):
                assembly._band_lu_mp(A)

    def test_too_few_digits_fail_the_residual_check(self):
        # 10 working digits cannot resolve this system; the answer must
        # not come back
        with pytest.raises(SingularSystem):
            assembly._solve_mp(ProblemSpec.from_dict(FAULT_D), -15)


class TestBandStorage:
    @pytest.mark.parametrize("doc", [FAULT_C, FAULT_D])
    def test_band_holds_the_block_tridiagonal_matrix(self, doc):
        system = normalize(ProblemSpec.from_dict(doc))
        n = system.n
        M = np.zeros((2 * n, 2 * n), dtype=complex)
        for ell in range(n):
            i = 2 * ell
            M[i:i + 2, i:i + 2] = system.S_hat[ell].astype(complex)
            if ell < n - 1:
                M[i:i + 2, i + 2:i + 4] = T_HAT
                M[i + 2:i + 4, i:i + 2] = R_HAT
        assert np.array_equal(system.to_dense(), M)
        x = np.arange(1, 2 * n + 1) * (1.0 - 0.5j)
        y = system.matvec(x).astype(complex)
        assert np.max(np.abs(y - M @ x)) \
            <= 1e-15 * np.max(np.abs(M) @ np.abs(x))


class TestArrayWronskian:
    # values of the scalar path, pinned bit for bit
    PINNED = [
        ((3, 5, 1, 2, 2.0, 1.0, 7.8326825),
         "-0x1.9aee4b493190cp-8", "-0x1.296f0bc0dc880p-12"),
        ((3, 20, 1, 2, 2.0, 1.0, 24.6681),
         "-0x1.08de51cc1c81ep-18", "0x1.0d22c56580000p-20"),
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
