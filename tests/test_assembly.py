"""Interface system assembly, normalisation, and the banded solve."""

import itertools

import mpmath as mp
import numpy as np
import pytest

from helmrad.assembly import (R_HAT, T_HAT, CoefficientVector, _band_matvec,
                              _wronskians, dense_solve, normalize,
                              solve_spec)
from helmrad.problem import ProblemSpec, WaveSpeedProfile
from helmrad.specfun import EXTENDED, FundamentalPair, mp_tier
from interface_oracles import (assemble_raw, determinant_recursion,
                               normalizer_blocks, rhs, to_dense, w_sequence)
from populations import high_mode_population


def _spec(speeds, cuts, omega, d=3, m=0, g=1.0 + 0.0j):
    return ProblemSpec(WaveSpeedProfile((0.0, *cuts, 1.0), tuple(speeds)),
                       dimension=d, mode=m, omega=omega,
                       boundary_coefficient=g)


SPECS = [
    _spec((1.0, 2.0), (0.4,), 3.0),
    _spec((2.0, 0.7, 1.3), (0.3, 0.8), 11.0, m=2),
    _spec((1.0, 3.0, 1.0, 3.0), (0.2, 0.5, 0.7), 7.5, m=4),
    _spec((0.6, 1.9), (0.55,), 20.0, d=1),
    _spec((1.1, 0.9, 2.2, 0.5, 1.7), (0.1, 0.3, 0.6, 0.85), 5.0,
          g=2.0 - 1.0j),
]


class TestNormalisation:
    @pytest.mark.parametrize("spec", SPECS)
    def test_normaliser_turns_blocks_into_constants(self, spec):
        """D S = S_hat, D R = R_HAT, D T = T_HAT, D rhs = rhs_hat."""
        raw = assemble_raw(spec)
        D = normalizer_blocks(spec)
        system = normalize(spec)
        for ell in range(spec.n):
            assert np.allclose(D[ell] @ raw.S[ell],
                               system.S_hat[ell].astype(complex),
                               rtol=1e-10, atol=1e-12)
        for ell in range(spec.n - 1):
            assert np.allclose(D[ell + 1] @ raw.R[ell], R_HAT, atol=1e-10)
            assert np.allclose(D[ell] @ raw.T[ell], T_HAT, atol=1e-10)
        rhs_hat = D[spec.n - 1] @ raw.rhs[-2:]
        assert abs(rhs_hat[0]) <= 1e-10 * abs(rhs_hat[1])
        assert rhs_hat[1] == pytest.approx(complex(system.b_last), rel=1e-10)

    def test_vanishing_normaliser_names_its_interface(self):
        """The Wronskians are formed over every interface at once; the
        first one whose normaliser w^{2,1} vanishes is named."""
        from helmrad import assembly
        from helmrad.specfun import EXTENDED
        spec = SPECS[2]
        c, args, values = assembly.interface_pair(EXTENDED, spec, shift=True)
        values = values.copy()
        for ell in (2, 3):
            values[2:, spec.n + ell - 1] = 0.0   # f_2, f_2' right of ell
        with pytest.raises(assembly.DegenerateNormaliser,
                           match="interface 2$"):
            assembly.normalize(spec, assembly.InterfacePair(c, args,
                                                            values))

    @pytest.mark.parametrize("spec", SPECS)
    def test_dense_form_matches_matvec(self, spec):
        system = normalize(spec)
        rng = np.random.default_rng(7)
        x = rng.normal(size=2 * spec.n) + 1j * rng.normal(size=2 * spec.n)
        assert np.allclose(to_dense(system) @ x,
                           _band_matvec(system.band(), x).astype(complex),
                           rtol=1e-12)


# (c_left, c_right) of one interface, contrasts from 1.5 to 670
WRONSKIAN_SPEEDS = [(1.0, 2.0), (3.0, 0.1), (0.05, 1.0), (20.0, 0.03),
                    (1.0, 1.5)]


def _exact(v):
    """An extended or mpmath number as mpmath's, exactly."""
    if not isinstance(v, (np.longdouble, np.clongdouble)):
        return v
    parts = []
    for p in (v.real, v.imag):
        frac, e = np.frexp(p)
        parts.append(mp.ldexp(int(np.ldexp(frac, 64)), int(e) - 64))
    return mp.mpc(*parts)


def _pair_rows(d, m, x):
    """(f_1, f_1', f_2, f_2', g_1, g_2) at x in the active mpmath context,
    from mpmath's own functions: sqrt(pi/2x) (J, Y)_{k+1/2} and their
    derivatives for d=3, e^{ix} and cos x for d=1."""
    if d == 1:
        return (mp.expj(x), 1j * mp.expj(x), mp.cos(x), -mp.sin(x),
                1j * mp.expj(x), -mp.sin(x))
    pref = mp.sqrt(mp.pi / (2 * x))

    def h(k, deriv=0):
        nu = k + mp.mpf(1) / 2
        j, y = (pref * (fn(nu, x, deriv) - fn(nu, x) / (2 * x) * deriv)
                for fn in (mp.besselj, mp.bessely))
        return mp.mpc(j, y)
    f, df = h(m), h(m, 1)
    return f, df, f.real, df.real, h(m - 1), -h(m + 1).real


class TestSameFamilyWronskians:
    """w^{2,2} (j with j) and w^{1,1} (h with h) as the blocks form them,
    from the shifted orders, against the slope form at 60 digits with
    exact arguments z/c_left, z/c_right.  The error is measured against
    the larger of the two shifted-form products, which is |w| within the
    contrast factor wherever the slopes' kappa terms dominate, so that a
    zero of w in the oscillating range does not read as a failure."""

    def _worst(self, tier, d, m, zs):
        worst = 0.0
        for (cl, cr), z in itertools.product(WRONSKIAN_SPEEDS, zs):
            args = (z / cl, z / cr)
            if not 1e-10 <= min(args) <= max(args) <= 300:
                continue
            c = np.array([tier.real(cl), tier.real(cr)])
            w, _ = _wronskians(c, tier.pair_eval(FundamentalPair(d, m),
                                                 tier.real(z) / c))
            with mp.workdps(60):
                zz, cl, cr = mp.mpf(z), mp.mpf(cl), mp.mpf(cr)
                left, right = (_pair_rows(d, m, zz / v) for v in (cl, cr))
                refs = {
                    1: (right[2] * left[3] / cl - right[3] * left[2] / cr,
                        right[2] * left[5] / cl, right[5] * left[2] / cr),
                    4: (left[0] * right[1] / cr - left[1] * right[0] / cl,
                        left[0] * right[4] / cr, left[4] * right[0] / cl)}
                if d == 3 and m <= 1 and min(args) < 0.1:
                    # the closed form j_1 of the rows f_2 (m = 1) and f_2'
                    # (m = 0) cancels 2 log10(1/x) digits of its own
                    del refs[1]
                for row, (ref, t1, t2) in refs.items():
                    worst = max(worst, abs(_exact(w[row, 0]) - ref)
                                / max(abs(t1), abs(t2)))
        return worst

    @pytest.mark.parametrize("d,m", [(1, 0)] + [
        (3, m) for m in (0, 1, 2, 5, 10, 20, 30, 45, 60)])
    def test_extended(self, d, m):
        """Within 1e-16 at arguments 1e-10 to 300 (worst measured 1.9e-17);
        formed from the slopes, the same grid reads up to 2.9e3 at m =
        60, and 1.1e-10 already for h_0 with h_0."""
        tier = EXTENDED._replace(real=lambda v: np.longdouble(v))
        assert self._worst(tier, d, m, np.geomspace(1e-9, 250.0, 16)) \
            <= 1e-16

    @pytest.mark.parametrize("m", [2, 30])
    def test_mpmath(self, m):
        with mp.workdps(30):
            worst = self._worst(mp_tier()._replace(real=mp.mpf), 3, m,
                                np.geomspace(1e-9, 250.0, 7))
        assert worst <= 1e-28


class TestSolve:
    @pytest.mark.parametrize("spec", SPECS)
    def test_residual_is_tiny(self, spec):
        coeffs, resid = solve_spec(spec)
        assert resid < 1e-12
        system = normalize(spec)
        r = to_dense(system) @ coeffs.entries - rhs(system)
        assert np.max(np.abs(r)) < 1e-12 * np.max(np.abs(rhs(system)))

    @pytest.mark.parametrize("spec", SPECS)
    def test_solution_matches_plain_dense_solve(self, spec):
        coeffs, _ = solve_spec(spec)
        system = normalize(spec)
        ref = np.linalg.solve(to_dense(system), rhs(system))
        scale = max(np.max(np.abs(ref)), np.max(np.abs(coeffs.entries)))
        assert np.max(np.abs(coeffs.entries - ref)) < 1e-9 * scale

    def test_rhs_scale_matches_boundary_coefficient_magnitude(self):
        # d=3, m=0: the outgoing boundary value has unit scaled modulus
        spec = SPECS[0]
        assert abs(complex(normalize(spec).b_last)) == pytest.approx(
            abs(complex(spec.boundary_coefficient)), rel=1e-12)

    @pytest.mark.parametrize("spec", high_mode_population()
                             + [s for s in SPECS if s.dimension == 1])
    def test_rhs_scale_matches_60_digits(self, spec):
        """f_1(kappa) g / (kappa W(f_1, f_2)(kappa)) with the Bessel
        functions and the Wronskian taken from mpmath at 60 digits."""
        m = spec.mode
        with mp.workdps(60):
            kappa = mp.mpf(spec.omega) / mp.mpf(spec.speed(spec.n + 1))
            if spec.dimension == 1:
                f1, df1 = mp.expj(kappa), 1j * mp.expj(kappa)
                f2, df2 = mp.cos(kappa), -mp.sin(kappa)
            else:
                half = mp.sqrt(mp.pi / (2 * kappa))

                def h(k, regular):
                    nu = k + mp.mpf(1) / 2
                    j = half * mp.besselj(nu, kappa)
                    return j if regular else j + 1j * half * mp.bessely(
                        nu, kappa)
                f1, f2 = h(m, False), h(m, True)
                # f_m' = (m/x) f_m - f_{m+1}
                df1 = m / kappa * f1 - h(m + 1, False)
                df2 = m / kappa * f2 - h(m + 1, True)
            ref = f1 * mp.mpc(complex(spec.boundary_coefficient)) \
                / (kappa * (f1 * df2 - df1 * f2))
            err = abs(mp.mpc(complex(normalize(spec).b_last)) - ref) / abs(ref)
        assert err <= 5e-16

    def test_boundary_coefficient_scales_solution_linearly(self):
        base, _ = solve_spec(SPECS[0])
        doubled, _ = solve_spec(_spec((1.0, 2.0), (0.4,), 3.0,
                                      g=2.0 + 0.0j))
        assert np.allclose(doubled.entries, 2.0 * base.entries, rtol=1e-12)


class TestDeterminant:
    @pytest.mark.parametrize("spec", SPECS)
    def test_recursion_matches_elimination(self, spec):
        det_rec = determinant_recursion(spec)
        det_dense = np.linalg.det(to_dense(normalize(spec)))
        assert det_rec == pytest.approx(det_dense, rel=1e-9)

    def test_w_sequence_base_case(self):
        W = w_sequence(SPECS[0])
        assert W[0, 0] == 1.0 and W[0, 1] == 0.0


class TestCoefficientVector:
    def test_accessors_follow_the_interleaved_ordering(self):
        entries = np.arange(1, 7, dtype=complex)  # B1 A2 B2 A3 B3 A4
        cv = CoefficientVector(entries=entries, b_last=9.0 + 0.0j)
        assert cv.num_layers == 4
        assert cv.a(1) == 0.0
        assert cv.b(1) == 1.0
        assert cv.a(2) == 2.0 and cv.b(2) == 3.0
        assert cv.a(3) == 4.0 and cv.b(3) == 5.0
        assert cv.a(4) == 6.0 and cv.b(4) == 9.0
        assert [cv.a(j) for j in range(1, 5)] == [0, 2, 4, 6]
        assert [cv.b(j) for j in range(1, 5)] == [1, 3, 5, 9]
