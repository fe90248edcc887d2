"""Scalar recursion and the closed-form last Green's-operator column."""

import cmath
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from helmrad import assembly, green
from helmrad.evaluate import solve_direct
from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example,
                             construct_stable_example, random_alternating,
                             random_spec)
from helmrad.specfun import (EXTENDED, FundamentalPair, fundamental_eval,
                             mp_tier, wronskian_w)
import m0_oracle
from interface_oracles import interface, to_dense
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


def gamma_pm(spec: ProblemSpec, ell: int) -> tuple[complex, complex]:
    """(gamma-plus, gamma-minus) at interface ell from ``fundamental_eval``.

    Evaluated in extended precision and rounded to complex at the end: at
    |q| near 1 (SPECS[2]) the recursion amplifies the double rounding of q
    to 2e-10 relative.
    """
    ext = np.longdouble
    pair = FundamentalPair(spec.dimension, spec.mode)
    c_l, c_r = ext(spec.speed(ell)), ext(spec.speed(ell + 1))
    z = ext(spec.omega) * ext(spec.profile.jump_points[ell])
    f_l, df_l = fundamental_eval(pair, 1, z / c_l, ext)
    f_r, df_r = fundamental_eval(pair, 1, z / c_r, ext)
    gt_plus = f_r * np.conj(df_l) / c_l - df_r * np.conj(f_l) / c_r
    gt_minus = df_l * f_r / c_l - df_r * f_l / c_r
    return (complex(1j * np.exp(1j * (z / c_l - z / c_r)) * gt_plus),
            complex(1j * np.exp(-1j * (z / c_l + z / c_r)) * gt_minus))


def beta_real_recursion(spec: ProblemSpec) -> np.ndarray:
    """(Re beta_ell, Im beta_ell) via the 2x2 real one-step matrices.

    A double-precision oracle for the log/phase recursion: it advances
    (Re, Im) directly, takes the reflection quantities from ``gamma_pm``
    and builds w^{1,2} through ``wronskian_w``.
    """
    n = spec.n
    pair = FundamentalPair(spec.dimension, spec.mode)
    out = np.zeros((n + 1, 2))
    out[0] = [1.0, 0.0]
    delta = spec.delta
    for ell in range(1, n + 1):
        g_plus, g_minus = gamma_pm(spec, ell)
        w12 = wronskian_w(pair, 1, 2, spec.speed(ell + 1), spec.speed(ell + 1),
                          spec.z[ell])
        base = g_plus / (2j * w12)
        theta = base * cmath.exp(-1j * delta[ell - 1])
        phi = base * (g_minus / g_plus) * cmath.exp(1j * delta[ell - 1])
        M = np.array([
            [theta.real + phi.real, phi.imag - theta.imag],
            [theta.imag + phi.imag, theta.real - phi.real],
        ])
        out[ell] = M @ out[ell - 1]
    return out


class TestBetaSequence:
    @pytest.mark.parametrize("spec", SPECS)
    def test_log_phase_form_matches_real_matrix_recursion(self, spec):
        seq = green.beta_sequence(spec)
        flat = beta_real_recursion(spec)
        ref = flat[:, 0] + 1j * flat[:, 1]
        beta = np.exp(seq.log_moduli) * seq.phases
        assert np.allclose(beta, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("spec", SPECS)
    def test_phases_stay_on_the_unit_circle(self, spec):
        seq = green.beta_sequence(spec)
        assert np.allclose(np.abs(seq.phases), 1.0, atol=1e-15)
        assert seq.log_moduli[0] == 0.0 and seq.phases[0] == 1.0

    def test_rotated_im_matches_direct_extraction(self):
        spec = SPECS[1]
        seq = green.beta_sequence(spec)
        for ell in range(1, spec.n + 1):
            rot = np.exp(1j * spec.z[ell] / spec.speed(ell + 1)) \
                * complex(seq.phases[ell])
            assert float(seq.rot_im_sign[ell]) == np.sign(rot.imag)
            assert float(seq.rot_im_log[ell]) == pytest.approx(
                math.log(abs(rot.imag)) + float(seq.log_moduli[ell]),
                abs=1e-10)

    def test_m0_cross_check_runs(self):
        spec = SPECS[0]
        omega = np.longdouble(spec.omega)
        x = [np.longdouble(v) for v in spec.profile.jump_points]
        seq, _ = green.recursion(EXTENDED, spec, omega, x)
        assert m0_oracle.divergence(spec, omega, x, seq) <= 1e-12

    def test_m0_oracle_rejects_a_perturbed_run(self, monkeypatch):
        """q scaled by 1 + 1e-11 moves the steps by 3.6e-12, past the
        oracle's 1e-12; the conftest hook must reject the run, or it checks
        nothing."""
        interfaces = green._interfaces

        def perturbed(*args):
            it = interfaces(*args)
            return it._replace(q=it.q * (1 + 1e-11))
        monkeypatch.setattr(green, "_interfaces", perturbed)
        with pytest.raises(AssertionError, match="m=0 step paths diverged"):
            green.beta_sequence(SPECS[0])

    @pytest.mark.parametrize("spec", SPECS)
    def test_escalated_sequence_agrees_with_extended(self, spec):
        """Force the arbitrary-precision rerun and compare the results."""
        plain = green.beta_sequence(spec)
        forced = green._beta_mp(spec, digits=30.0)
        assert forced.tier == "mp@60"
        assert np.allclose(np.asarray(plain.log_moduli, dtype=float),
                           np.asarray(forced.log_moduli, dtype=float),
                           atol=1e-12)
        assert np.allclose(np.asarray(plain.phases, dtype=complex),
                           np.asarray(forced.phases, dtype=complex),
                           atol=1e-12)
        assert np.allclose(np.asarray(plain.rot_im_log, dtype=float),
                           np.asarray(forced.rot_im_log, dtype=float),
                           atol=1e-10)
        assert np.array_equal(plain.rot_im_sign, forced.rot_im_sign)

    def test_stable_construction_alternates_sign(self):
        spec = construct_stable_example(6, 1.0, 3.0)
        seq = green.beta_sequence(spec)
        signs = np.real(np.asarray(seq.phases, dtype=complex))
        assert np.allclose(np.abs(seq.log_moduli), 0.0, atol=1e-10)
        assert np.allclose(signs, [(-1.0) ** ell for ell in range(7)],
                           atol=1e-10)

    def test_localised_construction_shrinks_the_denominator(self):
        spec = construct_localisation_example(8, 1.0, 3.0)
        seq = green.beta_sequence(spec)
        # the final modulus decays by (1-q)/(1+q) = 1/3 at every second
        # interface; the column entries are ratios against it and grow
        assert float(seq.log_moduli[8]) == pytest.approx(
            -4.0 * math.log(3.0), abs=1e-9)


class Escalated(Exception):
    pass


def _summed_loss(spec: ProblemSpec) -> float:
    """Digits cancelled inside gamma-plus and in each step's core
    u + q conj(u), summed over the steps: the escalation test that the
    running error bound replaced, kept here only to select specs.  The
    cores are formed again from the run's phases as the recursion forms
    them, u = e^{-i delta} times the previous phase."""
    omega = np.longdouble(spec.omega)
    x = np.array(spec.profile.jump_points, dtype=np.longdouble)
    seq, _ = green.recursion(EXTENDED, spec, omega, x)
    it, n = green._interfaces(EXTENDED, seq.pair), spec.n
    delta = omega * (x[1:n + 1] - x[:n]) / seq.pair.speeds[:-1]
    loss = 0.0
    for turn, q, cancel, phase in zip(EXTENDED.cexp(-delta), it.q, it.cancel,
                                      seq.phases):
        u = turn * phase
        core = u + q * np.conjugate(u)
        if abs(core) > 0.0:
            loss += max(0.0, float(np.log10(cancel))) + max(
                0.0, float(np.log10((1.0 + abs(q)) / abs(core))))
    return loss


@pytest.fixture(scope="module")
def kept_in_extended():
    """Among the seed-20260823 oracle and alternating specs whose summed
    digits exceed the old limit: those the running bound keeps in extended
    precision, each with its sequence and a 40-digit rerun, and the number
    it escalates, per population."""
    rng = np.random.default_rng(20260823)
    oracle = [random_spec(rng) for _ in range(200)]
    rng = np.random.default_rng(20260823)
    alternating = [random_alternating(rng) for _ in range(500)]
    kept = {"oracle": [], "alternating": []}
    escalated = {"oracle": 0, "alternating": 0}
    rerun = green._beta_mp

    def refuse(spec, digits, data=None):
        raise Escalated
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(green, "_beta_mp", refuse)
        for kind, specs in (("oracle", oracle),
                            ("alternating", alternating)):
            for spec in specs:
                if _summed_loss(spec) <= 6.0:
                    continue
                try:
                    seq = green.beta_sequence(spec)
                except Escalated:
                    escalated[kind] += 1
                    continue
                kept[kind].append((spec, seq, rerun(spec, 40)))
    return kept, escalated


class TestRunningErrorBound:
    def test_no_alternating_spec_escalates(self, kept_in_extended):
        kept, escalated = kept_in_extended
        assert kept["alternating"] and escalated["alternating"] == 0
        assert kept["oracle"]

    def test_kept_sequences_agree_with_40_digits(self, kept_in_extended):
        kept, _ = kept_in_extended
        for spec, seq, ref in kept["oracle"] + kept["alternating"]:
            for mine, theirs in ((seq.log_moduli, ref.log_moduli),
                                 (seq.phases, ref.phases)):
                assert np.max(np.abs(mine - theirs)) <= 1e-13
            assert seq.tier == "extended"

    def test_error_is_eps_times_the_digits_lost(self):
        """An extended run's error estimate is EXTENDED.eps *
        10**error_bound_digits, for one spec and for a batch of them."""
        spec = SPECS[2]
        omega = np.longdouble([spec.omega, 1.3 * spec.omega])
        x = np.array([spec.profile.jump_points] * 2, np.longdouble).T
        runs = [green.recursion(EXTENDED, s) for s in SPECS]
        for seq, error in runs + [green.recursion(EXTENDED, spec, omega, x)]:
            assert np.shape(error) == np.shape(seq.error_bound_digits)
            assert np.all(error == EXTENDED.eps
                          * np.longdouble(10) ** seq.error_bound_digits)

    def test_bound_covers_the_observed_error(self, kept_in_extended):
        """First order and with unit constants, the running bound is an
        estimate; the observed error stays within twice it.  The bound
        alone, not ``error_bound_digits``: the Im extraction's digits that
        the estimate adds touch no log modulus or phase compared here, so
        they are taken back off, read from the same run at -log10 eps."""
        kept, _ = kept_in_extended
        eps = np.finfo(np.longdouble).eps
        for spec, seq, ref in kept["oracle"] + kept["alternating"]:
            err = max(np.max(np.abs(seq.log_moduli - ref.log_moduli)),
                      np.max(np.abs(seq.phases - ref.phases)))
            with np.errstate(invalid="ignore"):
                im_loss = green._im_loss(seq.log_moduli, seq.rot_im_log,
                                         seq.rot_im_sign,
                                         -float(np.log10(eps)))
            bound_digits = seq.error_bound_digits - im_loss
            assert err <= 2 * eps * 10.0 ** float(bound_digits)

    def test_high_mode_recursions_escalate_once(self, monkeypatch):
        calls = []
        rerun = green._beta_mp

        def spy(spec, digits, data=None):
            calls.append(digits)
            return rerun(spec, digits, data)
        monkeypatch.setattr(green, "_beta_mp", spy)
        for spec in high_mode_population():
            del calls[:]
            try:
                seq = green.beta_sequence(spec)
                assert seq.tier == ("extended" if spec.n == 0
                                    else f"mp@{green._mp_dps(calls[0])}")
            except ZeroDivisionError:
                pass    # the rerun refuses its own answer (fault c)
            assert len(calls) == (spec.n > 0)

    def test_reruns_are_sized_by_the_extended_digits(self, monkeypatch):
        """Every rerun of the seed-20260823 oracle and the high-mode
        populations works at 1.2 times the extended run's
        error_bound_digits + 10, with all of extended precision's digits,
        -log10 eps, standing in for an infinite estimate (high-mode spec
        7, whose first core cancels to exactly zero)."""
        calls = []

        def spy(spec, digits, data=None):
            calls.append((spec, digits))
            raise Escalated
        monkeypatch.setattr(green, "_beta_mp", spy)
        rng = np.random.default_rng(20260823)
        for spec in [random_spec(rng) for _ in range(200)] \
                + high_mode_population():
            try:
                green.beta_sequence(spec)
            except Escalated:
                pass
        infinite = 0
        for spec, digits in calls:
            lost = green.recursion(EXTENDED, spec)[0].error_bound_digits
            if math.isinf(lost):
                infinite += 1
                lost = -math.log10(np.finfo(np.longdouble).eps)
            assert digits == pytest.approx(1.2 * lost + 10.0, rel=1e-15)
        assert len(calls) == 24 + 33 and infinite == 1


class TestRerunSelfCheck:
    """The mpmath rerun is judged by the rule the extended run escalates
    on: the running bound in its own rounding unit, amplified by the Im
    extraction's loss, and refused past 1e-13."""

    @pytest.mark.parametrize("index", [2, 14, 33])
    def test_flagged_high_mode_reruns_raise(self, index):
        """Taken as they stand, the reruns give coefficients wrong by
        6.3e80, 7.9e76 and 4.0 against the benchmark's mpmath reference.
        Spec 14's bound alone passes; its Im extraction loses the rest."""
        with pytest.raises(ZeroDivisionError,
                           match="estimated relative error"):
            green.beta_sequence(high_mode_population()[index])

    def test_escalated_oracle_specs_pass_with_margin(self, monkeypatch):
        """Every rerun of the seed-20260823 oracle population is accepted,
        its own estimate far below the 1e-13 it is checked against."""
        records = []
        rerun = green._beta_mp

        def spy(spec, digits, data=None):
            records.append(rerun(spec, digits, data))
            return records[-1]
        monkeypatch.setattr(green, "_beta_mp", spy)
        rng = np.random.default_rng(20260823)
        for _ in range(200):
            green.beta_sequence(random_spec(rng))
        assert records
        for seq in records:
            with mp.workdps(int(seq.tier.removeprefix("mp@"))):
                assert mp.eps * mp.mpf(10) ** seq.error_bound_digits <= 1e-30

    def test_oracle_spec_48_escalates_on_its_im_loss(self):
        """Seed-20260823 oracle spec 48: the bound reads 10^2.8 rounding
        units and the Im extraction loses 3.45 more digits.  Kept in
        extended precision, A_2 came out wrong by 9.6e-7."""
        rng = np.random.default_rng(20260823)
        spec = [random_spec(rng) for _ in range(49)][48]
        assert green.beta_sequence(spec).tier.startswith("mp@")
        mine = green.layer_coefficients(spec).entries
        rerun = green.green_last_column(spec, green._beta_mp(spec, 40))
        for ref in (green.layer_coefficients(spec, rerun).entries,
                    solve_direct(spec)[0].coeffs.entries):
            assert np.all(np.abs(mine - ref) <= 1e-13 * np.abs(ref))

    def test_zero_core_in_mpmath_raises_by_the_rule(self, monkeypatch):
        """A zero-width first layer makes u = 1 exactly, and q = -1 then
        cancels the core to exactly zero: the step folds to -inf and the
        infinite estimate refuses the rerun."""
        interfaces = green._interfaces

        def reflect_all(*args):
            it = interfaces(*args)
            return it._replace(q=np.full_like(it.q, -1))
        monkeypatch.setattr(green, "_interfaces", reflect_all)

        def data(spec):
            x = [mp.mpf(v) for v in spec.profile.jump_points]
            return mp.mpf(spec.omega), [x[1]] + x[1:]
        with pytest.raises(ZeroDivisionError,
                           match=r"estimated relative error \+inf"):
            green._beta_mp(SPECS[0], 20.0, data=data)

    def test_exact_zero_core_escalates_by_itself(self):
        """High-mode spec 7: the first core cancels to exactly zero in
        extended precision, which alone makes the bound, and so the error
        and the digits lost, infinite."""
        spec = high_mode_population()[7]
        x = [np.longdouble(v) for v in spec.profile.jump_points]
        seq, error = green.recursion(EXTENDED, spec,
                                     np.longdouble(spec.omega), x)
        assert error == np.inf and seq.error_bound_digits == np.inf
        assert np.isneginf(seq.log_moduli[1:]).all()
        with np.errstate(invalid="ignore"):
            assert green._im_loss(seq.log_moduli, seq.rot_im_log,
                                  seq.rot_im_sign, 19.0) == 0.0


class TestGreenColumn:
    @pytest.mark.parametrize("spec", SPECS)
    def test_column_matches_inverse_of_normalised_matrix(self, spec):
        system = assembly.normalize(spec)
        M = to_dense(system)
        last = np.linalg.inv(M)[:, -1]
        col = green.green_last_column(spec)
        scale = np.max(np.abs(last))
        assert np.max(np.abs(col.entries - last)) < 1e-10 * scale

    @pytest.mark.parametrize("spec", SPECS)
    def test_banded_column_is_the_recursion_column(self, spec):
        """The banded solution over B_N, in the recursion's row order:
        log magnitudes and phases agree to 1e-12, and B_N = 0 (g = 0)
        gives the column of a unit right-hand side."""
        col = green.green_last_column(spec)
        for g in (spec.boundary_coefficient, 0.0):
            system = assembly.normalize(replace(spec, boundary_coefficient=g))
            banded = green.banded_column(assembly.dense_solve(system)[2],
                                         system.pair, 1.5)
            assert (banded.tier, banded.error_bound_digits) == ("banded", 1.5)
            for name in ("log", "phase", "entries"):
                got, want = getattr(banded, name), getattr(col, name)
                scale = np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(got - want) <= 1e-12 * scale), name

    @pytest.mark.parametrize("spec", SPECS)
    def test_log_magnitudes_are_consistent(self, spec):
        col = green.green_last_column(spec)
        for entry, lg in zip(col.entries[0::2], col.log[0::2]):
            assert abs(entry) == pytest.approx(math.exp(lg), rel=1e-12)
        for entry, lg in zip(col.entries[1::2], col.log[1::2]):
            if math.isfinite(lg):
                assert abs(entry) == pytest.approx(math.exp(lg), rel=1e-12)
            else:
                assert entry == 0.0
        assert col.max_abs() >= np.max(np.abs(col.entries))

    def test_near_resonance_guard(self, monkeypatch):
        monkeypatch.setattr(green, "NEAR_RESONANCE_FLOOR", 1e300)
        with pytest.raises(green.NearResonantDenominator):
            green.green_last_column(SPECS[0])

    def test_column_growth_for_a_deep_localised_profile(self):
        # past ~24 interfaces the double-rounded construction data drift
        # off the critical phases, so the comparison stays at n = 24
        spec = construct_localisation_example(24, 1.0, 3.0)
        col = green.green_last_column(spec)
        assert np.all(np.isfinite(col.log[0::2]))
        assert np.all(np.isfinite(col.entries[0::2]))
        # innermost entry carries the full interference amplification
        assert col.log[0] == pytest.approx(12.0 * math.log(3.0), rel=1e-4)
        assert col.max_abs() >= math.exp(col.log[0])


class TestLayerCoefficients:
    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_banded_elimination(self, spec):
        rec = green.layer_coefficients(spec)
        direct = solve_direct(spec)[0].coeffs
        scale = max(np.max(np.abs(direct.entries)),
                    np.max(np.abs(rec.entries)))
        assert np.max(np.abs(rec.entries - direct.entries)) < 1e-10 * scale

    def test_entries_past_the_display_clip_come_from_the_logs(self):
        """Column entries here fall to e^-753, where their display values
        are 0, and g = 1e300 brings every coefficient into the double
        range: each matches the banded route."""
        spec = replace(construct_localisation_example(220, 1.0, 1000.0),
                       boundary_coefficient=1e300)
        column = green.green_last_column(spec)
        assert np.min(column.log[1::2]) < math.log(5e-324)
        rec = green.layer_coefficients(spec, column)
        direct = solve_direct(spec)[0].coeffs
        assert np.all(np.abs(rec.entries - direct.entries)
                      <= 1e-12 * np.abs(direct.entries))

    def test_outer_coefficient_magnitude_for_radial_mode(self):
        spec = _spec((1.0, 2.0), (0.4,), 3.0, g=3.0 - 4.0j)
        rec = green.layer_coefficients(spec)
        assert abs(rec.b_last) == pytest.approx(5.0, rel=1e-12)

    def test_outer_coefficient_has_the_boundary_modulus(self):
        """For d=3, m=0 the scaled outgoing solution has unit modulus on
        the boundary, so B_N has |B_N| = |g|: checked on
        the seed-20260823 alternating and oracle draws and the constructed
        families, each at three boundary coefficients."""
        rng = np.random.default_rng(20260823)
        specs = [random_alternating(rng) for _ in range(500)]
        rng = np.random.default_rng(20260823)
        specs += [random_spec(rng) for _ in range(200)]
        specs += [build(n, 1.0, 3.0) for n in range(1, 33)
                  for build in (construct_localisation_example,
                                construct_stable_example)]
        specs += SPECS
        radial = [s for s in specs if s.dimension == 3 and s.mode == 0]
        for spec in radial:
            for g in (1.0, 2.0 - 1.0j, 1e-3j):
                b_last = complex(assembly.normalize(
                    replace(spec, boundary_coefficient=g)).b_last)
                assert abs(abs(b_last) - abs(g)) <= 1e-12 * max(1.0, abs(g))


class TestGammaData:
    def test_m0_reflection_strength_is_the_speed_contrast(self):
        spec = SPECS[0]
        q = complex(green._interfaces(
            EXTENDED, assembly.interface_pair(EXTENDED, spec)).q[0])
        c1, c2 = spec.profile.speeds
        assert abs(q) == pytest.approx(abs((c2 - c1) / (c2 + c1)),
                                       rel=1e-12)
        g_plus, g_minus = gamma_pm(spec, 1)
        assert q == pytest.approx(g_minus / g_plus, rel=1e-12)


#: (d, m) of the interface checks: the closed forms of d=1 and of m <= 1
#: take one array call, higher orders go point by point
_PAIRS = [(1, 0), (3, 0), (3, 1), (3, 2), (3, 5), (3, 30)]


class TestInterfaceArrays:
    """The recursion's array pass over all interfaces gives, per interface,
    exactly what the scalar reference ``interface_oracles.interface``
    forms one interface at a time (gamma-plus enters through g-plus)."""

    @staticmethod
    def _spec(d, m):
        return _spec((1.0, 2.5, 0.7, 1.8, 1.2), (0.2, 0.45, 0.7, 0.9), 13.0,
                     d=d, m=m)

    @staticmethod
    def _assert_exact(tier, spec, omega, x):
        it = green._interfaces(tier, assembly.interface_pair(
            tier, spec, omega, np.asarray(x)))
        for ell in range(1, spec.n + 1):
            ref = interface(tier, spec, omega, x, ell)
            mine = (it.g_plus[ell - 1], it.q[ell - 1], it.w12[ell - 1])
            assert all(a == b for a, b in zip(mine, ref)), ell

    @pytest.mark.parametrize("d,m", _PAIRS)
    def test_extended(self, d, m):
        spec = self._spec(d, m)
        x = np.array(spec.profile.jump_points, dtype=np.longdouble)
        self._assert_exact(EXTENDED, spec, np.longdouble(spec.omega), x)

    @pytest.mark.parametrize("d,m", _PAIRS)
    def test_mpmath_at_50_digits(self, d, m):
        spec = self._spec(d, m)
        with mp.workdps(50):
            x = [mp.mpf(v) for v in spec.profile.jump_points]
            self._assert_exact(mp_tier(), spec, mp.mpf(spec.omega), x)

    def test_vanished_gamma_plus_names_the_first_interface(self,
                                                           monkeypatch):
        """A pair evaluation that vanishes at interfaces 2 and 3 raises for
        interface 2, before any division (a RuntimeWarning would fail the
        suite)."""
        spec = self._spec(3, 0)
        evaluate = EXTENDED.pair_eval

        def vanishing(pair, x):
            values = evaluate(pair, x)
            for v in values:
                v[[1, 2, spec.n + 1, spec.n + 2]] = 0
            return values
        monkeypatch.setattr(green, "EXTENDED",
                            EXTENDED._replace(pair_eval=vanishing))
        with pytest.raises(assembly.DegenerateNormaliser,
                           match="gamma-plus vanished at interface 2$"):
            green.beta_sequence(spec)


class TestSingleLayer:
    """n = 0: no interface, so empty arrays through both tiers and both
    routes, and B_1 = B_N."""

    @pytest.mark.parametrize("d,m", [(1, 0), (3, 0), (3, 3)])
    def test_both_tiers_and_both_routes(self, d, m):
        spec = _spec((1.7,), (), 4.0, d=d, m=m, g=0.5 - 2.0j)
        seq = green.beta_sequence(spec)
        forced = green._beta_mp(spec, 20.0)
        for beta in (seq, forced):
            assert beta.n == 0 and beta.log_moduli.tolist() == [0.0]
        assert seq.tier == "extended" and forced.tier == "mp@50"
        with mp.workdps(50):
            band, loss = assembly._blocks(mp_tier(), spec)
        assert band.shape == (3, 0) and loss == 0.0
        rec = green.layer_coefficients(spec)
        sol, resid = solve_direct(spec)
        for coeffs in (rec, sol.coeffs):
            assert coeffs.entries.shape == (0,)
            assert coeffs.b_last == complex(
                assembly.normalize(spec).b_last) != 0
        assert resid == 0.0
