"""Scalar recursion and the closed-form last Green's-operator column."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from helmrad import assembly, green
from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example,
                             construct_stable_example, random_alternating,
                             random_spec)
from helmrad.specfun import (EXTENDED, FundamentalPair, fundamental_eval,
                             wronskian_w)
from interface_oracles import to_dense
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
        assert np.allclose(seq.beta, ref, rtol=1e-10, atol=1e-12)

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
        # the d=3, m=0 path asserts internally
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
    """Digits cancelled per step, summed: the escalation test that the
    running error bound replaced."""
    x = [np.longdouble(v) for v in spec.profile.jump_points]
    run = green._recursion(EXTENDED, spec, np.longdouble(spec.omega), x)
    return green._summed_loss(run.interfaces, run.cores)


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

    def test_bound_covers_the_observed_error(self, kept_in_extended):
        """First order and with unit constants, the bound is an estimate;
        the observed error stays within twice it."""
        kept, _ = kept_in_extended
        eps = np.finfo(np.longdouble).eps
        for spec, seq, ref in kept["oracle"] + kept["alternating"]:
            err = max(np.max(np.abs(seq.log_moduli - ref.log_moduli)),
                      np.max(np.abs(seq.phases - ref.phases)))
            assert err <= 2 * eps * 10.0 ** seq.error_bound_digits

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
                    assembly.solve_spec(spec)[0].entries):
            assert np.all(np.abs(mine - ref) <= 1e-13 * np.abs(ref))

    def test_zero_core_in_mpmath_raises_by_the_rule(self, monkeypatch):
        """A zero-width first layer makes u = 1 exactly, and q = -1 then
        cancels the core to exactly zero: the step folds to -inf and the
        infinite estimate refuses the rerun."""
        interface = green._interface
        monkeypatch.setattr(green, "_interface",
                            lambda *args: interface(*args)._replace(q=-1))

        def data(spec):
            x = [mp.mpf(v) for v in spec.profile.jump_points]
            return mp.mpf(spec.omega), [x[1]] + x[1:]
        with pytest.raises(ZeroDivisionError,
                           match=r"estimated relative error \+inf"):
            green._beta_mp(SPECS[0], 20.0, data=data)

    def test_exact_zero_core_escalates_by_itself(self):
        """High-mode spec 7: the first core cancels to exactly zero in
        extended precision, which alone makes the bound infinite."""
        spec = high_mode_population()[7]
        x = [np.longdouble(v) for v in spec.profile.jump_points]
        run = green._recursion(EXTENDED, spec, np.longdouble(spec.omega), x)
        assert run.cores[0] == 0 and run.bound == np.inf
        assert np.isneginf(np.array(run.log_mod[1:])).all()
        assert green._im_loss(run, 19.0) == 0.0


class TestGreenColumn:
    @pytest.mark.parametrize("spec", SPECS)
    def test_column_matches_inverse_of_normalised_matrix(self, spec):
        system = assembly.normalize(spec)
        M = to_dense(system)
        last = np.linalg.inv(M)[:, -1]
        col = green.green_last_column(spec)
        ref_odd, ref_even = last[0::2], last[1::2]
        scale = np.max(np.abs(last))
        assert np.max(np.abs(col.odd_entries - ref_odd)) < 1e-10 * scale
        assert np.max(np.abs(col.even_entries - ref_even)) < 1e-10 * scale

    @pytest.mark.parametrize("spec", SPECS)
    def test_log_magnitudes_are_consistent(self, spec):
        col = green.green_last_column(spec)
        for entry, lg in zip(col.odd_entries, col.odd_log_mag):
            assert abs(entry) == pytest.approx(math.exp(lg), rel=1e-12)
        for entry, lg in zip(col.even_entries, col.even_log_mag):
            if math.isfinite(lg):
                assert abs(entry) == pytest.approx(math.exp(lg), rel=1e-12)
            else:
                assert entry == 0.0
        assert col.max_abs() >= max(np.max(np.abs(col.odd_entries)),
                                    np.max(np.abs(col.even_entries)))

    def test_near_resonance_guard(self):
        with pytest.raises(green.NearResonantDenominator):
            green.green_last_column(SPECS[0], resonance_floor=1e300)

    def test_column_growth_for_a_deep_localised_profile(self):
        # past ~24 interfaces the double-rounded construction data drift
        # off the critical phases, so the comparison stays at n = 24
        spec = construct_localisation_example(24, 1.0, 3.0)
        col = green.green_last_column(spec)
        assert np.all(np.isfinite(col.odd_log_mag))
        assert np.all(np.isfinite(col.odd_entries))
        # innermost entry carries the full interference amplification
        assert col.odd_log_mag[0] == pytest.approx(12.0 * math.log(3.0),
                                                   rel=1e-4)
        assert col.max_abs() >= math.exp(col.odd_log_mag[0])


class TestLayerCoefficients:
    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_banded_elimination(self, spec):
        rec = green.layer_coefficients(spec)
        direct, _ = assembly.solve_spec(spec)
        scale = max(np.max(np.abs(direct.entries)),
                    np.max(np.abs(rec.entries)))
        assert np.max(np.abs(rec.entries - direct.entries)) < 1e-10 * scale

    def test_outer_coefficient_magnitude_for_radial_mode(self):
        spec = _spec((1.0, 2.0), (0.4,), 3.0, g=3.0 - 4.0j)
        rec = green.layer_coefficients(spec)
        assert abs(rec.b_last) == pytest.approx(5.0, rel=1e-12)


class TestGammaData:
    def test_m0_reflection_strength_is_the_speed_contrast(self):
        spec = SPECS[0]
        x = [np.longdouble(v) for v in spec.profile.jump_points]
        q = complex(green._interface(EXTENDED, spec,
                                     np.longdouble(spec.omega), x, 1).q)
        c1, c2 = spec.profile.speeds
        assert abs(q) == pytest.approx(abs((c2 - c1) / (c2 + c1)),
                                       rel=1e-12)
        g_plus, g_minus = gamma_pm(spec, 1)
        assert q == pytest.approx(g_minus / g_plus, rel=1e-12)
