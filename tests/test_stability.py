"""Stability certifications, growth laws, and the resonance scan."""

import math

import numpy as np
import pytest

from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example,
                             construct_stable_example)
from helmrad.stability import (GrowthLaw, InapplicableProfile,
                               NotInInterference, WindowTooCoarse,
                               certify_beta_bounds, fit_loglinear,
                               green_growth_law, refined_small_z_check,
                               small_z_window, whispering_gallery_scan)


class TestFitLogLinear:
    def test_recovers_an_exact_line(self):
        x = np.linspace(0.0, 5.0, 12)
        slope, intercept, r2 = fit_loglinear(x, 3.0 * x - 1.0)
        assert slope == pytest.approx(3.0)
        assert intercept == pytest.approx(-1.0)
        assert r2 == pytest.approx(1.0)

    def test_constant_data_is_a_perfect_fit(self):
        slope, _, r2 = fit_loglinear([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        assert slope == pytest.approx(0.0)
        assert r2 == 1.0


class TestCertification:
    @pytest.mark.parametrize("make", [construct_localisation_example,
                                      construct_stable_example])
    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_constructed_examples_certify(self, make, n):
        rep = certify_beta_bounds(make(n, 1.0, 3.0))
        assert rep.per_step_ok and rep.majorant_ok
        assert rep.per_step_violations == []
        assert rep.majorant_violations == []

    def test_report_serialises(self):
        rep = certify_beta_bounds(construct_stable_example(3, 1.0, 2.0))
        doc = rep.to_dict()
        assert doc["per_step_ok"] is True
        assert len(doc["log_beta_moduli"]) == 4

    def test_requires_alternating_two_speed_profile(self):
        spec = ProblemSpec(WaveSpeedProfile((0.0, 0.3, 0.6, 1.0),
                                            (1.0, 2.0, 3.0)), omega=4.0)
        with pytest.raises(InapplicableProfile):
            certify_beta_bounds(spec)

    def test_requires_the_radial_mode(self):
        spec = ProblemSpec(WaveSpeedProfile((0.0, 0.5, 1.0), (1.0, 2.0)),
                           mode=1, omega=4.0)
        with pytest.raises(InapplicableProfile):
            certify_beta_bounds(spec)


class TestSmallArgumentScaling:
    def _spec(self, omega=2.0):
        x = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.5, 1.0)
        c = (1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0)
        return ProblemSpec(WaveSpeedProfile(x, c), omega=omega)

    def test_window_picks_only_small_arguments(self):
        spec = self._spec()
        window = small_z_window(spec)
        assert window == [1, 2, 3, 4, 5]
        c1 = max(1.0, spec.profile.c_max) / spec.profile.c_min ** 2
        for ell in window:
            assert spec.z[ell] / spec.profile.c_min < 1.0 / (4.0 * c1)

    def test_cubic_decay_of_the_rotated_imaginary_part(self):
        check = refined_small_z_check(self._spec())
        assert check.min_exponent is not None
        assert check.min_exponent == pytest.approx(3.0, abs=0.05)

    def test_needs_the_radial_mode(self):
        spec = ProblemSpec(WaveSpeedProfile((0.0, 0.5, 1.0), (1.0, 2.0)),
                           mode=2, omega=2.0)
        with pytest.raises(InapplicableProfile):
            refined_small_z_check(spec)


class TestGrowthLaw:
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_closed_form_matches_observation(self, n):
        law = green_growth_law(construct_localisation_example(n, 1.0, 3.0))
        assert isinstance(law, GrowthLaw)
        assert np.allclose(law.predicted_odd_log, law.observed_odd_log,
                           atol=1e-9)
        mask = np.isfinite(law.predicted_even_log)
        assert np.array_equal(mask, np.isfinite(law.observed_even_log))
        assert np.allclose(law.predicted_even_log[mask],
                           law.observed_even_log[mask], atol=1e-9)

    def test_odd_rows_grow_at_the_interference_rate(self):
        law = green_growth_law(construct_localisation_example(6, 1.0, 3.0))
        # innermost odd entry: ((1+q)/(1-q))^(n/2) with q = 1/2
        assert law.predicted_odd_log[0] == pytest.approx(3.0 * math.log(3.0),
                                                         rel=1e-12)

    def test_rejects_non_critical_configurations(self):
        with pytest.raises(NotInInterference):
            green_growth_law(construct_stable_example(4, 1.0, 3.0))


class TestWhisperingGallery:
    def test_finds_the_known_resonance_dip(self):
        res = whispering_gallery_scan(5, 1.0, 2.0, 0.5, (15.66, 15.68),
                                      samples=2001)
        assert 15.66 < res.omega_star < 15.68
        assert res.min_wronskian < 1e-2
        # the trapped mode concentrates inside: |B_1| well above |g| = 1
        assert abs(res.b1) > 1.0

    def test_rejects_windows_that_miss_the_dip(self):
        with pytest.raises(WindowTooCoarse):
            whispering_gallery_scan(5, 1.0, 2.0, 0.5, (16.2, 16.3),
                                    samples=50)

    @pytest.mark.parametrize("samples", [0, -3, 2])
    def test_refuses_fewer_than_three_samples(self, samples):
        with pytest.raises(ValueError, match="at least 3 samples"):
            whispering_gallery_scan(5, 1.0, 2.0, 0.5, (15.66, 15.68),
                                    samples=samples)

    @pytest.mark.parametrize("window", [
        (1.0, math.inf), (-math.inf, 2.0), (0.0, 2.0), (-1.0, 2.0),
        (math.nan, 2.0)])
    def test_refuses_a_window_bound_not_positive_and_finite(self, window):
        """Before anything is evaluated: numpy's RuntimeWarning on an
        infinite grid would otherwise come first (an error in this suite)."""
        with pytest.raises(ValueError, match="positive and finite"):
            whispering_gallery_scan(2, 1.0, 2.0, 0.5, window)

    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            whispering_gallery_scan(5, 2.0, 1.0, 0.5, (15.0, 16.0))
        with pytest.raises(ValueError):
            whispering_gallery_scan(5, 1.0, 2.0, 1.5, (15.0, 16.0))
