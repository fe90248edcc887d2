"""Profiles, problem configuration, serialisation, constructed examples."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmrad.problem import (ProblemSpec, WaveSpeedProfile, _real,
                             construct_localisation_example,
                             construct_stable_example,
                             is_localisation_interference, relative_jumps,
                             validate)

from interface_oracles import kappa


def _profile(*speeds, cuts=None):
    n = len(speeds) - 1
    if cuts is None:
        cuts = [(k + 1) / (n + 1) for k in range(n)]
    return WaveSpeedProfile((0.0, *cuts, 1.0), tuple(speeds))


class TestValidation:
    def test_accepts_single_layer(self):
        p = WaveSpeedProfile((0.0, 1.0), (2.0,))
        assert p.num_layers == 1 and p.num_interfaces == 0

    def test_rejects_bad_endpoints(self):
        assert any("first jump" in v.reason for v in validate(
            type("P", (), {"jump_points": (0.1, 1.0), "speeds": (1.0,)})))
        assert any("last jump" in v.reason for v in validate(
            type("P", (), {"jump_points": (0.0, 0.9), "speeds": (1.0,)})))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            WaveSpeedProfile((0.0, 0.6, 0.4, 1.0), (1.0, 2.0, 1.0))

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError, match="positive"):
            WaveSpeedProfile((0.0, 0.5, 1.0), (1.0, -2.0))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="jump points"):
            WaveSpeedProfile((0.0, 0.3, 0.6, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="at least one layer"):
            WaveSpeedProfile((0.0, 1.0), ())

    def test_spec_rejects_bad_dimension_mode_frequency(self):
        p = _profile(1.0, 2.0)
        with pytest.raises(ValueError):
            ProblemSpec(p, dimension=2)
        with pytest.raises(ValueError):
            ProblemSpec(p, dimension=1, mode=1)
        with pytest.raises(ValueError):
            ProblemSpec(p, omega=0.0)
        for bad in (dict(dimension=3.5), dict(dimension=True),
                    dict(mode=2.7), dict(mode=True), dict(mode=np.bool_(1)),
                    dict(boundary_coefficient=complex(math.nan, 0.0)),
                    dict(boundary_coefficient=complex(math.inf, 0.0))):
            with pytest.raises(ValueError):
                ProblemSpec(p, **bad)

    def test_spec_accepts_numpy_integers(self):
        spec = ProblemSpec(_profile(1.0, 2.0), dimension=np.int64(3),
                           mode=np.int32(2))
        assert (spec.dimension, spec.mode) == (3, 2)

    @staticmethod
    def _doc(**overrides):
        doc = ProblemSpec(_profile(1.0, 2.0), omega=3.0).to_dict()
        doc.update(overrides)
        return doc

    @pytest.mark.parametrize("omega", [True, "3.0", None, 3.0 + 0.0j])
    def test_rejects_non_real_frequency(self, omega):
        with pytest.raises(ValueError, match="frequency"):
            ProblemSpec.from_dict(self._doc(omega=omega))
        with pytest.raises(ValueError, match="frequency"):
            ProblemSpec(_profile(1.0, 2.0), omega=omega)

    @pytest.mark.parametrize("speeds", [[True, 2.0], [1.0, "2"],
                                        [1.0, np.bool_(True)]])
    def test_rejects_non_real_speeds(self, speeds):
        with pytest.raises(ValueError, match="wave speed"):
            ProblemSpec.from_dict(self._doc(speeds=speeds))

    @pytest.mark.parametrize("jump_points", [[0, "0.4", 1], [False, 0.5, 1],
                                             [0.0, 0.5, True]])
    def test_rejects_non_real_jump_points(self, jump_points):
        with pytest.raises(ValueError, match="jump point"):
            ProblemSpec.from_dict(self._doc(jump_points=jump_points))

    @pytest.mark.parametrize("g", [[True, 0.0], [1.0, "0"]])
    def test_rejects_non_real_boundary_coefficient(self, g):
        with pytest.raises(ValueError, match="boundary coefficient"):
            ProblemSpec.from_dict(self._doc(boundary_coefficient=g))

    def test_accepts_numpy_and_integer_reals(self):
        spec = ProblemSpec.from_dict(self._doc(
            omega=np.float32(3.0), speeds=[1, np.float64(2.0)],
            jump_points=[0, 0.5, 1]))
        assert spec.omega == 3.0 and type(spec.omega) is float
        assert spec.profile.speeds == (1.0, 2.0)
        assert spec.profile.jump_points == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("value", [
        np.float64(0.25), 1, Fraction(1, 4), type("Sub", (float,), {})(0.25)])
    def test_real_accepts_every_real(self, value):
        assert _real(value, "x") == float(value)
        assert type(_real(value, "x")) is float

    @pytest.mark.parametrize("value", [True, "1", 1j, None])
    def test_real_refuses_what_is_not_real(self, value):
        with pytest.raises(ValueError,
                           match=f"x must be a real number, got {value!r}"):
            _real(value, "x")

    def test_numpy_integers_round_trip_through_json(self):
        spec = ProblemSpec(_profile(1.0, 2.0), dimension=np.int64(3),
                           mode=np.int64(2), omega=np.float64(3.5))
        assert type(spec.dimension) is int and type(spec.mode) is int
        assert ProblemSpec.from_json(spec.to_json()) == spec


class TestDerivedQuantities:
    def test_layer_of_boundaries_belong_left(self):
        p = _profile(1.0, 2.0, 3.0)
        assert p.layer_of(0.0) == 1
        assert p.layer_of(1.0 / 3.0) == 1
        assert p.layer_of(0.5) == 2
        assert p.layer_of(1.0) == 3

    def test_z_delta_kappa(self):
        p = _profile(2.0, 4.0, cuts=[0.25])
        s = ProblemSpec(p, omega=8.0)
        assert np.allclose(s.z, [0.0, 2.0, 8.0])
        assert np.allclose(s.delta, [8.0 * 0.25 / 2.0, 8.0 * 0.75 / 4.0])
        assert kappa(s, 2, 1) == pytest.approx(0.5)

    def test_angular_eigenvalue(self):
        p = _profile(1.0)
        assert ProblemSpec(p, mode=3).angular_eigenvalue == 3 * 4
        assert ProblemSpec(p, dimension=1).angular_eigenvalue == 0.0

    def test_relative_jumps_in_open_interval(self):
        q = relative_jumps(_profile(1.0, 3.0, 0.5))
        assert np.all(np.abs(q) < 1.0)
        assert q[0] == pytest.approx(0.5)


@st.composite
def _specs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    cuts = sorted(draw(st.lists(
        st.floats(min_value=0.01, max_value=0.99),
        min_size=n, max_size=n, unique=True)))
    speeds = draw(st.lists(st.floats(min_value=0.1, max_value=10.0),
                           min_size=n + 1, max_size=n + 1))
    d = draw(st.sampled_from([1, 3]))
    m = draw(st.integers(min_value=0, max_value=4)) if d == 3 else 0
    return ProblemSpec(
        WaveSpeedProfile((0.0, *cuts, 1.0), tuple(speeds)),
        dimension=d, mode=m,
        omega=draw(st.floats(min_value=0.01, max_value=100.0)),
        boundary_coefficient=complex(
            draw(st.floats(min_value=-5, max_value=5)),
            draw(st.floats(min_value=-5, max_value=5))))


@settings(max_examples=60, deadline=None)
@given(spec=_specs())
def test_json_round_trip_is_exact(spec):
    again = ProblemSpec.from_json(spec.to_json())
    assert again == spec


class TestConstructedExamples:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_localised_widths_proportional_to_speeds(self, n):
        s = construct_localisation_example(n, 1.0, 3.0)
        w = s.profile.widths
        c = np.asarray(s.profile.speeds)
        assert np.allclose(w / c, w[0] / c[0], rtol=1e-12)
        assert s.omega == pytest.approx(math.pi / 2 * sum(s.profile.speeds))

    def test_localised_phase_factors_are_minus_i(self):
        s = construct_localisation_example(4, 1.0, 3.0)
        for dl in s.delta:
            assert cmath.exp(-1j * dl) == pytest.approx(-1j, abs=1e-12)
        assert is_localisation_interference(s)

    def test_stable_phase_factors_are_minus_one(self):
        s = construct_stable_example(4, 1.0, 3.0)
        for dl in s.delta:
            assert cmath.exp(-1j * dl) == pytest.approx(-1.0, abs=1e-12)
        assert not is_localisation_interference(s)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            construct_localisation_example(0, 1.0, 3.0)
        with pytest.raises(ValueError):
            construct_localisation_example(2, 3.0, 1.0)

    @pytest.mark.parametrize("make", [construct_localisation_example,
                                      construct_stable_example])
    @pytest.mark.parametrize("c2", [1e308, math.inf])
    def test_rejects_speeds_whose_omega_overflows(self, make, c2):
        """(pi/2) sum c_j overflows: every width would round to 0."""
        with pytest.raises(ValueError, match="omega, .* is not finite"):
            make(3, 1.0, c2)

    @pytest.mark.parametrize("make", [construct_localisation_example,
                                      construct_stable_example])
    @pytest.mark.parametrize("c1,c2", [(1e-320, 2e-320), (1e-308, 1e10)])
    def test_rejects_widths_below_the_normal_range(self, make, c1, c2):
        """Subnormal speeds round c/omega (x_1 = 0.1666754 for 1/6), and
        a normal 1e-308 beside 1e10 gives the subnormal width 1e-318."""
        with pytest.raises(ValueError, match="below the normal double"):
            make(3, c1, c2)

    def test_interference_needs_alternating_sign_pattern(self):
        # same speeds on both sides => q = 0, not an interference profile
        p = _profile(2.0, 2.0)
        assert not is_localisation_interference(ProblemSpec(p, omega=1.0))
        # every phase factor -i, as in the localised example, but the jumps
        # alternate from q_1 < 0
        speeds = (3.0, 1.0, 3.0, 1.0, 3.0)
        x = tuple(np.cumsum((0.0,) + speeds) / sum(speeds))
        s = ProblemSpec(WaveSpeedProfile(x, speeds),
                        omega=math.pi / 2 * sum(speeds))
        for dl in s.delta:
            assert cmath.exp(-1j * dl) == pytest.approx(-1j, abs=1e-12)
        assert relative_jumps(s.profile)[0] < 0
        assert not is_localisation_interference(s)
