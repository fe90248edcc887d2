"""The banded route's a-posteriori acceptance and its mpmath escalation.

The refined extended-precision solve is accepted on its own convergence
and componentwise backward error; when it is refused, the same solve runs
once more on the band scaled by powers of two, and the banded elimination
in mpmath runs only when that is refused too, and returns only answers its
residual confirms.
Every answer is compared with the raw system solved densely in mpmath
(``interface_oracles.raw_solve_mp``), which shares no code with either
tier.  Also covers the array Wronskian behind the whispering-gallery scan
and the reused command-line parser.
"""

import itertools
import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from helmrad import assembly, cli, green
from helmrad.assembly import SingularSystem, normalize
from helmrad.evaluate import (energy_norm, interface_residuals, solve,
                              solve_direct, sup_radial)
from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example,
                             construct_stable_example, random_spec)
from helmrad.specfun import FundamentalPair, mp_tier, wronskian_w
from helmrad.stability import single_interface_wronskian
from interface_oracles import (former_b_last, former_coefficient_vector,
                               former_envelope, raw_solve_mp, to_dense)
from populations import FAULT_C, FAULT_D, high_mode_population

EPS = np.finfo(np.longdouble).eps

# high-mode specs, literals as stored with the benchmark's population
# A_2 is about 1e-828, below the smallest double
TINY_A2 = dict(dimension=3, mode=50, omega=5.352878199020918,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 1e-08, 1.0],
               speeds=[9.385380815093153, 0.17982042923902544])
# a nearly transparent interface: the speeds differ by one unit in the
# last place, so w^{2,2} cancels 15.4 digits whichever form it is written
# in (the shifted form cancels the contrast 1/c_P^2 - 1/c_Q^2), while the
# system itself is well conditioned
TRANSPARENT = dict(dimension=3, mode=2, omega=3.0,
                   boundary_coefficient=[1.0, 0.0],
                   jump_points=[0.0, 1e-3, 1.0],
                   speeds=[1.0, 1.0000000000000002])


# two profiles drawn at random (numpy seed 2026, the 41st and 72nd draws of
# d, m, n, layer widths, speeds and omega) whose B_N, 3.0e354 and 4.4e308,
# lies past the double range
HUGE_B_N = [
    dict(dimension=3, mode=55, omega=0.0003064586447003135,
         boundary_coefficient=[1.0, 0.0],
         jump_points=[0.0, 8.32703490603534e-07, 1.0],
         speeds=[0.07922666256851368, 20.963647870496786]),
    dict(dimension=3, mode=49, omega=0.0001021394792388549,
         boundary_coefficient=[1.0, 0.0],
         jump_points=[0.0, 0.9125559352173449, 0.9891209957504772, 1.0],
         speeds=[1.3708640341258163, 6.913811059786984, 5.598504155675222])]


# oracle seed 13 spec 66 of the benchmark: its unscaled refinement stalls
# at about 1e-17 of max|x|, with steps 6.3e-15, 1.1e-17, 1.1e-17
STALLED = dict(dimension=3, mode=4, omega=48.41608516306553,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 0.11233406125180749, 0.25232618322371875,
                            0.2726263065348181, 0.2863823042521315,
                            0.29518240545200153, 0.2954527871748956,
                            0.30634102853241424, 0.33237411449199694,
                            0.3536656182057979, 0.38718394101996073,
                            0.4481896858000965, 0.5589429802367342,
                            0.5971847570825096, 0.6043647092687955,
                            0.6098133506437502, 0.6816864602221705,
                            0.6870176383080916, 0.9005333612530856,
                            0.9370511734742666, 0.9377203161153662, 1.0],
               speeds=[1.3205658367061481, 2.5804349746651787,
                       3.0661590366772487, 1.4179152833815545,
                       1.3142043452677132, 3.2389139892761007,
                       3.6934944592247403, 2.195756281908795,
                       2.2322824442498415, 0.9547655088549435,
                       2.0665119918756263, 0.5513973482796529,
                       1.37026249994263, 2.845562043449852,
                       3.2608590126649317, 2.448800506277417,
                       1.6616694874474889, 1.724908517175316,
                       3.100515182768474, 3.617606856455557,
                       1.5260059451808385])

# high-mode specs whose A_2 lies below the double range
BELOW_RANGE = (6, 9, 12, 18, 20, 21, 23, 24, 26, 32)
# high-mode specs the unscaled refinement refuses and the scaled attempt
# solves; those whose blocks lost 16 digits or more, and went to mpmath,
# while w^{2,2} and w^{1,1} were formed from the slopes; and the one of
# them that still goes to mpmath, its extended attempts refused on their
# componentwise backward error
SCALED = (4, 7, 8, 13, 15, 25, 27)
BLOCK_LOSS = (6, 9, 12, 16, 18, 20, 21, 22, 23, 24, 26, 32)
REFUSED = (24,)

# the specs of the oracle population at seed 20260823 whose normwise
# condition number, times the blocks' cancellation, exceeded 1e-12 while
# w^{2,2} and w^{1,1} were formed from the slopes; 126 and 166 no longer
# pass that bound
FORMERLY_ESCALATED = (7, 13, 18, 23, 27, 33, 34, 36, 45, 46, 48, 67, 71, 80,
                      82, 83, 89, 105, 123, 126, 147, 150, 153, 155, 160,
                      166, 177, 184, 188, 193, 196)


def _normwise(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _forced_mp(spec, digits=assembly._MP_DIGITS):
    x, _ = assembly._solve_mp(normalize(spec), digits)
    return x


def _rhs(system):
    b = np.zeros(2 * system.n, dtype=system.band.dtype)
    b[-1] = system.b_last
    return b


def _block_entries(n):
    """The band positions of the 4n diagonal-block entries of an n-interface
    system, block by block in row-major order; the couplings left out."""
    return [(row, 2 * ell + col) for ell in range(n)
            for row, col in ((1, 0), (0, 1), (2, 0), (1, 1))]


def _refined(system, band, b, factored=None, scaled=False):
    """An extended attempt: ``band`` refined with the correction solve of
    the double factors of ``factored`` (by default ``band`` itself), None
    where the blocks leave too few digits or there are no factors."""
    if not assembly._digits_left(system, EPS):
        return None
    solve = assembly._double_solve(band if factored is None else factored, b)
    return solve and assembly._refine(system, band, solve, b, EPS, scaled)


def _row_factors(rows):
    """Per band entry, the factor that multiplies row i of the matrix by
    rows[i]."""
    factors = np.ones((3, len(rows)), dtype=rows.dtype)
    factors[0, 1:], factors[1], factors[2, :-1] = rows[:-1], rows, rows[1:]
    return factors


def _perturbed_lu(entry, factor):
    """``assembly._tridiag_lu`` of its band with one ``entry`` multiplied
    by ``factor``: wrong factors for the mpmath refinement."""
    lu = assembly._tridiag_lu

    def perturbed(band):
        wrong = band.copy()
        wrong[entry] *= factor
        return lu(wrong)
    return perturbed


@pytest.fixture(scope="module")
def formerly_escalated():
    """The oracle-200 specs whose normwise condition number sent them to
    mpmath, with their raw-system references."""
    rng = np.random.default_rng(20260823)
    specs = [random_spec(rng) for _ in range(200)]
    return [(specs[i], raw_solve_mp(specs[i])) for i in FORMERLY_ESCALATED]


@pytest.fixture
def no_mp(monkeypatch):
    def refuse(system, digits):
        raise AssertionError("escalated to arbitrary precision")
    monkeypatch.setattr(assembly, "_solve_mp", refuse)


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
            sol, resid = solve_direct(spec)
            assert resid < 1e-15
            assert _normwise(sol.coeffs.entries, ref) <= 1e-13

    def test_wrong_refined_solve_escalates(self, mp_calls):
        """Refined with the unscaled double factors, the corrections of
        fault (c) read 1.0, 2.9e15, 1.6e4 of max|x|, and the answer is
        refused; the scaled attempt then solves it right, without
        mpmath."""
        spec = ProblemSpec.from_dict(FAULT_C)
        system = normalize(spec)
        assert _refined(system, system.band, _rhs(system)) is None
        coeffs = solve_direct(spec)[0].coeffs
        assert mp_calls == []
        assert _normwise(coeffs.entries, raw_solve_mp(spec)) <= 1e-13

    def test_badly_scaled_high_mode_system_solves(self):
        spec = ProblemSpec.from_dict(FAULT_D)
        coeffs = solve_direct(spec)[0].coeffs
        assert _normwise(coeffs.entries, raw_solve_mp(spec)) <= 1e-13

    def test_refused_mp_solve_raises_without_a_retry(self, monkeypatch,
                                                     mp_calls):
        """With its mpmath factors off by half in one diagonal entry, the
        refinement of the stable n = 8 system never settles, its
        corrections only halving, and that one refusal raises: no second
        attempt runs at more digits."""
        monkeypatch.setattr(assembly, "_tridiag_lu",
                            _perturbed_lu((1, 1), 1.5))
        with pytest.raises(SingularSystem):
            solve_direct(construct_stable_example(8, 1.0, 3.0))
        assert mp_calls == [assembly._MP_DIGITS]

    def test_layer_of_zero_terms_is_refused_in_mpmath(self, mp_calls):
        """Speeds 1e-300 and 1e300: a layer's terms are all 0, which
        numpy's 0/0 reads as not settled and mpmath would divide by; the
        mpmath tier refuses the answer as the extended one does."""
        spec = ProblemSpec(WaveSpeedProfile((0.0, 0.5, 1.0), (1e-300, 1e300)),
                           dimension=1, omega=3.0)
        for route in (solve, solve_direct):
            with pytest.raises(SingularSystem,
                               match="arbitrary-precision solve refused"):
                route(spec)
        assert mp_calls == [assembly._MP_DIGITS] * 2

    def test_negligible_coefficient_below_double_range_is_zero(self,
                                                              mp_calls):
        """A_2 is about 1e-828, and its term lies hundreds of digits below
        B_2's in layer 2, so it becomes 0; B_1 and B_2 keep the values of
        a 150-digit solve, found in extended precision."""
        spec = ProblemSpec.from_dict(TINY_A2)
        coeffs = solve_direct(spec)[0].coeffs
        assert mp_calls == []
        system = normalize(spec)
        x, _ = assembly._solve_mp(system, 150)
        assert coeffs.a(2) == 0.0 and abs(x[1]) < mp.mpf("1e-800")
        for got, ref in ((coeffs.b(1), x[0]),
                         (coeffs.b(2), system.b_last)):
            assert abs(got - complex(ref)) <= 1e-15 * abs(ref)


class TestScaledAttempt:
    """A refused extended solve is tried once more on the band scaled by
    powers of two, before mpmath; the refinement stops when its step stops
    halving and accepts a last step within 1e-15 of every layer's terms."""

    @pytest.mark.parametrize("index", SCALED)
    def test_refused_high_mode_specs_stay_in_extended(self, index, no_mp):
        spec = high_mode_population()[index]
        sol, resid = solve_direct(spec)
        assert resid < 1e-15
        assert _normwise(sol.coeffs.entries, raw_solve_mp(spec)) <= 1e-13

    @pytest.mark.parametrize("index", sorted(set(BLOCK_LOSS) - set(REFUSED)))
    def test_formerly_cancelling_specs_stay_in_extended(self, index, no_mp):
        """Formed from the shifted orders, these blocks cancel at most half
        a digit, where their slopes cancelled 16 to 545; the residual of
        spec 9's scaled attempt, about 1e-390, no longer flushes to 0 in
        the cast to double."""
        spec = high_mode_population()[index]
        assert normalize(spec).block_loss <= 0.5
        sol, resid = solve_direct(spec)
        assert resid < 1e-15
        assert _normwise(sol.coeffs.entries, raw_solve_mp(spec)) <= 1e-13

    @pytest.mark.parametrize("index", REFUSED)
    def test_refused_spec_escalates_once(self, index, mp_calls):
        spec = high_mode_population()[index]
        coeffs = solve_direct(spec)[0].coeffs
        assert mp_calls == [assembly._MP_DIGITS]
        assert _normwise(coeffs.entries, raw_solve_mp(spec)) <= 1e-13

    @pytest.mark.parametrize("build", [construct_localisation_example,
                                       construct_stable_example],
                             ids=["localised", "stable"])
    def test_families_escalate_where_they_did(self, build, monkeypatch):
        """n = 5 to 64 go to mpmath, as before the scaled attempt: there
        the blocks cancel 14 to 19 digits, except stable n = 16, where
        both extended attempts are refused."""
        class Escalated(Exception):
            pass

        def escalate(system, digits):
            raise Escalated
        monkeypatch.setattr(assembly, "_solve_mp", escalate)
        escalated = []
        for n in range(1, 65):
            try:
                solve_direct(build(n, 1.0, 3.0))
            except Escalated:
                escalated.append(n)
        assert escalated == list(range(5, 65))

    def test_too_few_digits_factor_nothing_in_extended(self, monkeypatch,
                                                       mp_calls):
        """Localised n = 16: its blocks cancel past what extended precision
        keeps, so neither extended attempt factors the band, and mpmath
        answers."""
        factored = []
        double_solve = assembly._double_solve

        def spy(band, b):
            factored.append(band)
            return double_solve(band, b)
        monkeypatch.setattr(assembly, "_double_solve", spy)
        spec = construct_localisation_example(16, 1.0, 3.0)
        assert not assembly._digits_left(normalize(spec), EPS)
        solve_direct(spec)
        assert factored == [] and mp_calls == [assembly._MP_DIGITS]

    def test_stalled_refinement_is_accepted(self, no_mp):
        """The halving rule sent this spec to mpmath: its third step is
        not half its second.  The steps stall below 1e-15 of every
        layer's terms, so the unscaled refinement keeps its answer, and
        the answer is right."""
        spec = ProblemSpec.from_dict(STALLED)
        system = normalize(spec)
        x, resid = _refined(system, system.band, _rhs(system))
        assert resid < 1e-15
        ref = raw_solve_mp(spec)
        assert _normwise(x.astype(complex), ref) <= 1e-13
        assert _normwise(solve_direct(spec)[0].coeffs.entries, ref) <= 1e-13

    def test_step_rule_alone_refuses_a_diverging_refinement(self,
                                                           monkeypatch):
        """With the backward-error test out of the way, fault (c)'s
        unscaled refinement, whose second correction is 2.9e15 max|x|,
        is still refused: its steps stop halving far from settled."""
        monkeypatch.setattr(assembly, "_BERR_ULPS", math.inf)
        system = normalize(ProblemSpec.from_dict(FAULT_C))
        assert _refined(system, system.band, _rhs(system)) is None

    @pytest.mark.parametrize("scaled", [False, True],
                             ids=["unscaled", "scaled"])
    def test_perturbed_factors_are_refused_or_corrected(self, scaled):
        """Refined against the true band with the factors of a band whose
        one diagonal-block entry is off by 1e-8 or 1e-4, every answer is
        either refused or the unperturbed one; both happen on the high-mode
        population.  (Off by 1e-8 alone, the scaled attempt corrects all
        316 with B_N in extended precision as its right-hand side.)"""
        outcomes = set()
        for spec in high_mode_population():
            system = normalize(spec)
            if not spec.n or system.block_loss >= 12 - math.log10(
                    np.finfo(system.band.real.dtype).eps):
                continue
            band, b = system.band, _rhs(system)
            if scaled:
                band, rows = assembly._equilibrated(system)
                b = rows * b
            unperturbed = _refined(system, band, b, scaled=scaled)
            if not unperturbed:
                continue
            for entry, off in itertools.product(
                    _block_entries(system.n), (1e-8, 1e-4)):
                wrong = system.band.copy()
                wrong[entry] *= 1 + off
                if scaled:
                    # the true band's scaling, applied to the wrong one
                    wrong = wrong / system.scales[:-1] * _row_factors(rows)
                if assembly._double_solve(wrong, b) is None:
                    continue
                got = _refined(system, band, b, wrong, scaled)
                if got is not None:
                    assert np.max(np.abs(got[0] - unperturbed[0])
                                  / np.abs(unperturbed[0])) <= 1e-13
                outcomes.add(got is None)
        assert outcomes == {False, True}


class TestHighModeAnswers:
    """Every high-mode banded answer, whichever attempt gives it."""

    def test_every_answer_agrees_with_the_raw_system(self, mp_calls):
        """Only spec 24 still goes to mpmath."""
        escalated = []
        for index, spec in enumerate(high_mode_population()):
            del mp_calls[:]
            sol, resid = solve_direct(spec)
            escalated += [index] * len(mp_calls)
            assert resid < 1e-15
            if spec.n:
                assert _normwise(sol.coeffs.entries,
                                 raw_solve_mp(spec)) <= 1e-13
        assert escalated == list(REFUSED)

    def test_one_residual_for_every_attempt(self):
        """The residual reported is the componentwise backward error,
        which no scaling of rows or unknowns changes, so the scaled
        attempt's system and the system's own read alike.  As a relative
        residual with the rows alone scaled by powers of two, the right
        answers of specs 15 and 27 read 6.4e12 and 3e60: their unknowns
        span hundreds of decades."""
        population = high_mode_population()
        for index in (15, 25, 27) + REFUSED:
            spec = population[index]
            _, berr = solve_direct(spec)
            assert berr <= 16 * np.finfo(np.longdouble).eps
            system = normalize(spec)
            band, b = system.band, _rhs(system)
            scaled, rows = assembly._equilibrated(system)
            x = raw_solve_mp(spec).astype(np.clongdouble)
            y = x * system.scales[:-1]
            assert assembly._backward_error(
                band, np.abs(x), b, b - assembly._band_matvec(band, x)) \
                == pytest.approx(assembly._backward_error(
                    scaled, np.abs(y), rows * b,
                    rows * b - assembly._band_matvec(scaled, y)), rel=1e-9)

    def test_a_tiny_right_hand_side_is_not_flushed(self):
        """The correction is solved in double with the residual in units
        of a power of two: a right-hand side 2**-1200 times another gives
        2**-1200 times its answer, bit for bit; cast as it stands, it would
        flush to 0."""
        spec = high_mode_population()[0]
        system = normalize(spec)
        band, b = system.band, _rhs(system)
        tiny = np.ldexp(np.longdouble(1), -1200)
        x, _ = _refined(system, band, b)
        solved = _refined(system, band, b * tiny)
        assert solved and np.array_equal(solved[0], x * tiny)


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
    @pytest.mark.parametrize("doc", HUGE_B_N, ids=["draw41", "draw72"])
    def test_boundary_coefficient_past_the_double_range_raises(
            self, route, doc, mp_calls):
        """B_N rounded to a double is inf: as the right-hand side it sent
        every attempt an infinite residual, with RuntimeWarnings, and
        mpmath twice, then raised SingularSystem.  B_N in extended
        precision is solved by the first attempt, and a coefficient of
        layer 2, outside the double range and not negligible, raises
        OverflowError, with no warning and no mpmath."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="layer 2"):
                route(ProblemSpec.from_dict(doc))
        assert mp_calls == []

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
        assert complex(normalize(spec).b_last) == 0
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


def _outcome(rule, *args):
    """What the double-range rule made of ``args``: the entries and B_N as
    bytes, or the type of its exception."""
    try:
        coeffs = rule(*args)
    except OverflowError as exc:
        return type(exc)
    return coeffs.entries.tobytes(), np.complex128(coeffs.b_last).tobytes()


class TestOuterColumn:
    """B_N and the double-range envelope read the solve's one pair
    evaluation, its column at kappa = omega/c_N and those at a layer's
    ends, where they used to evaluate the pair themselves
    (``interface_oracles.former_b_last`` and
    ``former_coefficient_vector``).  Nothing changes: B_N keeps its bits,
    and the rule its keep, flush and raise decisions and its entries,
    although the envelope's arguments now round as (omega x)/c rather than
    (omega/c) x."""

    @pytest.fixture(scope="class")
    def population(self):
        rng = np.random.default_rng(20260823)
        return high_mode_population() + [random_spec(rng)
                                         for _ in range(200)]

    def test_b_last_bit_for_bit(self, population):
        for spec in population:
            for at in (green.recursion(green.EXTENDED, spec)[0].pair,
                       normalize(spec).pair):
                got = assembly.b_last_extended(spec, at)
                want = former_b_last(spec)
                for a, b in ((got.real, want.real), (got.imag, want.imag)):
                    assert a == b and np.signbit(a) == np.signbit(b)

    def test_envelope_decides_as_before(self, population, monkeypatch):
        """On both routes' calls, and on the banded route's with each
        layer j > 1 set up to straddle the rule: B_j a normal double just
        above the range's floor (B_N through ``b_last``) and A_j below it,
        its term a factor e below, then above, the negligible threshold by
        ``former_envelope``.  A wrong column or a wrong envelope moves the
        term by more than that; both flushes and raises occur."""
        rule, calls = assembly.coefficient_vector, []

        def spy(banded):
            def both(spec, log_mag, formed, b_last, at):
                calls.append((banded, spec, log_mag, formed, b_last, at))
                want = _outcome(former_coefficient_vector, spec, log_mag,
                                formed, b_last)
                assert _outcome(rule, spec, log_mag, formed, b_last,
                                at) == want
                return rule(spec, log_mag, formed, b_last, at)
            return both
        for module in (assembly, green):
            monkeypatch.setattr(module, "coefficient_vector",
                                spy(module is assembly))
        for spec in population:
            for route in (solve, solve_direct):
                try:
                    route(spec)
                except (OverflowError, SingularSystem):
                    pass
        outside = sum(not np.all((log >= assembly._LOG_TINY)
                                 & (log <= assembly._LOG_MAX))
                      for _, _, log, *_ in calls)
        assert outside >= len(BELOW_RANGE)
        decisions = set()
        floor = assembly._LOG_TINY + 1.0
        for banded, spec, log_mag, formed, b_last, at in calls:
            for j in range(2, spec.n + 2) if banded else ():
                env = former_envelope(spec, j)
                for delta in (-1.0, 1.0):
                    pushed, b = log_mag.copy(), b_last
                    if j <= spec.n:
                        pushed[2 * j - 2] = floor
                    else:
                        b = b_last / abs(b_last) * np.exp(np.longdouble(floor))
                    pushed[2 * j - 3] = floor + float(env[1] - env[0]) \
                        + assembly._LOG_EPS + delta
                    want = _outcome(former_coefficient_vector, spec, pushed,
                                    formed, b)
                    assert _outcome(rule, spec, pushed, formed, b, at) == want
                    decisions.add(want is OverflowError)
        assert decisions == {False, True}


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
        # [[1, 2], [2, 4]], a singular last pivot, and [[0, 2], [0, 4]], a
        # zero column inside the elimination, in band layout
        for (a, b), (c, d), column in (((1, 2), (2, 4), 1),
                                       ((0, 2), (0, 4), 0)):
            with mp.workdps(30):
                band = np.array([[0, mp.mpc(b)], [mp.mpc(a), mp.mpc(d)],
                                 [mp.mpc(c), 0]], dtype=object)
                with pytest.raises(SingularSystem,
                                   match=f"zero pivot in column {column}$"):
                    assembly._tridiag_lu(band)

    def test_too_few_digits_fail_the_residual_check(self):
        # 10 working digits cannot resolve this system; the answer must
        # not come back
        with pytest.raises(SingularSystem):
            _forced_mp(ProblemSpec.from_dict(FAULT_D), 10)

    def test_tiny_step_vouches_for_no_more_than_the_roundoff(self):
        """At 20 digits the refinement step here is 0, while 15.4 digits
        cancel in the blocks and leave the answer's entries off by up to
        1.3e-6.  The step test floors the step at 10**-digits, so this
        answer is refused; at the working 75 digits it is accepted."""
        spec = ProblemSpec.from_dict(TRANSPARENT)
        with pytest.raises(SingularSystem):
            _forced_mp(spec, 20)
        assert _normwise(_forced_mp(spec), raw_solve_mp(spec)) <= 1e-13

    def test_high_mode_escalations_pass_at_the_working_digits(self,
                                                              mp_calls):
        """The floor on the step refuses no high-mode answer at 75
        digits: every escalation runs once."""
        escalated = 0
        for spec in high_mode_population():
            del mp_calls[:]
            solve_direct(spec)
            assert mp_calls in ([], [assembly._MP_DIGITS])
            escalated += bool(mp_calls)
        assert escalated > 0

    def test_block_cancellation_leaves_enough_digits_at_75(self):
        """30 of the blocks' digits cancel here, at m = 0, where w^{2,2}
        has no kappa term to shed, and 45 are left.  A per-entry step test
        scaled by that cancellation refused this answer at 75 digits, on
        entries that vanish in truth beside O(1) siblings, and reran it at
        150; judged like the extended answers, it is accepted at 75, and
        right."""
        spec = construct_stable_example(8, 1.0, 3.0)
        with mp.workdps(assembly._MP_DIGITS):
            assert assembly._blocks(mp_tier(), spec)[1] > 30
        assert _normwise(_forced_mp(spec), raw_solve_mp(spec)) <= 1e-13

    @pytest.mark.parametrize("n", [5, 8, 16, 64])
    def test_stable_family_takes_one_mp_solve(self, n, mp_calls):
        spec = construct_stable_example(n, 1.0, 3.0)
        sol, _ = solve_direct(spec)
        assert mp_calls == [assembly._MP_DIGITS]
        assert _normwise(sol.coeffs.entries, raw_solve_mp(spec)) <= 1e-13

    @pytest.mark.parametrize("factor", [1.5, 1 + 1e-8])
    def test_wrong_mp_factors_are_refused_or_corrected(self, factor,
                                                       monkeypatch):
        """The mpmath tier's answer is judged by the extended tier's rule.
        Refined against the true band with the factors of one whose
        diagonal entry (1, 2) is off by half, its corrections shrink by a
        factor of about 4 a sweep and never settle: refused.  Off by 1e-8,
        they shrink by about 1e8 and the answer is accepted, and right.
        At 30 digits: five sweeps of a 1e-8 contraction reach that tier's
        eps, not the 75-digit one, so there the slightly wrong factors are
        refused too."""
        spec = ProblemSpec.from_dict(FAULT_C)
        monkeypatch.setattr(assembly, "_tridiag_lu",
                            _perturbed_lu((1, 2), factor))
        if factor == 1.5:
            with pytest.raises(SingularSystem):
                _forced_mp(spec, 30)
        else:
            assert _normwise(_forced_mp(spec, 30), raw_solve_mp(spec)) \
                <= 1e-13


class TestBandStorage:
    @pytest.mark.parametrize("doc", [FAULT_C, FAULT_D])
    def test_band_holds_the_block_tridiagonal_matrix(self, doc):
        """The dense matrix takes its diagonal blocks out of the band and
        places R_HAT and T_HAT itself: the band's couplings and zeros are
        checked against them."""
        system = normalize(ProblemSpec.from_dict(doc))
        M = to_dense(system)
        band = system.band
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
