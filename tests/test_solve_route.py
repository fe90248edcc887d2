"""The production route: ``evaluate.solve`` returns the extended recursion's
answer only when the recursion's own estimate passes and the coefficients'
interface backward error is within 1e-9, and the banded route's answer
otherwise, with one debug record on the ``helmrad`` logger per fallback.

Answers are judged per layer against the raw interface system solved
densely in mpmath (``interface_oracles.raw_solve_mp``) at p and 2p digits,
counted only where the two references agree.  The gate is proved two ways:
mpmath-exact coefficients pass and perturbed ones are flagged, and it
agrees with an mpmath evaluation of the interface residuals
(``interface_oracles.exact_interface_residuals``).
"""

import logging

import mpmath as mp
import numpy as np
import pytest

from helmrad import assembly, evaluate, green, specfun
from helmrad.assembly import CoefficientVector, SingularSystem
from helmrad.evaluate import interface_residuals, solve, solve_direct
from helmrad.problem import (ProblemSpec, WaveSpeedProfile,
                             construct_localisation_example, random_spec)
from helmrad.specfun import EXTENDED, FundamentalPair
from interface_oracles import (exact_interface_residuals, fundamental_eval_mp,
                               outer_coefficient_mp, raw_solve_mp)
from populations import S35, high_mode_population

# high-mode specs 1 and 20: the recursion's reruns accept answers wrong by
# 3.0e17 and 1.9e128
HIGH_MODE_1 = {"dimension": 3, "mode": 20, "omega": 3.0,
               "boundary_coefficient": [1.0, 0.0],
               "jump_points": [0.0, 0.5, 1.0], "speeds": [1.0, 2.0]}
HIGH_MODE_20 = {"dimension": 3, "mode": 27, "omega": 0.9704232111057688,
                "boundary_coefficient": [1.0, 0.0],
                "jump_points": [0.0, 1e-08, 0.33109707446078157,
                                0.4661992144056818, 0.4846547843141249, 1.0],
                "speeds": [28.095329498084904, 3.947090107350336,
                           6.780092858828056, 5.429766328328236,
                           1.806514966160901]}
# the recursion's rerun refuses; the banded route needs its mpmath tier
FAULT_C = {"dimension": 3, "mode": 30, "omega": 7.086389133912954,
           "boundary_coefficient": [1.0, 0.0],
           "jump_points": [0.0, 0.05638264574284964, 0.631148806017453, 1.0],
           "speeds": [10.155648231717109, 0.22163251877829607,
                      0.13984743380345396]}

REFERENCE_DIGITS = 40


def _reference(spec: ProblemSpec, digits: int) -> list:
    """[(A_j, B_j)] for j = 1..N from the raw system at ``digits``, B_N
    from the same right-hand side factor."""
    x = list(raw_solve_mp(spec, digits)) + [outer_coefficient_mp(spec,
                                                                  digits)]
    return [(mp.mpc(0) if j == 1 else x[2 * j - 3], x[2 * j - 2])
            for j in range(1, spec.n + 2)]


def _term_scales(spec: ProblemSpec) -> list:
    """Per layer (max |f_1|, max |f_2|) at its ends (r > 0) and midpoint."""
    pair = FundamentalPair(spec.dimension, spec.mode)
    xs = [mp.mpf(v) for v in spec.profile.jump_points]
    out = []
    for j in range(1, spec.n + 2):
        k = mp.mpf(spec.omega) / mp.mpf(spec.speed(j))
        radii = [r for r in (xs[j - 1], (xs[j - 1] + xs[j]) / 2, xs[j])
                 if r > 0]
        out.append(tuple(max(abs(fundamental_eval_mp(pair, w, k * r)[0])
                             for r in radii) for w in (1, 2)))
    return out


def _layer_error(layers, ref, scales) -> float:
    """Largest per-layer max(|dA| F_1, |dB| F_2) / max(|A| F_1, |B| F_2)."""
    worst = mp.mpf(0)
    for (a, b), (ar, br), (f1, f2) in zip(layers, ref, scales):
        size = max(abs(ar) * f1, abs(br) * f2)
        diff = max(abs(mp.mpc(a) - ar) * f1, abs(mp.mpc(b) - br) * f2)
        worst = max(worst, diff / size if size else
                    (mp.mpf(0) if diff == 0 else mp.inf))
    return float(worst)


def _layers(coeffs: CoefficientVector) -> list:
    return [(coeffs.a(j), coeffs.b(j))
            for j in range(1, coeffs.num_layers + 1)]


def _exact(spec: ProblemSpec) -> CoefficientVector:
    """The reference coefficients rounded to doubles."""
    ref = _reference(spec, REFERENCE_DIGITS)
    entries = [complex(v) for pair in ref for v in pair][1:-1]
    return CoefficientVector(np.array(entries), complex(ref[-1][1]))


def _gate(spec: ProblemSpec, coeffs: CoefficientVector) -> float:
    """The largest interface backward error of ``coeffs``, from the pair
    values of the extended recursion, as ``solve`` forms its gate."""
    beta, _ = green.extended_run(spec)
    return evaluate._backward_errors(spec, beta.pair.values,
                                     coeffs).max(initial=0.0)


def _same(a: CoefficientVector, b: CoefficientVector) -> bool:
    return a.entries.tobytes() == b.entries.tobytes() \
        and complex(a.b_last) == complex(b.b_last)


def _accepted(spec: ProblemSpec) -> bool:
    return green.extended_run(spec)[1] <= green.ERROR_LIMIT


class TestRegression:
    @pytest.mark.parametrize("doc", [S35, HIGH_MODE_1, HIGH_MODE_20,
                                     FAULT_C],
                             ids=["S35", "high_mode_1", "high_mode_20",
                                  "fault_c"])
    def test_right_per_layer(self, doc):
        spec = ProblemSpec.from_dict(doc)
        coeffs = solve(spec).coeffs
        with mp.workdps(2 * REFERENCE_DIGITS):
            low = _reference(spec, REFERENCE_DIGITS)
            high = _reference(spec, 2 * REFERENCE_DIGITS)
            scales = _term_scales(spec)
            assert _layer_error(low, high, scales) <= 1e-30
            assert _layer_error(_layers(coeffs), high, scales) <= 1e-9

    def test_accepted_answer_is_the_recursion_bit_for_bit(self):
        spec = construct_localisation_example(8, 1.0, 3.0)
        assert _accepted(spec)
        assert _same(solve(spec).coeffs, green.layer_coefficients(spec))

    def test_escalating_answer_is_the_banded_route_bit_for_bit(self):
        spec = ProblemSpec.from_dict(FAULT_C)
        assert not _accepted(spec)
        assert _same(solve(spec).coeffs, solve_direct(spec)[0].coeffs)

    def test_banded_refusal_propagates(self, monkeypatch):
        def refused(system):
            raise SingularSystem("residual check failed")
        monkeypatch.setattr(assembly, "dense_solve", refused)
        with pytest.raises(SingularSystem, match="residual check failed"):
            solve(ProblemSpec.from_dict(FAULT_C))


GATE_SPECS = [
    ProblemSpec(WaveSpeedProfile((0.0, 0.3, 0.55, 1.0), (1.0, 2.5, 0.7)),
                dimension=3, mode=2, omega=7.5),
    ProblemSpec(WaveSpeedProfile((0.0, 0.2, 0.7, 1.0), (0.6, 1.9, 1.2)),
                dimension=1, omega=11.0, boundary_coefficient=2.0 - 1.0j),
]


class TestGate:
    @pytest.mark.parametrize("spec", GATE_SPECS, ids=["d3m2", "d1"])
    def test_exact_coefficients_pass(self, spec):
        assert _gate(spec, _exact(spec)) <= 1e-15

    @pytest.mark.parametrize("spec", GATE_SPECS, ids=["d3m2", "d1"])
    def test_each_perturbed_entry_is_flagged(self, spec):
        exact = _exact(spec)
        for i in range(len(exact.entries) + 1):
            entries, b_last = exact.entries.copy(), exact.b_last
            if i < len(entries):
                entries[i] *= 1.0 + 1e-6
            else:
                b_last *= 1.0 + 1e-6
            gate = _gate(spec, CoefficientVector(entries, b_last))
            assert gate > evaluate._GATE_LIMIT, i

    @pytest.mark.parametrize("doc", [S35, HIGH_MODE_1, HIGH_MODE_20],
                             ids=["S35", "high_mode_1", "high_mode_20"])
    def test_flags_exactly_the_wrong_answers(self, doc):
        """The gate exceeds 1e-9 exactly where the per-layer error does,
        on the answers of both the pure recursion route and ``solve``.
        At present the pure route is wrong on all three specs (gate 3.1e-7,
        0.50 and 1.0) and ``solve`` is right (rounding level)."""
        spec = ProblemSpec.from_dict(doc)
        with mp.workdps(2 * REFERENCE_DIGITS):
            ref = _reference(spec, 2 * REFERENCE_DIGITS)
            scales = _term_scales(spec)
            for coeffs in (green.layer_coefficients(spec),
                           solve(spec).coeffs):
                wrong = _layer_error(_layers(coeffs), ref, scales) > 1e-9
                assert (_gate(spec, coeffs) > 1e-9) == wrong

    def test_agrees_with_the_interface_residuals(self):
        """On the accepted answers of the oracle population the gate is
        the largest of ``interface_residuals``, and both are within 1e-15
        + 1e-3 relative of the residuals evaluated in mpmath."""
        rng = np.random.default_rng(20260823)
        checked = 0
        for spec in (random_spec(rng) for _ in range(200)):
            beta, error = green.extended_run(spec)
            if error > green.ERROR_LIMIT:
                continue
            coeffs = green.layer_coefficients(
                spec, green.green_last_column(spec, beta))
            mine = interface_residuals(evaluate.RadialSolution(spec, coeffs))
            exact = exact_interface_residuals(spec, coeffs)
            assert len(mine) == len(exact) == spec.n
            assert _gate(spec, coeffs) == max(map(max, mine), default=0.0)
            for got, want in zip(np.ravel(mine), np.ravel(exact)):
                assert abs(got - want) <= 1e-15 + 1e-3 * want
            checked += 1
        assert checked >= 150

    def test_reads_the_pair_not_its_double_rounding(self):
        """Oracle spec 126 (d = 3, m = 1, n = 17, first argument x ~
        0.044): in double the closed form of j_1 cancels about 3 digits,
        which read 1.38e-13 against the exact 9.4e-14."""
        rng = np.random.default_rng(20260823)
        spec = [random_spec(rng) for _ in range(127)][126]
        sol = solve(spec)
        got = max(map(max, interface_residuals(sol)))
        want = max(map(max, exact_interface_residuals(spec, sol.coeffs)))
        assert abs(got - want) <= 1e-15 + 1e-3 * want

    def test_forced_gate_failure_takes_the_banded_answer(self, monkeypatch):
        spec = construct_localisation_example(8, 1.0, 3.0)
        monkeypatch.setattr(evaluate, "_backward_errors",
                            lambda *a: np.ones((2, 1)))
        assert _same(solve(spec).coeffs, solve_direct(spec)[0].coeffs)
        assert not _same(solve(spec).coeffs, green.layer_coefficients(spec))

    def test_single_layer_reads_zero(self):
        spec = ProblemSpec(WaveSpeedProfile((0.0, 1.0), (1.0,)), omega=2.0)
        assert _gate(spec, solve_direct(spec)[0].coeffs) == 0.0


class TestFallbackLog:
    @staticmethod
    def _records(caplog):
        return [r for r in caplog.records if r.name.startswith("helmrad")]

    def test_estimate_reason(self, caplog):
        caplog.set_level(logging.DEBUG, logger="helmrad")
        solve(ProblemSpec.from_dict(FAULT_C))
        (record,) = self._records(caplog)
        assert record.levelno == logging.DEBUG
        assert "estimated relative error" in record.getMessage()
        assert f"exceeds {green.ERROR_LIMIT:g}" in record.getMessage()

    def test_gate_reason(self, caplog, monkeypatch):
        monkeypatch.setattr(evaluate, "_backward_errors",
                            lambda *a: np.full((2, 1), 0.25))
        caplog.set_level(logging.DEBUG, logger="helmrad")
        solve(construct_localisation_example(4, 1.0, 3.0))
        (record,) = self._records(caplog)
        assert record.levelno == logging.DEBUG
        assert "interface backward error 0.25 exceeds " \
            f"{evaluate._GATE_LIMIT:g}" in record.getMessage()

    def test_accepted_path_is_not_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="helmrad")
        solve(construct_localisation_example(4, 1.0, 3.0))
        assert not self._records(caplog)

    def test_no_handler_is_installed(self):
        for name in ("helmrad", "helmrad.evaluate"):
            assert logging.getLogger(name).handlers == []


class TestOneEvaluationPerSolve:
    """A solve evaluates the pair once: one extended ``pair_eval`` at the
    2n interface arguments and kappa, from which the recursion, the gate,
    B_N, the double-range envelope and a fallback's blocks all read.  No
    other call reaches the evaluator ``specfun._fundamental`` or the
    mpmath rows ``specfun._rows_mp``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"points": [], "other": 0}
        inside = []
        pair_eval = EXTENDED.pair_eval

        def counted(pair, x, shift=True):
            counts["points"].append(len(x))
            inside.append(x)
            try:
                return pair_eval(pair, x, shift)
            finally:
                inside.pop()

        def outside(evaluator):
            def spy(*args, **kwargs):
                counts["other"] += not inside
                return evaluator(*args, **kwargs)
            return spy
        for name in ("_fundamental", "_rows_mp"):
            monkeypatch.setattr(specfun, name,
                                outside(getattr(specfun, name)))
        tier = EXTENDED._replace(pair_eval=counted)
        for module in (assembly, green, evaluate):
            monkeypatch.setattr(module, "EXTENDED", tier)
        return counts

    @staticmethod
    def _oracle_spec():
        return random_spec(np.random.default_rng(20260823))

    @pytest.mark.parametrize("route", [
        solve, lambda spec: solve_direct(spec)[0]],
        ids=["recursion", "banded"])
    @pytest.mark.parametrize("index", [None, 9], ids=["oracle", "flushed"])
    def test_each_route(self, calls, route, index):
        """An oracle spec the recursion answers, and high-mode spec 9
        (m = 50, a 1e-8 first layer), whose A_2 is flushed to 0 by the
        double-range rule after ``solve`` falls back."""
        spec = self._oracle_spec() if index is None \
            else high_mode_population()[index]
        coeffs = route(spec).coeffs
        assert calls == {"points": [2 * spec.n + 1], "other": 0}
        assert (coeffs.a(2) == 0) == (index is not None)

    def test_fallback_on_the_estimate(self, calls):
        """High-mode spec 0: the estimate fails, the banded route solves
        in extended precision."""
        spec = high_mode_population()[0]
        assert green.extended_run(spec)[1] > green.ERROR_LIMIT
        calls["points"].clear()
        solve(spec)
        assert calls == {"points": [2 * spec.n + 1], "other": 0}

    def test_fallback_on_the_gate(self, calls, monkeypatch):
        """The gate refuses an answer whose coefficients are already
        formed: the banded route reuses their pair and B_N."""
        monkeypatch.setattr(evaluate, "_backward_errors",
                            lambda *a: np.ones((2, 1)))
        spec = construct_localisation_example(4, 1.0, 3.0)
        solve(spec)
        assert calls == {"points": [2 * spec.n + 1], "other": 0}
