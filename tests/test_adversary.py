"""Tests for the MAP adversary and the exact error accounting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privcal import (
    Assignment,
    ConfigurationError,
    Decision,
    Guess,
    GuessKind,
    Infeasible,
    Policy,
    ScenarioTable,
    map_guess,
    per_instance_errors,
    rr_epsilon,
    rr_gamma,
    scenario_table,
)
from privcal.adversary import _observe, map_guess_arrays
from privcal.frontier import InstanceGeometry, instance_geometry
from privcal.mechanism import alg1_policy
from conftest import (
    _scenario_errors_grid,
    make_instance,
    piecewise_adversary_error,
    random_part2_instance,
)

unit = st.floats(0.0, 1.0)


class TestMapGuess:
    def test_forced_instance_scores_decide(self):
        inst = make_instance(1, 0, 1, 2, 0.0, 3.0, 0.5)
        # v > u here, and the accepted paper carries no extra information.
        g = map_guess(inst, Policy(1.0, 1.0), Decision.PAPER1)
        assert g.kind is GuessKind.A2
        # The other decision never occurs for a forced instance, so the
        # posterior is degenerate and the guess falls back to a coin.
        impossible = map_guess(inst, Policy(1.0, 1.0), Decision.PAPER2)
        assert impossible.kind is GuessKind.UNIFORM_TIE

    def test_truthful_policy_reference(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        # Truthful play reveals the assignment: Paper 1 only wins under A1.
        assert map_guess(inst, Policy(1.0, 1.0), Decision.PAPER1).kind is GuessKind.A1
        assert map_guess(inst, Policy(1.0, 1.0), Decision.PAPER2).kind is GuessKind.A2

    def test_exact_tie_yields_uniform_guess(self):
        inst = make_instance(1, 0, 1, 0, 0.0, 0.4, 1.3)
        # Identical reviewers: pu = pv, and q1 = 1 - q2 balances the
        # scenario likelihoods exactly.
        geom = instance_geometry(inst)
        assert geom.pu == pytest.approx(geom.pv, abs=1e-15)
        g = map_guess(inst, Policy(0.7, 0.3), Decision.PAPER1)
        assert g.kind is GuessKind.UNIFORM_TIE
        assert g.wrong_probability(Assignment.A1) == 0.5

    def test_wrong_probability_of_firm_guess(self):
        g = Guess(GuessKind.A1)
        assert g.wrong_probability(Assignment.A1) == 0.0
        assert g.wrong_probability(Assignment.A2) == 1.0


class TestMapGuessArrays:
    """map_guess_arrays against its scalar twin _observe, case by case,
    on stand-in geometries: every (pu, pv), q1, q2, MAP decision of A1 and
    accepted paper, in one array call."""

    WEIGHTS = [(0.1, 0.9), (0.9, 0.1), (0.3, 0.7), (0.5, 0.5), (0.25, 0.75)]
    QS = [0.0, 0.1, 1.0 / 3.0, 0.5, 0.7, 0.9, 1.0]
    PAPERS = (Decision.PAPER1, Decision.PAPER2)

    @staticmethod
    def _kind(guess_a1, guess_a2):
        assert not (guess_a1 and guess_a2)
        return GuessKind.A1 if guess_a1 else GuessKind.A2 if guess_a2 else GuessKind.UNIFORM_TIE

    def _check(self, cases, scratch):
        """cases: (geometry, q1, q2, observed decision) tuples."""
        pu = np.array([g.pu for g, *_ in cases])
        pv = np.array([g.pv for g, *_ in cases])
        idx = np.flatnonzero([g.part2 for g, *_ in cases])
        picked = [cases[i] for i in idx]
        q1 = np.array([c[1] for c in picked])
        q2 = np.array([c[2] for c in picked])
        d1 = np.array([g.d1 is Decision.PAPER1 for g, *_ in picked])
        acc = np.array([d is Decision.PAPER1 for *_, d in picked])
        out = np.full((2, idx.size), np.nan) if scratch else None
        guess_a1, guess_a2 = map_guess_arrays(
            np.log(pv) - np.log(pu), idx, pu[idx], pv[idx], q1, q2, d1, acc, out=out
        )
        for k, (geom, a, b, d) in enumerate(cases):
            want = _observe(geom, a, b, d)[2].kind
            assert self._kind(guess_a1[k], guess_a2[k]) is want, (geom, a, b, d)

    @pytest.mark.parametrize("scratch", [False, True])
    def test_matches_observe_case_by_case(self, scratch):
        randomizing = [
            (InstanceGeometry(True, pu, pv, 0.0, 1.0, d1, d2), a, b, d)
            for pu, pv in self.WEIGHTS
            for d1, d2 in (self.PAPERS, self.PAPERS[::-1])
            for a in self.QS
            for b in self.QS
            for d in self.PAPERS
        ]
        forced = [
            (InstanceGeometry(False, pu, pv, 0.0, 1.0, d, d), 0.5, 0.5, d)
            for pu, pv in self.WEIGHTS
            for d in self.PAPERS
        ]
        self._check(randomizing + forced, scratch)

    def test_an_exact_tie_of_observe_is_a_tie(self):
        # pu (1 - q1) and pv q2 are the same float here, so _observe reads
        # a tie; 1 - (1 - q2) in place of q2 would make l2 the smaller.
        geom = InstanceGeometry(True, 0.1, 0.9, 0.0, 1.0, Decision.PAPER1, Decision.PAPER2)
        p_a1, p_a2, guess = _observe(geom, 0.1, 0.1, Decision.PAPER2)
        assert geom.pu * p_a1 == geom.pv * p_a2 == 0.09000000000000001
        assert guess.kind is GuessKind.UNIFORM_TIE
        self._check([(geom, 0.1, 0.1, Decision.PAPER2)], scratch=True)


class TestForcedGuessReading:
    """A forced replicate's guess reads the sign of the log odds d outside
    a band of 1e-12 and the weights inside it; either way it is the one
    the weights pu = 1 / (1 + exp(d)), pv = 1 - pu give."""

    EDGES = [
        1e-12,
        np.nextafter(1e-12, 0.0),
        np.nextafter(1e-12, 1.0),
        2.0**-52,
        1e-300,
        0.0,
        709.78,
        745.2,
        np.inf,
    ]

    @staticmethod
    def _weights(d):
        # The weights as weights_of_log_odds forms them.
        with np.errstate(over="ignore"):
            pu = 1.0 / (1.0 + np.exp(d))
        return pu, 1.0 - pu

    def _check(self, d):
        none = np.empty(0, dtype=np.intp)
        empty, no = np.empty(0), np.empty(0, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            guess_a1, guess_a2 = map_guess_arrays(d, none, empty, empty, 1.0, 1.0, no, no)
        pu, pv = self._weights(d)
        assert guess_a1.tolist() == (pu > pv).tolist()
        assert guess_a2.tolist() == (pu < pv).tolist()

    def test_edges(self):
        # -x of 0.0 is -0.0.
        self._check(np.array(self.EDGES + [-x for x in self.EDGES] + [np.nan]))

    def test_either_side_of_the_band(self, rng):
        d = 10.0 ** rng.uniform(-17.0, -8.0, 100_000)
        self._check(np.concatenate([d, -d]))


class TestScenarioTable:
    def test_probabilities_sum_to_one(self, rng):
        for _ in range(100):
            noisy = bool(rng.integers(0, 2))
            inst = random_part2_instance(rng, noisy=noisy)
            pol = Policy(float(rng.uniform()), float(rng.uniform()))
            table = scenario_table(inst, pol)
            total = sum(c.probability for c in table.cells)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert all(c.probability >= -1e-15 for c in table.cells)

    def test_adversary_error_never_exceeds_ceiling(self, rng):
        for _ in range(100):
            inst = random_part2_instance(rng, noisy=True)
            geom = instance_geometry(inst)
            pol = Policy(float(rng.uniform()), float(rng.uniform()))
            assert scenario_table(inst, pol).adversary_error <= geom.m + 1e-12


class TestPerInstanceErrors:
    def test_reference_policy_on_the_frontier(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        err = per_instance_errors(inst, Policy(1.0, 0.470256))
        assert err.ec == pytest.approx(0.2, abs=1e-5)
        assert err.ea == pytest.approx(0.2, abs=1e-5)

    def test_noisy_truthful_reveals_everything(self):
        inst = make_instance(1, 0, 2, 0, 1.0, 1.0, 1.0)
        from conftest import likelihoods
        from privcal import phi_pair

        lp, pp = likelihoods(inst), phi_pair(inst)
        err = per_instance_errors(inst, Policy(1.0, 1.0))
        ec_exp = (lp.u * pp.phi1 + lp.v * (1.0 - pp.phi2)) / (lp.u + lp.v)
        assert err.ec == pytest.approx(ec_exp, rel=1e-12)
        assert err.ea == pytest.approx(0.0, abs=1e-15)

    def test_forced_instance_ignores_policy(self):
        inst = make_instance(1, 0, 1, 2, 0.0, 3.0, 0.5)
        geom = instance_geometry(inst)
        for pol in (Policy(1.0, 1.0), Policy(0.2, 0.9)):
            err = per_instance_errors(inst, pol)
            assert err.ec == pytest.approx(geom.forced_ec, abs=1e-15)
            assert err.ea == pytest.approx(geom.m, abs=1e-15)

    @pytest.mark.parametrize("s1", [0.5, 3.0], ids=["part2", "forced"])
    def test_infeasible_policy_raises(self, s1):
        inst = make_instance(1, 0, 1, 2, 0.0, s1, 0.5)
        with pytest.raises(ConfigurationError, match="Infeasible"):
            per_instance_errors(inst, Infeasible(0.1, 0.2))


class TestPiecewiseClosedForm:
    def test_forced_instance_rejected(self):
        inst = make_instance(1, 0, 1, 2, 0.0, 3.0, 0.5)
        with pytest.raises(ValueError):
            piecewise_adversary_error(inst, 1.0, 1.0)

    def test_matches_scenario_table_on_grids(self, rng):
        grid = np.linspace(0.0, 1.0, 21)
        for _ in range(50):
            noisy = bool(rng.integers(0, 2))
            inst = random_part2_instance(rng, noisy=noisy)
            for q1 in grid:
                for q2 in grid:
                    direct = scenario_table(inst, Policy(q1, q2)).adversary_error
                    closed = piecewise_adversary_error(inst, float(q1), float(q2))
                    assert abs(direct - closed) <= 1e-12

    @given(q1=unit, q2=unit, s1=st.floats(-2.0, 2.0), s2=st.floats(-2.0, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_scenario_table_generatively(self, q1, q2, s1, s2):
        inst = make_instance(1.0, 0.0, 1.5, 0.4, 0.6, s1, s2)
        geom = instance_geometry(inst)
        if not geom.part2:
            return
        direct = scenario_table(inst, Policy(q1, q2)).adversary_error
        assert abs(direct - piecewise_adversary_error(inst, q1, q2)) <= 1e-12

    def test_case_boundary_value(self, rng):
        """At w exactly equal to min(pu, pv) both branches agree."""
        inst = random_part2_instance(rng, noisy=True)
        geom = instance_geometry(inst)
        # Solve pu q1 + pv q2 = m with q1 = m / (pu + pv) scaled onto both.
        q = geom.m / (geom.pu + geom.pv)
        w = geom.pu * q + geom.pv * q
        assert w == pytest.approx(geom.m, abs=1e-15)
        val = piecewise_adversary_error(inst, q, q)
        assert val == pytest.approx(geom.m, abs=1e-12)


class TestVectorizedScenarioGrid:
    def test_matches_scalar_path(self, rng):
        q1 = rng.uniform(0.0, 1.0, 64)
        q2 = rng.uniform(0.0, 1.0, 64)
        for _ in range(20):
            noisy = bool(rng.integers(0, 2))
            inst = random_part2_instance(rng, noisy=noisy)
            geom = instance_geometry(inst)
            ec, ea = _scenario_errors_grid(geom, q1, q2)
            for i in range(q1.size):
                pol = Policy(float(q1[i]), float(q2[i]))
                err = per_instance_errors(inst, pol)
                assert ec[i] == pytest.approx(err.ec, abs=1e-12)
                assert ea[i] == pytest.approx(err.ea, abs=1e-12)


class TestRandomizedResponse:
    def test_no_privacy_loss_at_even_odds(self):
        assert rr_epsilon(1.0) == 0.0
        assert rr_gamma(0.0) == 1.0

    def test_ln3_reference(self):
        assert rr_gamma(math.log(3.0)) == pytest.approx(3.0, rel=1e-15)
        assert rr_epsilon(3.0) == pytest.approx(math.log(3.0), rel=1e-15)

    @given(gamma=st.floats(1e-6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, gamma):
        assert rr_gamma(rr_epsilon(gamma)) == pytest.approx(gamma, rel=1e-12)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            rr_epsilon(0.0)
        with pytest.raises(ValueError):
            rr_epsilon(-1.0)
        with pytest.raises(ValueError):
            rr_gamma(math.inf)
        # exp(epsilon) overflows past log(DBL_MAX) = 709.7827 and underflows
        # to 0 below about -745.1; rr_epsilon accepts neither.
        assert rr_epsilon(rr_gamma(709.78)) == pytest.approx(709.78, rel=1e-15)
        for epsilon in (710.0, -800.0, math.nan):
            with pytest.raises(ValueError, match="positive finite"):
                rr_gamma(epsilon)
