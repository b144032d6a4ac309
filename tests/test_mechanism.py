"""Tests for MAP acceptance and the three calibration policies."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import privcal
from privcal import (
    AccuracyError,
    Assignment,
    AveragePolicy,
    ConfigurationError,
    Decision,
    Infeasible,
    ModeError,
    Policy,
    Population,
    QuadratureSettings,
    ReviewerProfile,
    alg1_policy,
    alg2_policy,
    alg3_policy,
    zeta_eta,
)
from privcal.adversary import per_instance_errors
from privcal.model import std_normal_cdf
from privcal.frontier import frontier, instance_geometry, max_adversary_error_curve
from privcal.simlab import Alg1Rule, TruthfulRule, simulate_average, simulate_instance
from conftest import (
    cubic_profile,
    decide,
    general_policy_errors,
    make_instance,
    map_accept,
    nested_quad_sinh_zeta_eta,
    nested_quad_zeta_eta,
    random_part2_instance,
    sinh_profile,
)

REF1 = Population(ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0))
REF2 = Population(ReviewerProfile.affine(1.5, -0.5), ReviewerProfile.affine(0.8, 0.7))
SINH = Population(sinh_profile(), ReviewerProfile.affine(1.0, 0.5))
CUBIC = Population(cubic_profile(), ReviewerProfile.affine(1.0, 0.5))
SLOPE_RATIO_10 = Population(ReviewerProfile.affine(0.3, 0.5), ReviewerProfile.affine(3.0, -1.0))
# exp and affine(1, 0) reach scores the other cannot: log of a
# non-positive score is NaN, and so are zeta, eta and err.
EXP = Population(
    ReviewerProfile.monotone(np.exp, np.log, lambda s: 1.0 / s), ReviewerProfile.affine(1.0, 0.0)
)

# (a1, b1, a2, b2) of the affine populations checked against the oracle.
AFFINE_PAIRS = {
    "ref1": (1.0, 0.0, 1.0, 1.0),
    "ref2": (1.5, -0.5, 0.8, 0.7),
    "pair": (1.3, -0.2, 0.7, 0.5),
    "pair_swapped": (0.7, 0.5, 1.3, -0.2),
    "identical": (1.0, 0.0, 1.0, 0.0),
    "equal_slopes": (1.2, 0.3, 1.2, -0.4),
    "near_slopes": (1.0, 0.3, 1.0 + 1e-12, -0.4),
    "slope_ratio_10": (0.3, 0.5, 3.0, -1.0),
    "slope_ratio_10_swapped": (3.0, -1.0, 0.3, 0.5),
}


def as_general(prof: ReviewerProfile) -> ReviewerProfile:
    """An affine profile given as general monotone maps."""
    a, b = prof.a, prof.b
    return ReviewerProfile.monotone(
        lambda t: a * np.asarray(t) + b,
        lambda s: (np.asarray(s) - b) / a,
        lambda s: np.full(np.shape(s), 1.0 / a),
    )


class TestMapAccept:
    def test_noiseless_reference(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        # Under A1: qualities 0.5 vs 0.0. Under A2: -0.5 vs 1.0.
        assert map_accept(inst, Assignment.A1) is Decision.PAPER1
        assert map_accept(inst, Assignment.A2) is Decision.PAPER2

    def test_noisy_reference(self):
        inst = make_instance(1, 0, 2, 0, 1.0, 1.0, 1.0)
        # phi1 < 1/2 < phi2 at these scores.
        assert map_accept(inst, Assignment.A1) is Decision.PAPER1
        assert map_accept(inst, Assignment.A2) is Decision.PAPER2

    def test_tie_requires_variate(self):
        inst = make_instance(1, 0, 1, 0, 0.0, 0.7, 0.7)
        with pytest.raises(ValueError):
            map_accept(inst, Assignment.A1)

    def test_tie_broken_by_variate(self):
        inst = make_instance(1, 0, 1, 0, 0.0, 0.7, 0.7)
        assert map_accept(inst, Assignment.A1, random01=0.2) is Decision.PAPER1
        assert map_accept(inst, Assignment.A1, random01=0.8) is Decision.PAPER2


class TestPolicy:
    @pytest.mark.parametrize(
        "q1, q2", [(1.5, 0.5), (0.5, -0.1), (math.nan, 1.0), (1.0, math.inf)]
    )
    def test_probabilities_outside_the_unit_interval_are_rejected(self, q1, q2):
        with pytest.raises(ConfigurationError):
            Policy(q1, q2)
        Policy(0.0, 1.0)


class TestAlg1Policy:
    def test_reference_interior_policy(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        pol = alg1_policy(inst, 0.2)
        assert pol.forced is None
        assert pol.q1 == 1.0
        assert pol.q2 == pytest.approx(0.470256, abs=1e-5)

    def test_endpoint_cap(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        geom = instance_geometry(inst)
        pol = alg1_policy(inst, 0.9)
        # u > v here, so the ceiling boundary crosses q1 = 1 at q2 = 0.
        assert pol.q1 == 1.0
        assert pol.q2 == pytest.approx(0.0, abs=1e-12)
        err = per_instance_errors(inst, pol)
        assert err.ec == pytest.approx(geom.m, abs=1e-12)
        assert err.ea == pytest.approx(geom.m, abs=1e-12)

    def test_forced_instance(self):
        inst = make_instance(1, 0, 1, 2, 0.0, 3.0, 0.5)
        pol = alg1_policy(inst, 0.2)
        assert pol.forced is Decision.PAPER1

    def test_mode_and_range_guards(self):
        noisy = make_instance(1, 0, 1, 1, 0.5, 0.5, 1.0)
        with pytest.raises(ModeError):
            alg1_policy(noisy, 0.2)
        with pytest.raises(ModeError):
            Alg1Rule(Population(noisy.reviewer1, noisy.reviewer2, 0.5), 0.2)
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            alg1_policy(inst, -0.1)
        with pytest.raises(ConfigurationError):
            alg1_policy(inst, 1.5)

    def test_both_errors_equal_min_of_target_and_ceiling(self, rng):
        """Analytic errors of the returned policy are min(ec, m) on both axes."""
        for _ in range(100):
            inst = random_part2_instance(rng, noisy=False)
            geom = instance_geometry(inst)
            ec = float(rng.uniform(0.0, 1.0))
            pol = alg1_policy(inst, ec)
            err = per_instance_errors(inst, pol)
            want = min(ec, geom.m)
            assert err.ec == pytest.approx(want, abs=1e-12)
            assert err.ea == pytest.approx(want, abs=1e-12)
            assert 0.0 <= pol.q2 <= 1.0

    def test_q2_equals_alg1_rule_bit_for_bit(self, rng):
        """alg1_policy and Alg1Rule.batch form q2 by one expression. On
        random noiseless instances with slopes 0.05-20, underflowed
        posterior weights included, they agree bit for bit at the targets
        0, m and 1, next to m, and drawn either side of m."""
        randomizing = underflowed = 0
        for _ in range(1000):
            a = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 2))
            b = rng.normal(0.0, 1.0, 2)
            s = rng.normal(0.0, 3.0, 2)
            inst = make_instance(a[0], b[0], a[1], b[1], 0.0, s[0], s[1])
            geom = instance_geometry(inst)
            if not geom.part2:
                continue
            randomizing += 1
            underflowed += geom.m == 0.0
            m, pop = geom.m, Population(inst.reviewer1, inst.reviewer2)
            targets = [0.0, m, 1.0, np.nextafter(m, 0.0), np.nextafter(m, 1.0)]
            targets += [rng.uniform(0.0, m), rng.uniform(m, 1.0)]
            for ec in map(float, targets):
                want = np.array([alg1_policy(inst, ec).q2])
                _, q2 = Alg1Rule(pop, ec).batch(np.array([geom.pu]), np.array([geom.pv]))
                assert q2.view(np.int64) == want.view(np.int64), (inst, ec)
        assert underflowed > 20
        assert randomizing - underflowed > 100


def general_part2_instances(pop: Population, rng, count: int) -> list:
    """Randomizing instances of pop, scored from standard-normal qualities."""
    out = []
    while len(out) < count:
        th1, th2 = rng.normal(size=2)
        r1, r2 = pop.reviewer1, pop.reviewer2
        if rng.random() < 0.5:
            r1, r2 = r2, r1
        inst = pop.instance(float(r1.apply(th1)), float(r2.apply(th2)))
        if instance_geometry(inst).part2:
            out.append(inst)
    return out


@pytest.mark.parametrize("pop", [SINH, CUBIC], ids=["sinh", "cubic"])
class TestGeneralProfileInstances:
    """The per-instance layers on non-affine profiles."""

    def test_alg1_slope_one_law(self, pop, rng):
        for inst in general_part2_instances(pop, rng, 50):
            m = instance_geometry(inst).m
            seg = frontier(inst)
            assert seg.start.ec == pytest.approx(0.0, abs=1e-15)
            assert seg.start.ea == 0.0
            assert seg.end.ec == pytest.approx(m, abs=1e-15)
            assert seg.end.ea == pytest.approx(m, abs=1e-15)
            for ec in np.linspace(0.0, 1.0, 21):
                err = per_instance_errors(inst, alg1_policy(inst, float(ec)))
                assert err.ec == pytest.approx(min(ec, m), abs=1e-12)
                assert err.ea == pytest.approx(min(ec, m), abs=1e-12)
            for ec in np.linspace(0.0, m, 11):
                assert max_adversary_error_curve(inst, float(ec)) == pytest.approx(
                    ec, abs=1e-12
                )

    def test_simulation_matches_per_instance_errors(self, pop, rng):
        n = 200_000
        for k, inst in enumerate(general_part2_instances(pop, rng, 4)):
            pol = alg1_policy(inst, 0.5 * instance_geometry(inst).m)
            exact = per_instance_errors(inst, pol)
            sim = simulate_instance(inst, pol, n, seed=90 + k)
            for target, emp in ((exact.ec, sim.empirical.ec), (exact.ea, sim.empirical.ea)):
                assert abs(emp - target) <= 5.0 * math.sqrt(target * (1.0 - target) / n)


class TestAlg3Policy:
    def test_infeasible_below_truthful_error(self, rng):
        for _ in range(20):
            inst = random_part2_instance(rng, noisy=True)
            seg = frontier(inst)
            if seg.start.ec <= 0.0:
                continue
            res = alg3_policy(inst, seg.start.ec / 2.0)
            assert isinstance(res, Infeasible)
            assert res.min_feasible_ec == pytest.approx(seg.start.ec, abs=1e-15)

    def test_endpoint_saturation(self, rng):
        for _ in range(20):
            inst = random_part2_instance(rng, noisy=True)
            seg = frontier(inst)
            ec = min(1.0, seg.end.ec + 0.01)
            pol = alg3_policy(inst, ec)
            err = per_instance_errors(inst, pol)
            assert err.ec == pytest.approx(seg.end.ec, abs=1e-12)
            assert err.ea == pytest.approx(seg.end.ea, abs=1e-12)

    def test_interior_points_lie_on_the_segment(self, rng):
        for _ in range(100):
            inst = random_part2_instance(rng, noisy=True)
            seg = frontier(inst)
            if seg.end.ec - seg.start.ec < 1e-9:
                continue
            for frac in (0.1, 0.5, 0.9):
                ec = seg.start.ec + frac * (seg.end.ec - seg.start.ec)
                pol = alg3_policy(inst, ec)
                assert isinstance(pol, Policy)
                assert 0.0 <= pol.q1 <= 1.0 and 0.0 <= pol.q2 <= 1.0
                err = per_instance_errors(inst, pol)
                assert err.ec == pytest.approx(ec, abs=1e-9)
                on_line = seg.end.ea * (err.ec - seg.start.ec) / (
                    seg.end.ec - seg.start.ec
                )
                assert err.ea == pytest.approx(on_line, abs=1e-9)

    def test_one_q_stays_exactly_one_on_the_rising_edge(self, rng):
        """Below the endpoint Alg. 3 walks the square's edge from (1, 1)
        to the endpoint policy: one q is exactly 1, and the exact errors
        are (ec, curve(ec))."""
        insts = [random_part2_instance(rng, noisy=True) for _ in range(100)]
        # A pinned-t solve gave q2 = 0.9999999999999919 here at mid-edge.
        insts.append(make_instance(1, 0, 0.25, 1, 0.125, -1, 0))
        for inst in insts:
            seg = frontier(inst)
            for ec in np.linspace(seg.start.ec, seg.end.ec, 8, endpoint=False):
                ec = float(ec)
                pol = alg3_policy(inst, ec)
                assert pol.q1 == 1.0 or pol.q2 == 1.0
                err = per_instance_errors(inst, pol)
                assert abs(err.ec - ec) <= 1e-12
                assert abs(err.ea - max_adversary_error_curve(inst, ec)) <= 1e-12

    def test_forced_instance(self):
        inst = make_instance(1, 0, 1.4, 0.3, 0.8, 6.0, 0.2)
        pol = alg3_policy(inst, 0.5)
        assert pol.forced is not None

    def test_mode_guard(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        with pytest.raises(ModeError):
            alg3_policy(inst, 0.2)
        noisy = make_instance(1, 0, 1, 1, 0.5, 0.5, 1.0)
        with pytest.raises(ConfigurationError, match="ec_max"):
            alg3_policy(noisy, 1.5)


class TestDecide:
    def test_truthful_path(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        pol = Policy(1.0, 1.0)
        assert decide(inst, pol, Assignment.A1, 0.99) is Decision.PAPER1
        assert decide(inst, pol, Assignment.A2, 0.99) is Decision.PAPER2

    def test_crossed_path(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        pol = Policy(1.0, 0.3)
        # Under A2 with variate 0.7 >= q2, the wrong-assignment MAP runs.
        assert decide(inst, pol, Assignment.A2, 0.7) is Decision.PAPER1
        assert decide(inst, pol, Assignment.A2, 0.2) is Decision.PAPER2

    def test_forced_ignores_randomness(self):
        inst = make_instance(1, 0, 1, 2, 0.0, 3.0, 0.5)
        pol = alg1_policy(inst, 0.0)
        for r in (0.0, 0.5, 0.999):
            assert decide(inst, pol, Assignment.A2, r) is Decision.PAPER1


class TestZetaEta:
    def test_reference_population(self):
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
        )
        zeta, eta, err = zeta_eta(pop)
        assert err <= 1e-6
        assert zeta == pytest.approx(0.16110045845806, abs=2e-6)
        assert eta == pytest.approx(0.07864960352515, abs=2e-6)

    def test_identical_reviewers(self):
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 0.0), 0.0
        )
        zeta, eta, _ = zeta_eta(pop)
        assert zeta == pytest.approx(0.0, abs=1e-9)
        assert eta == pytest.approx(0.5, abs=1e-6)

    def test_mode_guard(self):
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.5
        )
        with pytest.raises(ModeError):
            zeta_eta(pop)

    def test_unmet_tolerance_raises(self):
        """The general path raises when its own n/2n difference exceeds abs_tol."""
        zeta, _, err = zeta_eta(SINH)
        # At theta_span 10 the mass outside the box, 4 Phi(-10), is 3e-23.
        assert err > 1e-20
        with pytest.raises(AccuracyError) as info:
            zeta_eta(SINH, QuadratureSettings(abs_tol=err / 2.0))
        assert info.value.estimate == zeta
        assert info.value.error_bound == err

    def test_affine_rule_difference_above_tolerance_raises(self):
        """An affine population raises when the n/2n difference exceeds abs_tol."""
        zeta, _, err = zeta_eta(REF1)
        assert err > 0.0
        with pytest.raises(AccuracyError) as info:
            zeta_eta(REF1, QuadratureSettings(abs_tol=err / 2.0))
        assert info.value.estimate == zeta
        assert info.value.error_bound == err

    @pytest.mark.parametrize(
        "pop, want, dblquad_err",
        [
            (REF1, (0.1611004584580641, 0.07864960352514948), 6.9e-7),
            (REF2, (0.12124164393461899, 0.09437694787422293), 9.9e-7),
        ],
        ids=["ref1", "ref2"],
    )
    def test_matches_dblquad_within_its_bound(self, pop, want, dblquad_err):
        """The values the dblquad path gave, within the bound it reported."""
        zeta, eta, err = zeta_eta(pop)
        assert err <= 1e-9
        assert zeta == pytest.approx(want[0], abs=dblquad_err)
        assert eta == pytest.approx(want[1], abs=dblquad_err)

    @pytest.mark.parametrize("a1, b1, a2, b2", AFFINE_PAIRS.values(), ids=list(AFFINE_PAIRS))
    def test_affine_matches_nested_quad_oracle(self, a1, b1, a2, b2):
        pop = Population(ReviewerProfile.affine(a1, b1), ReviewerProfile.affine(a2, b2))
        zeta, eta, err = zeta_eta(pop)
        want = nested_quad_zeta_eta(pop)
        assert err <= 1e-9
        assert zeta == pytest.approx(want[0], abs=1e-9)
        assert eta == pytest.approx(want[1], abs=1e-9)

    @pytest.mark.parametrize("a1, b1, a2, b2", AFFINE_PAIRS.values(), ids=list(AFFINE_PAIRS))
    def test_general_path_matches_the_closed_form(self, a1, b1, a2, b2):
        """Affine maps given as general profiles agree with the affine
        profiles: one integrator, reached through two profile kinds."""
        pop = Population(ReviewerProfile.affine(a1, b1), ReviewerProfile.affine(a2, b2))
        zeta, eta, err = zeta_eta(pop)
        general = Population(as_general(pop.reviewer1), as_general(pop.reviewer2))
        zeta_g, eta_g, err_g = zeta_eta(general)
        assert abs(zeta_g - zeta) + abs(eta_g - eta) <= err_g + err
        assert zeta_g == pytest.approx(zeta, abs=1e-8)
        assert eta_g == pytest.approx(eta, abs=1e-8)

    @pytest.mark.parametrize("pop", [SINH, CUBIC], ids=["sinh", "cubic"])
    def test_general_population_matches_simulation(self, pop):
        """zeta is the endpoint rule's average conference error, eta the
        truthful rule's average adversary error; both within 5 sigma."""
        zeta, eta, err = zeta_eta(pop)
        assert err <= 1e-6
        n = 1_000_000
        endpoint = simulate_average(pop, Alg1Rule(pop, 1.0), n, seed=81)
        truthful = simulate_average(pop, TruthfulRule(), n, seed=82)
        for target, res, emp in (
            (zeta, endpoint, endpoint.empirical.ec),
            (eta, truthful, truthful.empirical.ea),
        ):
            se = math.sqrt(target * (1.0 - target) / res.n)
            assert abs(emp - target) <= 5.0 * se

    @pytest.mark.parametrize("seed", range(5))
    def test_random_affine_matches_nested_quad_oracle(self, seed):
        rng = np.random.default_rng(900 + seed)
        a = rng.uniform(0.3, 3.0, 2)
        b = rng.normal(0.0, 1.0, 2)
        pop = Population(
            ReviewerProfile.affine(a[0], b[0]), ReviewerProfile.affine(a[1], b[1])
        )
        span = float(rng.uniform(0.5, 4.0))
        # err counts 4 Phi(-span), up to 1.23 at span 0.5, for the mass
        # outside the box, which the oracle leaves out as well.
        zeta, eta, _ = zeta_eta(pop, QuadratureSettings(abs_tol=4.0, theta_span=span))
        want = nested_quad_zeta_eta(pop, span)
        assert zeta == pytest.approx(want[0], abs=1e-9)
        assert eta == pytest.approx(want[1], abs=1e-9)

    def test_narrow_box_raises_on_both_paths(self):
        """At theta_span 2 about 4 Phi(-2) = 0.091 of min(u, v)/2 lies
        outside the box. The one integrator counts it in err, so REF1
        raises with the bound of its general-map form."""
        narrow = QuadratureSettings(theta_span=2.0)
        general = Population(as_general(REF1.reviewer1), as_general(REF1.reviewer2))
        with pytest.raises(AccuracyError) as affine:
            zeta_eta(REF1, narrow)
        with pytest.raises(AccuracyError) as quality:
            zeta_eta(general, narrow)
        assert affine.value.error_bound >= 4.0 * std_normal_cdf(-2.0)
        assert affine.value.error_bound == pytest.approx(
            quality.value.error_bound, abs=1e-9
        )

    def test_sinh_matches_nested_quad_oracle(self):
        """A non-affine population against a score-space oracle."""
        zeta, eta, err = zeta_eta(SINH, QuadratureSettings(theta_span=6.0))
        want = nested_quad_sinh_zeta_eta(6.0)
        assert err <= 1e-6
        assert zeta == pytest.approx(want[0], abs=1e-10)
        assert eta == pytest.approx(want[1], abs=1e-10)

    @pytest.mark.parametrize("swap", [False, True], ids=["exp_first", "exp_second"])
    def test_non_finite_values_raise(self, swap):
        """NaN fails every comparison, so err > abs_tol alone let it pass.
        Under the suite's filter a RuntimeWarning would fail this test."""
        pop = Population(EXP.reviewer2, EXP.reviewer1) if swap else EXP
        with pytest.raises(AccuracyError):
            zeta_eta(pop)

    @pytest.mark.parametrize(
        "pop",
        [SLOPE_RATIO_10, Population(SLOPE_RATIO_10.reviewer2, SLOPE_RATIO_10.reviewer1), SINH],
        ids=["slope_ratio_10", "slope_ratio_10_swapped", "sinh"],
    )
    def test_a_wide_box_agrees_with_the_default(self, pop):
        """At theta_span 40 on the slope-ratio-10 pair K falls to about
        -790, so exp(-K(x)) overflows unless it joins the outer weight in
        log space. The values move by no more than the two bounds."""
        zeta, eta, err = zeta_eta(pop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeta_w, eta_w, err_w = zeta_eta(pop, QuadratureSettings(theta_span=40.0))
        assert abs(zeta_w - zeta) <= err + err_w
        assert abs(eta_w - eta) <= err + err_w

    @pytest.mark.parametrize(
        "pop",
        [
            REF1,
            REF2,
            SLOPE_RATIO_10,
            SINH,
        ],
        ids=["ref1", "ref2", "slope_ratio_10", "sinh"],
    )
    def test_a_warm_call_peaks_under_4_mib(self, pop):
        """The inner integral is exact, so a call holds a few arrays of
        one entry per outer node and inner piece; none grows with a grid."""
        zeta_eta(pop)
        tracemalloc.start()
        try:
            zeta_eta(pop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_settings_have_no_fallback_fields(self):
        assert [f.name for f in dataclasses.fields(QuadratureSettings)] == [
            "abs_tol",
            "theta_span",
        ]
        with pytest.raises(TypeError):
            QuadratureSettings(mc_fallback_n=1000)

    @pytest.mark.parametrize("field", ["abs_tol", "theta_span"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, 0.0, math.inf])
    def test_settings_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            QuadratureSettings(**{field: value})

    def test_swapping_reviewers_is_symmetric(self):
        affine = Population(
            ReviewerProfile.affine(1.3, -0.2), ReviewerProfile.affine(0.7, 0.5), 0.0
        )
        for p1 in (affine, SINH):
            p2 = Population(p1.reviewer2, p1.reviewer1, 0.0)
            za, ea_, _ = zeta_eta(p1)
            zb, eb, _ = zeta_eta(p2)
            assert za == pytest.approx(zb, abs=2e-6)
            assert ea_ == pytest.approx(eb, abs=2e-6)

    def test_package_import_leaves_scipy_unloaded(self):
        """No zeta_eta path loads scipy, for affine or general profiles."""
        code = (
            "import sys\n"
            "import privcal, privcal.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy imported with privcal'\n"
            "from privcal import Population, ReviewerProfile, zeta_eta\n"
            "from conftest import sinh_profile\n"
            "assert 'scipy' not in sys.modules, 'scipy imported with the test oracles'\n"
            "pop = Population(\n"
            "    ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0\n"
            ")\n"
            "print(repr(zeta_eta(pop)))\n"
            "assert 'scipy' not in sys.modules, 'scipy imported by an affine zeta_eta'\n"
            "pop = Population(sinh_profile(), ReviewerProfile.affine(1.0, 0.5), 0.0)\n"
            "zeta_eta(pop)\n"
            "assert 'scipy' not in sys.modules, 'scipy imported by a general zeta_eta'\n"
        )
        src = str(Path(privcal.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        path = os.environ.get("PYTHONPATH")
        roots = os.pathsep.join([src, tests] + ([path] if path else []))
        env = {**os.environ, "PYTHONPATH": roots}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(zeta_eta(REF1))


class TestAlg2Policy:
    def test_reference_mix(self):
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
        )
        avg = alg2_policy(pop, 0.05)
        assert avg.mix == pytest.approx(0.05 / 0.16110045845806, abs=1e-4)
        assert avg.conference_error == pytest.approx(0.05, abs=1e-6)
        assert avg.adversary_error == pytest.approx(0.05 + avg.eta, abs=1e-9)

    def test_budget_above_zeta_caps_mix(self):
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
        )
        avg = alg2_policy(pop, 0.9)
        assert avg.mix == 1.0
        assert avg.conference_error == pytest.approx(avg.zeta, abs=1e-12)

    def test_zero_budget(self):
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
        )
        avg = alg2_policy(pop, 0.0)
        assert avg.mix == 0.0
        assert avg.conference_error == 0.0
        assert avg.adversary_error == pytest.approx(avg.eta, abs=1e-12)

    def test_identical_reviewers_convention(self):
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 0.0), 0.0
        )
        avg = alg2_policy(pop, 0.0)
        assert avg.mix == 1.0
        assert avg.conference_error == pytest.approx(0.0, abs=1e-9)

    def test_non_finite_zeta_raises(self):
        with pytest.raises(AccuracyError):
            alg2_policy(EXP, 0.05)

    def test_budget_range_guard(self):
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
        )
        with pytest.raises(ConfigurationError):
            alg2_policy(pop, -0.01)


class TestPolicyClassDominance:
    def test_matched_policy_never_helps_the_adversary(self, rng):
        """For any general decision rule there is a truthfulness policy
        with the same conference error and at least the adversary error."""
        for _ in range(200):
            noisy = bool(rng.integers(0, 2))
            inst = random_part2_instance(rng, noisy=noisy)
            geom = instance_geometry(inst)
            g1, g2 = float(rng.uniform()), float(rng.uniform())
            ec_g, ea_g = general_policy_errors(inst, g1, g2)
            q1 = g1 if geom.d1 is Decision.PAPER1 else 1.0 - g1
            q2 = g2 if geom.d2 is Decision.PAPER1 else 1.0 - g2
            err = per_instance_errors(inst, Policy(q1, q2))
            assert err.ec == pytest.approx(ec_g, abs=1e-12)
            assert err.ea >= ea_g - 1e-12

    @given(
        ec=st.floats(0.0, 1.0),
        s1=st.floats(-3.0, 3.0),
        s2=st.floats(-3.0, 3.0),
        sigma2=st.floats(0.0, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_policies_are_probabilities(self, ec, s1, s2, sigma2):
        inst = make_instance(1.0, 0.0, 1.4, 0.5, sigma2, s1, s2)
        pol = alg1_policy(inst, ec) if sigma2 == 0.0 else alg3_policy(inst, ec)
        if isinstance(pol, Policy):
            assert 0.0 <= pol.q1 <= 1.0
            assert 0.0 <= pol.q2 <= 1.0
