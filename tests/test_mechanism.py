"""Tests for MAP acceptance and the three calibration policies."""

import dataclasses
import math
import os
import subprocess
import sys
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
from privcal.frontier import frontier, instance_geometry
from conftest import (
    decide,
    general_policy_errors,
    make_instance,
    map_accept,
    random_part2_instance,
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

    def test_forced_instance(self):
        inst = make_instance(1, 0, 1.4, 0.3, 0.8, 6.0, 0.2)
        pol = alg3_policy(inst, 0.5)
        assert pol.forced is not None

    def test_mode_guard(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        with pytest.raises(ModeError):
            alg3_policy(inst, 0.2)


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

    def test_unmet_tolerance_raises(self, monkeypatch):
        """An error estimate above abs_tol is reported, never replaced."""
        import scipy.integrate

        def loose_dblquad(func, a, b, gfun, hfun, epsabs):
            return 0.25, 1e-6

        monkeypatch.setattr(scipy.integrate, "dblquad", loose_dblquad)
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
        )
        with pytest.raises(AccuracyError) as info:
            zeta_eta(pop, QuadratureSettings(abs_tol=2e-6))
        assert info.value.estimate == 0.25
        assert info.value.error_bound == 1e-6 + 1e-6 + 1e-6

    def test_settings_have_no_fallback_fields(self):
        assert [f.name for f in dataclasses.fields(QuadratureSettings)] == [
            "abs_tol",
            "theta_span",
        ]
        with pytest.raises(TypeError):
            QuadratureSettings(mc_fallback_n=1000)

    def test_swapping_reviewers_is_symmetric(self):
        p1 = Population(
            ReviewerProfile.affine(1.3, -0.2), ReviewerProfile.affine(0.7, 0.5), 0.0
        )
        p2 = Population(p1.reviewer2, p1.reviewer1, 0.0)
        za, ea_, _ = zeta_eta(p1)
        zb, eb, _ = zeta_eta(p2)
        assert za == pytest.approx(zb, abs=2e-6)
        assert ea_ == pytest.approx(eb, abs=2e-6)

    def test_package_import_leaves_scipy_unloaded(self):
        """scipy loads on the first zeta_eta call, not with the package."""
        code = (
            "import sys\n"
            "import privcal, privcal.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy imported with privcal'\n"
            "from privcal import Population, ReviewerProfile, zeta_eta\n"
            "pop = Population(\n"
            "    ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0\n"
            ")\n"
            "print(repr(zeta_eta(pop)))\n"
            "assert 'scipy' in sys.modules\n"
        )
        src = str(Path(privcal.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
        )
        assert proc.stdout.strip() == repr(zeta_eta(pop))


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
