"""Tests for the domain types and score statistics."""

import dataclasses
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from privcal import (
    Assignment,
    ConfigurationError,
    DegenerateInstanceError,
    Instance,
    ModeError,
    ReviewerProfile,
    ScorePair,
    phi_pair,
    quality_posterior,
)
from privcal.model import (
    Population,
    log_marginal_score_density,
    log_odds,
    log_ratio,
    posterior_weights,
    thresholds,
    weights_of_log_odds,
)
from conftest import (
    assignment_posterior,
    cubic_profile,
    likelihoods,
    make_instance,
    marginal_score_density,
    random_noiseless_instance,
    random_noisy_instance,
    sinh_profile,
)

finite_scores = st.floats(-6.0, 6.0)
slopes = st.floats(0.3, 3.0)
offsets = st.floats(-2.0, 2.0)
# Slopes and noise variances log-uniform in 1e-300..1e300; offsets and
# scores moderate, or of magnitude 1e-300..1e300 with either sign.
_magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_locations = st.one_of(
    st.floats(-5.0, 5.0),
    st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), _magnitudes),
)


class TestReviewerProfile:
    def test_affine_requires_positive_slope(self):
        with pytest.raises(ConfigurationError):
            ReviewerProfile.affine(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            ReviewerProfile.affine(-1.0, 0.0)
        with pytest.raises(ConfigurationError, match="finite"):
            ReviewerProfile.affine(math.inf, 0.0)

    def test_scores_must_be_finite(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ScorePair(math.nan, 0.0)

    def test_monotone_round_trip_probe_rejects_mismatched_maps(self):
        with pytest.raises(ConfigurationError):
            ReviewerProfile.monotone(np.sinh, np.cosh, np.cosh)

    def test_monotone_rejects_a_non_finite_score(self):
        """exp(120 t) overflows only at the probe grid's last point, so the
        forward map still increases there."""
        with pytest.raises(ConfigurationError, match="non-finite score"):
            ReviewerProfile.monotone(
                lambda t: np.exp(120.0 * t),
                lambda s: np.log(s) / 120.0,
                lambda s: 1.0 / (120.0 * s),
            )

    def test_monotone_rejects_decreasing_inverse(self):
        """A decreasing pair fails the forward check first."""
        with pytest.raises(ConfigurationError, match="forward map is not strictly increasing"):
            ReviewerProfile.monotone(
                lambda t: -t, lambda s: -s, lambda s: -1.0
            )

    def test_monotone_rejects_an_inverse_that_decreases_on_the_probe_grid(self):
        """The forward map increases on the probe grid (it turns only past
        1000) and the inverse round-trips there, but the inverse decreases."""
        with pytest.raises(ConfigurationError, match="inverse map is not strictly increasing"):
            ReviewerProfile.monotone(
                lambda t: np.where(np.asarray(t) > 1000.0, 2000.0 - np.asarray(t), np.asarray(t)),
                lambda s: 2000.0 - np.asarray(s),
                lambda s: -np.ones_like(np.asarray(s, dtype=float)),
            )

    @pytest.mark.parametrize("float_only", ["forward", "inverse", "inverse_derivative"])
    def test_monotone_rejects_maps_that_take_only_floats(self, float_only):
        maps = {
            "forward": (np.sinh, math.sinh),
            "inverse": (np.arcsinh, math.asinh),
            "inverse_derivative": (
                lambda s: 1.0 / np.sqrt(1.0 + s * s),
                lambda s: 1.0 / math.sqrt(1.0 + s * s),
            ),
        }
        chosen = [pair[1] if name == float_only else pair[0] for name, pair in maps.items()]
        with pytest.raises(ConfigurationError, match=f"the {float_only} map"):
            ReviewerProfile.monotone(*chosen)

    @pytest.mark.parametrize(
        "a1, a2, sigma2",
        [
            (1e-170, 1.0, 0.0),  # a1^2 underflows: a zero score variance
            (1e300, 1.0, 0.0),  # a1^2 overflows
            (1e300, 1.0, 1.0),
            (5e-324, 5e-324, 1e-170),  # a1 (a2^2 + sigma2) underflows
            (2.2e-162, 1.3e154, 5e-324),  # a thresholds' slope overflows
        ],
    )
    def test_score_scales_must_be_positive_and_finite(self, a1, a2, sigma2):
        with pytest.raises(ConfigurationError):
            Population(ReviewerProfile.affine(a1, 0.0), ReviewerProfile.affine(a2, 1.0), sigma2)
        # a1^2 underflows, but the noise keeps the score variance positive.
        Population(ReviewerProfile.affine(1e-170, 0.0), ReviewerProfile.affine(1.0, 1.0), 1.0)

    def test_affine_apply_invert_round_trip(self):
        prof = ReviewerProfile.affine(2.0, -1.0)
        assert prof.invert(prof.apply(0.7)) == pytest.approx(0.7, abs=1e-14)

    def test_a_profile_is_affine_exactly_when_it_carries_no_maps(self):
        """The kind is read from the maps, so it cannot disagree with them."""
        assert ReviewerProfile.affine(2.0, -1.0).is_affine
        assert not sinh_profile().is_affine
        fields = {f.name for f in dataclasses.fields(ReviewerProfile)}
        assert "kind" not in fields

    def test_noisy_instance_requires_affine(self):
        with pytest.raises(ConfigurationError):
            Instance(sinh_profile(), ReviewerProfile.affine(1, 0), 0.5, ScorePair(0, 0))


class TestMarginalScoreDensity:
    def test_standard_normal_mode(self):
        prof = ReviewerProfile.affine(1.0, 0.0)
        assert marginal_score_density(prof, 0.0, 0.0) == pytest.approx(
            0.3989422804, abs=1e-10
        )

    def test_wide_affine_density_at_mean(self):
        prof = ReviewerProfile.affine(2.0, 1.0)
        assert marginal_score_density(prof, 0.0, 1.0) == pytest.approx(
            norm.pdf(1.0, 1.0, 2.0), abs=1e-12
        )
        assert marginal_score_density(prof, 0.0, 1.0) == pytest.approx(
            0.1994711402, abs=1e-10
        )

    def test_noisy_density_includes_observation_noise(self):
        prof = ReviewerProfile.affine(1.0, 0.0)
        assert marginal_score_density(prof, 1.0, 0.0) == pytest.approx(
            0.2820947918, abs=1e-10
        )

    def test_monotone_profile_needs_noiseless_mode(self):
        with pytest.raises(ModeError):
            marginal_score_density(sinh_profile(), 0.5, 0.0)

    @pytest.mark.parametrize("case", ["affine", "sinh", "cubic", "noisy_affine"])
    def test_density_normalizes(self, case, rng):
        """Numerical integration of the score density equals 1 within 1e-6."""
        if case == "affine":
            prof, s2 = ReviewerProfile.affine(rng.uniform(0.3, 3), rng.normal()), 0.0
        elif case == "noisy_affine":
            prof, s2 = ReviewerProfile.affine(rng.uniform(0.3, 3), rng.normal()), 0.7
        elif case == "sinh":
            prof, s2 = sinh_profile(), 0.0
        else:
            prof, s2 = cubic_profile(), 0.0
        if case.endswith("affine"):
            spread = 20.0 * math.sqrt(prof.a**2 + s2)
            cuts = [prof.b - spread, prof.b, prof.b + spread]
        else:
            # Monotone supports stretch over a huge range; cut the axis at
            # images of a latent grid so every panel holds comparable mass.
            grid = [-20.0, -10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 20.0]
            cuts = [float(prof.apply(t)) for t in grid]
        total = sum(
            quad(lambda s: marginal_score_density(prof, s2, s), a, b, limit=200)[0]
            for a, b in zip(cuts, cuts[1:])
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestLikelihoods:
    def test_identical_reviewers_symmetric(self):
        inst = make_instance(1.2, 0.3, 1.2, 0.3, 0.0, -0.4, 1.7)
        lp = likelihoods(inst)
        assert lp.u == pytest.approx(lp.v, rel=1e-14)

    def test_equal_scores_symmetric(self):
        inst = make_instance(0.8, -0.2, 2.1, 0.9, 0.0, 0.6, 0.6)
        lp = likelihoods(inst)
        assert lp.u == pytest.approx(lp.v, rel=1e-14)

    def test_reference_values(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        lp = likelihoods(inst)
        u_exp = norm.pdf(0.5) * norm.pdf(1.0, 1.0, 1.0)
        v_exp = norm.pdf(0.5, 1.0, 1.0) * norm.pdf(1.0)
        assert lp.u == pytest.approx(u_exp, rel=1e-12)
        assert lp.v == pytest.approx(v_exp, rel=1e-12)
        assert lp.u == pytest.approx(0.140452, abs=1e-5)
        assert lp.v == pytest.approx(0.085190, abs=1e-5)


class TestAssignmentPosterior:
    def test_identical_reviewers_half(self):
        inst = make_instance(1.5, 0.2, 1.5, 0.2, 0.3, 1.0, -0.5)
        assert assignment_posterior(inst) == pytest.approx(0.5, abs=1e-14)

    def test_reference_value(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        assert assignment_posterior(inst) == pytest.approx(0.622453, abs=1e-5)

    def test_extreme_scores_stay_defined(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 30.0, -30.0)
        p = assignment_posterior(inst)
        assert 0.0 <= p <= 1.0

    @given(
        a1=slopes, b1=offsets, a2=slopes, b2=offsets, s1=finite_scores, s2=finite_scores
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_complement(self, a1, b1, a2, b2, s1, s2):
        """Swapping the reviewer profiles maps the posterior to its complement."""
        inst = make_instance(a1, b1, a2, b2, 0.0, s1, s2)
        total = assignment_posterior(inst) + assignment_posterior(inst.swap_reviewers())
        assert abs(total - 1.0) <= 1e-12


class TestPosteriorWeights:
    """posterior_weights is weights_of_log_odds on one instance."""

    AFFINE = (ReviewerProfile.affine(1.2, -0.3), ReviewerProfile.affine(0.8, 0.6))
    POPS = {
        "affine": Population(*AFFINE),
        "affine_noisy": Population(*AFFINE, 0.4),
        "sinh": Population(sinh_profile(), ReviewerProfile.affine(1.0, 0.5)),
    }

    @pytest.mark.parametrize("name", POPS)
    def test_equals_the_array_kernel_bit_for_bit(self, rng, name):
        """== element by element, also where d = log v - log u lies past
        exp's overflow (709.78) and underflow (-745) points. Affine scores
        of 1e160 overflow the log ratio itself, to d = +-inf; the sinh
        profile's density is lost there, so its scores stop short."""
        pop = self.POPS[name]
        sweep = np.linspace(-80.0, 80.0, 641)
        if name != "sinh":
            sweep = np.concatenate([sweep, [-1e160, 1e160]])
        zeros = np.zeros_like(sweep)
        s1 = np.concatenate([rng.normal(0, 3, 300), sweep, zeros])
        s2 = np.concatenate([rng.normal(0, 3, 300), zeros, sweep])
        with np.errstate(over="ignore"):
            d = log_odds(pop, s1, s2)
        inf = math.inf
        for lo, hi in [(709.79, 745.0), (745.0, inf), (-745.0, -709.79), (-inf, -745.0)]:
            assert np.any((lo < d) & (d < hi)), (lo, hi)
        if name != "sinh":
            assert inf in d and -inf in d
        pu, pv = weights_of_log_odds(d)
        for i in range(s1.size):
            inst = pop.instance(float(s1[i]), float(s2[i]))
            assert posterior_weights(inst) == (pu[i], pv[i]), (s1[i], s2[i])

    def test_exp_overflow_point(self):
        """Equal noiseless slopes with b = (0, 1) give d = s1 - s2 exactly,
        so d lands on log(DBL_MAX), the last float exp keeps finite, and on
        the next float, where it overflows; neither call warns."""
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0)
        )
        top = math.log(np.finfo(float).max)
        for s1 in (top, math.nextafter(top, math.inf)):
            d = log_odds(pop, np.array([s1]), np.zeros(1))
            assert d[0] == s1
            pu, pv = weights_of_log_odds(d)
            assert posterior_weights(pop.instance(s1, 0.0)) == (pu[0], pv[0])


def _phi_oracle(a1, b1, a2, b2, g2, s1, s2) -> tuple[float, float]:
    """(Phi1, Phi2) as Pr(th1 < th2) under A1 and A2, from the quality
    posteriors N(a (s - b) / t, g2 / t), t = a^2 + g2, in 60 digits."""
    with mpmath.workdps(60):
        a1, b1, a2, b2, g2, s1, s2 = map(mpmath.mpf, (a1, b1, a2, b2, g2, s1, s2))
        t1, t2 = a1 * a1 + g2, a2 * a2 + g2
        sd = mpmath.sqrt(g2 / t1 + g2 / t2)
        x1 = (a2 * (s2 - b2) / t2 - a1 * (s1 - b1) / t1) / sd
        x2 = (a1 * (s2 - b1) / t1 - a2 * (s1 - b2) / t2) / sd
        # Beyond |x| = 100, Phi is within 1e-2000 of 0 or 1, and mpmath's
        # erfc fails on arguments near 1e300.
        return tuple(float(mpmath.ncdf(max(-100, min(x, 100)))) for x in (x1, x2))


class TestPhiPair:
    def test_symmetric_instance_gives_half(self):
        inst = make_instance(1, 0, 1, 0, 1.0, 0.0, 0.0)
        pp = phi_pair(inst)
        assert pp.phi1 == pytest.approx(0.5, abs=1e-15)
        assert pp.phi2 == pytest.approx(0.5, abs=1e-15)

    def test_reference_instance(self):
        inst = make_instance(1, 0, 2, 0, 1.0, 1.0, 1.0)
        pp = phi_pair(inst)
        assert pp.phi1 == pytest.approx(norm.cdf(-1.0 / math.sqrt(70.0)), abs=1e-12)
        assert pp.phi2 == pytest.approx(norm.cdf(1.0 / math.sqrt(70.0)), abs=1e-12)

    def test_dominant_first_score_drives_phi_to_zero(self):
        inst = make_instance(1, 0, 1.3, 0.2, 1.0, 50.0, 0.5)
        pp = phi_pair(inst)
        assert pp.phi1 < 1e-10
        assert pp.phi2 < 1e-10

    def test_underflowing_denominator_keeps_the_noiseless_limit(self):
        """At sigma2 = 5e-324 the product under phi's square root underflows;
        its square roots do not, and phi keeps its value at sigma2 = 1e-300."""
        tiny, small = (make_instance(1, 0, 0.5, 1, g2, 0.5, 1.0) for g2 in (5e-324, 1e-300))
        assert phi_pair(tiny) == phi_pair(small)

    def test_underflowing_root_product_gives_the_exact_limits(self):
        """Here the product of phi's four square roots underflows too. In
        exact arithmetic x1 = -4.2e72 and x2 = 1.1e92: x^2 = num^2 /
        (g2 (a1^2 + a2^2 + 2 g2) t1 t2) in Fractions, its sign num's."""
        args = (
            1.7279889467572657e-73, -1.1086098787300444e-282,
            1.7325726654343732e-168, 4.073267281433621,
            3.0033406851515627e-182, 0.7241782567958, 6.047463332384874e19,
        )
        a1, b1, a2, b2, g2, s1, s2 = map(Fraction, args)
        t1, t2 = a1 * a1 + g2, a2 * a2 + g2
        den2 = g2 * (a1 * a1 + a2 * a2 + 2 * g2) * t1 * t2
        num1 = a2 * t1 * (s2 - b2) - a1 * t2 * (s1 - b1)
        num2 = a1 * t2 * (s2 - b1) - a2 * t1 * (s1 - b2)
        assert num1 < 0 < num2
        assert num1 * num1 > 10**145 * den2 and num2 * num2 > 10**185 * den2
        pp = phi_pair(make_instance(*args))
        assert (pp.phi1, pp.phi2) == (0.0, 1.0)

    def test_scaling_every_input_keeps_phi(self):
        """x is unchanged when a1, a2, sqrt(sigma2), b and s scale together.
        At 2^-300 the product under the square root and the product of its
        roots both underflow; phi keeps its value at scale 1 to 1e-15."""
        c = 2.0**-300
        want = phi_pair(make_instance(1, 0, 2, 0, 1, 1, 1))
        got = phi_pair(make_instance(c, 0, 2 * c, 0, c * c, c, c))
        assert got.phi1 == pytest.approx(want.phi1, abs=1e-15)
        assert got.phi2 == pytest.approx(want.phi2, abs=1e-15)

    def test_overflowing_root_product_gives_the_ratio(self):
        """At sigma2 = 1.2e308, a1^2 + a2^2 + 2 sigma2 overflows, so the
        product of phi's four square roots does too, and so does Phi2's
        numerator; the ratio x2 = 8.8e-309 is finite. Phi1 and Phi2 match
        a 60-digit oracle of the quality posteriors to 1e-15."""
        args = (1, 0, 1, 1, 1.2e308, 0.5, 1.0)
        pp, want = phi_pair(make_instance(*args)), _phi_oracle(*args)
        assert pp.phi1 == pytest.approx(want[0], abs=1e-15)
        assert pp.phi2 == pytest.approx(want[1], abs=1e-15)

    def test_noiseless_mode_rejected(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        with pytest.raises(ModeError):
            phi_pair(inst)

    def test_monte_carlo_consistency(self, rng):
        """Phi matches posterior sampling of the qualities within 3 SE."""
        n = 1_000_000
        for _ in range(100):
            inst = random_noisy_instance(rng)
            pp = phi_pair(inst)
            for assignment, target in (
                (Assignment.A1, pp.phi1),
                (Assignment.A2, pp.phi2),
            ):
                p1 = quality_posterior(inst, 1, assignment)
                p2 = quality_posterior(inst, 2, assignment)
                z = rng.standard_normal((2, n))
                t1 = p1.mean + math.sqrt(p1.variance) * z[0]
                t2 = p2.mean + math.sqrt(p2.variance) * z[1]
                est = float(np.mean(t1 <= t2))
                spread = max(est * (1.0 - est), target * (1.0 - target))
                se = math.sqrt(spread / n)
                # 4 SE: 400 comparisons share this bound, so a 3 SE cutoff
                # would fail by chance about half the time.
                assert abs(est - target) <= 4.0 * se + 1e-6

    @given(
        a1=slopes, b1=offsets, a2=slopes, b2=offsets,
        sigma2=st.floats(0.1, 2.0), s1=finite_scores, s2=finite_scores,
    )
    @settings(max_examples=60, deadline=None)
    def test_relabeling_symmetry(self, a1, b1, a2, b2, sigma2, s1, s2):
        """Relabeling the papers maps (Phi1, Phi2) to (1-Phi2, 1-Phi1) and (u, v) to (v, u)."""
        inst = make_instance(a1, b1, a2, b2, sigma2, s1, s2)
        swapped = inst.swap_papers()
        pp, qq = phi_pair(inst), phi_pair(swapped)
        assert abs(qq.phi1 - (1.0 - pp.phi2)) <= 1e-12
        assert abs(qq.phi2 - (1.0 - pp.phi1)) <= 1e-12
        lp, lq = likelihoods(inst), likelihoods(swapped)
        assert lq.u == pytest.approx(lp.v, rel=1e-12, abs=1e-300)
        assert lq.v == pytest.approx(lp.u, rel=1e-12, abs=1e-300)

    @given(
        a1=_magnitudes, b1=_locations, a2=_magnitudes, b2=_locations,
        sigma2=_magnitudes, s1=_locations, s2=_locations,
    )
    @settings(max_examples=300, deadline=None)
    def test_extreme_magnitudes_give_a_result_or_a_documented_error(
        self, a1, b1, a2, b2, sigma2, s1, s2
    ):
        """Each instance is rejected when built, or gives Phi1 and Phi2 in
        [0, 1], or raises DegenerateInstanceError, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                inst = make_instance(a1, b1, a2, b2, sigma2, s1, s2)
            except ConfigurationError:
                return
            try:
                pp = phi_pair(inst)
            except DegenerateInstanceError:
                return
        assert 0.0 <= pp.phi1 <= 1.0 and 0.0 <= pp.phi2 <= 1.0


class TestLogRatio:
    def test_affine_difference_matches_exact_rationals(self):
        """For affine reviewers d = log_ratio(s2) - log_ratio(s1) = log v -
        log u is rational in the float inputs, since the log-variance terms
        cancel: the sum of the four (s_i - b_j)^2 / (2 v_j) with signs,
        which Fraction evaluates exactly. The error is bounded relative
        to M, 1 plus the sum of the four terms' sizes."""
        rng = np.random.default_rng(11)
        aff = ReviewerProfile.affine
        for k in range(300):
            sigma2 = (0.0, 1e-6, 0.4)[k % 3]
            a1, a2 = rng.uniform(0.3, 3.0, 2)
            if k % 9 < 3:
                # v1 and v2 a few ulps to a few parts in 1e9 apart.
                a2 = a1 * (1.0 + 1e-9 * rng.standard_normal())
            b1, b2 = rng.normal(0.0, 1.0, 2)
            s1, s2 = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-2.0, 3.0, 2)
            pop = Population(aff(a1, b1), aff(a2, b2), sigma2)
            d = log_ratio(pop, s2) - log_ratio(pop, s1)
            v1 = Fraction(a1) ** 2 + Fraction(sigma2)
            v2 = Fraction(a2) ** 2 + Fraction(sigma2)

            def term(s, b, v):
                return (Fraction(s) - Fraction(b)) ** 2 / (2 * v)

            t11, t22 = term(s1, b1, v1), term(s2, b2, v2)
            t12, t21 = term(s1, b2, v2), term(s2, b1, v1)
            exact = t11 + t22 - t12 - t21
            m = 1 + t11 + t22 + t12 + t21
            assert abs(Fraction(d) - exact) <= Fraction(4e-15) * m, (k, pop, s1, s2)

    @pytest.mark.parametrize("sigma2", [0.0, 0.4])
    def test_array_forms_match_float_calls(self, rng, sigma2):
        pop = Population(
            ReviewerProfile.affine(1.2, -0.3), ReviewerProfile.affine(0.8, 0.6), sigma2
        )
        s = rng.normal(0, 3, 200)
        out = np.empty_like(s)
        assert log_ratio(pop, s, out) is out
        assert out.tobytes() == log_ratio(pop, s).tobytes()
        for i in range(s.size):
            assert out[i] == log_ratio(pop, float(s[i]))

    def test_general_profiles_take_the_two_log_densities(self, rng):
        pop = Population(sinh_profile(), ReviewerProfile.affine(1.0, 0.5))
        s = np.concatenate([rng.normal(0, 3, 200), [0.0, -1e3, 1e3]])
        want = log_marginal_score_density(pop.reviewer1, 0.0, s)
        want -= log_marginal_score_density(pop.reviewer2, 0.0, s)
        assert log_ratio(pop, s).tobytes() == want.tobytes()
        out = np.empty_like(s)
        assert log_ratio(pop, s, out).tobytes() == want.tobytes()

    def test_identical_reviewers_give_zero(self):
        prof = ReviewerProfile.affine(1.7, -0.4)
        pop = Population(prof, prof, 0.3)
        assert log_ratio(pop, np.array([-1e3, -1.0, 0.0, 2.5, 1e3])).tolist() == [0.0] * 5


class TestQualityPosterior:
    def test_direct_substitution(self):
        inst = make_instance(1, 0, 2, 1, 1.0, 2.0, 0.0)
        post = quality_posterior(inst, 1, Assignment.A1)
        assert post.mean == pytest.approx(1.0, abs=1e-14)
        assert post.variance == pytest.approx(0.5, abs=1e-14)

    def test_centered_observation_keeps_prior_mean(self):
        inst = make_instance(1.7, 0.4, 2.0, 1.0, 0.9, 0.4, 0.0)
        post = quality_posterior(inst, 1, Assignment.A1)
        assert post.mean == pytest.approx(0.0, abs=1e-14)

    def test_uninformative_limit(self):
        inst = make_instance(1, 0, 1, 0, 1e8, 2.0, 0.0)
        post = quality_posterior(inst, 1, Assignment.A1)
        assert post.mean == pytest.approx(0.0, abs=1e-6)
        assert post.variance == pytest.approx(1.0, abs=1e-6)

    def test_crossed_routing_under_a2(self):
        inst = make_instance(1, 0, 2, 1, 1.0, 2.0, 0.0)
        post = quality_posterior(inst, 1, Assignment.A2)
        # Paper 1 read by reviewer 2 under A2: mean a2 (s1 - b2) / (a2^2 + s2).
        assert post.mean == pytest.approx(2.0 * (2.0 - 1.0) / 5.0, abs=1e-14)
        assert post.variance == pytest.approx(0.2, abs=1e-14)

    def test_noiseless_rejected(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        with pytest.raises(ModeError):
            quality_posterior(inst, 1, Assignment.A1)

    def test_paper_must_be_1_or_2(self):
        inst = make_instance(1, 0, 1, 1, 0.5, 0.5, 1.0)
        with pytest.raises(ConfigurationError, match="paper"):
            quality_posterior(inst, 3, Assignment.A1)


class TestThresholds:
    @pytest.mark.parametrize("noisy", [False, True])
    def test_float_and_one_element_array_agree(self, rng, noisy):
        for _ in range(100):
            inst = random_noisy_instance(rng) if noisy else random_noiseless_instance(rng)
            pop = Population(inst.reviewer1, inst.reviewer2, inst.sigma2)
            s2 = inst.scores.s2
            for model in (inst, pop):
                ta, tb = thresholds(model, s2)
                ta_arr, tb_arr = thresholds(model, np.array([s2]))
                assert ta_arr.shape == (1,) and tb_arr.shape == (1,)
                assert ta_arr[0] == ta and tb_arr[0] == tb

    def test_general_monotone_float_and_array_agree(self):
        pop = Population(sinh_profile(), cubic_profile())
        s2 = np.linspace(-5.0, 5.0, 41)
        ta_arr, tb_arr = thresholds(pop, s2)
        for i, s in enumerate(s2):
            ta, tb = thresholds(pop, float(s))
            assert ta_arr[i] == ta and tb_arr[i] == tb

    # Units of roundoff (2^-53) of M = |b| + |slope (s2 - b')|: the
    # slope's own roundings, one noiseless and seven noisy, one each for
    # s2 - b', the product and the sum, and one for second-order terms.
    ROUNDOFFS = {False: 5, True: 11}

    @pytest.mark.parametrize("noisy", [False, True])
    def test_affine_thresholds_match_exact_rationals(self, noisy):
        """Both paths of an affine pair's thresholds, ta = b2 + slope_a (s2 -
        b1) and tb = b1 + slope_b (s2 - b2) with slope_a = a1 t2 / (a2 t1),
        slope_b its reciprocal and t_j = a_j^2 + sigma2, against Fraction
        arithmetic on the same float inputs."""
        rng = np.random.default_rng(13 + noisy)
        aff = ReviewerProfile.affine
        bound = Fraction(self.ROUNDOFFS[noisy], 2**53)
        for k in range(300):
            a1, a2 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 2))
            if k % 10 == 0:
                a2 = a1  # slope exactly 1
            b1, b2 = rng.normal(0.0, 1.0, 2)
            sigma2 = float(10.0 ** rng.uniform(-6.0, 1.0)) if noisy else 0.0
            s2 = rng.choice([-1.0, 1.0], 8) * 10.0 ** rng.uniform(-3.0, 3.0, 8)
            pop = Population(aff(a1, b1), aff(a2, b2), sigma2)
            t1 = Fraction(a1) ** 2 + Fraction(sigma2)
            t2 = Fraction(a2) ** 2 + Fraction(sigma2)
            slope_a = Fraction(a1) * t2 / (Fraction(a2) * t1)
            ta_arr, tb_arr = thresholds(pop, s2, np.empty((2, s2.size)))
            for i, s in enumerate(s2.tolist()):
                ta, tb = thresholds(pop, s)
                assert ta_arr[i] == ta and tb_arr[i] == tb
                for got, b, slope, other_b in (
                    (ta, b2, slope_a, b1),
                    (tb, b1, 1 / slope_a, b2),
                ):
                    term = slope * (Fraction(s) - Fraction(other_b))
                    m = abs(Fraction(b)) + abs(term)
                    assert abs(Fraction(got) - Fraction(b) - term) <= bound * m, (k, pop, s)

    def test_noisy_thresholds_are_where_phi_crosses_one_half(self, rng):
        for _ in range(50):
            inst = random_noisy_instance(rng)
            s2 = inst.scores.s2
            ta, tb = thresholds(inst, s2)
            at_tb = dataclasses.replace(inst, scores=ScorePair(tb, s2))
            at_ta = dataclasses.replace(inst, scores=ScorePair(ta, s2))
            assert phi_pair(at_tb).phi1 == pytest.approx(0.5, abs=1e-9)
            assert phi_pair(at_ta).phi2 == pytest.approx(0.5, abs=1e-9)
