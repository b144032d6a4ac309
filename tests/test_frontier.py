"""Tests for the Pareto frontier and the max-adversary-error curve."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.stats import norm

from privcal import (
    DegenerateInstanceError,
    ErrorPair,
    Infeasible,
    Instance,
    ScorePair,
    SegmentKind,
    curve_vertices,
    frontier,
    max_adversary_error_curve,
)
from privcal.adversary import per_instance_errors
from privcal.frontier import instance_geometry
from privcal.mechanism import Policy, alg1_policy, alg3_policy
from privcal.model import Decision, Population, map_decisions, thresholds
from conftest import (
    _scenario_errors_grid,
    curve_policy,
    make_instance,
    random_noiseless_instance,
    random_noisy_instance,
    random_part2_instance,
    vertex_tolerance,
)


class TestNoiselessFrontier:
    def test_identical_reviewers_forced_point(self):
        inst = make_instance(1.1, 0.4, 1.1, 0.4, 0.0, 0.3, 1.2)
        seg = frontier(inst)
        assert seg.kind is SegmentKind.POINT
        assert seg.start.ec == pytest.approx(0.0, abs=1e-15)
        assert seg.start.ea == pytest.approx(0.5, abs=1e-14)

    def test_reference_segment(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        seg = frontier(inst)
        assert seg.kind is SegmentKind.SEGMENT
        assert seg.start.ec == 0.0 and seg.start.ea == 0.0
        m_exp = norm.pdf(0.5, 1.0, 1.0) * norm.pdf(1.0)
        m_exp = m_exp / (m_exp + norm.pdf(0.5) * norm.pdf(1.0, 1.0, 1.0))
        assert seg.end.ec == pytest.approx(m_exp, rel=1e-12)
        assert seg.end.ec == pytest.approx(0.377541, abs=1e-5)
        assert seg.end.ec == seg.end.ea

    def test_forced_point_outside_thresholds(self):
        inst = make_instance(1, 0, 1, 2, 0.0, 3.0, 0.5)
        seg = frontier(inst)
        assert seg.kind is SegmentKind.POINT
        m_exp = norm.pdf(1.0) * norm.pdf(0.5)
        m_exp = m_exp / (m_exp + norm.pdf(3.0) * norm.pdf(-1.5))
        assert seg.start.ea == pytest.approx(min(m_exp, 1 - m_exp), rel=1e-9)
        assert seg.start.ea == pytest.approx(0.006693, abs=5e-7)

    def test_boundary_score_is_forced(self):
        # s1 exactly at the upper threshold.
        inst = make_instance(1, 0, 1, 2, 0.0, 2.5, 0.5)
        assert frontier(inst).kind is SegmentKind.POINT


class TestNoisyFrontier:
    def test_symmetric_boundary_point(self):
        inst = make_instance(1, 0, 1, 0, 1.0, 0.7, 0.7)
        seg = frontier(inst)
        assert seg.kind is SegmentKind.POINT
        assert seg.start.ec == pytest.approx(0.5, abs=1e-14)
        assert seg.start.ea == pytest.approx(0.5, abs=1e-14)

    def test_forced_point_far_score(self):
        inst = make_instance(1, 0, 1.4, 0.3, 0.8, 6.0, 0.2)
        seg = frontier(inst)
        assert seg.kind is SegmentKind.POINT
        geom = instance_geometry(inst)
        from conftest import likelihoods
        from privcal import phi_pair

        lp, pp = likelihoods(inst), phi_pair(inst)
        ec_exp = (lp.u * pp.phi1 + lp.v * pp.phi2) / (lp.u + lp.v)
        assert seg.start.ec == pytest.approx(ec_exp, rel=1e-12)
        assert seg.start.ea == pytest.approx(geom.m, abs=1e-15)

    def test_canonical_case_closed_forms(self, rng):
        """Segment endpoints match the worked closed forms in the canonical
        arrangement (u < v, phi1 < 1/2 < phi2, phi2 - 1/2 < 1/2 - phi1)."""
        from conftest import likelihoods
        from privcal import phi_pair

        found = 0
        while found < 25:
            inst = random_noisy_instance(rng)
            geom = instance_geometry(inst)
            if not geom.part2:
                continue
            lp, pp = likelihoods(inst), phi_pair(inst)
            u, v = lp.u, lp.v
            if not (
                u < v and pp.phi1 < 0.5 < pp.phi2 and pp.phi2 - 0.5 < 0.5 - pp.phi1
            ):
                continue
            found += 1
            seg = frontier(inst)
            start_exp = (u * pp.phi1 + v * (1.0 - pp.phi2)) / (u + v)
            end_exp = (u * (pp.phi1 + 2.0 * pp.phi2 - 1.0) + v * (1.0 - pp.phi2)) / (
                u + v
            )
            assert abs(seg.start.ec - start_exp) <= 1e-12
            assert abs(seg.end.ec - end_exp) <= 1e-12
            assert abs(seg.end.ea - u / (u + v)) <= 1e-12
            assert seg.start.ea == 0.0

    def test_segment_is_nondecreasing(self, rng):
        for _ in range(200):
            inst = random_part2_instance(rng, noisy=True)
            seg = frontier(inst)
            assert seg.start.ec <= seg.end.ec + 1e-15
            assert seg.start.ea <= seg.end.ea

    @pytest.mark.parametrize("sigma2", [1e-12, 1e-9, 1e-6])
    def test_tends_to_noiseless_frontier_as_noise_vanishes(self, rng, sigma2):
        tol = 10.0 * math.sqrt(sigma2)
        for _ in range(300):
            inst = random_noiseless_instance(rng)
            exact = frontier(inst)
            near = frontier(dataclasses.replace(inst, sigma2=sigma2))
            assert near.kind is exact.kind
            for a, b in ((near.start, exact.start), (near.end, exact.end)):
                assert abs(a.ec - b.ec) <= tol
                assert abs(a.ea - b.ea) <= tol
            assert abs(near.min_feasible_ec - exact.min_feasible_ec) <= tol


class TestRelabelingInvariance:
    def test_double_swap_identity(self, rng):
        for _ in range(50):
            for noisy in (False, True):
                inst = (
                    random_noisy_instance(rng) if noisy else random_noiseless_instance(rng)
                )
                twice = inst.swap_papers().swap_papers().swap_reviewers().swap_reviewers()
                assert frontier(twice) == frontier(inst)

    def test_single_swaps_preserve_frontier(self, rng):
        """Relabeling papers or reviewers cannot change the error tradeoff."""
        for _ in range(100):
            inst = random_noisy_instance(rng)
            seg = frontier(inst)
            for other in (inst.swap_papers(), inst.swap_reviewers()):
                seg2 = frontier(other)
                assert seg2.kind is seg.kind
                assert seg2.start.ec == pytest.approx(seg.start.ec, abs=1e-12)
                assert seg2.start.ea == pytest.approx(seg.start.ea, abs=1e-12)
                assert seg2.end.ec == pytest.approx(seg.end.ec, abs=1e-12)
                assert seg2.end.ea == pytest.approx(seg.end.ea, abs=1e-12)


def _fresh(inst, **changes):
    """A newly constructed Instance equal to inst with changes applied."""
    kw = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}
    kw.update(changes)
    return Instance(**kw)


class TestStoredGeometry:
    """instance_geometry builds the geometry once per Instance and stores it."""

    @pytest.mark.parametrize("noisy", [False, True])
    def test_second_call_returns_the_stored_object(self, rng, noisy):
        for _ in range(20):
            inst = (
                random_noisy_instance(rng) if noisy else random_noiseless_instance(rng)
            )
            assert instance_geometry(inst) is instance_geometry(inst)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_copies_build_their_own_geometry(self, rng, noisy):
        for _ in range(20):
            inst = random_part2_instance(rng, noisy=noisy)
            stored = instance_geometry(inst)
            moved = ScorePair(inst.scores.s1 + 0.25, inst.scores.s2)
            copies = [
                (inst.swap_papers(), _fresh(inst, scores=inst.scores.swapped())),
                (
                    inst.swap_reviewers(),
                    _fresh(inst, reviewer1=inst.reviewer2, reviewer2=inst.reviewer1),
                ),
                (dataclasses.replace(inst), _fresh(inst)),
                (dataclasses.replace(inst, scores=moved), _fresh(inst, scores=moved)),
            ]
            for copy, fresh in copies:
                got = instance_geometry(copy)
                assert got is not stored
                # astuple includes the derived scalars, which == skips.
                assert dataclasses.astuple(got) == dataclasses.astuple(
                    instance_geometry(fresh)
                )

    @pytest.mark.parametrize("noisy", [False, True])
    def test_stored_geometry_is_invisible_to_eq_hash_repr(self, rng, noisy):
        for _ in range(20):
            inst = random_part2_instance(rng, noisy=noisy)
            instance_geometry(inst)
            fresh = _fresh(inst)
            assert inst == fresh
            assert hash(inst) == hash(fresh)
            assert repr(inst) == repr(fresh)

    @pytest.mark.parametrize("sigma2", [0.0, 0.5])
    def test_degenerate_instance_raises_on_every_call(self, sigma2):
        # Unequal slopes: both log ratios overflow, and the log odds are NaN.
        inst = make_instance(1.0, 0.0, 2.0, 1.0, sigma2, 1e200, -1e200)
        for _ in range(2):
            with pytest.raises(DegenerateInstanceError):
                instance_geometry(inst)


class TestRegimeRule:
    """instance_geometry classifies by model.thresholds in both noise modes,
    the rule simulate_average applies to each replicate."""

    @staticmethod
    def _check(pop, s1, s2):
        ta, tb = thresholds(pop, s2)
        geom = instance_geometry(pop.instance(s1, s2))
        assert geom.part2 == ((s1 > tb) != (s1 > ta))
        assert (geom.d1 is Decision.PAPER1) == (s1 > tb)
        assert (geom.d2 is Decision.PAPER1) == (s1 > ta)
        assert geom.phi1 <= 0.5 <= geom.phi2

    @pytest.mark.parametrize("noisy", [False, True])
    def test_geometry_matches_thresholds_at_random_and_near_threshold_scores(
        self, rng, noisy
    ):
        for _ in range(500):
            inst = random_noisy_instance(rng) if noisy else random_noiseless_instance(rng)
            pop = Population(inst.reviewer1, inst.reviewer2, inst.sigma2)
            s1, s2 = inst.scores.s1, inst.scores.s2
            self._check(pop, s1, s2)
            for t in thresholds(pop, s2):
                for side in (-math.inf, math.inf):
                    self._check(pop, math.nextafter(t, side), s2)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_one_array_call_matches_scalar_geometry(self, rng, noisy):
        """map_decisions on an array agrees exactly with the scalar geometry's
        d1 and d2: at random scores, on each threshold and one ulp
        either side, and for identical reviewers at equal scores."""
        for k in range(500):
            inst = random_noisy_instance(rng) if noisy else random_noiseless_instance(rng)
            r2 = inst.reviewer1 if k % 10 == 0 else inst.reviewer2
            pop = Population(inst.reviewer1, r2, inst.sigma2)
            s1, s2 = inst.scores.s1, inst.scores.s2
            s1s = [s1, s2] + [
                x
                for t in thresholds(pop, s2)
                for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))
            ]
            p1_a1, p1_a2 = map_decisions(pop, np.array(s1s), np.full(len(s1s), s2))
            for i, x in enumerate(s1s):
                geom = instance_geometry(pop.instance(x, s2))
                assert (geom.d1 is Decision.PAPER1) == p1_a1[i]
                assert (geom.d2 is Decision.PAPER1) == p1_a2[i]

    @pytest.mark.parametrize("sigma2", [0.0, 0.5])
    def test_identical_reviewers_tie_at_equal_scores(self, rng, sigma2):
        for _ in range(200):
            a, b, s = rng.uniform(0.3, 3.0), rng.normal(), rng.normal(0.0, 2.0)
            geom = instance_geometry(make_instance(a, b, a, b, sigma2, s, s))
            assert geom.d1 is geom.d2 is Decision.PAPER1


# Affine instances in either noise mode: sigma2 = 0 about one time in four.
_instances = st.builds(
    make_instance,
    st.floats(0.2, 3.0),
    st.floats(-2.0, 2.0),
    st.floats(0.2, 3.0),
    st.floats(-2.0, 2.0),
    st.one_of(st.just(0.0), st.floats(0.01, 4.0), st.floats(0.01, 4.0), st.floats(0.01, 4.0)),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)


# A slope alpha is 0, so the rising edge is vertical: both slopes at
# the first instance, alpha1 at the second (alpha2 5.6e-11).
_VERTICAL = [(1, 5.76e-182, 1, 0, 1, 0, 0), (1, 0, 1, 1, 1e10, 0.5000001, 1.5)]
_ALPHA1_PIN = (1, 0.5, 2, 0, 2, 0.5, 9.044073169300818e-13)


class TestMaxAdversaryErrorCurve:
    @pytest.mark.parametrize("s1, s2, sigma2", [(0.5, 1.0, 1e16), (0.5000001, 1.5, 1e10)])
    def test_a_zero_slope_leaves_its_q_free(self, s1, s2, sigma2):
        """phi1 (and at sigma2 = 1e16 phi2 too) rounds to 1/2, so alpha1 is
        0: q1 does not move the conference error, and the adversary error
        reaches m at every feasible target."""
        inst = make_instance(1, 0, 1, 1, sigma2, s1, s2)
        geom = instance_geometry(inst)
        assert geom.part2 and geom.alpha1 == 0.0
        for ec in np.linspace(geom.truthful_ec, geom.ec_intercept, 11):
            assert max_adversary_error_curve(inst, ec) == geom.m
        err = per_instance_errors(inst, Policy(1.0, 0.0))
        assert err.ec == geom.ec_intercept
        assert err.ea == pytest.approx(geom.m, abs=1e-15)

    def test_noiseless_trapezoid_reference(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        m = frontier(inst).end.ea
        assert max_adversary_error_curve(inst, 0.0) == 0.0
        assert max_adversary_error_curve(inst, 0.2) == pytest.approx(0.2, abs=1e-12)
        assert max_adversary_error_curve(inst, 0.5) == pytest.approx(m, abs=1e-15)
        assert max_adversary_error_curve(inst, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_slope_one_law(self, rng):
        for _ in range(100):
            inst = random_part2_instance(rng, noisy=False)
            m = instance_geometry(inst).m
            for ec in np.linspace(0.0, m, 11):
                assert abs(max_adversary_error_curve(inst, float(ec)) - ec) <= 1e-12

    @given(inst=_instances)
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_end_vertex_law(self, inst):
        _assert_end_vertex_law(inst)

    @pytest.mark.parametrize("args", [*_VERTICAL, _ALPHA1_PIN])
    def test_end_vertex_law_at_pinned_instances(self, args):
        _assert_end_vertex_law(make_instance(*args))

    def test_ceiling_law(self, rng):
        for _ in range(100):
            noisy = bool(rng.integers(0, 2))
            inst = random_part2_instance(rng, noisy=noisy)
            geom = instance_geometry(inst)
            lo = geom.ec_intercept - geom.alpha1 - geom.alpha2
            for ec in np.linspace(lo, geom.ec_intercept, 13):
                val = max_adversary_error_curve(inst, float(ec))
                assert not isinstance(val, Infeasible)
                assert val <= geom.m + 1e-12

    def test_infeasible_is_a_result_not_an_exception(self, rng):
        inst = random_part2_instance(rng, noisy=True)
        geom = instance_geometry(inst)
        lo = geom.ec_intercept - geom.alpha1 - geom.alpha2
        if lo > 0.0:
            res = max_adversary_error_curve(inst, lo / 2.0)
            assert isinstance(res, Infeasible)
            assert res.min_feasible_ec == pytest.approx(lo, abs=1e-15)
        res = max_adversary_error_curve(inst, 1.0)
        assert isinstance(res, Infeasible)

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_nan_target_is_infeasible(self, rng, noisy):
        inst = random_part2_instance(rng, noisy=noisy)
        geom = instance_geometry(inst)
        res = max_adversary_error_curve(inst, math.nan)
        assert isinstance(res, Infeasible)
        assert res == Infeasible(geom.truthful_ec, geom.ec_intercept)

    def test_forced_instance_curve(self):
        inst = make_instance(1, 0, 1, 2, 0.0, 3.0, 0.5)
        geom = instance_geometry(inst)
        assert max_adversary_error_curve(inst, 0.0) == pytest.approx(geom.m)
        assert isinstance(max_adversary_error_curve(inst, 0.3), Infeasible)

    def test_attainment(self, rng):
        """curve_policy realizes (ec, curve(ec)) exactly through the
        scenario-table error computation."""
        for _ in range(200):
            noisy = bool(rng.integers(0, 2))
            inst = random_part2_instance(rng, noisy=noisy)
            geom = instance_geometry(inst)
            lo = geom.ec_intercept - geom.alpha1 - geom.alpha2
            for ec in np.linspace(lo, geom.ec_intercept, 9):
                ec = float(ec)
                val = max_adversary_error_curve(inst, ec)
                q = curve_policy(inst, ec)
                assert not isinstance(q, Infeasible)
                errs = per_instance_errors(inst, Policy(q[0], q[1]))
                assert abs(errs.ec - ec) <= 1e-12
                assert abs(errs.ea - val) <= 1e-12

    def test_linprog_vertex_oracle(self, rng):
        """The curve agrees with an LP-based evaluation of the constrained
        policy set: w-extremes from linprog, then the piecewise error form."""
        for _ in range(200):
            noisy = bool(rng.integers(0, 2))
            inst = random_part2_instance(rng, noisy=noisy)
            geom = instance_geometry(inst)
            lo = geom.ec_intercept - geom.alpha1 - geom.alpha2
            a_eq = [[geom.alpha1, geom.alpha2]]
            for ec in np.linspace(lo, geom.ec_intercept, 7):
                ec = float(ec)
                t = geom.ec_intercept - ec
                t = min(max(t, 0.0), geom.alpha1 + geom.alpha2)
                sols = []
                for sign in (1.0, -1.0):
                    res = linprog(
                        [sign * geom.pu, sign * geom.pv],
                        A_eq=a_eq,
                        b_eq=[t],
                        bounds=[(0, 1), (0, 1)],
                        method="highs",
                    )
                    assert res.success
                    sols.append(float(geom.pu * res.x[0] + geom.pv * res.x[1]))
                wmin, wmax = min(sols), max(sols)
                small, big = geom.m, max(geom.pu, geom.pv)
                if wmax < small:
                    expected = wmax
                elif wmin > big:
                    expected = 1.0 - wmin
                else:
                    expected = small
                got = max_adversary_error_curve(inst, ec)
                assert got == pytest.approx(expected, abs=1e-9)

    def test_grid_oracle_equivalence(self, rng):
        """Brute-force policy-grid maximization reproduces the curve.

        For each target the one-sided maxima over the 2001 x 2001 grid
        are combined: min(max{E_A : E_C <= ec}, max{E_A : E_C >= ec})
        equals the trapezoid value on the rising, flat, and falling
        pieces alike, up to grid resolution.

        The one-sided maxima come from bucketing the grid points between
        consecutive targets. E_C = (c0 - alpha1 q1) - alpha2 q2 falls
        along each row of the grid, also in floating point, so one search
        of the targets per row finds the buckets as runs of the row.
        """
        q = np.linspace(0.0, 1.0, 2001)
        checked = 0
        for _ in range(200):
            noisy = bool(rng.integers(0, 2))
            inst = random_part2_instance(rng, noisy=noisy)
            geom = instance_geometry(inst)
            ec_all, ea_all = _scenario_errors_grid(geom, q[:, None], q[None, :])
            lo = geom.ec_intercept - geom.alpha1 - geom.alpha2
            targets = np.linspace(lo, geom.ec_intercept, 101)
            # With k targets strictly under its E_C, a point lands in slot
            # 2k, or in slot 2k + 1 when its E_C equals target k. Slots up
            # to 2k + 1 hold the points with E_C <= target k, slots from
            # 2k + 1 on those with E_C >= target k. E_A >= 0, so a slot
            # with no point holds 0, the value of an empty side.
            # Each row runs from the last slot down to slot 0. -E_C rises
            # along it, and the keys -t and the next float up count the
            # points with E_C > t and with E_C >= t: the runs' bounds.
            down = -targets[::-1]
            keys = np.column_stack([down, np.nextafter(down, np.inf)]).ravel()
            starts = np.zeros((q.size, keys.size + 1), dtype=np.intp)
            for bounds, u in zip(starts, -ec_all):
                bounds[1:] = np.searchsorted(u, keys)
            starts = (starts + q.size * np.arange(q.size)[:, None]).ravel()
            # reduceat cannot take an empty run; with those left out, each
            # run still ends where the next one starts.
            live = np.diff(starts, append=ea_all.size) > 0
            runs = np.zeros(starts.size)
            runs[live] = np.maximum.reduceat(ea_all.ravel(), starts[live])
            table = runs.reshape(q.size, -1).max(axis=0)[::-1]
            lefts = np.maximum.accumulate(table)[1::2]
            rights = np.maximum.accumulate(table[::-1])[::-1][1::2]
            for ec, left, right in zip(targets, lefts, rights):
                ec = float(ec)
                brute = min(left, right)
                got = max_adversary_error_curve(inst, ec)
                assert not isinstance(got, Infeasible)
                assert abs(got - brute) <= 2e-3
                checked += 1
        assert checked == 200 * 101


class TestCurveProperties:
    @given(inst=_instances)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_max_adversary_error_curve_is_a_trapezoid(self, inst):
        """Non-decreasing up to its flat top, never above m, non-increasing
        after the top, over the whole feasible conference-error range."""
        geom = instance_geometry(inst)
        if not geom.part2:
            assert max_adversary_error_curve(inst, geom.forced_ec) == geom.m
            return
        ecs = np.linspace(geom.truthful_ec, geom.ec_intercept, 41)
        ea = np.array([max_adversary_error_curve(inst, float(ec)) for ec in ecs])
        assert np.all(ea <= geom.m)
        top = int(np.argmax(ea))
        assert np.all(np.diff(ea[: top + 1]) >= -1e-15)
        assert np.all(np.diff(ea[top:]) <= 1e-15)

    @given(inst=_instances, ec=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_alg1_and_alg3_errors_lie_on_the_frontier(self, inst, ec):
        """The exact errors of Alg. 1 (noiseless) and Alg. 3 (noisy) lie on
        the frontier segment, or equal the point of a forced instance."""
        pol = alg1_policy(inst, ec) if inst.noiseless else alg3_policy(inst, ec)
        if isinstance(pol, Infeasible):
            assert ec < pol.min_feasible_ec
            return
        err = per_instance_errors(inst, pol)
        seg = frontier(inst)
        start, end = seg.start, seg.end
        assert start.ec - 1e-12 <= err.ec <= end.ec + 1e-12
        # On the line through start and end: a zero cross product.
        cross = (err.ec - start.ec) * (end.ea - start.ea) - (err.ea - start.ea) * (
            end.ec - start.ec
        )
        assert abs(cross) <= 1e-12

    @given(inst=_instances)
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_curve_passes_through_the_frontier_vertices(self, inst):
        _assert_curve_meets_frontier(inst)

    @pytest.mark.parametrize(
        "args",
        [
            (1, 0, 1, 1, 1, 1, 1.5),
            # alpha1 = 1.2e-13: a pinned-t solve divided by it.
            _ALPHA1_PIN,
        ],
    )
    def test_curve_meets_frontier_at_pinned_instances(self, args):
        _assert_curve_meets_frontier(make_instance(*args))

    def test_vertical_edge_reads_m(self):
        """A slope alpha is 0 on both instances: its q moves the adversary
        error but not the conference error, so every policy at
        truthful_ec reaches the ceiling m, and the Pareto set is the
        single point (truthful_ec, m)."""
        for args in _VERTICAL:
            inst = make_instance(*args)
            geom = instance_geometry(inst)
            seg = frontier(inst)
            assert seg.kind is SegmentKind.SEGMENT
            assert seg.start == seg.end == ErrorPair(geom.truthful_ec, geom.m)
            assert max_adversary_error_curve(inst, seg.start.ec) == seg.end.ea == geom.m


class TestCurveVertices:
    @given(inst=_instances)
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_vertices_of_random_instances(self, inst):
        _assert_vertices(inst)

    @pytest.mark.parametrize(
        "args",
        [
            # Forced: identical reviewers, and a score far outside the
            # thresholds, noiseless and noisy.
            (1, 0, 1, 0, 0.0, 0.3, 0.7),
            (1, 0, 1, 2, 0.0, 5.0, 1.0),
            (1, 0, 1, 1, 0.5, 4.0, 0.0),
            *_VERTICAL,
            _ALPHA1_PIN,
            # A vertical rising edge whose mirror, start.ec + ec_intercept
            # - end.ec, rounds one ulp past ec_intercept.
            (
                4.447305328433578, 3.1961373494522804e-18, 2.785269848075557e-35,
                1.4366816795236163e-253, 1.6591986328477348, -2.4346381251532536,
                1.080179915473938e-199,
            ),
        ],
    )
    def test_vertices_of_pinned_instances(self, args):
        _assert_vertices(make_instance(*args))

    def test_noiseless_reference_vertices(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        m = frontier(inst).end.ea
        assert curve_vertices(inst) == (
            ErrorPair(0.0, 0.0),
            ErrorPair(m, m),
            ErrorPair(1.0 - m, m),
            ErrorPair(1.0, 0.0),
        )


def _assert_vertices(inst):
    """curve_vertices starts at frontier()'s start and end, rises in ec
    with no repeats, ends at ec_intercept, and linear interpolation
    between its vertices reads the curve."""
    seg = frontier(inst)
    vertices = curve_vertices(inst)
    if seg.kind is SegmentKind.POINT:
        assert vertices == (seg.start,)
        return
    geom = instance_geometry(inst)
    vertical = seg.start == seg.end
    first = (seg.start,) if vertical else (seg.start, seg.end)
    assert vertices[: len(first)] == first
    assert vertices[-1] == ErrorPair(geom.ec_intercept, geom.m if vertical else 0.0)
    pairs = list(zip(vertices, vertices[1:]))
    assert all(a.ec <= b.ec and a != b for a, b in pairs)
    tol = vertex_tolerance(inst)
    for a, b in pairs:
        for k, ec in enumerate(np.linspace(a.ec, b.ec, 9)):
            want = a.ea + (b.ea - a.ea) * k / 8
            assert abs(max_adversary_error_curve(inst, float(ec)) - want) <= tol
    ecs = np.linspace(geom.truthful_ec, geom.ec_intercept, 4001)
    top = max(max_adversary_error_curve(inst, float(ec)) for ec in ecs)
    assert top <= max(v.ea for v in vertices) + tol


def _assert_curve_meets_frontier(inst):
    """The curve reads frontier()'s start vertex exactly and its end
    vertex to 1e-15."""
    seg = frontier(inst)
    start, end = seg.start, seg.end
    assert abs(max_adversary_error_curve(inst, end.ec) - end.ea) <= 1e-15
    assert max_adversary_error_curve(inst, start.ec) == start.ea


def _assert_end_vertex_law(inst):
    """On a randomizing instance the rising edge spans end.ec - start.ec =
    m min(1 - 2 phi1, 2 phi2 - 1) in conference error, which is m in
    noiseless mode (the slope-one law). The bound is absolute, a few ulps
    of 1: both sides are differences of errors no larger than 1, and
    _endpoint forms end_ec as ec_intercept - t, which cancels where a
    slope is small (at _ALPHA1_PIN the two differ by 1.9e-17)."""
    geom = instance_geometry(inst)
    if not geom.part2:
        return
    seg = frontier(inst)
    law = geom.m * min(1.0 - 2.0 * geom.phi1, 2.0 * geom.phi2 - 1.0)
    assert abs((seg.end.ec - seg.start.ec) - law) <= 1e-15
