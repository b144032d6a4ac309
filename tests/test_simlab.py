"""Tests for the simulation harness and the calibration study."""

import dataclasses
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privcal import (
    ConfigurationError,
    Infeasible,
    Policy,
    Population,
    ReviewerProfile,
    StudyConfig,
    kendall_tau_distance,
    messy_middle_error,
    run_calibration_study,
    simulate_average,
    simulate_instance,
    zeta_eta,
)
from privcal import model, simlab
from privcal.simlab import (
    _BLOCK,
    _KENDALL_ROWS,
    _Workspace,
    STUDY_METHODS,
    Alg1Rule,
    Alg2Rule,
    TruthfulRule,
    _balanced_assignment,
    _draw_conference,
    _run_blocks,
    _thread_count,
    fit_within_conference,
    stream,
)
from privcal.adversary import per_instance_errors, scenario_table
from privcal.model import Decision, map_decisions
from privcal.mechanism import alg1_policy, alg3_policy
from privcal.frontier import ErrorPair, instance_geometry
from conftest import (
    kendall_tau_pairs,
    log_likelihoods,
    make_instance,
    posterior_weight_arrays,
    random_part2_instance,
    reference_simulate_average,
    reference_simulate_instance,
    sinh_profile,
)

# One replicate, one partial block, and several blocks with a ragged last one.
_NS = (1, _BLOCK - 3, 2 * _BLOCK + 1234)
# Around a run's usual length, 2^15, and one past a full block; around
# one block, where a run may hold all of it.
_BOUNDARY_NS = (
    2**15 - 1, 2**15, 2**15 + 1, 2**16 + 2**15 + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1
)


def _se(exact_p: float, res, which: str) -> float:
    """Binomial standard error floor: empirical SE degenerates to 0 when
    an event of tiny true probability never fires in the sample."""
    emp = res.stderr_ec if which == "ec" else res.stderr_ea
    return max(emp, math.sqrt(exact_p * (1.0 - exact_p) / res.n), 1e-9)


class TestStreams:
    def test_streams_are_reproducible(self):
        a = stream(7, 3).random(10)
        b = stream(7, 3).random(10)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = stream(7, 3).random(10)
        b = stream(7, 4).random(10)
        c = stream(8, 3).random(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_is_sfc64_seeded_by_a_spawn_key(self):
        for seed, index in ((0, 0), (7, 3), (2**64 - 1, 2**32 + 5)):
            seq = np.random.SeedSequence(seed, spawn_key=(index,))
            want = np.random.Generator(np.random.SFC64(seq))
            got = stream(seed, index)
            assert np.array_equal(got.random(64), want.random(64))
            assert np.array_equal(got.standard_normal(64), want.standard_normal(64))

    def test_adjacent_streams_share_no_block(self):
        # Neighboring indices seed independent SFC64 states, so even long
        # draws from them share no value.
        a = stream(0, 0).random(1 << 12)
        b = stream(0, 1).random(1 << 12)
        assert not np.intersect1d(a, b).size


class TestInputRules:
    """stream owns the seed rule and _run_blocks the replicate-count rule,
    so both simulators and the study share them."""

    STUDY = StudyConfig(
        n_papers=3, n_reviewers=3, iterations=1, accept_top=2, messy_lo=1, messy_hi=3
    )

    @staticmethod
    def _simulations(n, seed) -> list:
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        pop = _oracle_populations()["affine"]
        return [
            lambda: simulate_instance(inst, Policy(1.0, 0.5), n, seed),
            lambda: simulate_average(pop, TruthfulRule(), n, seed),
        ]

    def _study(self, seed):
        return run_calibration_study(dataclasses.replace(self.STUDY, seed=seed))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_outside_the_rule_raises(self, seed):
        rule = re.escape("seed must be an integer in [0, 2^64)")
        for run in self._simulations(100, seed) + [lambda: self._study(seed)]:
            with pytest.raises(ConfigurationError, match=rule):
                run()

    def test_integer_seeds_in_range_run(self):
        for big, three, uint in zip(
            self._simulations(100, 2**64 - 1),
            self._simulations(100, 3),
            self._simulations(100, np.uint64(3)),
        ):
            assert big().seed == 2**64 - 1
            assert uint() == three()
        self._study(2**64 - 1)
        assert self._study(np.uint64(3)) == self._study(3)

    @pytest.mark.parametrize("n", [0, 2**52 + 1, 1e6, True])
    def test_replicate_count_outside_the_rule_raises_before_any_block(self, n):
        rule = re.escape("n must be an integer in [1, 2^52]")
        calls = []
        with pytest.raises(ConfigurationError, match=rule):
            _run_blocks(n, 0, lambda *block: calls.append(block))
        assert calls == []
        for run in self._simulations(n, 0):
            with pytest.raises(ConfigurationError, match=rule):
                run()


class TestSimulateInstance:
    def test_truthful_noiseless_part2_is_exactly_revealing(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        res = simulate_instance(inst, Policy(1.0, 1.0), 2000, seed=5)
        # Noiseless qualities are recovered exactly and truthfulness
        # tells the adversary everything.
        assert res.empirical.ec == 0.0
        assert res.empirical.ea == 0.0

    def test_never_truthful_noiseless_part2_is_exactly_wrong_and_revealing(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        res = simulate_instance(inst, Policy(0.0, 0.0), 2000, seed=5)
        # Every run's count of truthful plays is 0: each replicate accepts
        # the paper its MAP decision rejects, and each decision still names
        # the assignment.
        assert res.empirical.ec == 1.0
        assert res.empirical.ea == 0.0

    def test_determinism_is_bitwise(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        pol = Policy(1.0, 0.47)
        r1 = simulate_instance(inst, pol, 200_001, seed=11)
        r2 = simulate_instance(inst, pol, 200_001, seed=11)
        assert r1 == r2
        r3 = simulate_instance(inst, pol, 200_001, seed=12)
        assert r3.empirical != r1.empirical

    def test_noiseless_policy_concordance(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        pol = alg1_policy(inst, 0.2)
        exact = per_instance_errors(inst, pol)
        n = 400_000
        res = simulate_instance(inst, pol, n, seed=3)
        assert abs(res.empirical.ec - exact.ec) <= 4.0 * _se(exact.ec, res, "ec")
        assert abs(res.empirical.ea - exact.ea) <= 4.0 * _se(exact.ea, res, "ea")

    def test_noisy_policy_concordance(self, rng):
        n = 200_000
        for k in range(5):
            inst = random_part2_instance(rng, noisy=True)
            geom = instance_geometry(inst)
            ec = 0.5 * (
                geom.ec_intercept - geom.alpha1 - geom.alpha2
            ) + 0.5 * min(1.0, geom.ec_intercept)
            pol = alg3_policy(inst, min(max(ec, 0.0), 1.0))
            if not isinstance(pol, Policy):
                continue
            exact = per_instance_errors(inst, pol)
            res = simulate_instance(inst, pol, n, seed=100 + k)
            assert abs(res.empirical.ec - exact.ec) <= 4.0 * _se(exact.ec, res, "ec")
            assert abs(res.empirical.ea - exact.ea) <= 4.0 * _se(exact.ea, res, "ea")

    def test_n_guard(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            simulate_instance(inst, Policy(1.0, 1.0), 0, seed=0)

    @pytest.mark.parametrize("sigma2", [0.0, 0.5], ids=["noiseless", "noisy"])
    def test_infeasible_policy_raises(self, sigma2):
        inst = make_instance(1, 0, 1, 1, sigma2, 0.5, 1.0)
        with pytest.raises(ConfigurationError, match="Infeasible"):
            simulate_instance(inst, Infeasible(0.1, 0.2), 1000, seed=0)


class TestSimulateAverage:
    POP = Population(
        ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
    )

    def test_truthful_average_errors(self):
        zeta, eta, _ = zeta_eta(self.POP)
        res = simulate_average(self.POP, TruthfulRule(), 400_000, seed=1)
        # Truthful play has zero conference error; the adversary only
        # errs on forced scores, on average eta.
        assert res.empirical.ec == pytest.approx(0.0, abs=1e-12)
        assert abs(res.empirical.ea - eta) <= 4.0 * res.stderr_ea + 2e-6

    @pytest.mark.parametrize("ec_value", [math.nan, -0.1, 1.5])
    def test_alg1_rule_rejects_a_target_outside_the_unit_interval(self, ec_value):
        with pytest.raises(ConfigurationError):
            Alg1Rule(self.POP, ec_value)

    @pytest.mark.parametrize("ec_value", [0.0, 0.3, 1.0])
    def test_alg1_rule_batch_equals_the_guarded_division(self, rng, ec_value):
        """Where pv > 0 fails (0 or NaN) q2 is 1, as in the form that divided
        by np.where(pv > 0, pv, 1) and set those entries after clipping."""
        pv = np.concatenate([rng.uniform(0.0, 1.0, 200), [1e-300, 5e-324, 1.0]])
        pu = 1.0 - pv
        special = [(1.0, 0.0), (0.5, 0.0), (0.0, 0.0), (np.nan, 0.0)]
        special += [(0.5, np.nan), (1.0, np.nan), (np.nan, np.nan)]
        pu = np.concatenate([pu, [u for u, _ in special]])
        pv = np.concatenate([pv, [v for _, v in special]])
        order = rng.permutation(pu.size)
        pu, pv = pu[order], pv[order]

        want = np.minimum(pu, pv)
        np.minimum(ec_value, want, out=want)
        np.subtract(1.0, want, out=want)
        want -= pu
        positive = pv > 0.0
        want /= np.where(positive, pv, 1.0)
        np.clip(want, 0.0, 1.0, out=want)
        want[~positive] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q1, q2 = Alg1Rule(self.POP, ec_value).batch(pu, pv)
        assert q1 == 1.0
        assert q2.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_endpoint_rule_average_errors(self):
        zeta, eta, _ = zeta_eta(self.POP)
        res = simulate_average(self.POP, Alg1Rule(self.POP, 1.0), 400_000, seed=2)
        assert abs(res.empirical.ec - zeta) <= 4.0 * res.stderr_ec + 2e-6
        assert abs(res.empirical.ea - (zeta + eta)) <= 4.0 * res.stderr_ea + 2e-6

    def test_mixture_rule_average_errors(self):
        rule = Alg2Rule(self.POP, 0.05)
        avg = rule.average_policy
        res = simulate_average(self.POP, rule, 400_000, seed=3)
        assert abs(res.empirical.ec - avg.conference_error) <= (
            4.0 * res.stderr_ec + 2e-6
        )
        assert abs(res.empirical.ea - avg.adversary_error) <= (
            4.0 * res.stderr_ea + 2e-6
        )

    def test_identical_reviewers_give_coin_flip_adversary(self):
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 0.0), 0.0
        )
        res = simulate_average(pop, TruthfulRule(), 100_000, seed=4)
        assert res.empirical.ea == pytest.approx(0.5, abs=1e-12)

    def test_determinism_is_bitwise(self):
        r1 = simulate_average(self.POP, TruthfulRule(), 150_000, seed=9)
        r2 = simulate_average(self.POP, TruthfulRule(), 150_000, seed=9)
        assert r1 == r2


class TestPosteriorWeightArrays:
    def test_matches_scalar_weights(self, rng):
        from privcal.model import posterior_weights

        pop = Population(
            ReviewerProfile.affine(1.2, -0.3), ReviewerProfile.affine(0.8, 0.6), 0.4
        )
        s1 = rng.normal(0, 2, 50)
        s2 = rng.normal(0, 2, 50)
        pu, pv = posterior_weight_arrays(pop, s1, s2)
        for i in range(50):
            su, sv = posterior_weights(pop.instance(float(s1[i]), float(s2[i])))
            assert pu[i] == pytest.approx(su, abs=1e-12)
            assert pv[i] == pytest.approx(sv, abs=1e-12)

    def test_large_log_ratio_weights_without_overflow_warning(self):
        # logv - logu = b2 * (s1 - s2) = 720 here: past exp's overflow
        # point (about 709.78).
        pop = Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pu, pv = posterior_weight_arrays(pop, np.array([720.0]), np.array([0.0]))
        assert pu[0] == 0.0 and pv[0] == 1.0

    @pytest.mark.parametrize("with_out", [False, True])
    def test_unclipped_exp_matches_the_clipped_formula(self, monkeypatch, with_out):
        """pu = 1 / (1 + exp(d)), d = log v - log u, needs no clip of d to
        +-745: exp overflows to inf (pu = 0) above about 709.78, gives 0 or
        the smallest subnormal (pu = 1) below -745, and NaN passes through."""
        d = np.array([700.0, -700.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan])
        pop = TestSimulateAverage.POP
        s1, s2 = np.zeros(d.size), np.zeros(d.size)

        def log_ratio(model, s, out=None):
            # Only the log ratio at s2 is nonzero, so log v - log u is d
            # exactly.
            val = d if s is s2 else np.zeros(d.size)
            if out is None:
                return val.copy()
            out[...] = val
            return out

        monkeypatch.setattr(model, "log_ratio", log_ratio)
        with np.errstate(over="ignore"):
            clipped = 1.0 / (1.0 + np.exp(np.clip(d, -745.0, 745.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = np.empty((2, d.size)) if with_out else None
            pu, pv = posterior_weight_arrays(pop, s1, s2, out=out)
        assert pu.tobytes() == clipped.tobytes()
        assert pv.tobytes() == (1.0 - clipped).tobytes()

    @pytest.mark.parametrize("sigma2", [0.0, 0.4])
    def test_affine_log_likelihoods_match_scalar_exactly(self, rng, sigma2):
        from privcal.model import log_marginal_score_density as logf

        pop = Population(
            ReviewerProfile.affine(1.2, -0.3), ReviewerProfile.affine(0.8, 0.6), sigma2
        )
        s1 = rng.normal(0, 3, 200)
        s2 = rng.normal(0, 3, 200)
        r1, r2 = pop.reviewer1, pop.reviewer2
        logu = logf(r1, sigma2, s1) + logf(r2, sigma2, s2)
        logv = logf(r2, sigma2, s1) + logf(r1, sigma2, s2)
        for i in range(s1.size):
            lu, lv = log_likelihoods(pop.instance(float(s1[i]), float(s2[i])))
            assert logu[i] == lu and logv[i] == lv

    def test_general_log_density_of_an_array_matches_float_calls(self, rng):
        from privcal.model import log_marginal_score_density as logf

        prof = sinh_profile()
        s = np.concatenate([rng.normal(0, 3, 200), [0.0, -1e3, 1e3]])
        logs = logf(prof, 0.0, s)
        assert logs.shape == s.shape
        for i in range(s.size):
            assert logs[i] == logf(prof, 0.0, float(s[i]))


def _oracle_instances() -> dict:
    rng = np.random.default_rng(31)
    return {
        "noiseless_part2": random_part2_instance(rng, noisy=False),
        "noisy_part2": random_part2_instance(rng, noisy=True),
        "noiseless_forced": make_instance(1, 0, 1, 1, 0.0, 5.0, 1.0),
        "noisy_forced": make_instance(1, 0, 1, 1, 0.5, -5.0, 1.0),
        "noiseless_tie": make_instance(1, 0, 1, 0, 0.0, 0.7, 0.7),
        "noisy_tie": make_instance(1, 0, 1, 0, 0.5, 0.7, 0.7),
        "noiseless_distinct_tie": make_instance(2, 0, 1, 0, 0.0, 0.0, 0.0),
        "noisy_distinct_tie": make_instance(2, 0, 1, 0, 0.5, 0.0, 0.0),
    }


def _oracle_populations() -> dict:
    aff = ReviewerProfile.affine
    return {
        "affine": Population(aff(1.0, 0.0), aff(1.0, 1.0), 0.0),
        "affine_noisy": Population(aff(1.2, -0.3), aff(0.8, 0.6), 0.4),
        "identical": Population(aff(1.0, 0.0), aff(1.0, 0.0), 0.0),
        "sinh": Population(sinh_profile(), aff(1.0, 0.5), 0.0),
        "affine_sinh": Population(aff(1.0, 0.5), sinh_profile(), 0.0),
    }


class TestKernelsMatchReference:
    """The count-based kernels equal the per-replicate float oracles of
    tests/conftest.py, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_oracle_instances()))
    def test_simulate_instance(self, name):
        inst = _oracle_instances()[name]
        rng = np.random.default_rng(len(name))
        geom = instance_geometry(inst)
        assert geom.part2 == name.endswith("part2")
        if name.endswith("tie"):
            assert geom.d1 is geom.d2 is Decision.PAPER1
        policies = [Policy(0.0, 0.0), Policy(1.0, 1.0), Policy(0.0, 1.0)]
        policies += [Policy(*(float(q) for q in rng.uniform(0, 1, 2))) for _ in range(2)]
        for pol in policies:
            for n in _NS:
                seed = int(rng.integers(0, 2**63))
                got = simulate_instance(inst, pol, n, seed)
                assert got == reference_simulate_instance(inst, pol, n, seed)

    @pytest.mark.parametrize(
        "sigma2, s1, s2", [(0.0, -8.0, -2.7), (0.0, -2.7, -8.0), (0.5, -8.0, -3.8), (0.5, -3.8, -8.0)]
    )
    def test_simulate_instance_with_an_empty_run(self, sigma2, s1, s2):
        """pu lies within 1e-6 of 0 or 1, so every block's A1 count is 0 or
        its whole count, and one of its two runs is empty."""
        inst = make_instance(1, 0, 3, 0, sigma2, s1, s2)
        geom = instance_geometry(inst)
        assert geom.part2
        n, seed, pol = _BLOCK + 1000, 17, Policy(0.3, 0.8)
        for block, cnt in enumerate((_BLOCK, 1000)):
            assert stream(seed, block).binomial(cnt, geom.pu) in (0, cnt)
        got = simulate_instance(inst, pol, n, seed)
        assert got == reference_simulate_instance(inst, pol, n, seed)

    def test_simulate_instance_random_cases(self, rng):
        for k in range(60):
            inst = random_part2_instance(rng, noisy=bool(k % 2))
            pol = Policy(*(float(q) for q in rng.uniform(0, 1, 2)))
            n = int(rng.integers(1, 3000))
            seed = int(rng.integers(0, 2**63))
            got = simulate_instance(inst, pol, n, seed)
            assert got == reference_simulate_instance(inst, pol, n, seed)

    @pytest.mark.parametrize("name", sorted(_oracle_populations()))
    def test_simulate_average(self, name):
        pop = _oracle_populations()[name]
        rules = [TruthfulRule()]
        if pop.noiseless:
            rules += [Alg1Rule(pop, 1.0), Alg1Rule(pop, 0.1)]
        if name == "affine":
            rules.append(Alg2Rule(pop, 0.05))
        for k, rule in enumerate(rules):
            for n in _NS:
                got = simulate_average(pop, rule, n, seed=10 * k + n)
                assert got == reference_simulate_average(pop, rule, n, seed=10 * k + n)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_chunk_boundaries(self, monkeypatch, threads):
        monkeypatch.setenv("PRIVCAL_THREADS", threads)
        insts = _oracle_instances()
        pops = _oracle_populations()
        rules = [
            (pops["sinh"], TruthfulRule()),
            (pops["sinh"], Alg1Rule(pops["sinh"], 0.1)),
            (pops["affine"], Alg2Rule(pops["affine"], 0.05)),
            (pops["affine_noisy"], TruthfulRule()),
        ]
        for n in _BOUNDARY_NS:
            for name in sorted(insts):
                got = simulate_instance(insts[name], Policy(0.3, 0.8), n, seed=n)
                assert got == reference_simulate_instance(
                    insts[name], Policy(0.3, 0.8), n, seed=n
                )
            for pop, rule in rules:
                got = simulate_average(pop, rule, n, seed=n + 1)
                assert got == reference_simulate_average(pop, rule, n, seed=n + 1)

    def test_rule_of_another_population_is_rejected(self):
        pops = _oracle_populations()
        rule = Alg1Rule(pops["affine"], 1.0)
        with pytest.raises(ConfigurationError):
            simulate_average(pops["identical"], rule, 100, seed=0)
        # An equal population is the same model, so the rule applies.
        simulate_average(_oracle_populations()["affine"], rule, 100, seed=0)


class _RecordingStream:
    """A stream that logs each draw as (kind, size) in the order the
    kernel makes them."""

    def __init__(self, rng: np.random.Generator, log: list):
        self._rng, self._log = rng, log

    def random(self, size=None, out=None):
        self._log.append(("random", size if out is None else out.size))
        return self._rng.random(size, out=out)

    def standard_normal(self, size=None, out=None):
        self._log.append(("standard_normal", size if out is None else out.shape))
        return self._rng.standard_normal(size, out=out)

    def binomial(self, n, p, size=None):
        self._log.append(("binomial", n, p))
        return self._rng.binomial(n, p, size)


class TestDrawOrder:
    """A block draws exactly the rows it reads, in one fixed order, and
    the reference kernels of tests/conftest.py draw the same rows.
    Results alone miss a misplaced draw that no count depends on, such as
    a row a noiseless block would draw after its last read."""

    # Full blocks and partial last blocks of several counts.
    NS = _NS + (_BLOCK + 1000,)

    def _record(self, monkeypatch, run) -> dict:
        logs = {}

        def recording(seed, index):
            logs[index] = []
            return _RecordingStream(stream(seed, index), logs[index])

        monkeypatch.setattr(simlab, "stream", recording)
        run()
        return logs

    @staticmethod
    def _counts(n):
        return [min(_BLOCK, n - off) for off in range(0, n, _BLOCK)]

    @pytest.mark.parametrize("name", sorted(_oracle_instances()))
    def test_simulate_instance(self, monkeypatch, name):
        inst = _oracle_instances()[name]
        pu = instance_geometry(inst).pu
        for n in self.NS:
            logs = self._record(
                monkeypatch, lambda: simulate_instance(inst, Policy(0.3, 0.8), n, seed=n)
            )
            assert sorted(logs) == list(range(len(self._counts(n))))
            for block, cnt in enumerate(self._counts(n)):
                count = ("binomial", cnt, pu)
                k = stream(n, block).binomial(cnt, pu)
                truthful = [("binomial", k, 0.3), ("binomial", cnt - k, 0.8)]
                normals = ("standard_normal", (cnt,))
                # The A1 count, each run's count of truthful plays where
                # randomizing, then th1 - th2 where noisy.
                want = {
                    "noiseless_part2": [count, *truthful],
                    "noiseless_forced": [count],
                    "noiseless_tie": [count],
                    "noisy_part2": [count, *truthful, normals],
                    "noisy_forced": [count, normals],
                    "noisy_tie": [count, normals],
                    "noiseless_distinct_tie": [count],
                    "noisy_distinct_tie": [count, normals],
                }[name]
                assert logs[block] == want, (name, n, block)

    @pytest.mark.parametrize("name", sorted(_oracle_populations()))
    def test_simulate_average(self, monkeypatch, name):
        pop = _oracle_populations()[name]
        for n in self.NS:
            logs = self._record(
                monkeypatch, lambda: simulate_average(pop, TruthfulRule(), n, seed=n)
            )
            assert sorted(logs) == list(range(len(self._counts(n))))
            for block, cnt in enumerate(self._counts(n)):
                normals = ("standard_normal", (2, cnt))
                # Qualities, the A1 count, the score noise, then the coins
                # of the A1 run's randomizing replicates and of the A2 run's.
                want = [normals, ("binomial", cnt, 0.5)]
                want += [normals] if not pop.noiseless else []
                want += [("random", m) for m in self._randomizing(pop, n, block, cnt)]
                assert logs[block] == want, (name, n, block)

    @staticmethod
    def _randomizing(pop, seed, block, cnt):
        """The randomizing replicates of a block's A1 and A2 runs, counted
        from its own draws."""
        rng = stream(seed, block)
        th = rng.standard_normal((2, cnt))
        k = rng.binomial(cnt, 0.5)
        eps = rng.standard_normal((2, cnt)) if not pop.noiseless else np.zeros((2, cnt))
        r1, r2, sd = pop.reviewer1, pop.reviewer2, math.sqrt(pop.sigma2)
        counts = []
        for run, (rev1, rev2) in ((slice(0, k), (r1, r2)), (slice(k, cnt), (r2, r1))):
            s1 = rev1.apply(th[0, run]) + sd * eps[0, run]
            s2 = rev2.apply(th[1, run]) + sd * eps[1, run]
            d1_p1, d2_p1 = map_decisions(pop, s1, s2)
            counts.append(int(np.count_nonzero(d1_p1 != d2_p1)))
        return counts


class TestTieReading:
    """A tie instance, whose s1 lies on both thresholds, accepts paper 1 on
    every path: the regime rule, the policies, the scenario table, the
    exact errors and the simulator. Two of the ties have identical
    reviewers and two have distinct ones."""

    TIES = sorted(name for name in _oracle_instances() if name.endswith("tie"))

    @pytest.mark.parametrize("name", TIES)
    def test_a_tie_accepts_paper1(self, name):
        inst = _oracle_instances()[name]
        pop = Population(inst.reviewer1, inst.reviewer2, inst.sigma2)
        s1, s2 = inst.scores.s1, inst.scores.s2
        assert map_decisions(pop, s1, s2) == (True, True)
        arrays = map_decisions(pop, np.array([s1]), np.array([s2]))
        assert [a.tolist() for a in arrays] == [[True], [True]]
        algorithm = alg1_policy if inst.noiseless else alg3_policy
        assert algorithm(inst, 0.2).forced is Decision.PAPER1
        want = ErrorPair(0.0 if inst.noiseless else 0.5, 0.5)
        for k, pol in enumerate([Policy(0.3, 0.8), Policy(1.0, 1.0), Policy(0.0, 0.0)]):
            cells = scenario_table(inst, pol).cells
            assert [c.probability for c in cells if c.decision is Decision.PAPER2] == [0, 0]
            assert per_instance_errors(inst, pol) == want
            res = simulate_instance(inst, pol, 200_000, seed=k)
            assert abs(res.empirical.ec - want.ec) <= 5.0 * _se(want.ec, res, "ec")
            assert abs(res.empirical.ea - want.ea) <= 5.0 * _se(want.ea, res, "ea")


class TestThreadCount:
    """Results are bitwise identical for any PRIVCAL_THREADS, set or not."""

    N = 3 * _BLOCK + 777

    def _under_threads(self, monkeypatch, run):
        results = []
        # Unset gives one thread per usable core; 3 exceeds a 2-core host.
        for threads in ("1", "2", None, "3"):
            if threads is None:
                monkeypatch.delenv("PRIVCAL_THREADS", raising=False)
            else:
                monkeypatch.setenv("PRIVCAL_THREADS", threads)
            results.append(run())
        return results

    def test_simulate_instance(self, monkeypatch):
        inst = _oracle_instances()["noisy_part2"]
        one, two, *more = self._under_threads(
            monkeypatch, lambda: simulate_instance(inst, Policy(0.6, 0.3), self.N, seed=8)
        )
        assert one == two
        assert all(r == one for r in more)

    def test_simulate_average(self, monkeypatch):
        pop = _oracle_populations()["affine"]
        rule = Alg1Rule(pop, 0.1)
        one, two, *more = self._under_threads(
            monkeypatch, lambda: simulate_average(pop, rule, self.N, seed=8)
        )
        assert one == two
        assert all(r == one for r in more)

    def test_default_is_the_usable_core_count(self, monkeypatch):
        usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        cores = len(usable) if usable else os.cpu_count()
        monkeypatch.delenv("PRIVCAL_THREADS", raising=False)
        assert _thread_count() == cores
        monkeypatch.setenv("PRIVCAL_THREADS", "")
        assert _thread_count() == cores
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _thread_count() == os.cpu_count()
        monkeypatch.setenv("PRIVCAL_THREADS", "3")
        assert _thread_count() == 3

    @pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", " "])
    def test_invalid_values_are_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("PRIVCAL_THREADS", raw)
        pop = _oracle_populations()["affine"]
        with pytest.raises(ConfigurationError, match="PRIVCAL_THREADS"):
            simulate_average(pop, TruthfulRule(), 10, seed=0)
        with pytest.raises(ConfigurationError, match="PRIVCAL_THREADS"):
            simulate_instance(_oracle_instances()["noisy_part2"], Policy(1.0, 1.0), 10, 0)

    def test_a_rule_may_simulate(self, monkeypatch):
        # Helper threads outlive a call, so a call made from inside a
        # block must not wait for a helper queued behind its own thread.
        monkeypatch.setenv("PRIVCAL_THREADS", "2")
        pop = _oracle_populations()["affine"]

        class Nested(TruthfulRule):
            def batch(self, pu, pv):
                simulate_average(pop, TruthfulRule(), 2 * _BLOCK, seed=1)
                return super().batch(pu, pv)

        got = []
        run = threading.Thread(
            target=lambda: got.append(simulate_average(pop, Nested(), _BLOCK + 1, seed=8)),
            daemon=True,
        )
        run.start()
        run.join(timeout=120)
        assert not run.is_alive()
        assert got == [simulate_average(pop, TruthfulRule(), _BLOCK + 1, seed=8)]

    def test_every_block_runs_once_and_sums_in_order(self, monkeypatch):
        # More threads than cores and a short switch interval: a lost
        # update of the shared block iterator runs a block twice or skips
        # one, and a part stored out of place changes the float sum.
        monkeypatch.setenv("PRIVCAL_THREADS", "8")
        rng = np.random.default_rng(5)
        n = 64 * _BLOCK + 5
        xs = rng.normal(size=65) * 10.0 ** rng.integers(0, 17, 65)
        calls = []

        def worker(block, cnt):
            calls.append((block, cnt))
            return np.array([xs[block], 0.0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = _run_blocks(n, 0, worker)
        finally:
            sys.setswitchinterval(interval)
        want = [(i, min(_BLOCK, n - i * _BLOCK)) for i in range(65)]
        assert sorted(calls) == want
        in_order = xs[0]
        for x in xs[1:]:
            in_order += x
        assert res.empirical.ec == float(in_order) / n

    def test_a_late_first_block_is_still_summed_first(self, monkeypatch):
        # Block 0 finishes after every other block. In block order 1.0 is
        # rounded away by 2^53 before the big terms cancel, giving 0; in
        # completion order it would be added last, giving 1.
        monkeypatch.setenv("PRIVCAL_THREADS", "2")
        xs = [1.0, 2.0**53, -(2.0**53), 0.0]
        others_done, finished = threading.Event(), []

        def worker(block, cnt):
            if block == 0:
                assert others_done.wait(timeout=60)
            else:
                finished.append(block)
                if len(finished) == len(xs) - 1:
                    others_done.set()
            return np.array([xs[block], 0.0])

        res = _run_blocks(len(xs) * _BLOCK, 0, worker)
        assert sorted(finished) == [1, 2, 3]
        assert res.empirical.ec == 0.0

    def test_totals_fold_in_constant_memory(self, monkeypatch):
        # Each block's totals join the running total as soon as they are
        # in, so no list of one array per block builds up.
        monkeypatch.setenv("PRIVCAL_THREADS", "1")
        blocks = 100_000
        tracemalloc.start()
        try:
            res = _run_blocks(blocks * _BLOCK, 0, lambda *block: np.array([1.0, 0.5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert res.empirical == ErrorPair(1.0 / _BLOCK, 0.5 / _BLOCK)


class TestWorkspace:
    """Each thread keeps its block arrays: a warm call allocates none of
    them again, and a nested call takes a workspace of its own."""

    # Two full blocks and a ragged one.
    N = 3 * _BLOCK + 5

    def test_a_warm_call_allocates_no_block_sized_array(self, monkeypatch):
        monkeypatch.setenv("PRIVCAL_THREADS", "1")
        pops = _oracle_populations()
        runs = [
            lambda: simulate_average(pops["affine"], Alg2Rule(pops["affine"], 0.05), self.N, 1),
            lambda: simulate_average(pops["affine_noisy"], TruthfulRule(), self.N, 2),
            lambda: simulate_instance(
                _oracle_instances()["noisy_part2"], Policy(0.3, 0.8), self.N, 3
            ),
        ]
        # One block's draw of qualities, (2, _BLOCK) float64.
        draw_bytes = 2 * _BLOCK * 8
        for run in runs:
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < draw_bytes

    def test_a_warm_benchmark_call_peaks_under_a_mebibyte(self, monkeypatch):
        # The calls of the monte_carlo benchmark at 2^17 replicates: Alg.
        # 1's endpoint on ref1 and a noisy randomizing instance. They peak
        # near half a MiB, so an array of a block's size allocated per
        # call shows here.
        monkeypatch.setenv("PRIVCAL_THREADS", "1")
        pop = _oracle_populations()["affine"]
        rule = Alg1Rule(pop, 1.0)
        inst = _oracle_instances()["noisy_part2"]
        runs = [
            lambda: simulate_average(pop, rule, 2**17, 4),
            lambda: simulate_instance(inst, Policy(0.3, 0.8), 2**17, 5),
        ]
        for run in runs:
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_a_rule_may_simulate_at_one_thread(self, monkeypatch):
        # The outer block holds the thread's workspace while its rule
        # simulates; the nested call must leave the outer block's arrays be.
        monkeypatch.setenv("PRIVCAL_THREADS", "1")
        pop = _oracle_populations()["affine"]
        nested = []

        class Nested(TruthfulRule):
            def batch(self, pu, pv):
                nested.append(simulate_average(pop, TruthfulRule(), _BLOCK + 1, seed=1))
                return super().batch(pu, pv)

        got = simulate_average(pop, Nested(), _BLOCK + 1, seed=8)
        assert got == simulate_average(pop, TruthfulRule(), _BLOCK + 1, seed=8)
        plain = simulate_average(pop, TruthfulRule(), _BLOCK + 1, seed=1)
        # Each block calls the rule once per run: block 0 on its A1 and A2
        # runs, and block 1 on its one replicate's run and on an empty one.
        assert len(nested) == 4 and all(r == plain for r in nested)

    def test_a_rule_is_called_once_per_run(self, monkeypatch):
        # Two runs per block, each evaluated in one pass whatever its
        # length, an empty run included.
        monkeypatch.setenv("PRIVCAL_THREADS", "1")
        pop = _oracle_populations()["affine"]
        sizes = []

        class Recording(TruthfulRule):
            def batch(self, pu, pv):
                sizes.append(pu.size)
                return super().batch(pu, pv)

        simulate_average(pop, Recording(), self.N, seed=8)
        assert len(sizes) == 8

    def test_each_array_stays_below_the_huge_page_threshold(self):
        # numpy asks for transparent huge pages on any array of 4 MiB or
        # more. With THP in madvise mode, writing the middle element of a
        # fresh 4 MiB array added 2112 KiB of RSS, a whole 2 MiB page, and
        # the same on a 4 MiB - 4 KiB array added 68 KiB (Linux 6.18,
        # numpy 2.4, 2-vCPU x86-64).
        ws = _Workspace()
        assert ws.draws.nbytes < 1 << 22
        assert ws.rows.nbytes < 1 << 22

    def test_a_rule_sees_read_only_weights(self):
        pop = _oracle_populations()["affine"]

        class Writer(TruthfulRule):
            def batch(self, pu, pv):
                pu[:] = 0.5
                return super().batch(pu, pv)

        with pytest.raises(ValueError, match="read-only"):
            simulate_average(pop, Writer(), 1000, seed=0)


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau_distance([1, 2, 3, 4], [1, 2, 3, 4]) == 0.0

    def test_full_reversal(self):
        assert kendall_tau_distance([1, 2, 3, 4], [4, 3, 2, 1]) == 1.0

    def test_single_swap(self):
        assert kendall_tau_distance([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(
            1.0 / 6.0
        )

    def test_symmetry(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = rng.permutation(n) + 1
            b = rng.permutation(n) + 1
            assert kendall_tau_distance(a, b) == kendall_tau_distance(b, a)

    def test_against_quadratic_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            a = rng.permutation(n) + 1
            b = rng.permutation(n) + 1
            disc = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if (a[i] - a[j]) * (b[i] - b[j]) < 0
            )
            assert kendall_tau_distance(a, b) == pytest.approx(
                disc / (n * (n - 1) / 2)
            )

    def test_against_pair_count_oracle_with_ties(self, rng):
        small = [([], []), ([3], [1]), ([1, 2], [1, 2]), ([1, 2], [2, 1])]
        small += [([1, 1], [2, 1]), ([1, 1], [1, 2]), ([2, 1], [1, 1])]
        for a, b in small:
            assert kendall_tau_distance(a, b) == kendall_tau_pairs(a, b)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            hi = int(rng.integers(1, 6))
            a = rng.integers(0, hi, n)
            b = rng.integers(0, hi, n)
            assert kendall_tau_distance(a, b) == kendall_tau_pairs(a, b)
        # Lengths that span several row blocks, the last one partial.
        for n in (_KENDALL_ROWS + 1, 2 * _KENDALL_ROWS + 37):
            for hi in (3, n):
                a = rng.integers(0, hi, n)
                b = rng.integers(0, hi, n)
                assert kendall_tau_distance(a, b) == kendall_tau_pairs(a, b)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            kendall_tau_distance([1, 2, 3], [1, 2])


class TestMessyMiddle:
    CFG = StudyConfig()

    def test_perfect_ranking(self):
        r = np.arange(1, 101)
        assert messy_middle_error(r, r, self.CFG) == 0.0

    def test_single_boundary_swap(self):
        t = np.arange(1, 101)
        e = t.copy()
        e[24], e[25] = e[25], e[24]
        # Ranks 25 and 26 trade places: both marginal papers flip status.
        assert messy_middle_error(t, e, self.CFG) == pytest.approx(2.0 / 30.0)

    def test_permuting_the_safe_top_changes_nothing(self, rng):
        t = np.arange(1, 101)
        e = t.copy()
        e[:10] = rng.permutation(e[:10])
        assert messy_middle_error(t, e, self.CFG) == 0.0

    def test_shape_guard(self):
        with pytest.raises(ValueError, match="equal length"):
            messy_middle_error(np.arange(1, 101), np.arange(1, 100), self.CFG)

    def test_empty_band_guard(self):
        cfg = StudyConfig(accept_top=25, messy_lo=25, messy_hi=25)
        t = np.arange(1, 101) + 200
        with pytest.raises(ValueError):
            messy_middle_error(t, t, cfg)


class TestBalancedAssignment:
    def test_no_reviewer_repeats_on_a_paper(self):
        cfg = StudyConfig()
        mat = _balanced_assignment(stream(1, 0), cfg)
        assert mat.shape == (cfg.n_papers, cfg.reviews_per_paper)
        srt = np.sort(mat, axis=1)
        assert not np.any(srt[:, 1:] == srt[:, :-1])
        counts = np.bincount(mat.ravel(), minlength=cfg.n_reviewers)
        assert np.all(counts == cfg.reviews_per_paper * cfg.n_papers // cfg.n_reviewers)

    @pytest.mark.parametrize(
        "papers, reviewers, k", [(12, 3, 3), (20, 3, 3), (10, 5, 5), (100, 10, 3)]
    )
    def test_dense_pools_fall_back_to_a_cyclic_permutation(self, papers, reviewers, k):
        """Pools whose shuffles all repeat a reviewer on some paper get a
        random permutation of the reviewers repeated over the slots: its
        rows hold distinct reviewers, and every reviewer the same load."""
        cfg = StudyConfig(
            n_papers=papers,
            n_reviewers=reviewers,
            reviews_per_paper=k,
            accept_top=5,
            messy_lo=1,
            messy_hi=papers,
        )
        load = k * papers // reviewers
        for seed in range(3):
            mat = _balanced_assignment(stream(seed, 0), cfg)
            assert mat.shape == (papers, k)
            flat = mat.ravel()
            assert np.array_equal(flat, np.tile(flat[:reviewers], load))
            srt = np.sort(mat, axis=1)
            assert not np.any(srt[:, 1:] == srt[:, :-1])
            assert np.all(np.bincount(flat, minlength=reviewers) == load)


class TestStudy:
    SMALL = StudyConfig(
        n_papers=40,
        n_reviewers=40,
        reviews_per_paper=3,
        noise_variances=(0.25,),
        iterations=8,
        accept_top=12,
        messy_lo=6,
        messy_hi=20,
        seed=7,
    )

    def test_determinism(self):
        r1 = run_calibration_study(self.SMALL)
        r2 = run_calibration_study(self.SMALL)
        assert r1 == r2

    def test_known_parameters_exact_at_zero_noise(self):
        cfg = StudyConfig(
            n_papers=30,
            n_reviewers=30,
            reviews_per_paper=3,
            noise_variances=(1e-18,),
            iterations=4,
            accept_top=10,
            messy_lo=5,
            messy_hi=15,
            seed=3,
        )
        res = run_calibration_study(cfg)
        cell = res.cells[("known_parameters", 1e-18)]
        # The MLE inverts the affine map exactly when scores are noiseless.
        assert cell.mean_kendall_tau == pytest.approx(0.0, abs=1e-12)
        assert cell.mean_messy_middle == pytest.approx(0.0, abs=1e-12)

    def test_cells_summarize_their_iterations(self):
        res = run_calibration_study(self.SMALL)
        for cell in res.cells.values():
            for values, mean in (
                (cell.kendall_tau, cell.mean_kendall_tau),
                (cell.messy_middle, cell.mean_messy_middle),
            ):
                assert len(values) == self.SMALL.iterations
                assert all(type(v) is float for v in values)
                assert mean == pytest.approx(sum(values) / len(values), rel=1e-12)

    def test_cells_cover_all_methods_and_variances(self):
        res = run_calibration_study(self.SMALL)
        for m in STUDY_METHODS:
            for var in self.SMALL.noise_variances:
                cell = res.cells[(m, var)]
                assert 0.0 <= cell.mean_kendall_tau <= 1.0
                assert 0.0 <= cell.mean_messy_middle <= 1.0

    def test_config_guards(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(n_papers=10, n_reviewers=3, reviews_per_paper=1)
        with pytest.raises(ConfigurationError):
            StudyConfig(accept_top=50, messy_lo=11, messy_hi=40)
        with pytest.raises(ConfigurationError):
            StudyConfig(slope_rate=0.0)
        with pytest.raises(ConfigurationError, match="reviews_per_paper"):
            StudyConfig(n_papers=4, n_reviewers=2, reviews_per_paper=3, messy_lo=1)


class TestWithinConferenceFit:
    CFG = StudyConfig(
        n_papers=30,
        n_reviewers=30,
        reviews_per_paper=3,
        noise_variances=(1e-18, 100.0),
        iterations=4,
        accept_top=10,
        messy_lo=5,
        messy_hi=15,
        seed=3,
    )

    def _fit(self, var, it):
        theta, _, _, reviewers, scores = _draw_conference(
            stream(self.CFG.seed, it), self.CFG, var
        )
        return theta, fit_within_conference(scores, reviewers, self.CFG, var)

    @pytest.mark.parametrize("var", [1e-18, 100.0])
    def test_estimates_are_finite(self, var):
        for it in range(self.CFG.iterations):
            theta, est = self._fit(var, it)
            assert est.shape == theta.shape
            assert np.all(np.isfinite(est))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the fit's alternating sweeps stall once the ridge terms vanish",
    )
    def test_recovers_the_ranking_as_noise_vanishes(self):
        """Noiseless scores fix theta up to an affine map, so known
        parameters rank every paper right; the fit should too."""
        res = run_calibration_study(self.CFG)
        assert res.cells[("known_parameters", 1e-18)].kendall_tau == (0.0,) * 4
        assert max(res.cells[("within_conference", 1e-18)].kendall_tau) < 0.01

    def test_deterministic_for_a_fixed_config(self):
        for var in self.CFG.noise_variances:
            _, first = self._fit(var, 0)
            _, second = self._fit(var, 0)
            assert np.array_equal(first, second)
        r1 = run_calibration_study(self.CFG)
        r2 = run_calibration_study(self.CFG)
        for var in self.CFG.noise_variances:
            cell = r1.cells[("within_conference", var)]
            assert cell == r2.cells[("within_conference", var)]
            assert all(math.isfinite(v) for v in cell.kendall_tau + cell.messy_middle)
