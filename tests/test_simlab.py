"""Tests for the simulation harness and the calibration study."""

import math
import os
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
    _CHUNK,
    _KENDALL_ROWS,
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
from privcal.adversary import per_instance_errors
from privcal.model import posterior_weight_arrays
from privcal.mechanism import alg1_policy, alg3_policy
from privcal.frontier import instance_geometry
from conftest import (
    kendall_tau_pairs,
    make_instance,
    random_part2_instance,
    reference_simulate_average,
    reference_simulate_instance,
    sinh_profile,
)

# One replicate, one partial block, and several blocks with a ragged last one.
_NS = (1, _BLOCK - 3, 2 * _BLOCK + 1234)
# Around one chunk, and one chunk past a full block.
_CHUNK_NS = (_CHUNK - 1, _CHUNK, _CHUNK + 1, _BLOCK + _CHUNK + 1)


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

    def test_adjacent_streams_share_no_block(self):
        # Each stream owns a disjoint counter range, so even long draws
        # from neighboring indices never overlap.
        a = stream(0, 0).random(1 << 12)
        b = stream(0, 1).random(1 << 12)
        assert not np.intersect1d(a, b).size


class TestSimulateInstance:
    def test_truthful_noiseless_part2_is_exactly_revealing(self):
        inst = make_instance(1, 0, 1, 1, 0.0, 0.5, 1.0)
        res = simulate_instance(inst, Policy(1.0, 1.0), 2000, seed=5)
        # Noiseless qualities are recovered exactly and truthfulness
        # tells the adversary everything.
        assert res.empirical.ec == 0.0
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

        def log_density(profile, sigma2, s, out=None):
            # Only log f2(s1) is nonzero, so log v - log u is d exactly.
            val = d if profile is pop.reviewer2 and s is s1 else np.zeros(d.size)
            if out is None:
                return val.copy()
            out[...] = val
            return out

        monkeypatch.setattr(model, "log_marginal_score_density", log_density)
        with np.errstate(over="ignore"):
            clipped = 1.0 / (1.0 + np.exp(np.clip(d, -745.0, 745.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = np.empty((3, d.size)) if with_out else None
            pu, pv = posterior_weight_arrays(pop, s1, s2, out=out)
        assert pu.tobytes() == clipped.tobytes()
        assert pv.tobytes() == (1.0 - clipped).tobytes()

    @pytest.mark.parametrize("sigma2", [0.0, 0.4])
    def test_affine_log_likelihoods_match_scalar_exactly(self, rng, sigma2):
        from privcal.model import log_likelihoods, log_marginal_score_density as logf

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
    }


def _oracle_populations() -> dict:
    aff = ReviewerProfile.affine
    return {
        "affine": Population(aff(1.0, 0.0), aff(1.0, 1.0), 0.0),
        "affine_noisy": Population(aff(1.2, -0.3), aff(0.8, 0.6), 0.4),
        "identical": Population(aff(1.0, 0.0), aff(1.0, 0.0), 0.0),
        "sinh": Population(sinh_profile(), aff(1.0, 0.5), 0.0),
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
        assert geom.tie == name.endswith("tie")
        policies = [Policy(0.0, 0.0), Policy(1.0, 1.0), Policy(0.0, 1.0)]
        policies += [Policy(*(float(q) for q in rng.uniform(0, 1, 2))) for _ in range(2)]
        for pol in policies:
            for n in _NS:
                seed = int(rng.integers(0, 2**63))
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
        for n in _CHUNK_NS:
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
    """A stream that logs each draw, and each skip of the bit generator,
    as (kind, size) in the order the kernel makes them."""

    def __init__(self, rng: np.random.Generator, log: list):
        self._rng, self._log = rng, log

    @property
    def bit_generator(self):
        return self

    def advance(self, delta):
        self._log.append(("advance", delta))
        return self._rng.bit_generator.advance(delta)

    def random(self, size=None, out=None):
        self._log.append(("random", size if out is None else out.size))
        return self._rng.random(size, out=out)

    def standard_normal(self, size=None, out=None):
        self._log.append(("standard_normal", size if out is None else out.shape))
        return self._rng.standard_normal(size, out=out)


class TestDrawOrder:
    """Every block takes each value it reads from the position the
    reference kernels of tests/conftest.py read it from, which draw every
    array. A kernel may leave out only arrays it never reads: by not
    drawing what nothing read follows, or by advancing the stream, which
    is exact when the block's count is a multiple of Philox's 4 outputs
    per step. Results alone miss a misplaced draw that no count depends
    on, such as the coins of the noiseless tie instance."""

    # Full blocks, a partial last block whose count is a multiple of 4,
    # and partial blocks whose counts are not.
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
        for n in self.NS:
            logs = self._record(
                monkeypatch, lambda: simulate_instance(inst, Policy(0.3, 0.8), n, seed=n)
            )
            assert sorted(logs) == list(range(len(self._counts(n))))
            for block, cnt in enumerate(self._counts(n)):
                draw = ("random", cnt)
                skip = ("advance", cnt // 4) if cnt % 4 == 0 else draw
                normals = ("standard_normal", (2, cnt))
                # is_a1, coin, tie coin, then the noisy qualities.
                want = {
                    "noiseless_part2": [draw, draw],
                    "noiseless_forced": [draw],
                    "noiseless_tie": [draw, skip, draw],
                    "noisy_part2": [draw, draw, skip, normals],
                    "noisy_forced": [draw, skip, skip, normals],
                    "noisy_tie": [draw, skip, draw, normals],
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
                # Qualities, assignment, coin, then the score noise.
                want = [normals, ("random", cnt), ("random", cnt)]
                want += [normals] if not pop.noiseless else []
                assert logs[block] == want, (name, n, block)


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

        def worker(block, offset, cnt):
            calls.append((block, offset, cnt))
            return np.array([xs[block], 0.0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = _run_blocks(n, 0, worker)
        finally:
            sys.setswitchinterval(interval)
        want = [(i, i * _BLOCK, min(_BLOCK, n - i * _BLOCK)) for i in range(65)]
        assert sorted(calls) == want
        in_order = xs[0]
        for x in xs[1:]:
            in_order += x
        assert res.empirical.ec == float(in_order) / n


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
        assert len(nested) == 3 and all(r == plain for r in nested)

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
