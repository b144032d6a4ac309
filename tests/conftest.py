"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from privcal import (
    Assignment,
    Decision,
    Instance,
    ReviewerProfile,
    ScorePair,
    phi_pair,
)
from privcal.frontier import instance_geometry
from privcal.mechanism import Policy
from privcal.model import ConfigurationError, Population, thresholds
from privcal.adversary import map_guess
from privcal.simlab import (
    Alg1Rule,
    Alg2Rule,
    SimResult,
    _run_blocks,
    posterior_weight_arrays,
    stream,
)


def make_instance(a1, b1, a2, b2, sigma2, s1, s2) -> Instance:
    return Instance(
        ReviewerProfile.affine(a1, b1),
        ReviewerProfile.affine(a2, b2),
        sigma2,
        ScorePair(s1, s2),
    )


def random_noiseless_instance(rng: np.random.Generator) -> Instance:
    a = rng.uniform(0.3, 3.0, 2)
    b = rng.normal(0.0, 1.0, 2)
    s = rng.normal(0.0, 2.0, 2)
    return make_instance(a[0], b[0], a[1], b[1], 0.0, s[0], s[1])


def random_noisy_instance(rng: np.random.Generator) -> Instance:
    a = rng.uniform(0.3, 3.0, 2)
    b = rng.normal(0.0, 1.0, 2)
    s = rng.normal(0.0, 2.0, 2)
    sigma2 = rng.uniform(0.1, 2.0)
    return make_instance(a[0], b[0], a[1], b[1], sigma2, s[0], s[1])


def random_part2_instance(rng: np.random.Generator, noisy: bool) -> Instance:
    """Rejection-sample an instance in the randomizing regime."""
    for _ in range(10_000):
        inst = random_noisy_instance(rng) if noisy else random_noiseless_instance(rng)
        if instance_geometry(inst).part2:
            return inst
    raise AssertionError("failed to sample a part-2 instance")


def sinh_profile() -> ReviewerProfile:
    """A smooth strictly monotone non-affine profile with exact inverse."""
    return ReviewerProfile.monotone(
        np.sinh,
        np.arcsinh,
        lambda s: 1.0 / np.sqrt(1.0 + np.asarray(s) ** 2),
    )


def cubic_profile() -> ReviewerProfile:
    """theta + theta^3, inverted by the closed-form real cubic root."""

    def forward(t):
        t = np.asarray(t, dtype=float)
        return t + t**3

    def inverse(s):
        s = np.asarray(s, dtype=float)
        d = np.sqrt(s * s / 4.0 + 1.0 / 27.0)
        return np.cbrt(s / 2.0 + d) + np.cbrt(s / 2.0 - d)

    def inverse_derivative(s):
        t = inverse(s)
        return 1.0 / (1.0 + 3.0 * t * t)

    return ReviewerProfile.monotone(forward, inverse, inverse_derivative)


def general_policy_errors(inst: Instance, g1: float, g2: float):
    """Analytic errors of a general decision rule: accept paper 1 with
    probability g1 under A1 and g2 under A2.

    Independent of the library's geometry code; used as the comparison
    class for the h-policy dominance property.
    """
    from privcal.model import posterior_weights

    pu, pv = posterior_weights(inst)
    if inst.noiseless:
        t1a = inst.reviewer1.invert(inst.scores.s1)
        t2a = inst.reviewer2.invert(inst.scores.s2)
        t1b = inst.reviewer2.invert(inst.scores.s1)
        t2b = inst.reviewer1.invert(inst.scores.s2)
        e_p1_a1 = 1.0 if t1a < t2a else 0.0
        e_p1_a2 = 1.0 if t1b < t2b else 0.0
    else:
        pp = phi_pair(inst)
        e_p1_a1, e_p1_a2 = pp.phi1, pp.phi2
    ec = pu * (g1 * e_p1_a1 + (1.0 - g1) * (1.0 - e_p1_a1)) + pv * (
        g2 * e_p1_a2 + (1.0 - g2) * (1.0 - e_p1_a2)
    )

    def wrong_mass(l1: float, l2: float) -> float:
        if l1 > l2:
            return l2
        if l1 < l2:
            return l1
        return 0.5 * (l1 + l2)

    ea = wrong_mass(pu * g1, pv * g2) + wrong_mass(pu * (1.0 - g1), pv * (1.0 - g2))
    return ec, ea


def piecewise_adversary_error(inst: Instance, q1: float, q2: float) -> float:
    """Closed-form adversary error of a policy, bypassing the scenario table.

    Writing w = pu q1 + pv q2, the error is w below the score-only
    ceiling band, the ceiling min(pu, pv) inside it, and 1 - w above;
    the case boundaries carry the tie-averaged values, which the
    min form reproduces exactly.
    """
    geom = instance_geometry(inst)
    if not geom.part2:
        raise ValueError(
            "forced instance: the adversary error is constant, use per_instance_errors"
        )
    w = geom.pu * q1 + geom.pv * q2
    small = geom.m
    if w < small:
        return w
    if 1.0 - w < small:
        return 1.0 - w
    return small


def kendall_tau_pairs(rank_a, rank_b) -> float:
    """Kendall-tau distance by visiting every pair of items, O(n^2).

    Items tied in rank_a are ordered by index; a pair is discordant when
    the item first in that order has the strictly larger rank_b.
    """
    n = len(rank_a)
    if n < 2:
        return 0.0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            first, second = (i, j) if rank_a[i] <= rank_a[j] else (j, i)
            discordant += bool(rank_b[first] > rank_b[second])
    return discordant / (n * (n - 1) / 2)


def _scenario_errors_grid(geom, q1, q2):
    """Vectorized (E_C, E_A) over policy arrays.

    Under each observed decision the MAP adversary is wrong with the
    smaller of the two assignment masses (pu q1 vs pv (1 - q2) when d1
    is observed, pu (1 - q1) vs pv q2 when d2 is); a tie splits the
    equal masses, which min reproduces. Used by oracle tests and
    brute-force frontier checks where millions of policies are
    evaluated per instance.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    pu, pv = geom.pu, geom.pv
    ec = geom.ec_intercept - geom.alpha1 * q1 - geom.alpha2 * q2
    ea = np.minimum(pu * q1, pv * (1.0 - q2)) + np.minimum(pu * (1.0 - q1), pv * q2)
    return ec, ea


def reference_simulate_instance(
    inst: Instance, policy: Policy, n: int, seed: int
) -> SimResult:
    """The per-instance simulator as one float array per replicate.

    Every replicate's conference and adversary error is formed as a
    float and each block sums the arrays. The library reduces a block
    to exact counts instead; both must give equal results.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    geom = instance_geometry(inst)
    pu = geom.pu
    noisy = not inst.noiseless

    if noisy:
        from privcal.model import quality_posterior

        post = {
            (p, a): quality_posterior(inst, p, a)
            for p in (1, 2)
            for a in (Assignment.A1, Assignment.A2)
        }
    else:
        inv = {
            Assignment.A1: (
                inst.reviewer1.invert(inst.scores.s1),
                inst.reviewer2.invert(inst.scores.s2),
            ),
            Assignment.A2: (
                inst.reviewer2.invert(inst.scores.s1),
                inst.reviewer1.invert(inst.scores.s2),
            ),
        }

    d1_p1 = geom.d1 is Decision.PAPER1
    d2_p1 = geom.d2 is Decision.PAPER1

    def adversary_wrong(d: Decision) -> tuple[float, float]:
        guess = map_guess(inst, policy, d)
        return tuple(guess.wrong_probability(a) for a in (Assignment.A1, Assignment.A2))

    wrong_p1 = adversary_wrong(Decision.PAPER1)
    wrong_p2 = adversary_wrong(Decision.PAPER2)

    def worker(block: int, offset: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)
        is_a1 = rng.random(cnt) < pu
        coin = rng.random(cnt)
        tie_coin = rng.random(cnt)
        if noisy:
            z = rng.standard_normal((2, cnt))
            m1a = np.where(
                is_a1, post[(1, Assignment.A1)].mean, post[(1, Assignment.A2)].mean
            )
            s1a = np.where(
                is_a1,
                math.sqrt(post[(1, Assignment.A1)].variance),
                math.sqrt(post[(1, Assignment.A2)].variance),
            )
            m2a = np.where(
                is_a1, post[(2, Assignment.A1)].mean, post[(2, Assignment.A2)].mean
            )
            s2a = np.where(
                is_a1,
                math.sqrt(post[(2, Assignment.A1)].variance),
                math.sqrt(post[(2, Assignment.A2)].variance),
            )
            th1 = m1a + s1a * z[0]
            th2 = m2a + s2a * z[1]
        else:
            th1 = np.where(is_a1, inv[Assignment.A1][0], inv[Assignment.A2][0])
            th2 = np.where(is_a1, inv[Assignment.A1][1], inv[Assignment.A2][1])

        if geom.part2:
            truthful = coin < np.where(is_a1, policy.q1, policy.q2)
            acc_p1 = np.where(
                truthful,
                np.where(is_a1, d1_p1, d2_p1),
                np.where(is_a1, d2_p1, d1_p1),
            )
        elif geom.tie:
            acc_p1 = tie_coin < 0.5
        else:
            acc_p1 = np.full(cnt, d1_p1)

        conf_wrong = np.where(acc_p1, th1 < th2, th2 < th1)
        adv_wrong = np.where(
            acc_p1,
            np.where(is_a1, wrong_p1[0], wrong_p1[1]),
            np.where(is_a1, wrong_p2[0], wrong_p2[1]),
        )
        return np.array([conf_wrong.sum(dtype=float), adv_wrong.sum(dtype=float)])

    return _run_blocks(n, seed, worker)


def _reference_rule_q(rule, s1: np.ndarray, s2: np.ndarray):
    """(q1, q2) over score arrays, each rule recomputing its own weights
    and thresholds from the scores."""
    if isinstance(rule, Alg2Rule):
        q1e, q2e = _reference_rule_q(Alg1Rule(rule.pop, 1.0), s1, s2)
        mix = rule.average_policy.mix
        return mix * q1e + (1.0 - mix), mix * q2e + (1.0 - mix)
    if isinstance(rule, Alg1Rule):
        pu, pv = posterior_weight_arrays(rule.pop, s1, s2)
        m = np.minimum(pu, pv)
        w = 1.0 - np.minimum(rule.ec_value, m)
        safe_pv = np.where(pv > 0.0, pv, 1.0)
        q2 = np.where(pv > 0.0, np.clip((w - pu) / safe_pv, 0.0, 1.0), 1.0)
        ta, tb = thresholds(rule.pop, s2)
        part2 = (s1 > np.minimum(ta, tb)) & (s1 < np.maximum(ta, tb))
        return np.ones_like(s1), np.where(part2, q2, 1.0)
    return np.ones_like(s1), np.ones_like(s1)


def reference_simulate_average(
    pop: Population, policy_rule, n: int, seed: int
) -> SimResult:
    """The average-case simulator as one float array per replicate.

    The rule's q values come from the scores alone (_reference_rule_q),
    the decision from nested np.where, and the adversary's error from a
    float array of 0, 1/2 and 1 per replicate.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    r1, r2 = pop.reviewer1, pop.reviewer2
    noisy = not pop.noiseless
    sd = math.sqrt(pop.sigma2)

    def worker(block: int, offset: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)
        th = rng.standard_normal((2, cnt))
        is_a1 = rng.random(cnt) < 0.5
        coin = rng.random(cnt)
        s1 = np.where(is_a1, r1.apply(th[0]), r2.apply(th[0]))
        s2 = np.where(is_a1, r2.apply(th[1]), r1.apply(th[1]))
        if noisy:
            eps = rng.standard_normal((2, cnt))
            s1 = s1 + sd * eps[0]
            s2 = s2 + sd * eps[1]

        ta, tb = thresholds(pop, s2)
        d1_p1 = s1 > tb
        d2_p1 = s1 > ta
        part2 = d1_p1 != d2_p1
        q1, q2 = _reference_rule_q(policy_rule, s1, s2)

        truthful = coin < np.where(is_a1, q1, q2)
        acc_p1 = np.where(
            part2,
            np.where(
                truthful,
                np.where(is_a1, d1_p1, d2_p1),
                np.where(is_a1, d2_p1, d1_p1),
            ),
            d1_p1,
        )
        conf_wrong = np.where(acc_p1, th[0] < th[1], th[1] < th[0])

        pu, pv = posterior_weight_arrays(pop, s1, s2)
        prob_p1_a1 = np.where(part2, q1 * d1_p1 + (1.0 - q1) * d2_p1, d1_p1)
        prob_p1_a2 = np.where(part2, q2 * d2_p1 + (1.0 - q2) * d1_p1, d1_p1)
        po_a1 = np.where(acc_p1, prob_p1_a1, 1.0 - prob_p1_a1)
        po_a2 = np.where(acc_p1, prob_p1_a2, 1.0 - prob_p1_a2)
        l1 = pu * po_a1
        l2 = pv * po_a2
        adv_wrong = np.where(
            l1 > l2,
            (~is_a1).astype(float),
            np.where(l1 < l2, is_a1.astype(float), 0.5),
        )
        return np.array([conf_wrong.sum(dtype=float), adv_wrong.sum()])

    return _run_blocks(n, seed, worker)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20230817)
