"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
import pytest
from hypothesis import strategies as st

from privcal import (
    Assignment,
    Decision,
    Infeasible,
    Instance,
    ReviewerProfile,
    ScorePair,
    frontier,
    phi_pair,
)
from privcal.frontier import InstanceGeometry, instance_geometry
from privcal.mechanism import Policy
from privcal.model import (
    ConfigurationError,
    Population,
    log_marginal_score_density,
    log_odds,
    posterior_weights,
    quality_posterior,
    std_normal_cdf,
    thresholds,
    weights_of_log_odds,
)
from privcal.simlab import (
    Alg1Rule,
    Alg2Rule,
    SimResult,
    _run_blocks,
    stream,
)


@dataclass(frozen=True)
class LikelihoodPair:
    """u = f1(s1) f2(s2), v = f2(s1) f1(s2): score likelihoods of the two assignments."""

    u: float
    v: float


def log_likelihoods(inst: Instance) -> tuple[float, float]:
    """(log u, log v) as sums of four log densities: an oracle independent
    of the log ratio that the library's posterior reads."""
    s1, s2 = inst.scores.s1, inst.scores.s2
    lf1_s1 = log_marginal_score_density(inst.reviewer1, inst.sigma2, s1)
    lf2_s2 = log_marginal_score_density(inst.reviewer2, inst.sigma2, s2)
    lf2_s1 = log_marginal_score_density(inst.reviewer2, inst.sigma2, s1)
    lf1_s2 = log_marginal_score_density(inst.reviewer1, inst.sigma2, s2)
    return lf1_s1 + lf2_s2, lf2_s1 + lf1_s2


def posterior_weight_arrays(pop, s1, s2, out=None):
    """(pu, pv) over score arrays, composed from the library's two kernels;
    out, if given, is two arrays of the scores' shape that receive them."""
    d = log_odds(pop, s1, s2, out)
    return weights_of_log_odds(d, None if out is None else out[1])


def likelihoods(inst: Instance) -> LikelihoodPair:
    """The assignment likelihood pair (u, v)."""
    logu, logv = log_likelihoods(inst)
    return LikelihoodPair(math.exp(logu), math.exp(logv))


def assignment_posterior(inst: Instance) -> float:
    """Posterior probability of assignment A1 given the scores (uniform prior)."""
    return posterior_weights(inst)[0]


def marginal_score_density(profile: ReviewerProfile, sigma2: float, s: float) -> float:
    """Marginal density of a reported score. See log_marginal_score_density."""
    return math.exp(log_marginal_score_density(profile, sigma2, s))


# Slopes and noise variances log-uniform in 1e-300..1e300; offsets and
# scores moderate, or of magnitude 1e-300..1e300 with either sign.
extreme_magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
extreme_locations = st.one_of(
    st.floats(-5.0, 5.0),
    st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), extreme_magnitudes),
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


def nested_quad_zeta_eta(pop: Population, theta_span: float = 10.0):
    """(zeta, eta) of an affine noiseless population by nested scipy quad.

    Shares no code with privcal: the densities, thresholds and score box
    are written out here. The box bounds the latent qualities: s1 runs
    over reviewer 1's image of [-theta_span, theta_span], s2 over
    reviewer 2's. u = v where (s1 - s2)(k (s1 + s2) + m) = 0, so the
    inner quad is split at s1 = s2 and s1 = t* - s2 (t* = -m / k, absent
    when k = 0), and the outer quad at every crossing of those two lines,
    the thresholds and the s1 edges.
    """
    from scipy.integrate import quad

    a1, b1 = pop.reviewer1.a, pop.reviewer1.b
    a2, b2 = pop.reviewer2.a, pop.reviewer2.b
    lo1, hi1 = b1 - a1 * theta_span, b1 + a1 * theta_span
    lo2, hi2 = b2 - a2 * theta_span, b2 + a2 * theta_span

    def log_density(s, a, b):
        return -0.5 * ((s - b) / a) ** 2 - math.log(a * math.sqrt(2.0 * math.pi))

    def half_min(s1, s2):
        logu = log_density(s1, a1, b1) + log_density(s2, a2, b2)
        logv = log_density(s1, a2, b2) + log_density(s2, a1, b1)
        return 0.5 * math.exp(min(logu, logv))

    k = 0.5 / a2**2 - 0.5 / a1**2
    m = b1 / a1**2 - b2 / a2**2
    t_star = -m / k if k != 0.0 else None
    # Lines s1 = slope * s2 + intercept.
    lines = [
        (1.0, 0.0),
        (a2 / a1, b2 - a2 * b1 / a1),
        (a1 / a2, b1 - a1 * b2 / a2),
        (0.0, lo1),
        (0.0, hi1),
    ]
    if t_star is not None:
        lines.append((-1.0, t_star))
    crossings = set()
    for i, (p1, q1) in enumerate(lines):
        for p2, q2 in lines[i + 1 :]:
            if p1 != p2 and lo2 < (q2 - q1) / (p1 - p2) < hi2:
                crossings.add((q2 - q1) / (p1 - p2))

    def inner(s2, c, d):
        if not c < d:
            return 0.0
        kinks = [s2] if t_star is None else [s2, t_star - s2]
        kinks = [x for x in kinks if c < x < d] or None
        opts = dict(points=kinks, epsabs=1e-14, epsrel=1e-12, limit=200)
        return quad(half_min, c, d, args=(s2,), **opts)[0]

    def band(s2):
        ta = b2 + a2 * (s2 - b1) / a1
        tb = b1 + a1 * (s2 - b2) / a2
        return min(ta, tb), max(ta, tb)

    def zeta_at(s2):
        c, d = (min(max(t, lo1), hi1) for t in band(s2))
        return inner(s2, c, d)

    def eta_at(s2):
        c, d = (min(max(t, lo1), hi1) for t in band(s2))
        return inner(s2, lo1, c) + inner(s2, d, hi1)

    opts = dict(points=sorted(crossings) or None, epsabs=1e-13, epsrel=1e-12, limit=500)
    return quad(zeta_at, lo2, hi2, **opts)[0], quad(eta_at, lo2, hi2, **opts)[0]


def nested_quad_sinh_zeta_eta(theta_span: float = 6.0):
    """(zeta, eta) of sinh against affine(1, 0.5) by nested scipy quad.

    Shares no code with privcal. Reviewer 1 reports sinh(theta), whose
    score density is phi(asinh(s)) / sqrt(1 + s^2); reviewer 2 reports
    theta + 0.5, a normal. The box bounds the latent qualities: s1 runs
    over sinh([-theta_span, theta_span]), s2 over 0.5 + [-theta_span,
    theta_span]. At fixed s2 the band of s1 between the thresholds runs
    from asinh(s2) + 0.5 to sinh(s2 - 0.5). u = v where k(s1) = k(s2),
    k = log f1 - log f2: at s1 = s2 and at any root a 4001-point scan of
    the s1 range brackets for brentq. These split the inner quad.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    log_sqrt_2pi = 0.5 * math.log(2.0 * math.pi)

    def log_f1(s):
        return -0.5 * np.arcsinh(s) ** 2 - 0.5 * np.log1p(s * s) - log_sqrt_2pi

    def log_f2(s):
        return -0.5 * (s - 0.5) ** 2 - log_sqrt_2pi

    def k(s):
        return log_f1(s) - log_f2(s)

    lo1, hi1 = math.sinh(-theta_span), math.sinh(theta_span)
    lo2, hi2 = 0.5 - theta_span, 0.5 + theta_span
    scan = np.linspace(lo1, hi1, 4001)
    k_scan = k(scan)

    def half_min(s1, s2):
        logu = log_f1(s1) + log_f2(s2)
        logv = log_f2(s1) + log_f1(s2)
        return 0.5 * math.exp(min(logu, logv))

    def inner(s2, c, d):
        if not c < d:
            return 0.0
        level = k(s2)
        diff = k_scan - level
        kinks = {s2}
        for j in np.flatnonzero(diff[:-1] * diff[1:] < 0.0):
            kinks.add(brentq(lambda s: k(s) - level, scan[j], scan[j + 1], xtol=1e-15))
        kinks = sorted(x for x in kinks if c < x < d) or None
        opts = dict(points=kinks, epsabs=1e-14, epsrel=1e-12, limit=200)
        return quad(half_min, c, d, args=(s2,), **opts)[0]

    def band(s2):
        c, d = math.asinh(s2) + 0.5, math.sinh(s2 - 0.5)
        return min(max(min(c, d), lo1), hi1), min(max(max(c, d), lo1), hi1)

    def zeta_at(s2):
        return inner(s2, *band(s2))

    def eta_at(s2):
        c, d = band(s2)
        return inner(s2, lo1, c) + inner(s2, d, hi1)

    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=500)
    return quad(zeta_at, lo2, hi2, **opts)[0], quad(eta_at, lo2, hi2, **opts)[0]


def general_policy_errors(inst: Instance, g1: float, g2: float):
    """Analytic errors of a general decision rule: accept paper 1 with
    probability g1 under A1 and g2 under A2.

    Independent of the library's geometry code; used as the comparison
    class for the h-policy dominance property.
    """
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


def map_accept(
    inst: Instance, assumed: Assignment, random01: Optional[float] = None
) -> Decision:
    """MAP acceptance decision under an assumed assignment.

    Noiseless mode inverts the profiles and accepts the larger recovered
    quality; noisy mode compares the relevant Phi statistic against 1/2.
    Neither reads model.thresholds, which the library's geometry and
    simulators use for the regime in both modes, so map_accept is their
    independent oracle (in noisy mode the two can differ within a few
    ulps of a threshold). An exact tie is broken uniformly; the caller
    supplies the random bit so the operation stays deterministic.
    """
    if inst.noiseless:
        if assumed is Assignment.A1:
            t1 = inst.reviewer1.invert(inst.scores.s1)
            t2 = inst.reviewer2.invert(inst.scores.s2)
        else:
            t1 = inst.reviewer2.invert(inst.scores.s1)
            t2 = inst.reviewer1.invert(inst.scores.s2)
        if t1 > t2:
            return Decision.PAPER1
        if t1 < t2:
            return Decision.PAPER2
    else:
        pp = phi_pair(inst)
        phi = pp.phi1 if assumed is Assignment.A1 else pp.phi2
        if phi < 0.5:
            return Decision.PAPER1
        if phi > 0.5:
            return Decision.PAPER2
    if random01 is None:
        raise ValueError("exact MAP tie: a uniform variate is required to break it")
    return Decision.PAPER1 if random01 < 0.5 else Decision.PAPER2


def decide(
    inst: Instance, policy: Policy, assignment: Assignment, random01: float
) -> Decision:
    """Run the conference's randomized decision for one realization.

    With probability q(assignment) the MAP decision under the true
    assignment is taken, otherwise the MAP decision under the wrong one.
    """
    if policy.forced is not None:
        return policy.forced
    a1 = assignment is Assignment.A1
    q, other = (policy.q1, Assignment.A2) if a1 else (policy.q2, Assignment.A1)
    assumed = assignment if random01 < q else other
    return map_accept(inst, assumed)


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


def _w_interval(geom: InstanceGeometry, t: float) -> tuple[float, float, float, float]:
    """Range of w over policies with alpha1 q1 + alpha2 q2 = t.

    Returns (wmin, wmax, q1_at_wmin, q1_at_wmax). The constraint set is
    a segment of the unit square, so the extremes sit at its endpoints.
    In noiseless mode t and w are the same linear functional and the
    interval collapses.
    """
    a1, a2 = geom.alpha1, geom.alpha2
    # A slope is 0 when its posterior weight underflowed or its phi
    # rounded to 1/2; its q then leaves t unchanged and is free.
    if a1 == 0.0:
        if a2 == 0.0:
            # t is 0 and every policy meets it.
            return 0.0, 1.0, 0.0, 1.0
        w = geom.pv * (t / a2)
        return w, w + geom.pu, 0.0, 1.0
    if a2 == 0.0:
        w = geom.pu * (t / a1)
        return w, w + geom.pv, t / a1, t / a1
    q1_lo = max(0.0, (t - a2) / a1)
    q1_hi = min(1.0, t / a1)
    ws = []
    for q1 in (q1_lo, q1_hi):
        q2 = (t - a1 * q1) / a2
        ws.append((geom.pu * q1 + geom.pv * q2, q1))
    (w_a, qa), (w_b, qb) = ws
    if w_a <= w_b:
        return w_a, w_b, qa, qb
    return w_b, w_a, qb, qa


def curve_policy(inst: Instance, ec: float) -> Union[tuple[float, float], Infeasible]:
    """A policy attaining max_adversary_error_curve(inst, ec).

    The curve's attainment witness: it solves the pinned-EC problem over
    the range of w that _w_interval finds, apart from the vertices the
    library reads, and returns the policy instead of the error. It
    exists for part-2 instances at feasible ec; for forced instances the
    only feasible ec is the forced conference error and every policy
    attains the curve there.
    """
    geom = instance_geometry(inst)
    if not geom.part2:
        if ec == geom.forced_ec:
            return (1.0, 1.0)
        return Infeasible(geom.forced_ec, geom.forced_ec)
    lo_ec = geom.truthful_ec
    hi_ec = geom.ec_intercept
    if ec < lo_ec or ec > hi_ec:
        return Infeasible(lo_ec, hi_ec)
    span = geom.alpha1 + geom.alpha2
    t = min(max(geom.ec_intercept - ec, 0.0), span)
    if geom.alpha1 == 0.0:
        return (1.0, min(max(t / geom.alpha2, 0.0), 1.0))
    if geom.alpha2 == 0.0:
        return (min(max(t / geom.alpha1, 0.0), 1.0), 1.0)
    wmin, wmax, q1_min, q1_max = _w_interval(geom, t)
    small, big = geom.m, max(geom.pu, geom.pv)
    if wmax < small:
        q1 = q1_max
    elif wmin > big:
        q1 = q1_min
    else:
        # The flat top is reachable; pick the feasible w closest to the
        # low end of [small, big] and solve back for q1.
        target = max(wmin, small)
        slope = geom.pu - geom.pv * geom.alpha1 / geom.alpha2
        if slope == 0.0:
            q1 = q1_max
        else:
            q1 = (target - geom.pv * t / geom.alpha2) / slope
            q1 = min(max(q1, min(q1_min, q1_max)), max(q1_min, q1_max))
    q2 = (t - geom.alpha1 * q1) / geom.alpha2
    return (min(max(q1, 0.0), 1.0), min(max(q2, 0.0), 1.0))


def vertex_tolerance(inst: Instance) -> float:
    """How far linear interpolation between curve_vertices may read from
    max_adversary_error_curve: 1e-15, plus 4 ulp of ec at the rising
    edge's slope m / (end_ec - truthful_ec). The mirror vertex's ec is
    rounded, and one ulp of ec costs the slope times that ulp in ea."""
    seg = frontier(inst)
    rise = seg.end.ec - seg.start.ec
    return 1e-15 + (4 * 2.0**-52 * seg.end.ea / rise if rise > 0.0 else 0.0)


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
    to exact counts instead; both must give equal results. A block
    draws exactly what the library draws: its count K of A1 replicates,
    which are its first K, then, only when the instance randomizes, the
    A1 run's and the A2 run's counts of truthful plays, which are each
    run's first replicates, then the count of conference errors of each
    (assignment, accepted paper) cell, A1's before A2's and paper 1's
    before paper 2's, which are the cell's first replicates. A cell errs
    with the probability that its accepted paper is the worse one: in
    noisy mode Phi of th1 - th2 over its posterior, formed from the two
    quality posteriors, in noiseless mode by the inverted qualities.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    geom = instance_geometry(inst)
    pu = geom.pu

    def worse(a: Assignment) -> tuple[float, float]:
        """(Pr(paper 1 worse), Pr(paper 2 worse)) under assignment a."""
        if inst.noiseless:
            rev1, rev2 = (
                (inst.reviewer1, inst.reviewer2) if a is Assignment.A1
                else (inst.reviewer2, inst.reviewer1)
            )
            th1, th2 = rev1.invert(inst.scores.s1), rev2.invert(inst.scores.s2)
            return float(th1 < th2), float(th2 < th1)
        post1, post2 = quality_posterior(inst, 1, a), quality_posterior(inst, 2, a)
        mean = post1.mean - post2.mean
        sd = math.sqrt(post1.variance + post2.variance)
        if not sd > 0.0 or math.isnan(mean / sd):
            # th1 - th2 is its mean.
            return float(mean < 0.0), float(mean > 0.0)
        return std_normal_cdf(-mean / sd), std_normal_cdf(mean / sd)

    worse_a1, worse_a2 = worse(Assignment.A1), worse(Assignment.A2)
    d1_p1 = geom.d1 is Decision.PAPER1
    d2_p1 = geom.d2 is Decision.PAPER1

    def adversary_wrong(d: Decision) -> tuple[float, float]:
        """The adversary's error under A1 and under A2 once it sees d: it
        guesses by pu Pr(d | A1) against pv Pr(d | A2), and is wrong half
        the time on a tie. Pr(d | A) is q where d is A's MAP decision, else
        1 - q; a forced decision carries no information."""
        po_a1 = po_a2 = 1.0
        if geom.part2:
            po_a1 = policy.q1 if d is geom.d1 else 1.0 - policy.q1
            po_a2 = policy.q2 if d is geom.d2 else 1.0 - policy.q2
        l1, l2 = pu * po_a1, geom.pv * po_a2
        return (0.0, 1.0) if l1 > l2 else (1.0, 0.0) if l1 < l2 else (0.5, 0.5)

    wrong_p1 = adversary_wrong(Decision.PAPER1)
    wrong_p2 = adversary_wrong(Decision.PAPER2)

    def worker(block: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)
        pos = np.arange(cnt)
        k = rng.binomial(cnt, pu)
        is_a1 = pos < k
        if geom.part2:
            own_a1, own_a2 = rng.binomial(k, policy.q1), rng.binomial(cnt - k, policy.q2)
            truthful = np.where(is_a1, pos < own_a1, pos - k < own_a2)
            acc_p1 = np.where(
                truthful,
                np.where(is_a1, d1_p1, d2_p1),
                np.where(is_a1, d2_p1, d1_p1),
            )
        else:
            acc_p1 = np.full(cnt, d1_p1)

        conf_wrong = np.zeros(cnt)
        for in_run, (w1, w2) in ((is_a1, worse_a1), (~is_a1, worse_a2)):
            for cell, w in ((in_run & acc_p1, w1), (in_run & ~acc_p1, w2)):
                members = np.flatnonzero(cell)
                conf_wrong[members[: rng.binomial(members.size, w)]] = 1.0
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
    float array of 0, 1/2 and 1 per replicate. A block draws what the
    library draws: the qualities, its count K of A1 replicates, which
    are its first K, the score noise when it is noisy, then one coin per
    randomizing replicate, first the A1 ones, then the A2 ones.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    r1, r2 = pop.reviewer1, pop.reviewer2
    noisy = not pop.noiseless
    sd = math.sqrt(pop.sigma2)

    def worker(block: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)
        th = rng.standard_normal((2, cnt))
        is_a1 = np.arange(cnt) < rng.binomial(cnt, 0.5)
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
        coin = np.full(cnt, np.nan)
        for run in (is_a1, ~is_a1):
            coin[run & part2] = rng.random(np.count_nonzero(run & part2))
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
        # Pr(observed | A): q where the observed decision is A's MAP
        # decision, else 1 - q; a forced decision carries no information.
        po_a1 = np.where(part2, np.where(acc_p1 == d1_p1, q1, 1.0 - q1), 1.0)
        po_a2 = np.where(part2, np.where(acc_p1 == d2_p1, q2, 1.0 - q2), 1.0)
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


# The --line-probe option: which lines of src/privcal no test reaches.
# The coverage package is not a dependency, so a sys.settrace tracer is
# installed before every test (hypothesis replaces one installed once)
# and for every thread started later. Lines that run when privcal is
# imported are set aside: a fresh interpreter imports every module under
# the same tracer and reports them.

_SRC = Path(__file__).resolve().parent.parent / "src" / "privcal"
_IMPORT_PROBE = """
import importlib, json, pkgutil, sys
src = sys.argv[1]
hits = set()

def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(src):
        return None

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    return line(frame, event, arg)

sys.settrace(trace)
import privcal
for mod in pkgutil.iter_modules(privcal.__path__):
    importlib.import_module("privcal." + mod.name)
sys.settrace(None)
print(json.dumps(sorted(hits)))
"""


def pytest_addoption(parser):
    parser.addoption(
        "--line-probe",
        action="store_true",
        default=False,
        help="list the lines of src/privcal that no test reaches",
    )


class _LineProbe:
    def __init__(self):
        self.hits = set()

    def trace(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(str(_SRC)):
            return None
        return self._line(frame, event, arg)

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        sys.settrace(self.trace)
        try:
            yield
        finally:
            sys.settrace(None)

    def pytest_terminal_summary(self, terminalreporter):
        env = dict(os.environ, PYTHONPATH=str(_SRC.parent))
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(_SRC)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        seen = self.hits | {tuple(hit) for hit in json.loads(out)}
        missed = []
        for path in sorted(_SRC.glob("*.py")):
            lines = _code_lines(compile(path.read_text(), str(path), "exec"))
            lines -= {line for name, line in seen if name == str(path)}
            missed += [f"{path.name}:{span}" for span in _spans(sorted(lines))]
        terminalreporter.write_sep("-", "line probe: lines of src/privcal no test reached")
        terminalreporter.write_line(" ".join(missed) if missed else "none")


def _code_lines(code) -> set:
    """The line numbers of code's instructions and of every nested code object's."""
    lines = {line for *_, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _spans(lines: list) -> list:
    """Runs of consecutive line numbers, as "a" or "a-b"."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return [str(a) if a == b else f"{a}-{b}" for a, b in spans]


def pytest_configure(config):
    if config.getoption("--line-probe"):
        probe = _LineProbe()
        threading.settrace(probe.trace)
        config.pluginmanager.register(probe, "privcal-line-probe")
