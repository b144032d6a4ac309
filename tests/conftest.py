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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20230817)
