"""The conference side: MAP acceptance and the three calibration policies.

Policies are h-policies (q1, q2): the probability of calibrating under
the true assignment, given it is A1 or A2. The three constructors cover
the noiseless per-instance tradeoff, the noiseless average-case
tradeoff, and the noisy per-instance tradeoff. All randomness is
injected by the caller as explicit uniform variates, so every decision
path replays exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import (
    Assignment,
    Decision,
    Instance,
    ModeError,
    ConfigurationError,
    Population,
    ProfileKind,
    log_likelihoods,
    phi_pair,
    thresholds,
)
from .frontier import Infeasible, _endpoint, _w_interval, instance_geometry


class AccuracyError(RuntimeError):
    """A numerical routine could not reach the requested tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate:.9g}, bound {error_bound:.3g})")
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class Policy:
    """An h-policy: calibrate truthfully with probability q1 under A1, q2 under A2.

    forced is set exactly when the scores pin the decision down (part-1
    instances); the q values are then irrelevant and kept at 1.
    """

    q1: float
    q2: float
    forced: Optional[Decision] = None

    def q(self, assignment: Assignment) -> float:
        return self.q1 if assignment is Assignment.A1 else self.q2


@dataclass(frozen=True)
class AveragePolicy:
    """Average-case policy: mix between the endpoint strategy and truthfulness.

    With probability mix the conference runs the per-instance endpoint
    policy (conference error ceiling per instance), otherwise it
    calibrates truthfully. zeta is the average conference error of the
    endpoint strategy, eta the average adversary error under constant
    truthfulness.
    """

    mix: float
    zeta: float
    eta: float

    @property
    def conference_error(self) -> float:
        return self.mix * self.zeta

    @property
    def adversary_error(self) -> float:
        return self.mix * self.zeta + self.eta


@dataclass(frozen=True)
class QuadratureSettings:
    """Controls for the zeta/eta integrals."""

    abs_tol: float = 1e-6
    theta_span: float = 10.0
    mc_fallback_n: int = 10_000_000
    mc_seed: int = 20240
    mc_tol: float = 1e-3


def map_accept(
    inst: Instance, assumed: Assignment, random01: Optional[float] = None
) -> Decision:
    """MAP acceptance decision under an assumed assignment.

    Noiseless mode inverts the profiles and accepts the larger recovered
    quality. Noisy mode compares the relevant Phi statistic against 1/2.
    An exact tie is broken uniformly; the caller supplies the random bit
    so the operation stays deterministic.
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


def alg1_policy(inst: Instance, ec_max: float) -> Policy:
    """Noiseless per-instance policy hitting the slope-1 frontier.

    Forced instances return the score-determined decision. Otherwise
    q1 = 1 and q2 solves the conference-error equation, capped at the
    endpoint where the adversary error reaches the score-only ceiling.
    The analytic errors of the result are both min(ec_max, m).
    """
    if not inst.noiseless:
        raise ModeError("alg1_policy requires sigma2 = 0")
    if not (0.0 <= ec_max <= 1.0):
        raise ConfigurationError("ec_max must lie in [0, 1]")
    geom = instance_geometry(inst)
    if not geom.part2:
        return Policy(1.0, 1.0, forced=geom.d1)
    if geom.m == 0.0:
        # A posterior weight underflowed to 0: the adversary is already
        # certain, and truthfulness has zero conference error.
        return Policy(1.0, 1.0)
    if ec_max >= geom.m:
        q2 = (max(geom.pu, geom.pv) - geom.pu) / geom.pv
    else:
        q2 = ((1.0 - ec_max) - geom.pu) / geom.pv
    return Policy(1.0, q2)


def alg3_policy(inst: Instance, ec_max: float) -> Union[Policy, Infeasible]:
    """Noisy per-instance policy on the Pareto frontier segment.

    Below the truthful conference error nothing is feasible and the
    feasible range is returned as data. At or above the frontier
    endpoint the endpoint policy is returned. In between, the policy
    realizes conference error ec_max exactly while minimizing the
    adversary's information, which places the error pair on the
    frontier segment.
    """
    if inst.noiseless:
        raise ModeError("alg3_policy requires sigma2 > 0")
    if not (0.0 <= ec_max <= 1.0):
        raise ConfigurationError("ec_max must lie in [0, 1]")
    geom = instance_geometry(inst)
    if not geom.part2:
        return Policy(1.0, 1.0, forced=geom.d1)
    if ec_max < geom.truthful_ec:
        return Infeasible(geom.truthful_ec, geom.ec_intercept)
    end_ec, end_q = _endpoint(geom)
    if ec_max >= end_ec:
        return Policy(end_q[0], end_q[1])
    t = geom.ec_intercept - ec_max
    _, _, q1, _ = _w_interval(geom, t)
    q2 = (t - geom.alpha1 * q1) / geom.alpha2
    return Policy(min(max(q1, 0.0), 1.0), min(max(q2, 0.0), 1.0))


def decide(
    inst: Instance, policy: Policy, assignment: Assignment, random01: float
) -> Decision:
    """Run the conference's randomized decision for one realization.

    With probability q(assignment) the MAP decision under the true
    assignment is taken, otherwise the MAP decision under the wrong one.
    """
    if policy.forced is not None:
        return policy.forced
    assumed = assignment if random01 < policy.q(assignment) else assignment.other()
    return map_accept(inst, assumed)


def _score_bounds(pop: Population, span: float) -> tuple[float, float]:
    los, his = [], []
    for prof in (pop.reviewer1, pop.reviewer2):
        los.append(prof.apply(-span))
        his.append(prof.apply(span))
    return min(los), max(his)


def _half_min_likelihood(pop: Population):
    """min(u, v) / 2 as a function of the score pair.

    This equals m(S) * f'_S(S): the score-only adversary error times the
    mixture score density, which is exactly the integrand of both zeta
    and eta.
    """

    def integrand(s1: float, s2: float) -> float:
        logu, logv = log_likelihoods(pop.instance(s1, s2))
        return 0.5 * math.exp(min(logu, logv))

    return integrand


def zeta_eta(
    pop: Population, settings: Optional[QuadratureSettings] = None
) -> tuple[float, float, float]:
    """Average-case integrals (zeta, eta) and an error bound.

    zeta integrates the score-only adversary error over the randomizing
    regime, eta over the forced regime. Adaptive 2-D quadrature is
    tried first with the inner limits split exactly at the regime
    thresholds; if its error estimate misses the tolerance a seeded
    Monte Carlo fallback takes over.
    """
    # Only this function integrates, so scipy loads on its first call
    # rather than with the package.
    from scipy.integrate import dblquad

    if settings is None:
        settings = QuadratureSettings()
    if not pop.noiseless:
        raise ModeError("zeta/eta are defined for the noiseless average case")
    lo, hi = _score_bounds(pop, settings.theta_span)
    integrand = _half_min_likelihood(pop)

    def band(s2: float) -> tuple[float, float]:
        # The randomizing regime at s2: s1 strictly between the thresholds.
        ta, tb = thresholds(pop, s2)
        return min(ta, tb), max(ta, tb)

    tol = settings.abs_tol / 3.0
    zeta, zerr = dblquad(
        integrand, lo, hi, lambda s2: band(s2)[0], lambda s2: band(s2)[1], epsabs=tol
    )
    eta_lo, e1err = dblquad(
        integrand, lo, hi, lo, lambda s2: max(lo, min(band(s2)[0], hi)), epsabs=tol
    )
    eta_hi, e2err = dblquad(
        integrand, lo, hi, lambda s2: max(lo, min(band(s2)[1], hi)), hi, epsabs=tol
    )
    eta = eta_lo + eta_hi
    err = zerr + e1err + e2err
    if err <= settings.abs_tol:
        return zeta, eta, err
    return _zeta_eta_monte_carlo(pop, settings)


def _zeta_eta_monte_carlo(
    pop: Population, settings: QuadratureSettings
) -> tuple[float, float, float]:
    if (
        pop.reviewer1.kind is not ProfileKind.AFFINE
        or pop.reviewer2.kind is not ProfileKind.AFFINE
    ):
        raise AccuracyError(
            "quadrature tolerance unmet and Monte Carlo fallback requires affine profiles",
            math.nan,
            math.inf,
        )
    n = settings.mc_fallback_n
    rng = np.random.Generator(np.random.Philox(key=settings.mc_seed))
    a1, b1 = pop.reviewer1.a, pop.reviewer1.b
    a2, b2 = pop.reviewer2.a, pop.reviewer2.b
    theta = rng.standard_normal((2, n))
    swap = rng.integers(0, 2, n).astype(bool)
    # Paper 1's reviewer is reviewer 1 unless the assignment is swapped.
    s1 = np.where(swap, a2 * theta[0] + b2, a1 * theta[0] + b1)
    s2 = np.where(swap, a1 * theta[1] + b1, a2 * theta[1] + b2)
    var1, var2 = a1 * a1, a2 * a2
    logu = (
        -0.5 * ((s1 - b1) ** 2 / var1 + (s2 - b2) ** 2 / var2)
        - 0.5 * math.log(var1 * var2)
    )
    logv = (
        -0.5 * ((s1 - b2) ** 2 / var2 + (s2 - b1) ** 2 / var1)
        - 0.5 * math.log(var1 * var2)
    )
    big = np.maximum(logu, logv)
    msc = np.exp(np.minimum(logu, logv) - big) / (1.0 + np.exp(-np.abs(logu - logv)))
    ta, tb = thresholds(pop, s2)
    part2 = (s1 > np.minimum(ta, tb)) & (s1 < np.maximum(ta, tb))
    zeta_samples = np.where(part2, msc, 0.0)
    eta_samples = np.where(part2, 0.0, msc)
    zeta = float(zeta_samples.mean())
    eta = float(eta_samples.mean())
    bound = 3.0 * float(
        np.sqrt(zeta_samples.var() / n) + np.sqrt(eta_samples.var() / n)
    )
    if bound > settings.mc_tol:
        raise AccuracyError("Monte Carlo fallback tolerance unmet", zeta, bound)
    return zeta, eta, bound


def alg2_policy(
    pop: Population, ec_avg: float, settings: Optional[QuadratureSettings] = None
) -> AveragePolicy:
    """Noiseless average-case policy: a coin between endpoint play and truth.

    The head probability is ec_avg / zeta, capped at 1. When zeta is 0
    (identical reviewers) decisions never depend on the assignment and
    mix = 1 by convention; any mix gives the same errors.
    """
    if not (0.0 <= ec_avg <= 1.0):
        raise ConfigurationError("ec_avg must lie in [0, 1]")
    zeta, eta, _ = zeta_eta(pop, settings)
    if zeta <= 0.0:
        return AveragePolicy(1.0, zeta, eta)
    return AveragePolicy(min(1.0, ec_avg / zeta), zeta, eta)
