"""The conference side: the three calibration policies.

Policies are h-policies (q1, q2): the probability of calibrating under
the true assignment, given it is A1 or A2. The three constructors cover
the noiseless per-instance tradeoff, the noiseless average-case
tradeoff, and the noisy per-instance tradeoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .model import (
    Assignment,
    Decision,
    Instance,
    ModeError,
    ConfigurationError,
    Population,
    log_likelihoods,
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
    """Controls for the zeta/eta integrals.

    abs_tol bounds the summed error estimate of the three quadratures;
    theta_span sets the score box to the profiles' images of
    [-theta_span, theta_span].
    """

    abs_tol: float = 1e-6
    theta_span: float = 10.0


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
    regime, eta over the forced regime, each by adaptive 2-D quadrature
    with the inner limits split exactly at the regime thresholds. The
    returned bound is the sum of the three error estimates; when it
    exceeds settings.abs_tol, AccuracyError is raised carrying zeta and
    that sum. There is no fallback path.
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
    if err > settings.abs_tol:
        raise AccuracyError("quadrature tolerance unmet", zeta, err)
    return zeta, eta, err


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
