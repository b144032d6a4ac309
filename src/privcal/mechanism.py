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

import numpy as np

from .model import (
    Assignment,
    Decision,
    Instance,
    ModeError,
    ConfigurationError,
    Population,
    ProfileKind,
    _SQRT2,
    _norm_logpdf,
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

    theta_span sets the score box to the union of the profiles' images
    of [-theta_span, theta_span]; both integrals are taken over that
    box. abs_tol bounds the reported error estimate: for two affine
    profiles the sum of the n-node/2n-node differences of the fixed
    outer rule, otherwise the summed estimate of the three dblquad
    calls. zeta_eta raises AccuracyError when the estimate exceeds it.
    Both fields must be finite and positive.
    """

    abs_tol: float = 1e-6
    theta_span: float = 10.0

    def __post_init__(self) -> None:
        for name in ("abs_tol", "theta_span"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value!r}"
                )


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


# Gauss-Legendre nodes per outer panel of the affine path. Its estimate
# uses twice as many; the difference between the two is its error.
_GL_NODES = 6
# At most this many outer panels; a population whose finest scale needs
# more is under-resolved, and the n/2n difference reports it.
_MAX_PANELS = 4096
# The affine outer integral runs over the narrower reviewer's scores
# within this many of its standard deviations (see _affine_zeta_eta).
_WINDOW_SDS = 12.0

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(x, mean: float, sd: float) -> np.ndarray:
    """Normal CDF at each element of x, through math.erfc."""
    return 0.5 * np.asarray(_erfc((mean - x) / (sd * _SQRT2)), dtype=float)


def _affine_zeta_eta(pop: Population, lo: float, hi: float) -> tuple[float, float, float]:
    """(zeta, eta, err) over the score box [lo, hi]^2 for two affine profiles.

    With g = log f1 - log f2 quadratic, g(s1) - g(s2) = (s1 - s2) L(s1 + s2)
    for a linear L(t) = k t + m. So at fixed s2, min(u, v) switches only
    at s1 = s2 and s1 = t* - s2, where L(t*) = 0 (no such line when k = 0).
    On each side of those points the inner integral of min(u, v) is
    f2(s2) times a mass of f1, or f1(s2) times a mass of f2: differences
    of normal CDFs. Over s2 the result is smooth between the crossings of
    these lines, the thresholds ta and tb, and the box edges. Each such
    piece is cut into panels no wider than the finest scale of its terms
    and integrated with n and 2n Gauss-Legendre nodes.
    """
    from numpy.polynomial.legendre import leggauss

    a1, b1 = pop.reviewer1.a, pop.reviewer1.b
    a2, b2 = pop.reviewer2.a, pop.reviewer2.b
    k = 0.5 * (1.0 / (a2 * a2) - 1.0 / (a1 * a1))
    m = b1 / (a1 * a1) - b2 / (a2 * a2)
    # u is the minimum between the two switch points when k > 0. As
    # k -> 0+ the point t* - s2 leaves for -inf when m > 0, +inf otherwise,
    # which gives the k = 0 case.
    if k != 0.0:
        t_star = -m / k
    else:
        t_star = -math.inf if m > 0.0 else math.inf
    u_in_middle = k >= 0.0

    # Each inner integral is at most min(f1(s2), f2(s2)), so leaving out
    # s2 beyond 12 sd of the narrower density drops at most 2 Phi(-12),
    # under 4e-33, from each of zeta and eta. Without this window the
    # panel count would grow with the square of a_max / a_min.
    sd, mean = min((a1, b1), (a2, b2))
    w_lo = max(lo, mean - _WINDOW_SDS * sd)
    w_hi = min(hi, mean + _WINDOW_SDS * sd)
    # Lines s1 = slope * s2 + intercept where the integrand has a kink:
    # u = v, the thresholds ta and tb, and the box edges.
    ta0, tb0 = thresholds(pop, 0.0)
    lines = [(1.0, 0.0), (a2 / a1, ta0), (a1 / a2, tb0), (0.0, lo), (0.0, hi)]
    if math.isfinite(t_star):
        lines.append((-1.0, t_star))
    cuts = {w_lo, w_hi}
    for i, (slope, icept) in enumerate(lines):
        for slope2, icept2 in lines[i + 1 :]:
            if slope != slope2:
                x = (icept2 - icept) / (slope - slope2)
                if w_lo < x < w_hi:
                    cuts.add(x)
    cuts = sorted(cuts)
    # The finest scale: a density has sd a_j, a CDF of a line with slope
    # a_max / a_min varies over a_min^2 / a_max.
    width = max(min(a1, a2) ** 2 / max(a1, a2), (w_hi - w_lo) / _MAX_PANELS)
    edges = [np.array(cuts[:1])]
    for c0, c1 in zip(cuts, cuts[1:]):
        edges.append(np.linspace(c0, c1, max(1, math.ceil((c1 - c0) / width)) + 1)[1:])
    edges = np.concatenate(edges)
    half = 0.5 * np.diff(edges)[:, None]
    centre = edges[:-1, None] + half
    rules = [leggauss(n) for n in (_GL_NODES, 2 * _GL_NODES)]
    s2 = np.concatenate([(centre + half * x).ravel() for x, _ in rules])
    weights = [(half * w).ravel() for _, w in rules]

    f1 = np.exp(_norm_logpdf(s2, b1, a1 * a1))
    f2 = np.exp(_norm_logpdf(s2, b2, a2 * a2))
    p_lo = np.minimum(s2, t_star - s2)
    p_hi = np.maximum(s2, t_star - s2)
    base1, base2 = _normal_cdf(p_lo, b1, a1), _normal_cdf(p_lo, b2, a2)

    def below(x):
        # The integral of min(u, v) over s1 < x, at each s2.
        xm = np.clip(x, p_lo, p_hi)
        mid1 = _normal_cdf(xm, b1, a1) - base1
        mid2 = _normal_cdf(xm, b2, a2) - base2
        if u_in_middle:
            return f2 * mid1 + f1 * (_normal_cdf(x, b2, a2) - mid2)
        return f2 * (_normal_cdf(x, b1, a1) - mid1) + f1 * mid2

    ta, tb = thresholds(pop, s2)
    band_lo, band_hi = np.minimum(ta, tb), np.maximum(ta, tb)
    zeta_f = below(band_hi) - below(band_lo)
    eta_f = below(np.clip(band_lo, lo, hi)) - below(lo)
    eta_f += below(hi) - below(np.clip(band_hi, lo, hi))
    n = weights[0].size
    coarse = [0.5 * float(weights[0] @ f[:n]) for f in (zeta_f, eta_f)]
    zeta, eta = (0.5 * float(weights[1] @ f[n:]) for f in (zeta_f, eta_f))
    return zeta, eta, abs(zeta - coarse[0]) + abs(eta - coarse[1])


def _dblquad_zeta_eta(
    pop: Population, lo: float, hi: float, abs_tol: float
) -> tuple[float, float, float]:
    """(zeta, eta, err) over [lo, hi]^2 by three adaptive dblquad calls.

    The inner limits are split exactly at the regime thresholds, each
    call gets abs_tol / 3, and err is the sum of their estimates.
    """
    # Only this path loads scipy, on its first call.
    from scipy.integrate import dblquad

    integrand = _half_min_likelihood(pop)

    def band(s2: float) -> tuple[float, float]:
        # The randomizing regime at s2: s1 strictly between the thresholds.
        ta, tb = thresholds(pop, s2)
        return min(ta, tb), max(ta, tb)

    tol = abs_tol / 3.0
    zeta, zerr = dblquad(
        integrand, lo, hi, lambda s2: band(s2)[0], lambda s2: band(s2)[1], epsabs=tol
    )
    eta_lo, e1err = dblquad(
        integrand, lo, hi, lo, lambda s2: max(lo, min(band(s2)[0], hi)), epsabs=tol
    )
    eta_hi, e2err = dblquad(
        integrand, lo, hi, lambda s2: max(lo, min(band(s2)[1], hi)), hi, epsabs=tol
    )
    return zeta, eta_lo + eta_hi, zerr + e1err + e2err


def zeta_eta(
    pop: Population, settings: Optional[QuadratureSettings] = None
) -> tuple[float, float, float]:
    """Average-case integrals (zeta, eta) and an error bound.

    zeta integrates the score-only adversary error min(u, v)/2 over the
    randomizing regime (s1 strictly between the thresholds), eta over
    the forced regime, both over the score box of settings.theta_span.
    For two affine profiles the inner integral is exact and the outer
    one a fixed Gauss-Legendre rule; err is the summed difference
    between its n-node and 2n-node results, and no scipy module loads.
    Any other pair of profiles runs three adaptive
    scipy.integrate.dblquad calls, and err is the sum of their error
    estimates. When err exceeds settings.abs_tol, AccuracyError is
    raised carrying zeta and err. There is no fallback path.
    """
    if settings is None:
        settings = QuadratureSettings()
    if not pop.noiseless:
        raise ModeError("zeta/eta are defined for the noiseless average case")
    lo, hi = _score_bounds(pop, settings.theta_span)
    if (
        pop.reviewer1.kind is ProfileKind.AFFINE
        and pop.reviewer2.kind is ProfileKind.AFFINE
    ):
        zeta, eta, err = _affine_zeta_eta(pop, lo, hi)
    else:
        zeta, eta, err = _dblquad_zeta_eta(pop, lo, hi, settings.abs_tol)
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
