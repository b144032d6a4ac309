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
    Decision,
    Instance,
    ModeError,
    ConfigurationError,
    Population,
    _LOG_INV_SQRT_2PI,
    log_ratio,
    std_normal_cdf,
)
from .frontier import Infeasible, _endpoint, instance_geometry


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

    def __post_init__(self) -> None:
        if not (0.0 <= self.q1 <= 1.0 and 0.0 <= self.q2 <= 1.0):
            raise ConfigurationError(
                f"q1 and q2 must lie in [0, 1], got {self.q1} and {self.q2}"
            )


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

    theta_span bounds the latent qualities: for every pair of profiles,
    affine or not, both integrals are taken over the qualities in
    [-theta_span, theta_span]^2. abs_tol bounds the error estimate, the
    summed differences between the n-node and 2n-node Gauss-Legendre
    results plus 4 Phi(-theta_span), which bounds the mass left outside
    the box; zeta_eta raises AccuracyError when the estimate exceeds it.
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
    q1 = 1 and q2 = (1 - min(ec_max, m) - pu) / pv solves the conference
    error equation, capped where the adversary error reaches the
    score-only ceiling m = min(pu, pv); both analytic errors are
    min(ec_max, m). simlab.Alg1Rule.batch is its array twin, bit for bit.
    """
    if not inst.noiseless:
        raise ModeError("alg1_policy requires sigma2 = 0")
    if not (0.0 <= ec_max <= 1.0):
        raise ConfigurationError("ec_max must lie in [0, 1]")
    geom = instance_geometry(inst)
    if not geom.part2:
        return Policy(1.0, 1.0, forced=geom.d1)
    if geom.pv == 0.0:
        # pv underflowed to 0: the adversary is already certain, and
        # truthfulness has zero conference error. pu = 0 gives q2 = 1.
        return Policy(1.0, 1.0)
    return Policy(1.0, (1.0 - min(ec_max, geom.m) - geom.pu) / geom.pv)


def alg3_policy(inst: Instance, ec_max: float) -> Union[Policy, Infeasible]:
    """Noisy per-instance policy on the Pareto frontier segment.

    Below the truthful conference error nothing is feasible and the
    feasible range is returned as data. At or above the frontier
    endpoint the endpoint policy end_q, one of whose q is 1, is
    returned. In between, the policy walks the square's edge from the
    truthful policy (1, 1) to end_q: q = 1 + f (end_q - 1) with
    f = (ec_max - truthful_ec) / (end_ec - truthful_ec), so one q stays
    exactly 1. Along that edge t and w are linear in f: the conference
    error is ec_max and the adversary error 1 - w rises from 0 to m. Of
    the policies with t pinned, the min-w end maximizes the adversary
    error, and it stays on that edge until w reaches max(pu, pv), the
    endpoint. The error pair therefore lies on the frontier segment.
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
    end_ec, (q1, q2) = _endpoint(geom)
    if ec_max >= end_ec:
        return Policy(q1, q2)
    f = (ec_max - geom.truthful_ec) / (end_ec - geom.truthful_ec)
    return Policy(1.0 + f * (q1 - 1.0), 1.0 + f * (q2 - 1.0))


# Gauss-Legendre nodes per panel. Each integral is also taken with twice
# as many, and the difference between the two results is its error.
_GL_NODES = 6
# The step of the uniform quality grid, its brackets per step, and the
# bisection steps, which narrow a bracket as wide as the default box
# (20) to 2e-17.
_QUALITY_STEP = 0.5
_BRACKETS = 16
_BISECTIONS = 60
# The half-step of the central difference that locates g's extrema.
_SLOPE_STEP = 1e-7
# libm's erfc, elementwise (numpy has none), written into float arrays.
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _gl_panels(edges: np.ndarray, rule: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of rule = leggauss(n), panel by panel."""
    x, w = rule
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half + half * x).ravel(), (half * w).ravel()


def _unique(*parts: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the arrays; np.unique imports numpy.ma."""
    x = np.sort(np.concatenate(parts))
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _bisect(fn, lo, hi) -> np.ndarray:
    """A root of fn in each bracket [lo, hi] over which its sign changes."""
    neg = fn(lo) < 0.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        left = (fn(mid) < 0.0) == neg
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _roots(fn, xs: np.ndarray) -> np.ndarray:
    """The roots of fn, bisected where its sign changes between consecutive xs.

    With no sign change there is nothing to bisect, and no bisection runs.
    """
    d = fn(xs)
    j = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    if j.size == 0:
        return xs[j]
    return _bisect(fn, xs[j], xs[j + 1])


def _quality_zeta_eta(pop: Population, span: float) -> tuple[float, float, float]:
    """(zeta, eta, n/2n difference) over the qualities in [-span, span]^2.

    With s1 = r1(x), s2 = r2(y) and k = log f1 - log f2, the integrand
    min(u, v)/2 ds1 ds2 is phi(x) phi(y) min(1, exp(g(y) - K(x)))/2 dx dy
    for g = k o r2 and K = k o r1, affine profiles or not. At fixed x the
    band of y between the thresholds runs from x to h(h(x)), h = r2^-1 o
    r1 clipped to the box, and g(y) = K(x) at y = h(x) and at most once
    in each monotone piece of g, between its extrema. Between these cuts
    the inner integral is exact: phi(y) dy = d Phi(y) where g >= K(x),
    and exp(g(y)) phi(y) dy = d Phi(h^-1(y)) where g < K(x). There the
    outer weight is exp(log phi(x) - K(x)) = f2(r1(x)) r1'(x), a bounded
    density, so nothing overflows. The outer panels are cut at the
    grid and its images under h, h^-1 and h^-1 o h^-1, which resolve g,
    K and g o h o h along x, and at the events where the inner cuts meet,
    leave the box or appear. Events are bracketed on the fine grid and
    the same images of it, so a steep h cannot hide two in one bracket.
    """
    r1, r2 = pop.reviewer1, pop.reviewer2

    def h(x):
        return np.clip(r2.invert(r1.apply(x)), -span, span)

    def h_inv(y):
        return np.clip(r1.invert(r2.apply(y)), -span, span)

    def k(prof, t):
        return log_ratio(pop, prof.apply(t))

    def slope(y):
        return k(r2, y + _SLOPE_STEP) - k(r2, y - _SLOPE_STEP)

    def images(t):
        return [t, h(t), h_inv(t), h_inv(h_inv(t))]

    steps = math.ceil(2.0 * span / _QUALITY_STEP)
    grid = np.linspace(-span, span, 1 + steps)
    # Roots and extrema are bracketed on a finer grid than the panels.
    fine = np.linspace(-span, span, 1 + _BRACKETS * steps)
    extrema = _roots(slope, fine)
    # g is monotone between consecutive ends, so each piece holds at most
    # one root of g = K(x).
    ends = np.concatenate([[-span], extrema, [span]])
    # A root meets y = x or y = h(h(x)), leaves the box, or appears in a
    # pair; x, h(x) and h(h(x)) meet at the fixed points of h.
    events = [lambda x: k(r2, x) - k(r1, x), lambda x: k(r2, h(h(x))) - k(r1, x)]
    events += [lambda x, c=c: c - k(r1, x) for c in k(r2, ends)] + [lambda x: h(x) - x]
    scan = _unique(*images(fine))
    event_x = [_roots(e, scan) for e in events]
    edges = _unique(*images(grid), h_inv(extrema), *event_x)

    from numpy.polynomial.legendre import leggauss

    results = []
    for n in (_GL_NODES, 2 * _GL_NODES):
        x, w = _gl_panels(edges, leggauss(n))
        kx = k(r1, x)[:, None]
        hhx = h(h(x))
        # A piece of g over which g - K(x) changes sign holds a root; x
        # stands in for the root of any other piece.
        d = k(r2, ends) - kx
        row, piece = np.nonzero(d[:, :-1] * d[:, 1:] < 0.0)
        roots = np.repeat(x[:, None], ends.size - 1, axis=1)
        roots[row, piece] = _bisect(
            lambda y: k(r2, y) - kx[row, 0], ends[piece], ends[piece + 1]
        )
        box = np.full(x.size, span)
        cuts = np.sort(np.column_stack([-box, x, h(x), hhx, roots, box]))
        mid = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        # erfc(-y / sqrt 2) = 2 Phi(y) at the cuts and at their images
        # under h^-1, unclipped. A piece where g < K(x) is a mass of
        # Phi o h^-1, and its exp(-K(x)) moves into the outer weight.
        t = np.stack([cuts, r1.invert(r2.apply(cuts))]) / -math.sqrt(2.0)
        _ERFC(t, out=t, casting="unsafe")
        above = k(r2, mid) >= kx
        log_w = (_LOG_INV_SQRT_2PI - 0.5 * x * x)[:, None] - np.where(above, 0.0, kx)
        mass = np.where(above, np.diff(t[0]), np.diff(t[1]))
        f = 0.25 * w[:, None] * np.exp(log_w) * mass
        inside = (np.minimum(x, hhx)[:, None] < mid) & (mid < np.maximum(x, hhx)[:, None])
        zeta_n = float(f[inside].sum())
        results.append((zeta_n, float(f.sum()) - zeta_n))
    (zeta_c, eta_c), (zeta, eta) = results
    return zeta, eta, abs(zeta - zeta_c) + abs(eta - eta_c)


def zeta_eta(
    pop: Population, settings: Optional[QuadratureSettings] = None
) -> tuple[float, float, float]:
    """Average-case integrals (zeta, eta) and an error bound.

    zeta integrates the score-only adversary error min(u, v)/2 over the
    randomizing regime (s1 strictly between the thresholds), eta over
    the forced regime. Every population takes one integrator over the
    qualities in [-theta_span, theta_span]^2: the inner integral exact,
    the outer one by Gauss-Legendre rules with n and 2n nodes per panel
    (see _quality_zeta_eta). err sums their differences and adds
    4 Phi(-theta_span) for the mass outside the box. When err exceeds
    settings.abs_tol or any of the three is not finite, AccuracyError
    is raised carrying zeta and err. There is no fallback path.
    """
    if settings is None:
        settings = QuadratureSettings()
    if not pop.noiseless:
        raise ModeError("zeta/eta are defined for the noiseless average case")
    # Maps that leave each other's range give NaN, which raises below.
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta, eta, err = _quality_zeta_eta(pop, settings.theta_span)
    # The box leaves out at most this much of min(u, v)/2.
    err += 4.0 * std_normal_cdf(-settings.theta_span)
    if not (math.isfinite(zeta + eta) and err <= settings.abs_tol):
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
