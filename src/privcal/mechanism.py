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
    _LOG_INV_SQRT_2PI,
    _SQRT2,
    _norm_logpdf,
    log_marginal_score_density,
    std_normal_cdf,
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

    theta_span bounds the latent qualities. For two affine profiles both
    integrals are taken over the score box, the union of the profiles'
    images of [-theta_span, theta_span]. For any other pair they are
    taken over the qualities in [-theta_span, theta_span]^2, and the
    error estimate includes 4 Phi(-theta_span), the mass left outside.
    abs_tol bounds the error estimate, on both paths the summed
    differences between the n-node and 2n-node Gauss-Legendre results;
    zeta_eta raises AccuracyError when the estimate exceeds it. Both
    fields must be finite and positive.
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


# Gauss-Legendre nodes per panel. Each integral is also taken with twice
# as many, and the difference between the two results is its error.
_GL_NODES = 6
# At most this many outer panels; a population whose finest scale needs
# more is under-resolved, and the n/2n difference reports it.
_MAX_PANELS = 4096
# The affine outer integral runs over the narrower reviewer's scores
# within this many of its standard deviations (see _affine_zeta_eta).
_WINDOW_SDS = 12.0
# The step of the general path's uniform quality grid, its brackets per
# step, the outer nodes it integrates over at a time, and its bisection
# steps, which take a bracket one grid step wide below the spacing of
# doubles.
_QUALITY_STEP = 0.5
_BRACKETS = 16
_ROWS = 512
_BISECTIONS = 60
# The half-step of the central difference that locates g's extrema.
_SLOPE_STEP = 1e-7

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _gl_panels(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre nodes and weights, panel by panel along the last axis."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    half = 0.5 * np.diff(edges)[..., None]
    centre = edges[..., :-1, None] + half
    shape = edges.shape[:-1] + (-1,)
    return (centre + half * x).reshape(shape), (half * w).reshape(shape)


def _normal_cdf(x, mean: float, sd: float) -> np.ndarray:
    """Normal CDF at each element of x, through math.erfc."""
    return 0.5 * np.asarray(_erfc((mean - x) / (sd * _SQRT2)), dtype=float)


def _affine_zeta_eta(pop: Population, span: float) -> tuple[float, float, float]:
    """(zeta, eta, err) for two affine profiles over their score box.

    The box is [lo, hi]^2, the union of the profiles' images of
    [-span, span]. With g = log f1 - log f2 quadratic,
    g(s1) - g(s2) = (s1 - s2) L(s1 + s2) for a linear L(t) = k t + m.
    So at fixed s2, min(u, v) switches only at s1 = s2 and s1 = t* - s2,
    where L(t*) = 0 (no such line when k = 0). On each side of those
    points the inner integral of min(u, v) is f2(s2) times a mass of f1,
    or f1(s2) times a mass of f2: differences of normal CDFs. Over s2 the
    result is smooth between the crossings of these lines, the
    thresholds ta and tb, and the box edges. Each such piece is cut into
    panels no wider than the finest scale of its terms and integrated
    with n and 2n Gauss-Legendre nodes.
    """
    a1, b1 = pop.reviewer1.a, pop.reviewer1.b
    a2, b2 = pop.reviewer2.a, pop.reviewer2.b
    lo = min(b1 - a1 * span, b2 - a2 * span)
    hi = max(b1 + a1 * span, b2 + a2 * span)
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
    rules = [_gl_panels(np.concatenate(edges), n) for n in (_GL_NODES, 2 * _GL_NODES)]
    s2 = np.concatenate([x for x, _ in rules])
    weights = [w for _, w in rules]

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


def _roots(fn, xs: np.ndarray) -> np.ndarray:
    """The roots of fn, bisected where its sign changes between consecutive xs.

    fn(xs) may hold several rows (leading axes), each with its own roots.
    A row with fewer roots than the most also bisects brackets that hold
    none; their results are harmless extra cuts.
    """
    d = fn(xs)
    change = d[..., :-1] * d[..., 1:] < 0.0
    count = int(change.sum(axis=-1).max(initial=0))
    j = np.argsort(~change, axis=-1, kind="stable")[..., :count]
    lo, hi = xs[j], xs[j + 1]
    neg = fn(lo) < 0.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        left = (fn(mid) < 0.0) == neg
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _quality_zeta_eta(pop: Population, span: float) -> tuple[float, float, float]:
    """(zeta, eta, err) over the qualities in [-span, span]^2, for any profiles.

    With s1 = r1(x), s2 = r2(y) and k = log f1 - log f2, the integrand
    min(u, v)/2 ds1 ds2 is phi(x) phi(y) min(1, exp(g(y) - K(x)))/2 dx dy
    for g = k o r2 and K = k o r1. At fixed x the band of y between the
    thresholds runs from x to h(h(x)), h = r2^-1 o r1 clipped to the box,
    and g(y) = K(x) at y = h(x) and any other root, bisected where g is
    monotone: these cut the inner panels. The outer ones are cut where
    such cuts meet, leave the box or appear, and where h or h o h crosses
    the uniform grid. err adds 4 Phi(-span), the mass outside the box.
    """
    r1, r2 = pop.reviewer1, pop.reviewer2
    logf = log_marginal_score_density

    def h(x):
        return np.clip(r2.invert(r1.apply(x)), -span, span)

    def h_inv(y):
        return np.clip(r1.invert(r2.apply(y)), -span, span)

    def k(prof, t):
        s = prof.apply(t)
        return logf(r1, 0.0, s) - logf(r2, 0.0, s)

    def slope(y):
        return k(r2, y + _SLOPE_STEP) - k(r2, y - _SLOPE_STEP)

    steps = math.ceil(2.0 * span / _QUALITY_STEP)
    grid = np.linspace(-span, span, 1 + steps)
    # Roots and extrema are bracketed on a finer grid than the panels.
    fine = np.linspace(-span, span, 1 + _BRACKETS * steps)
    extrema = _roots(slope, fine)
    # g is monotone between consecutive points of y_grid, so each root
    # of g = K(x) has a bracket of its own.
    y_grid = np.unique(np.concatenate([grid, h(grid), extrema]))
    # A root meets y = x or y = h(h(x)), leaves the box, or appears in a
    # pair; x, h(x) and h(h(x)) meet at the fixed points of h.
    events = [lambda x: k(r2, x) - k(r1, x), lambda x: k(r2, h(h(x))) - k(r1, x)]
    levels = k(r2, np.concatenate([[-span, span], extrema]))
    events += [lambda x, c=c: c - k(r1, x) for c in levels] + [lambda x: h(x) - x]
    x_grid = h_inv(grid)
    cuts = [grid, x_grid, h_inv(x_grid), h_inv(extrema)]
    edges = np.unique(np.concatenate(cuts + [_roots(e, fine) for e in events]))

    def inner(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """At each x, the integrals over y in and out of the band."""
        kx = k(r1, x)[:, None]
        hx = h(x)
        hhx = h(hx)
        roots = _roots(lambda y: k(r2, y) - kx, y_grid)
        grids = np.broadcast_to(y_grid, (x.size, y_grid.size))
        y, w = _gl_panels(np.sort(np.column_stack([grids, x, hx, hhx, roots])), n)
        f = w * np.exp(_LOG_INV_SQRT_2PI - 0.5 * y * y + np.minimum(0.0, k(r2, y) - kx))
        band = (np.minimum(x, hhx)[:, None] < y) & (y < np.maximum(x, hhx)[:, None])
        zeta_x = np.where(band, f, 0.0).sum(axis=1)
        return zeta_x, f.sum(axis=1) - zeta_x

    results = []
    for n in (_GL_NODES, 2 * _GL_NODES):
        x, w = _gl_panels(edges, n)
        w *= 0.5 * np.exp(_LOG_INV_SQRT_2PI - 0.5 * x * x)
        rows = [inner(x[i : i + _ROWS], n) for i in range(0, x.size, _ROWS)]
        results.append([float(w @ np.concatenate(r)) for r in zip(*rows)])
    (zeta_c, eta_c), (zeta, eta) = results
    err = abs(zeta - zeta_c) + abs(eta - eta_c) + 4.0 * std_normal_cdf(-span)
    return zeta, eta, err


def zeta_eta(
    pop: Population, settings: Optional[QuadratureSettings] = None
) -> tuple[float, float, float]:
    """Average-case integrals (zeta, eta) and an error bound.

    zeta integrates the score-only adversary error min(u, v)/2 over the
    randomizing regime (s1 strictly between the thresholds), eta over
    the forced regime. Both paths are fixed Gauss-Legendre rules taken
    with n and 2n nodes per panel, and err sums their differences. For
    two affine profiles the inner integral is exact, and the box is the
    score box of settings.theta_span. Any other pair is integrated over
    the qualities in [-theta_span, theta_span]^2, and err adds
    4 Phi(-theta_span) for the mass outside. When err exceeds
    settings.abs_tol, AccuracyError is raised carrying zeta and err.
    There is no fallback path.
    """
    if settings is None:
        settings = QuadratureSettings()
    if not pop.noiseless:
        raise ModeError("zeta/eta are defined for the noiseless average case")
    if pop.reviewer1.kind is pop.reviewer2.kind is ProfileKind.AFFINE:
        zeta, eta, err = _affine_zeta_eta(pop, settings.theta_span)
    else:
        zeta, eta, err = _quality_zeta_eta(pop, settings.theta_span)
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
