"""Reference values for affine instances, written without privcal.

Everything here is computed from the affine parameters with ``math``
alone, so a defect in privcal's posterior, geometry or error code cannot
also hide in the reference. A decision rule is described by
g = (g1, g2), the probability of accepting paper 1 under assignment A1
and A2. Its conference error is linear in g, and the MAP adversary's
error is the wrong-guess mass summed over the two observable decisions,
which is the four-scenario (assignment x accepted paper) enumeration.
For randomizing instances every g is reachable by an h-policy, so the
largest adversary error at a pinned conference error is the maximum of a
concave piecewise-linear function along a line in the unit square; it
sits at a corner where that line crosses the square's edges or the two
lines where the adversary's comparison changes side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LOG_2PI = math.log(2.0 * math.pi)


def _norm_logpdf(x: float, mean: float, var: float) -> float:
    d = x - mean
    return -0.5 * (_LOG_2PI + math.log(var) + d * d / var)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class RefStats:
    """Posterior weights, Phi statistics and the error form of one instance.

    phi1 (phi2) is the probability that paper 1 is the worse paper given
    the scores and assignment A1 (A2); it is 0 or 1 without noise.
    """

    pu: float
    pv: float
    phi1: float
    phi2: float

    @property
    def m(self) -> float:
        return min(self.pu, self.pv)

    @property
    def randomizing(self) -> bool:
        """The MAP decisions under A1 and A2 disagree."""
        return (self.phi1 < 0.5) != (self.phi2 < 0.5)

    @property
    def alpha(self) -> float:
        return self.pu * (2.0 * self.phi1 - 1.0)

    @property
    def beta(self) -> float:
        return self.pv * (2.0 * self.phi2 - 1.0)

    @property
    def c(self) -> float:
        return self.pu * (1.0 - self.phi1) + self.pv * (1.0 - self.phi2)

    def ec_range(self) -> tuple[float, float]:
        """Smallest and largest conference error over all rules g."""
        a, b = self.alpha, self.beta
        return self.c + min(a, 0.0) + min(b, 0.0), self.c + max(a, 0.0) + max(b, 0.0)

    @property
    def forced_ec(self) -> float:
        """Conference error of the MAP decision (one decision for forced instances)."""
        return self.pu * min(self.phi1, 1.0 - self.phi1) + self.pv * min(
            self.phi2, 1.0 - self.phi2
        )


def stats(a1, b1, a2, b2, sigma2, s1, s2) -> RefStats:
    """Reference statistics of the instance (a1 s + b1, a2 s + b2, sigma2, s1, s2)."""
    v1 = a1 * a1 + sigma2
    v2 = a2 * a2 + sigma2
    logu = _norm_logpdf(s1, b1, v1) + _norm_logpdf(s2, b2, v2)
    logv = _norm_logpdf(s1, b2, v2) + _norm_logpdf(s2, b1, v1)
    d = logv - logu
    if d > 0.0:
        e = math.exp(-d)
        pu, pv = e / (1.0 + e), 1.0 / (1.0 + e)
    else:
        e = math.exp(d)
        pu, pv = 1.0 / (1.0 + e), e / (1.0 + e)
    if sigma2 == 0.0:
        phi1 = 1.0 if (s1 - b1) / a1 < (s2 - b2) / a2 else 0.0
        phi2 = 1.0 if (s1 - b2) / a2 < (s2 - b1) / a1 else 0.0
    else:
        # Posterior of a paper's quality from score s read by (a, b):
        # N(a (s - b) / v, sigma2 / v) with v = a^2 + sigma2.
        sd = math.sqrt(sigma2 / v1 + sigma2 / v2)
        phi1 = _norm_cdf((a2 * (s2 - b2) / v2 - a1 * (s1 - b1) / v1) / sd)
        phi2 = _norm_cdf((a1 * (s2 - b1) / v1 - a2 * (s1 - b2) / v2) / sd)
    return RefStats(pu, pv, phi1, phi2)


def rule_errors(r: RefStats, g1: float, g2: float) -> tuple[float, float]:
    """(conference error, adversary error) of the rule g."""
    ec = r.c + r.alpha * g1 + r.beta * g2
    ea = min(r.pu * g1, r.pv * g2) + min(r.pu * (1.0 - g1), r.pv * (1.0 - g2))
    return ec, ea


def policy_errors(r: RefStats, q1: float, q2: float) -> tuple[float, float]:
    """Errors of the h-policy that takes the MAP decision of the true
    assignment with probability q1 under A1 and q2 under A2, and the MAP
    decision of the other assignment otherwise."""
    p1_a1 = r.phi1 < 0.5
    p1_a2 = r.phi2 < 0.5
    g1 = q1 * p1_a1 + (1.0 - q1) * p1_a2
    g2 = q2 * p1_a2 + (1.0 - q2) * p1_a1
    return rule_errors(r, g1, g2)


def _lines(r: RefStats):
    """(x, y, rhs) for x g1 + y g2 = rhs: the square's edges and the two
    lines on which the adversary's comparison is an exact tie."""
    return (
        (1.0, 0.0, 0.0),
        (1.0, 0.0, 1.0),
        (0.0, 1.0, 0.0),
        (0.0, 1.0, 1.0),
        (r.pu, -r.pv, 0.0),
        (r.pu, -r.pv, r.pu - r.pv),
    )


def _meet(l1, l2, tol=1e-12):
    x1, y1, c1 = l1
    x2, y2, c2 = l2
    det = x1 * y2 - x2 * y1
    if det == 0.0:
        return None
    g1 = (c1 * y2 - c2 * y1) / det
    g2 = (x1 * c2 - x2 * c1) / det
    if -tol <= g1 <= 1.0 + tol and -tol <= g2 <= 1.0 + tol:
        return min(max(g1, 0.0), 1.0), min(max(g2, 0.0), 1.0)
    return None


def max_adversary_error(r: RefStats, ec: float):
    """Largest adversary error over rules with conference error ec, or
    None when no rule reaches ec."""
    level = (r.alpha, r.beta, ec - r.c)
    best = None
    for line in _lines(r):
        g = _meet(level, line)
        if g is not None:
            ea = rule_errors(r, *g)[1]
            best = ea if best is None else max(best, ea)
    return best


def frontier_end_ec(r: RefStats) -> float:
    """Smallest conference error at which the adversary error reaches m."""
    lines = _lines(r)
    # The vertex's adversary error carries roundoff of a few ulps of 1,
    # whatever the size of m.
    floor = r.m - 1e-14
    best = math.inf
    for i, l1 in enumerate(lines):
        for l2 in lines[i + 1 :]:
            g = _meet(l1, l2)
            if g is not None:
                ec, ea = rule_errors(r, *g)
                if ea >= floor:
                    best = min(best, ec)
    return best
