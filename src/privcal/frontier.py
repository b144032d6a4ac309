"""Pareto frontiers between conference error and adversary error.

For a fixed pair of observed scores the conference chooses a randomized
policy (q1, q2) and incurs a conference error E_C, while a MAP adversary
who knows the policy incurs a deanonymization error E_A. This module
computes, per instance, the geometry shared by both error functionals,
the Pareto frontier (a point when the decision is forced by the scores,
a rising segment otherwise), and the full curve of maximum E_A over
policies with E_C pinned to a target value. That curve is a trapezoid
read from the frontier's vertices: its rising edge is the frontier
segment and its falling edge the segment's mirror image.

The algebra is organized around two scalars of a policy:

    t = alpha1 * q1 + alpha2 * q2   (conference error is c0 - t)
    w = pu * q1 + pv * q2           (adversary error is min(w, m, 1 - w))

with alpha1 = pu (1 - 2 phi1), alpha2 = pv (2 phi2 - 1), both positive
once (phi1, phi2) are oriented so phi1 < 1/2 < phi2, and m = min(pu, pv).
The noiseless setting is the special case phi1 = 0, phi2 = 1, where t
and w coincide. All eight sign arrangements of the noisy case reduce to
this one parameterization, so no case split is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .model import (
    Decision,
    Instance,
    map_decisions,
    phi_pair,
    posterior_weights,
)


@dataclass(frozen=True)
class ErrorPair:
    """A (conference error, adversary error) point."""

    ec: float
    ea: float


class SegmentKind(Enum):
    POINT = "point"
    SEGMENT = "segment"


@dataclass(frozen=True)
class FrontierSegment:
    """The Pareto set of one instance: a point, or a rising segment.

    min_feasible_ec is the smallest conference error any policy can
    achieve for these scores (0 in the noiseless segment case).
    """

    kind: SegmentKind
    start: ErrorPair
    end: ErrorPair
    min_feasible_ec: float


@dataclass(frozen=True)
class Infeasible:
    """Requested conference error cannot be realized by any policy."""

    min_feasible_ec: float
    max_feasible_ec: float


@dataclass(frozen=True)
class InstanceGeometry:
    """Shared per-instance statistics in the oriented parameterization.

    pu, pv are the posterior assignment weights. phi1 and phi2 are
    oriented so phi1 <= 1/2 <= phi2: phi1 is the probability the
    truthful decision under A1 is wrong, 1 - phi2 the same under A2
    (0 and 1 exactly in noiseless mode; phi_pair gives them in noisy
    mode). d1 and d2 are the MAP decisions under an assumed A1 and A2,
    from model.map_decisions, the rule simulate_average applies to each
    replicate; they differ exactly in the randomizing regime (part2).
    For forced instances d1 == d2 is the score-determined decision, paper
    1 on a tie, where MAP is indifferent under both assignments.

    The derived scalars are computed once, at construction, and take
    no part in ==, hash or repr: m = min(pu, pv) is the score-only
    adversary error ceiling, alpha1 and alpha2 are the slopes of the
    conference error in q1 and q2, ec_intercept is the conference
    error of the never-truthful policy q1 = q2 = 0, truthful_ec that of
    the truthful policy q1 = q2 = 1, and forced_ec the conference error
    of the forced decision (part-1 instances).
    """

    part2: bool
    pu: float
    pv: float
    phi1: float
    phi2: float
    d1: Decision
    d2: Decision
    m: float = field(init=False, repr=False, compare=False)
    alpha1: float = field(init=False, repr=False, compare=False)
    alpha2: float = field(init=False, repr=False, compare=False)
    ec_intercept: float = field(init=False, repr=False, compare=False)
    truthful_ec: float = field(init=False, repr=False, compare=False)
    forced_ec: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pu, pv, phi1, phi2 = self.pu, self.pv, self.phi1, self.phi2
        setattr_ = object.__setattr__
        setattr_(self, "m", min(pu, pv))
        setattr_(self, "alpha1", pu * (1.0 - 2.0 * phi1))
        setattr_(self, "alpha2", pv * (2.0 * phi2 - 1.0))
        setattr_(self, "ec_intercept", pu * (1.0 - phi1) + pv * phi2)
        setattr_(self, "truthful_ec", self.ec_intercept - self.alpha1 - self.alpha2)
        setattr_(self, "forced_ec", pu * phi1 + pv * (1.0 - phi2))

    def conference_error(self, q1: float, q2: float) -> float:
        """The conference error of (q1, q2) on a part-2 instance; a forced
        one's is forced_ec."""
        return self.ec_intercept - self.alpha1 * q1 - self.alpha2 * q2


def instance_geometry(inst: Instance) -> InstanceGeometry:
    """Classify an instance and compute its oriented statistics.

    The geometry is built on the first call and stored on inst; every
    later call returns that same object. It is not a field, so it
    takes no part in ==, hash or repr, and an Instance made by
    dataclasses.replace, swap_papers or swap_reviewers starts without
    one. Because the result is reused, the maps of a general monotone
    profile must be pure functions. A call that raises (such as
    DegenerateInstanceError) stores nothing.
    """
    geom = inst.__dict__.get("_geometry")
    # Two threads that both miss build equal geometries, and either may
    # be stored; the build is pure, so no lock is needed.
    if geom is None:
        geom = _build_geometry(inst)
        object.__setattr__(inst, "_geometry", geom)
    return geom


def _build_geometry(inst: Instance) -> InstanceGeometry:
    """The geometry of one instance, in either noise mode (see InstanceGeometry)."""
    pu, pv = posterior_weights(inst)
    p1_a1, p1_a2 = map_decisions(inst, inst.scores.s1, inst.scores.s2)
    d1, d2 = (Decision.PAPER1 if p1 else Decision.PAPER2 for p1 in (p1_a1, p1_a2))
    phi1, phi2 = 0.0, 1.0
    if not inst.noiseless:
        pp = phi_pair(inst)
        phi1, phi2 = min(pp.phi1, 1.0 - pp.phi1), 1.0 - min(pp.phi2, 1.0 - pp.phi2)
    return InstanceGeometry(d1 is not d2, pu, pv, phi1, phi2, d1, d2)


def _endpoint(geom: InstanceGeometry) -> tuple[float, tuple[float, float]]:
    """Pareto endpoint of a part-2 instance.

    Returns (ec, (q1, q2)) for the policy of largest t on the boundary
    w = max(pu, pv), which is where the adversary error first reaches
    its ceiling m = min(pu, pv). One of its q is 1. This is the end
    vertex every reader takes: frontier(), max_adversary_error_curve and
    mechanism.alg3_policy all read end_ec here and nowhere else.
    """
    big = max(geom.pu, geom.pv)
    candidates = []
    # A posterior weight can underflow to exactly 0 at extreme scores;
    # the corresponding vertex is then the other one with q = 1. Both
    # vertices lie in [0, 1] after rounding: 0 <= big - pu <= pv, and
    # likewise for pv.
    if geom.pv > 0.0:
        candidates.append((1.0, (big - geom.pu) / geom.pv))
    if geom.pu > 0.0:
        candidates.append(((big - geom.pv) / geom.pu, 1.0))
    best = max(candidates, key=lambda q: geom.alpha1 * q[0] + geom.alpha2 * q[1])
    return geom.conference_error(*best), best


def frontier(inst: Instance) -> FrontierSegment:
    """Pareto frontier of one instance, in either noise mode.

    Forced instances give the point (forced_ec, m). Otherwise the
    frontier is the rising segment from the truthful policy's errors
    (truthful_ec, 0) to the endpoint where the adversary error reaches
    the score-only ceiling m.
    """
    geom = instance_geometry(inst)
    if not geom.part2:
        p = ErrorPair(geom.forced_ec, geom.m)
        return FrontierSegment(SegmentKind.POINT, p, p, p.ec)
    end = ErrorPair(_endpoint(geom)[0], geom.m)
    start = ErrorPair(geom.truthful_ec, 0.0)
    return FrontierSegment(SegmentKind.SEGMENT, start, end, geom.truthful_ec)


def max_adversary_error_curve(
    inst: Instance, ec: float
) -> Union[float, Infeasible]:
    """Maximum adversary error over policies with conference error exactly ec.

    The curve is the trapezoid through four vertices: frontier()'s start
    (truthful_ec, 0) and end (end_ec, m), and their mirror images
    (truthful_ec + ec_intercept - end_ec, m) and (ec_intercept, 0). The
    mirror q -> 1 - q sends ec to truthful_ec + ec_intercept - ec and w
    to 1 - w, which leaves min(w, m, 1 - w) unchanged. Where end_ec is
    not above truthful_ec a slope alpha1 or alpha2 is 0, its q moves w
    but not ec, and the curve is m. An infeasible ec gives an Infeasible
    value, not an exception, since callers routinely probe them.
    """
    geom = instance_geometry(inst)
    if not geom.part2:
        fec = geom.forced_ec
        if ec == fec:
            return geom.m
        return Infeasible(fec, fec)
    lo, hi, m = geom.truthful_ec, geom.ec_intercept, geom.m
    if not (lo <= ec <= hi):
        return Infeasible(lo, hi)
    rise = _endpoint(geom)[0] - lo
    if rise <= 0.0:
        return m
    return min(m, m * ((ec - lo) / rise), m * ((hi - ec) / rise))
