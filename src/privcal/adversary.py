"""The attacker side: MAP assignment guessing and exact error accounting.

The adversary observes the scores, the published policy, and the
accepted paper, and guesses the assignment by maximizing the posterior.
The scenario table enumerating the four (assignment, decision) outcomes
is the single source of truth for error probabilities: map_guess and
scenario_table read the MAP comparison from _decision_probs and
_compare, per_instance_errors and the per-instance simulator read the
table, and the average-case simulator reads its array twin,
map_guess_arrays. The independent
cross-checks (the piecewise closed form and a vectorized grid form) live
in the test suite, not here. The randomized-response bookkeeping for the
gamma/epsilon correspondence lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Assignment, ConfigurationError, Decision, Instance
from .frontier import ErrorPair, Infeasible, InstanceGeometry, instance_geometry


class GuessKind(Enum):
    A1 = "A1"
    A2 = "A2"
    UNIFORM_TIE = "uniform_tie"


@dataclass(frozen=True)
class Guess:
    kind: GuessKind

    def wrong_probability(self, truth: Assignment) -> float:
        if self.kind is GuessKind.UNIFORM_TIE:
            return 0.5
        guessed = Assignment.A1 if self.kind is GuessKind.A1 else Assignment.A2
        return 0.0 if guessed is truth else 1.0


@dataclass(frozen=True)
class ScenarioCell:
    assignment: Assignment
    decision: Decision
    probability: float
    adversary_wrong_prob: float


@dataclass(frozen=True)
class ScenarioTable:
    """The four (assignment, decision) scenarios with their probabilities."""

    cells: tuple[ScenarioCell, ScenarioCell, ScenarioCell, ScenarioCell]

    @property
    def adversary_error(self) -> float:
        return sum(c.probability * c.adversary_wrong_prob for c in self.cells)


def _compare(l1: float, l2: float) -> Guess:
    if l1 > l2:
        return Guess(GuessKind.A1)
    if l1 < l2:
        return Guess(GuessKind.A2)
    return Guess(GuessKind.UNIFORM_TIE)


def _q(policy) -> tuple[float, float]:
    """(q1, q2) of a policy. An Infeasible target has no policy to evaluate."""
    if isinstance(policy, Infeasible):
        raise ConfigurationError(f"no policy to evaluate: {policy}")
    return policy.q1, policy.q2


def _decision_probs(geom: InstanceGeometry, q1: float, q2: float, d: Decision):
    """(Pr(D = d | A1), Pr(D = d | A2)) under the policy."""
    if not geom.part2:
        if geom.tie:
            return 0.5, 0.5
        on = 1.0 if d is geom.d1 else 0.0
        return on, on
    p_a1 = q1 if d is geom.d1 else 1.0 - q1
    p_a2 = q2 if d is geom.d2 else 1.0 - q2
    return p_a1, p_a2


def map_guess(inst: Instance, policy, observed: Decision) -> Guess:
    """MAP guess of the assignment given the accepted paper.

    Compares pu * Pr(observed | A1, policy) against pv * Pr(observed |
    A2, policy); exact equality yields a uniform coin flip. For forced
    instances the decision carries no information and the comparison
    reduces to the scores alone.
    """
    geom = instance_geometry(inst)
    q1, q2 = _q(policy)
    p_a1, p_a2 = _decision_probs(geom, q1, q2, observed)
    return _compare(geom.pu * p_a1, geom.pv * p_a2)


def map_guess_arrays(pu, pv, idx, q1, q2, d1, d2, acc, out=None):
    """Array twin of map_guess: (guesses A1, guesses A2) per replicate, neither a tie.

    idx indexes the randomizing replicates of pu and pv, given with their
    q1, q2, d1 and d2 (map_decisions) and acc (paper 1 accepted). A forced
    decision carries no information, so there pu and pv alone compare.
    out, if given, is three float arrays of idx's length, none of them an
    input, that the call uses as scratch; the guesses are the same.
    """
    guess_a1, guess_a2 = pu > pv, pu < pv
    l1_out, l2_out, scratch = (None, None, None) if out is None else out
    l1 = _observed_likelihood(pu, idx, q1, d1, d2, acc, l1_out, scratch)
    l2 = _observed_likelihood(pv, idx, q2, d2, d1, acc, l2_out, scratch)
    guess_a1[idx], guess_a2[idx] = l1 > l2, l1 < l2
    return guess_a1, guess_a2


def _observed_likelihood(w, idx, q, d_own, d_other, acc, out, scratch):
    """w[idx] * Pr(observed decision | an assignment), in out if given.

    Under the assignment the policy plays its MAP decision d_own with
    probability q and d_other otherwise, so paper 1 is accepted with
    probability p1 = q * d_own + (1 - q) * d_other. Booleans act as 0
    and 1, so acc * p1 + ~acc * (1 - p1) selects the observed decision's.
    """
    p1 = np.subtract(1.0, q, out=out)
    p1 *= d_other
    p1 += np.multiply(q, d_own, out=scratch)
    miss = np.subtract(1.0, p1, out=scratch)
    miss *= ~acc
    p1 *= acc
    p1 += miss
    p1 *= np.take(w, idx, out=scratch, mode="clip")
    return p1


def scenario_table(inst: Instance, policy) -> ScenarioTable:
    """Enumerate the four scenarios and the adversary's fate in each."""
    geom = instance_geometry(inst)
    q1, q2 = _q(policy)
    cells = []
    for truth, weight in ((Assignment.A1, geom.pu), (Assignment.A2, geom.pv)):
        for d in (Decision.PAPER1, Decision.PAPER2):
            p_a1, p_a2 = _decision_probs(geom, q1, q2, d)
            cond = p_a1 if truth is Assignment.A1 else p_a2
            guess = _compare(geom.pu * p_a1, geom.pv * p_a2)
            cells.append(
                ScenarioCell(truth, d, weight * cond, guess.wrong_probability(truth))
            )
    return ScenarioTable(tuple(cells))


def per_instance_errors(inst: Instance, policy) -> ErrorPair:
    """Exact (conference error, adversary error) of a policy on one instance.

    Conference error comes from the oriented linear form; adversary
    error from the scenario table. Forced instances use the
    score-determined decision and the score-only adversary error. An
    Infeasible target is not a policy and raises ConfigurationError.
    """
    q1, q2 = _q(policy)
    geom = instance_geometry(inst)
    if not geom.part2:
        return ErrorPair(geom.forced_ec, geom.m)
    ec = geom.conference_error(q1, q2)
    ea = scenario_table(inst, policy).adversary_error
    return ErrorPair(ec, ea)


def rr_epsilon(gamma: float) -> float:
    """Privacy parameter of binary randomized response with odds gamma."""
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ValueError("gamma must be a positive finite real")
    return math.log(gamma)

def rr_gamma(epsilon: float) -> float:
    """Odds parameter of binary randomized response at privacy level epsilon."""
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    return math.exp(epsilon)

