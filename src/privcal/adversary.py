"""The attacker side: MAP assignment guessing and exact error accounting.

The adversary observes the scores, the published policy, and the
accepted paper, and guesses the assignment by maximizing the posterior.
The scenario table enumerating the four (assignment, decision) outcomes
is the single source of truth for error probabilities: map_guess and
scenario_table read each observed decision's likelihoods and MAP guess
from _observe, per_instance_errors and the per-instance simulator read
the table, and the average-case simulator reads its array twin,
map_guess_arrays. The regime is the geometry's d1 and d2, so a tie
accepts paper 1 here as in model.map_decisions. The independent
cross-checks (the piecewise closed form and a vectorized grid form) live
in the test suite, not here. The randomized-response bookkeeping for the
gamma/epsilon correspondence lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    Assignment,
    ConfigurationError,
    Decision,
    Instance,
    weights_of_log_odds,
)
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


def _q(policy) -> tuple[float, float]:
    """(q1, q2) of a policy. An Infeasible target has no policy to evaluate."""
    if isinstance(policy, Infeasible):
        raise ConfigurationError(f"no policy to evaluate: {policy}")
    return policy.q1, policy.q2


def _observe(geom: InstanceGeometry, q1: float, q2: float, d: Decision):
    """(Pr(D = d | A1), Pr(D = d | A2), MAP guess given D = d) under the policy.

    The guess compares pu * Pr(d | A1) against pv * Pr(d | A2); exact
    equality yields a uniform coin flip.
    """
    if not geom.part2:
        p_a1 = p_a2 = 1.0 if d is geom.d1 else 0.0
    else:
        p_a1 = q1 if d is geom.d1 else 1.0 - q1
        p_a2 = q2 if d is geom.d2 else 1.0 - q2
    l1, l2 = geom.pu * p_a1, geom.pv * p_a2
    kind = GuessKind.A1 if l1 > l2 else GuessKind.A2 if l1 < l2 else GuessKind.UNIFORM_TIE
    return p_a1, p_a2, Guess(kind)


def map_guess(inst: Instance, policy, observed: Decision) -> Guess:
    """MAP guess of the assignment given the accepted paper.

    Compares pu * Pr(observed | A1, policy) against pv * Pr(observed |
    A2, policy); exact equality yields a uniform coin flip. For forced
    instances the decision carries no information and the comparison
    reduces to the scores alone.
    """
    return _observe(instance_geometry(inst), *_q(policy), observed)[2]


# Outside this band of log odds the forced guess is the sign of d: for
# d < -_FIRM, fl(exp(d)) < 1 - 2^-52, so pu > 1/2 and pv = 1 - pu is
# exact (Sterbenz), whence pu > pv; d > _FIRM is the mirror case.
_FIRM = 1e-12


def map_guess_arrays(d, idx, wu, wv, q1, q2, d1, acc, out=None):
    """Array twin of map_guess: (guesses A1, guesses A2) per replicate, neither a tie.

    d is every replicate's log odds log v - log u (model.log_odds). idx
    indexes the randomizing replicates, whose weights pu and pv
    (model.weights_of_log_odds) are given as wu and wv, with their q1,
    q2, d1 (paper 1 is A1's MAP decision, map_decisions; A2's is the
    other paper) and acc (paper 1 accepted). The observed decision's
    likelihood under an assignment is q where it is that assignment's
    MAP decision and 1 - q otherwise, the same floats _observe forms.
    A forced decision carries no information, so there pu and pv alone
    compare: by the sign of d, and where |d| <= _FIRM or d is NaN by
    the weights themselves, so each guess is the one pu and pv give.
    out, if given, is two float arrays of idx's length, none of them an
    input, that the call uses as scratch; the guesses are the same.
    """
    guess_a1, guess_a2 = d < -_FIRM, d > _FIRM
    near = np.flatnonzero(guess_a1 == guess_a2)
    if near.size:
        pu, pv = weights_of_log_odds(d[near])
        guess_a1[near], guess_a2[near] = pu > pv, pu < pv
    l1, l2 = np.empty((2, idx.size)) if out is None else out
    # Where the observed decision is A1's MAP decision it is not A2's:
    # pu q1 against pv (1 - q2); elsewhere pu (1 - q1) against pv q2.
    own1 = np.equal(acc, d1)
    l1 = np.multiply(wu, q1, out=l1)
    l2 = np.multiply(wv, np.subtract(1.0, q2, out=l2), out=l2)
    a1_own, a2_own = l1 > l2, l1 < l2
    l1 = np.multiply(wu, np.subtract(1.0, q1, out=l1), out=l1)
    l2 = np.multiply(wv, q2, out=l2)
    guess_a1[idx] = (own1 & a1_own) | (~own1 & (l1 > l2))
    guess_a2[idx] = (own1 & a2_own) | (~own1 & (l1 < l2))
    return guess_a1, guess_a2


def scenario_table(inst: Instance, policy) -> ScenarioTable:
    """Enumerate the four scenarios and the adversary's fate in each."""
    geom = instance_geometry(inst)
    decisions = (Decision.PAPER1, Decision.PAPER2)
    seen = [_observe(geom, *_q(policy), d) for d in decisions]
    weights = ((Assignment.A1, geom.pu), (Assignment.A2, geom.pv))
    cells = [
        ScenarioCell(truth, d, weight * obs[k], obs[2].wrong_probability(truth))
        for k, (truth, weight) in enumerate(weights)
        for d, obs in zip(decisions, seen)
    ]
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

