"""Core domain types and score statistics for the two-paper review model.

Two reviewers score two papers. Each reviewer reports a monotone
transformation of the paper's latent quality, optionally plus Gaussian
noise, and the secret is which reviewer saw which paper. Everything
downstream (frontiers, policies, adversaries) is built from the
quantities defined here: marginal score densities, the assignment
log likelihoods (log u, log v), the posterior over assignments, the pair
of conditional probabilities (Phi1, Phi2) that paper 1 is the worse one,
and the Gaussian quality posteriors.

The posterior depends on the scores through one log ratio per score,
log_ratio(model, s) = log f1(s) - log f2(s) for reviewer j's marginal
score density f_j, as log v - log u = log_odds(s1, s2) = log_ratio(s2)
- log_ratio(s1); two affine reviewers make it a quadratic in s. It is
the posterior's only expression: weights_of_log_odds turns it into
(pu, pv) on arrays, posterior_weights on one instance, bit for bit
alike, and mechanism's zeta/eta integrand reads log_ratio too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

_SQRT2 = math.sqrt(2.0)
_LOG_INV_SQRT_2PI = -0.5 * math.log(2.0 * math.pi)
# The smallest normal double; below it a float holds fewer than 53 bits.
_TINY = 2.0**-1022
# The quality range and point count of ReviewerProfile.monotone's probe.
_PROBE_SPAN = 6.0
_PROBE_POINTS = 25


class ConfigurationError(ValueError):
    """An input object violates its construction contract."""


class ModeError(ConfigurationError):
    """Operation called in the wrong noise mode (noiseless vs noisy)."""


class DegenerateInstanceError(ArithmeticError):
    """Scores or noise so extreme that a statistic is lost: the log odds of
    the assignments, or Phi1 or Phi2, overflowed to NaN."""


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc.

    The complementary error function from libm is used directly, which
    keeps the relative error at or below about 1e-15 over the whole real
    line, comfortably inside the 1e-12 budget the closed forms need.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def _into(out, x):
    """x, or x copied into out when out is given (numpy's out= convention)."""
    if out is None:
        return x
    np.copyto(out, x)
    return out


def _affine(x, a: float, b: float, out=None):
    """a * x + b; x a float or an array, written into out when given."""
    if out is None:
        return a * x + b
    return np.add(np.multiply(x, a, out=out), b, out=out)


def _norm_logpdf(x, mean: float, var: float):
    """Normal log-density; x may be a float or an array (element by element)."""
    c = _LOG_INV_SQRT_2PI - 0.5 * math.log(var)
    d = x - mean
    return c - d * d * 0.5 / var


class Assignment(Enum):
    """Which reviewer reviews which paper. A1 routes reviewer 1 to paper 1."""

    A1 = 1
    A2 = 2


class Decision(Enum):
    """The accepted paper."""

    PAPER1 = 1
    PAPER2 = 2


@dataclass(frozen=True)
class ReviewerProfile:
    """A reviewer's monotone score transformation.

    Affine profiles report a * quality + b with a > 0. General monotone
    profiles carry caller-supplied forward and inverse maps plus the
    derivative of the inverse; numerical inversion is deliberately not
    attempted, so densities stay exact.
    """

    a: float = 1.0
    b: float = 0.0
    forward_fn: Optional[Callable[[float], float]] = None
    inverse_fn: Optional[Callable[[float], float]] = None
    inverse_derivative_fn: Optional[Callable[[float], float]] = None

    @staticmethod
    def affine(a: float, b: float) -> "ReviewerProfile":
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigurationError("affine parameters must be finite")
        if a <= 0.0:
            raise ConfigurationError("affine slope must be strictly positive")
        return ReviewerProfile(a=a, b=b)

    @staticmethod
    def monotone(
        forward: Callable[[float], float],
        inverse: Callable[[float], float],
        inverse_derivative: Callable[[float], float],
    ) -> "ReviewerProfile":
        """Build a general monotone profile, validating the supplied maps.

        The probe checks forward(inverse(s)) = s within 1e-9 and strict
        monotonicity of the inverse on a grid of _PROBE_POINTS scores
        spanned by forward([-_PROBE_SPAN, _PROBE_SPAN]). Densities and
        simulation call the maps on arrays, so each map is called once on
        its grid as an array and must match its float calls there; the
        checks then run on the float calls' values.
        """
        steps = 2.0 * _PROBE_SPAN * np.arange(_PROBE_POINTS) / (_PROBE_POINTS - 1)
        thetas = steps - _PROBE_SPAN

        def probe(name: str, fn, args: np.ndarray) -> np.ndarray:
            values = np.array([fn(x) for x in args.tolist()], dtype=float)
            try:
                same = np.allclose(fn(args.copy()), values, 1e-9, 1e-9, True)
            except (TypeError, ValueError):
                # Float-only code fails on an array converting it to a
                # float (TypeError) or testing its truth (ValueError).
                same = False
            if not same:
                raise ConfigurationError(f"the {name} map treats an array unlike floats")
            return values

        # Mismatched maps can overflow inside user-supplied callables; the
        # probe converts any such failure into a ConfigurationError, so the
        # intermediate warnings carry no information.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            scores = probe("forward", forward, thetas)
            back = probe("inverse", inverse, scores)
            probe("inverse_derivative", inverse_derivative, scores)
            round_trip = forward(back)
            scale = np.maximum(1.0, np.abs(scores))
            if not np.all(scores[1:] > scores[:-1]):
                raise ConfigurationError("forward map is not strictly increasing")
            if not np.all(np.isfinite(scores)):
                raise ConfigurationError("forward map produced a non-finite score")
            if not np.all(np.abs(round_trip - scores) <= 1e-9 * scale):
                raise ConfigurationError(
                    "forward(inverse(s)) deviates from s beyond 1e-9 on the probe grid"
                )
            if not np.all(back[1:] > back[:-1]):
                raise ConfigurationError("inverse map is not strictly increasing")
        return ReviewerProfile(
            forward_fn=forward,
            inverse_fn=inverse,
            inverse_derivative_fn=inverse_derivative,
        )

    @property
    def is_affine(self) -> bool:
        return self.forward_fn is None

    def apply(self, theta, out=None):
        """Map a latent quality to the reported score (before noise).

        theta is a float or an array; out, an array to write the scores
        into (theta itself may be it), with the same values bit for bit.
        """
        if self.is_affine:
            return _affine(theta, self.a, self.b, out)
        return _into(out, self.forward_fn(theta))

    def invert(self, s, out=None):
        """Recover the latent quality from a noiseless score; out as in apply."""
        if self.is_affine:
            if out is None:
                return (s - self.b) / self.a
            return np.divide(np.subtract(s, self.b, out=out), self.a, out=out)
        return _into(out, self.inverse_fn(s))


@dataclass(frozen=True)
class ScorePair:
    """Observed scores: s1 for paper 1, s2 for paper 2."""

    s1: float
    s2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s1) and math.isfinite(self.s2)):
            raise ConfigurationError("scores must be finite")

    def swapped(self) -> "ScorePair":
        return ScorePair(self.s2, self.s1)


class _NoiseModel:
    """Noise validation and mode, shared by Instance and Population.

    sigma2 = 0 selects noiseless mode. Positive sigma2 requires both
    profiles to be affine, since the noisy closed forms assume affine
    miscalibration. Each affine score variance t = a^2 + sigma2 must be a
    positive, finite double, and in noisy mode so must a2 t1, a1 t2 and
    their ratios, the slopes of the thresholds.
    """

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma2) or self.sigma2 < 0.0:
            raise ConfigurationError("sigma2 must be finite and nonnegative")
        r1, r2, g2 = self.reviewer1, self.reviewer2, self.sigma2
        if g2 > 0.0 and not (r1.is_affine and r2.is_affine):
            raise ConfigurationError("positive noise variance requires affine reviewer profiles")
        for r in (r1, r2):
            # The score density's variance; a^2 can underflow or overflow.
            if r.is_affine and not 0.0 < r.a * r.a + g2 < math.inf:
                raise ConfigurationError("a^2 + sigma2 must be positive and finite")
        if g2 > 0.0:
            # The slopes of the noisy thresholds are p / q and q / p.
            p, q = r2.a * (r1.a * r1.a + g2), r1.a * (r2.a * r2.a + g2)
            finite = 0.0 < p < math.inf and 0.0 < q < math.inf
            if not (finite and p / q < math.inf and q / p < math.inf):
                raise ConfigurationError("threshold slopes must be positive and finite")

    @property
    def noiseless(self) -> bool:
        return self.sigma2 == 0.0


@dataclass(frozen=True)
class Instance(_NoiseModel):
    """A fully specified problem: two profiles, shared noise variance, scores."""

    reviewer1: ReviewerProfile
    reviewer2: ReviewerProfile
    sigma2: float
    scores: ScorePair

    def swap_papers(self) -> "Instance":
        """Relabel the papers: s1 and s2 trade places."""
        return replace(self, scores=self.scores.swapped())

    def swap_reviewers(self) -> "Instance":
        """Relabel the reviewers: profiles trade places."""
        return replace(self, reviewer1=self.reviewer2, reviewer2=self.reviewer1)


@dataclass(frozen=True)
class Population(_NoiseModel):
    """The generative model behind average-case quantities.

    Qualities are i.i.d. standard normal, the assignment is uniform,
    and scores are the profiles' outputs plus N(0, sigma2) noise.
    """

    reviewer1: ReviewerProfile
    reviewer2: ReviewerProfile
    sigma2: float = 0.0

    def instance(self, s1: float, s2: float) -> Instance:
        return Instance(self.reviewer1, self.reviewer2, self.sigma2, ScorePair(s1, s2))


@dataclass(frozen=True)
class PhiPair:
    """Phi1 = Pr(paper 1 worse | A1, scores), Phi2 = same under A2. Noisy mode only."""

    phi1: float
    phi2: float


@dataclass(frozen=True)
class QualityPosterior:
    """Gaussian posterior over one paper's latent quality given its score."""

    mean: float
    variance: float


def log_marginal_score_density(profile: ReviewerProfile, sigma2: float, s):
    """Log of the marginal density of a reported score under a standard-normal quality.

    Affine profiles give a normal with mean b and variance a^2 + sigma2.
    General monotone profiles (noiseless only) use the change of
    variables through the inverse map; a zero derivative of the inverse
    gives -inf. s may be a float or an array (element by element).
    """
    if not profile.is_affine:
        if sigma2 != 0.0:
            raise ModeError("general monotone profiles are noiseless only")
        theta = profile.inverse_fn(s)
        with np.errstate(divide="ignore"):
            log_jac = np.log(np.abs(profile.inverse_derivative_fn(s)))
        return _LOG_INV_SQRT_2PI - 0.5 * theta * theta + log_jac
    return _norm_logpdf(s, profile.b, profile.a * profile.a + sigma2)


def log_ratio(model, s, out=None):
    """log f1(s) - log f2(s), f_j reviewer j's marginal score density.

    model is any object with reviewer1, reviewer2 and sigma2 (an Instance
    or a Population); s is a float or an array, out an array of its shape
    other than s. Two affine reviewers, whose scores are normal with mean
    b_j and variance v_j = a_j^2 + sigma2, give (A s + B) s + C with
    A = 1/(2 v2) - 1/(2 v1), B = b1/v1 - b2/v2 and C = b2^2/(2 v2) -
    b1^2/(2 v1) + log(v2/v1)/2; equal reviewers give 0 exactly. Any other
    pair gives the difference of the two log_marginal_score_density terms.
    """
    r1, r2, g2 = model.reviewer1, model.reviewer2, model.sigma2
    if not (r1.is_affine and r2.is_affine):
        k1 = log_marginal_score_density(r1, g2, s)
        k2 = log_marginal_score_density(r2, g2, s)
        return np.subtract(k1, k2, out=out)
    v1, v2 = r1.a * r1.a + g2, r2.a * r2.a + g2
    a = 0.5 / v2 - 0.5 / v1
    b = r1.b / v1 - r2.b / v2
    c = 0.5 * (r2.b * r2.b / v2 - r1.b * r1.b / v1 + (math.log(v2) - math.log(v1)))
    if out is None:
        return (a * s + b) * s + c
    k = _affine(s, a, b, out)
    k *= s
    k += c
    return k


def log_odds(model, s1, s2, out=None):
    """log v - log u = log_ratio(s2) - log_ratio(s1), the log odds of A2
    against A1 at the scores; floats or arrays. out, if given, is two
    arrays of the scores' shape, neither of them s1 or s2: the first
    receives the log odds, the second is scratch.
    """
    d_out, scratch = (None, None) if out is None else out
    d = log_ratio(model, s2, d_out)
    d -= log_ratio(model, s1, scratch)
    return d


def weights_of_log_odds(d: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(pu, pv) = (1 / (1 + exp(d)), 1 - pu) at log odds d, an array that
    receives pu; pv is written into out when given.

    exp overflows to inf above about 709.78, where pu = 0 all the same,
    and underflows below about -745, where pu = 1; NaN passes through.
    """
    with np.errstate(over="ignore"):
        e = np.exp(d, out=d)
    e += 1.0
    pu = np.divide(1.0, e, out=e)
    return pu, np.subtract(1.0, pu, out=out)


def posterior_weights(inst: Instance) -> tuple[float, float]:
    """(pu, pv) at the instance's scores: weights_of_log_odds on one float.

    pu = 1 / (1 + exp(d)) and pv = 1 - pu at d = log_odds(s1, s2). exp is
    numpy's, which rounds some values unlike math.exp, so the weights
    equal the array path's bit for bit. A NaN d, as when both log ratios
    overflow, raises DegenerateInstanceError.
    """
    d = log_odds(inst, inst.scores.s1, inst.scores.s2)
    if math.isnan(d):
        raise DegenerateInstanceError("the log odds of the assignments are NaN")
    if d > 709.782712893384:
        # Past log(DBL_MAX) exp overflows to inf, and pu = 0.
        return 0.0, 1.0
    pu = 1.0 / (1.0 + float(np.exp(d)))
    return pu, 1.0 - pu


def thresholds(model, s2, out=None):
    """MAP decision thresholds on s1 at paper 2's score s2: (ta, tb).

    Under an assumed A1 the MAP decision accepts paper 1 exactly when
    s1 > tb; under an assumed A2, exactly when s1 > ta. model is any
    object with reviewer1, reviewer2 and sigma2 (an Instance or a
    Population); s2 is a float or an array. An affine pair, in either
    noise mode, gives ta = b2 + slope_a (s2 - b1) and tb = b1 + slope_b
    (s2 - b2), the scores where Phi2 and Phi1 cross 1/2: slope_a =
    a1 t2 / (a2 t1) and slope_b = a2 t1 / (a1 t2), t_j = a_j^2 + sigma2.
    Noiseless mode forms them as a2 / a1 and a1 / a2, which cannot
    overflow. A general monotone pair (noiseless only) maps s2 through
    one reviewer's inverse and the other's forward map. out, if given,
    is two arrays of s2's shape, other than s2, for ta and tb; identical
    reviewers leave them unused.

    map_decisions turns them into the regime. Each slope is a ratio
    formed before it multiplies, so it is exactly 1 for equal slopes.
    """
    r1, r2 = model.reviewer1, model.reviewer2
    if r1 == r2:
        # The assignments are indistinguishable and MAP compares the
        # scores themselves; this keeps equal scores an exact tie.
        return s2, s2
    ta, tb = (None, None) if out is None else out
    a1, b1, a2, b2, g2 = r1.a, r1.b, r2.a, r2.b, model.sigma2
    if g2 > 0.0:
        # Noisy mode admits affine profiles only.
        t1v, t2v = a1 * a1 + g2, a2 * a2 + g2
        slope_a, slope_b = (a1 * t2v) / (a2 * t1v), (a2 * t1v) / (a1 * t2v)
    elif r1.is_affine and r2.is_affine:
        slope_a, slope_b = a2 / a1, a1 / a2
    else:
        ta = r2.apply(r1.invert(s2, ta), ta)
        tb = r1.apply(r2.invert(s2, tb), tb)
        return ta, tb
    if out is None:
        return b2 + slope_a * (s2 - b1), b1 + slope_b * (s2 - b2)
    ta = _affine(np.subtract(s2, b1, out=ta), slope_a, b2, ta)
    tb = _affine(np.subtract(s2, b2, out=tb), slope_b, b1, tb)
    return ta, tb


def map_decisions(model, s1, s2, out=None):
    """The one regime rule: (accepts paper 1 under A1, under A2).

    Floats or arrays. On a threshold (see thresholds) MAP is indifferent
    under that assignment and takes the other one's decision; on both (a
    tie) it accepts paper 1, the tie's only reading. The scores randomize
    where the two differ. out, if given, holds the thresholds.
    """
    ta, tb = thresholds(model, s2, out)
    p1_a1 = (s1 > tb) | ((s1 == tb) & (s1 >= ta))
    return p1_a1, (s1 > ta) | ((s1 == ta) & p1_a1)


def phi_pair(inst: Instance) -> PhiPair:
    """The (Phi1, Phi2) statistics of the noisy model.

    Phi1 is the posterior probability that paper 1 has lower quality than
    paper 2 given the scores and assignment A1; Phi2 is the same under A2.
    Requires positive noise variance and affine profiles.
    """
    if inst.sigma2 <= 0.0:
        raise ModeError("phi_pair is defined only for positive noise variance")
    a1, b1 = inst.reviewer1.a, inst.reviewer1.b
    a2, b2 = inst.reviewer2.a, inst.reviewer2.b
    s1, s2, g2 = inst.scores.s1, inst.scores.s2, inst.sigma2
    t1, t2 = a1 * a1 + g2, a2 * a2 + g2
    factors = (g2, a1 * a1 + a2 * a2 + 2.0 * g2, t1, t2)
    prod = math.prod(factors)
    denom = math.sqrt(prod)
    if denom == math.inf:
        # The product overflowed; its square roots may not.
        denom = math.prod(map(math.sqrt, factors))
    p, q = a2 * t1, a1 * t2
    if denom == math.inf or prod < _TINY or p < _TINY or q < _TINY:
        # So did their product, or one underflowed and lost digits. Divided
        # through by sqrt(t1 t2 (t1 + t2)) = r1 r2 h, p and q are at most 1
        # and denom is sqrt(g2); hypot and no ratio of t1, t2 avoid overflow.
        r1, r2 = math.sqrt(t1), math.sqrt(t2)
        h = math.hypot(r1, r2)
        p, q = a2 / r2 * (r1 / h), a1 / r1 * (r2 / h)
        denom = math.sqrt(g2)
    x1 = (p * (s2 - b2) - q * (s1 - b1)) / denom
    x2 = (q * (s2 - b1) - p * (s1 - b2)) / denom
    if math.isnan(x1) or math.isnan(x2):
        raise DegenerateInstanceError("Phi1 or Phi2 overflowed to NaN")
    return PhiPair(std_normal_cdf(x1), std_normal_cdf(x2))


def quality_posterior(
    inst: Instance, paper: int, assignment: Assignment
) -> QualityPosterior:
    """Posterior of one paper's quality given its score under an assumed assignment.

    With score s read by an affine reviewer (a, b) through noise sigma2,
    the posterior is normal with mean a (s - b) / (a^2 + sigma2) and
    variance sigma2 / (a^2 + sigma2).
    """
    if inst.sigma2 <= 0.0:
        raise ModeError("quality_posterior is defined only for positive noise variance")
    if paper not in (1, 2):
        raise ConfigurationError("paper must be 1 or 2")
    s = inst.scores.s1 if paper == 1 else inst.scores.s2
    # Under A1 reviewer j reads paper j; under A2 the routing is crossed.
    if (assignment is Assignment.A1) == (paper == 1):
        prof = inst.reviewer1
    else:
        prof = inst.reviewer2
    t = prof.a * prof.a + inst.sigma2
    return QualityPosterior(prof.a * (s - prof.b) / t, inst.sigma2 / t)
