"""Monte Carlo verification harness and the reviewer-calibration study.

Simulation here serves two purposes: cross-checking every closed form
in the per-instance and average-case theory, and reproducing the
exogenous-calibration benefit study (three scoring methods compared by
Kendall-tau distance and the messy-middle error).

Determinism contract: all randomness flows from counter-based Philox
streams derived as stream(seed, index) = Philox(key=seed, counter with
index in the high word). Replicates are processed in fixed-size blocks,
block i drawing from stream(seed, i), and partial sums are reduced in
block order, so results are a pure function of (inputs, seed) no matter
how many worker threads run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    _LOG_INV_SQRT_2PI,
    Assignment,
    ConfigurationError,
    Decision,
    Instance,
    Population,
    ProfileKind,
    ReviewerProfile,
    _norm_logpdf,
    thresholds,
)
from .frontier import ErrorPair, instance_geometry
from .adversary import map_guess
from .mechanism import Policy, QuadratureSettings, alg2_policy

_BLOCK = 1 << 16


def stream(seed: int, index: int) -> np.random.Generator:
    """The documented counter-based stream derivation.

    Distinct indices occupy disjoint counter ranges of the same keyed
    Philox generator, so streams never overlap and the derivation is
    reproducible across platforms.
    """
    bg = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(index)])
    return np.random.Generator(bg)


def _thread_count() -> int:
    raw = os.environ.get("PRIVCAL_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_blocks(n: int, worker: Callable[[int, int, int], np.ndarray]) -> np.ndarray:
    """Run worker(block_index, offset, count) over all blocks, summing in order."""
    tasks = []
    off = 0
    i = 0
    while off < n:
        cnt = min(_BLOCK, n - off)
        tasks.append((i, off, cnt))
        off += cnt
        i += 1
    threads = _thread_count()
    if threads == 1 or len(tasks) == 1:
        parts = [worker(*t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda t: worker(*t), tasks))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


@dataclass(frozen=True)
class SimResult:
    """Empirical error estimates with binomial standard errors."""

    empirical: ErrorPair
    stderr_ec: float
    stderr_ea: float
    n: int
    seed: int


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def simulate_instance(inst: Instance, policy: Policy, n: int, seed: int) -> SimResult:
    """Replicated simulation of one instance under a fixed policy.

    Each replicate draws the assignment from its score posterior,
    qualities from the score-conditioned posteriors, runs the
    randomized decision, and lets the MAP adversary guess (map_guess,
    once per decision). Adversary ties are tallied as half an error.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    geom = instance_geometry(inst)
    pu = geom.pu
    noisy = not inst.noiseless

    if noisy:
        from .model import quality_posterior

        post = {
            (p, a): quality_posterior(inst, p, a)
            for p in (1, 2)
            for a in (Assignment.A1, Assignment.A2)
        }
    else:
        inv = {
            Assignment.A1: (
                inst.reviewer1.invert(inst.scores.s1),
                inst.reviewer2.invert(inst.scores.s2),
            ),
            Assignment.A2: (
                inst.reviewer2.invert(inst.scores.s1),
                inst.reviewer1.invert(inst.scores.s2),
            ),
        }

    d1_p1 = geom.d1 is Decision.PAPER1
    d2_p1 = geom.d2 is Decision.PAPER1

    def adversary_wrong(d: Decision) -> tuple[float, float]:
        # Probability the guess is wrong when d is accepted, under A1 and A2.
        guess = map_guess(inst, policy, d)
        return tuple(guess.wrong_probability(a) for a in (Assignment.A1, Assignment.A2))

    wrong_p1 = adversary_wrong(Decision.PAPER1)
    wrong_p2 = adversary_wrong(Decision.PAPER2)

    def worker(block: int, offset: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)
        is_a1 = rng.random(cnt) < pu
        coin = rng.random(cnt)
        tie_coin = rng.random(cnt)
        if noisy:
            z = rng.standard_normal((2, cnt))
            m1a = np.where(
                is_a1,
                post[(1, Assignment.A1)].mean,
                post[(1, Assignment.A2)].mean,
            )
            s1a = np.where(
                is_a1,
                math.sqrt(post[(1, Assignment.A1)].variance),
                math.sqrt(post[(1, Assignment.A2)].variance),
            )
            m2a = np.where(
                is_a1,
                post[(2, Assignment.A1)].mean,
                post[(2, Assignment.A2)].mean,
            )
            s2a = np.where(
                is_a1,
                math.sqrt(post[(2, Assignment.A1)].variance),
                math.sqrt(post[(2, Assignment.A2)].variance),
            )
            th1 = m1a + s1a * z[0]
            th2 = m2a + s2a * z[1]
        else:
            th1 = np.where(is_a1, inv[Assignment.A1][0], inv[Assignment.A2][0])
            th2 = np.where(is_a1, inv[Assignment.A1][1], inv[Assignment.A2][1])

        if geom.part2:
            truthful = coin < np.where(is_a1, policy.q1, policy.q2)
            acc_p1 = np.where(
                truthful,
                np.where(is_a1, d1_p1, d2_p1),
                np.where(is_a1, d2_p1, d1_p1),
            )
        elif geom.tie:
            acc_p1 = tie_coin < 0.5
        else:
            acc_p1 = np.full(cnt, d1_p1)

        conf_wrong = np.where(acc_p1, th1 < th2, th2 < th1)
        adv_wrong = np.where(
            acc_p1,
            np.where(is_a1, wrong_p1[0], wrong_p1[1]),
            np.where(is_a1, wrong_p2[0], wrong_p2[1]),
        )
        return np.array([conf_wrong.sum(dtype=float), adv_wrong.sum(dtype=float)])

    conf_total, adv_total = _run_blocks(n, worker)
    p_ec, p_ea = float(conf_total) / n, float(adv_total) / n
    return SimResult(
        ErrorPair(p_ec, p_ea), _binomial_se(p_ec, n), _binomial_se(p_ea, n), n, seed
    )


def _log_density_arr(prof: ReviewerProfile, sigma2: float, s: np.ndarray) -> np.ndarray:
    if prof.kind is ProfileKind.AFFINE:
        return _norm_logpdf(s, prof.b, prof.a * prof.a + sigma2)
    theta = prof.inverse_fn(s)
    jac = np.abs(prof.inverse_derivative_fn(s))
    return _LOG_INV_SQRT_2PI - 0.5 * theta * theta + np.log(jac)


def posterior_weight_arrays(
    pop: Population, s1: np.ndarray, s2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (pu, pv) over score arrays."""
    ld1_s1 = _log_density_arr(pop.reviewer1, pop.sigma2, s1)
    ld2_s2 = _log_density_arr(pop.reviewer2, pop.sigma2, s2)
    ld2_s1 = _log_density_arr(pop.reviewer2, pop.sigma2, s1)
    ld1_s2 = _log_density_arr(pop.reviewer1, pop.sigma2, s2)
    logu = ld1_s1 + ld2_s2
    logv = ld2_s1 + ld1_s2
    d = logv - logu
    pu = 1.0 / (1.0 + np.exp(np.clip(d, -745.0, 745.0)))
    return pu, 1.0 - pu


class TruthfulRule:
    """Always calibrate under the true assignment."""

    def batch(self, s1: np.ndarray, s2: np.ndarray):
        return np.ones_like(s1), np.ones_like(s1)


class Alg1Rule:
    """Per-score noiseless policy at a fixed conference-error target.

    ec_value = 1 gives the endpoint strategy whose average conference
    error is zeta.
    """

    def __init__(self, pop: Population, ec_value: float):
        if not pop.noiseless:
            raise ConfigurationError("Alg1Rule is noiseless only")
        self.pop = pop
        self.ec_value = float(ec_value)

    def batch(self, s1: np.ndarray, s2: np.ndarray):
        pu, pv = posterior_weight_arrays(self.pop, s1, s2)
        m = np.minimum(pu, pv)
        w = 1.0 - np.minimum(self.ec_value, m)
        # A posterior weight can underflow to 0 at extreme scores; the
        # ceiling is then 0 and truthful play is already optimal.
        safe_pv = np.where(pv > 0.0, pv, 1.0)
        q2 = np.where(pv > 0.0, np.clip((w - pu) / safe_pv, 0.0, 1.0), 1.0)
        ta, tb = thresholds(self.pop, s2)
        part2 = (s1 > np.minimum(ta, tb)) & (s1 < np.maximum(ta, tb))
        return np.ones_like(s1), np.where(part2, q2, 1.0)


class Alg2Rule:
    """Average-case rule: the marginal of the coin mixture.

    Mixing the endpoint policy (probability mix) with truthfulness is
    realized through the mixed q values directly; the decision law is
    identical and the adversary, who knows the strategy, best-responds
    to the mixture.
    """

    def __init__(
        self,
        pop: Population,
        ec_avg: float,
        settings: Optional[QuadratureSettings] = None,
    ):
        self.pop = pop
        self.average_policy = alg2_policy(pop, ec_avg, settings)
        self._endpoint = Alg1Rule(pop, 1.0)

    def batch(self, s1: np.ndarray, s2: np.ndarray):
        q1e, q2e = self._endpoint.batch(s1, s2)
        mix = self.average_policy.mix
        return (
            mix * q1e + (1.0 - mix),
            mix * q2e + (1.0 - mix),
        )


def simulate_average(
    pop: Population, policy_rule, n: int, seed: int
) -> SimResult:
    """Average-case simulation over the full generative model.

    Each replicate draws qualities, a uniform assignment, and noise,
    forms scores, applies the per-score policy rule, decides, and lets
    the adversary guess knowing the rule.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    r1, r2 = pop.reviewer1, pop.reviewer2
    noisy = not pop.noiseless
    sd = math.sqrt(pop.sigma2)

    def worker(block: int, offset: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)
        th = rng.standard_normal((2, cnt))
        is_a1 = rng.random(cnt) < 0.5
        coin = rng.random(cnt)
        s1 = np.where(is_a1, r1.apply(th[0]), r2.apply(th[0]))
        s2 = np.where(is_a1, r2.apply(th[1]), r1.apply(th[1]))
        if noisy:
            eps = rng.standard_normal((2, cnt))
            s1 = s1 + sd * eps[0]
            s2 = s2 + sd * eps[1]

        ta, tb = thresholds(pop, s2)
        d1_p1 = s1 > tb
        d2_p1 = s1 > ta
        part2 = d1_p1 != d2_p1
        q1, q2 = policy_rule.batch(s1, s2)

        truthful = coin < np.where(is_a1, q1, q2)
        acc_p1 = np.where(
            part2,
            np.where(
                truthful,
                np.where(is_a1, d1_p1, d2_p1),
                np.where(is_a1, d2_p1, d1_p1),
            ),
            d1_p1,
        )
        conf_wrong = np.where(acc_p1, th[0] < th[1], th[1] < th[0])

        pu, pv = posterior_weight_arrays(pop, s1, s2)
        prob_p1_a1 = np.where(part2, q1 * d1_p1 + (1.0 - q1) * d2_p1, d1_p1)
        prob_p1_a2 = np.where(part2, q2 * d2_p1 + (1.0 - q2) * d1_p1, d1_p1)
        po_a1 = np.where(acc_p1, prob_p1_a1, 1.0 - prob_p1_a1)
        po_a2 = np.where(acc_p1, prob_p1_a2, 1.0 - prob_p1_a2)
        l1 = pu * po_a1
        l2 = pv * po_a2
        adv_wrong = np.where(
            l1 > l2,
            (~is_a1).astype(float),
            np.where(l1 < l2, is_a1.astype(float), 0.5),
        )
        return np.array([conf_wrong.sum(dtype=float), adv_wrong.sum()])

    conf_total, adv_total = _run_blocks(n, worker)
    p_ec, p_ea = float(conf_total) / n, float(adv_total) / n
    return SimResult(
        ErrorPair(p_ec, p_ea), _binomial_se(p_ec, n), _binomial_se(p_ea, n), n, seed
    )


def kendall_tau_distance(rank_a: Sequence[int], rank_b: Sequence[int]) -> float:
    """Fraction of discordant pairs between two rankings of the same items.

    rank_a[i] and rank_b[i] are item i's positions. Counted with a
    merge-sort inversion count, O(n log n).
    """
    a = np.asarray(rank_a)
    b = np.asarray(rank_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("rankings must be one-dimensional and of equal length")
    n = a.size
    if n < 2:
        return 0.0
    order = np.argsort(a, kind="stable")
    seq = list(b[order])

    def count(lst: list) -> tuple[list, int]:
        if len(lst) <= 1:
            return lst, 0
        mid = len(lst) // 2
        left, nl = count(lst[:mid])
        right, nr = count(lst[mid:])
        merged = []
        inv = nl + nr
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
                inv += len(left) - i
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, inv

    _, inversions = count(seq)
    return inversions / (n * (n - 1) / 2)


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of the reviewer-calibration benefit study."""

    n_papers: int = 100
    n_reviewers: int = 100
    reviews_per_paper: int = 3
    slope_rate: float = 1.0
    bias_variance: float = 0.5
    noise_variances: tuple = (0.25, 0.5, 1.0)
    iterations: int = 100
    accept_top: int = 25
    messy_lo: int = 11
    messy_hi: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.reviews_per_paper * self.n_papers) % self.n_reviewers != 0:
            raise ConfigurationError(
                "total reviews must divide evenly among reviewers"
            )
        if not (self.messy_lo <= self.accept_top <= self.messy_hi):
            raise ConfigurationError("need messy_lo <= accept_top <= messy_hi")
        if self.slope_rate <= 0.0 or self.bias_variance <= 0.0:
            raise ConfigurationError("slope_rate and bias_variance must be positive")
        if not all(math.isfinite(v) and v >= 0.0 for v in self.noise_variances):
            raise ConfigurationError("noise_variances must be finite and nonnegative")


def messy_middle_error(
    true_rank: Sequence[int], est_rank: Sequence[int], cfg: StudyConfig
) -> float:
    """Fraction of marginal papers whose accept status is wrong.

    Marginal papers are those with true rank in [messy_lo, messy_hi];
    a paper is accepted when its rank is at most accept_top.
    """
    t = np.asarray(true_rank)
    e = np.asarray(est_rank)
    if t.shape != e.shape:
        raise ValueError("rankings must have equal length")
    band = (t >= cfg.messy_lo) & (t <= cfg.messy_hi)
    if not band.any():
        raise ValueError("the marginal band is empty for this configuration")
    flipped = (t[band] <= cfg.accept_top) != (e[band] <= cfg.accept_top)
    return float(flipped.mean())


STUDY_METHODS = ("no_calibration", "within_conference", "known_parameters")


@dataclass(frozen=True)
class StudyCell:
    """One (method, noise variance) cell of the study.

    kendall_tau and messy_middle hold every iteration's value, in
    iteration order; the means and standard errors summarize them.
    Iteration k of every method is scored on the same draws, so two
    methods are compared by their per-iteration differences.
    """

    mean_kendall_tau: float
    se_kendall_tau: float
    mean_messy_middle: float
    se_messy_middle: float
    kendall_tau: tuple
    messy_middle: tuple


@dataclass(frozen=True)
class StudyResult:
    cells: dict


def _balanced_assignment(
    rng: np.random.Generator, cfg: StudyConfig
) -> np.ndarray:
    """Reviewer indices per (paper, slot), no reviewer repeated on a paper.

    Sampled by shuffling the reviewer multiset over the review slots and
    rejecting draws where some paper sees the same reviewer twice.
    """
    load = cfg.reviews_per_paper * cfg.n_papers // cfg.n_reviewers
    slots = np.repeat(np.arange(cfg.n_reviewers), load)
    for _ in range(10_000):
        perm = rng.permutation(slots)
        mat = perm.reshape(cfg.n_papers, cfg.reviews_per_paper)
        srt = np.sort(mat, axis=1)
        if not np.any(srt[:, 1:] == srt[:, :-1]):
            return mat
    raise ConfigurationError("could not sample a balanced assignment in 10000 tries")


def _draw_conference(
    rng: np.random.Generator, cfg: StudyConfig, noise_variance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One simulated conference: (theta, a, b, reviewers, scores).

    theta holds the paper qualities; a, b, reviewers and scores are
    indexed by (paper, slot), with a and b the slope and bias of the
    reviewer in that slot.
    """
    theta = rng.standard_normal(cfg.n_papers)
    slopes = rng.exponential(1.0 / cfg.slope_rate, cfg.n_reviewers)
    biases = rng.normal(0.0, math.sqrt(cfg.bias_variance), cfg.n_reviewers)
    reviewers = _balanced_assignment(rng, cfg)
    noise = rng.normal(0.0, math.sqrt(noise_variance), reviewers.shape)
    a = slopes[reviewers]
    b = biases[reviewers]
    return theta, a, b, reviewers, a * theta[:, None] + b + noise


_FIT_SWEEPS = 50


def fit_within_conference(
    scores: np.ndarray,
    reviewers: np.ndarray,
    cfg: StudyConfig,
    noise_variance: float,
) -> np.ndarray:
    """Paper qualities fitted from one conference's own scores.

    A MAP fit of the model s = a_j * theta_i + b_j + noise, in the spirit
    of Roos et al. 2011, "Calibration in conference peer review". Each
    reviewer's (a_j, b_j) and each paper's theta_i are fitted jointly;
    the fit sees the scores, who wrote them and the population-level
    quantities only: theta ~ N(0, 1), b_j ~ N(0, bias_variance), a
    Gaussian slope prior with the mean 1/slope_rate and variance
    1/slope_rate^2 of the exponential slope distribution, and the noise
    variance. The priors make the fit well posed, since the model has
    nearly as many free parameters as there are scores.

    Starting from the raw mean, each of _FIT_SWEEPS sweeps solves every
    reviewer's 2x2 ridge system at fixed theta, then every paper's
    scalar update at fixed (a, b). Both systems are positive definite
    for a positive noise variance.
    """
    n_rev = cfg.n_reviewers
    rev = reviewers.ravel()
    s = scores.ravel()
    slope_mean = 1.0 / cfg.slope_rate
    # Prior precisions scaled by the noise variance: the ridge terms.
    ridge_a = noise_variance / (slope_mean * slope_mean)
    ridge_b = noise_variance / cfg.bias_variance
    count = np.bincount(rev, minlength=n_rev) + ridge_b
    sum_s = np.bincount(rev, s, n_rev)
    theta = scores.mean(axis=1)
    for _ in range(_FIT_SWEEPS):
        t = np.repeat(theta, scores.shape[1])
        stt = np.bincount(rev, t * t, n_rev) + ridge_a
        st = np.bincount(rev, t, n_rev)
        sts = np.bincount(rev, t * s, n_rev) + ridge_a * slope_mean
        det = stt * count - st * st
        a = ((sts * count - st * sum_s) / det)[reviewers]
        b = ((stt * sum_s - st * sts) / det)[reviewers]
        theta = (a * (scores - b)).sum(axis=1) / ((a * a).sum(axis=1) + noise_variance)
    return theta


def _rank_of(est: np.ndarray) -> np.ndarray:
    """Rank vector (1 = best) from score estimates, ties broken by index."""
    order = np.argsort(-est, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(1, est.size + 1)
    return ranks


def _mean_se(values: list) -> tuple[float, float]:
    arr = np.asarray(values)
    k = arr.size
    se = float(arr.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
    return float(arr.mean()), se


def run_calibration_study(cfg: StudyConfig) -> StudyResult:
    """Run the three-method calibration comparison.

    Methods, each ranking the papers by an estimate of their quality:
    no_calibration, the raw mean of a paper's scores; within_conference,
    the model-based fit of fit_within_conference, which uses the scores,
    the assignment and the population-level priors but none of the drawn
    reviewer parameters; and known_parameters, the maximum-likelihood
    estimate using the true reviewer slopes and biases. Each (noise
    variance, iteration) pair uses its own derived stream, so results
    depend only on the configuration, and all methods of one iteration
    are scored on the same draws.
    """
    cells = {}
    for vi, var in enumerate(cfg.noise_variances):
        taus = {m: [] for m in STUDY_METHODS}
        messy = {m: [] for m in STUDY_METHODS}
        for it in range(cfg.iterations):
            rng = stream(cfg.seed, vi * cfg.iterations + it)
            theta, a, b, reviewers, scores = _draw_conference(rng, cfg, var)
            est = {
                "no_calibration": scores.mean(axis=1),
                "within_conference": fit_within_conference(scores, reviewers, cfg, var),
                "known_parameters": (a * (scores - b)).sum(axis=1)
                / (a * a).sum(axis=1),
            }
            true_rank = _rank_of(theta)
            for m in STUDY_METHODS:
                r = _rank_of(est[m])
                taus[m].append(kendall_tau_distance(true_rank, r))
                messy[m].append(messy_middle_error(true_rank, r, cfg))
        for m in STUDY_METHODS:
            cells[(m, var)] = StudyCell(
                *_mean_se(taus[m]),
                *_mean_se(messy[m]),
                tuple(taus[m]),
                tuple(messy[m]),
            )
    return StudyResult(cells)
