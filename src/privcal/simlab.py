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
how many threads run the blocks: PRIVCAL_THREADS, by default one per
core the process may use, the calling thread among them.

A block draws all its random numbers first, in a fixed order, and then
evaluates them in slices of _CHUNK replicates, so that the temporaries
of one slice stay in a core's L2 cache. It reduces its replicates to
exact counts: conference errors, firm wrong guesses of the adversary,
and its ties at half an error. Every block total is an integer or
half-integer far below 2^53, so it equals the float sum of
per-replicate errors bit for bit.

Average-case policy rules see only the randomizing replicates of a
chunk: rule.batch(pu, pv) maps the posterior weights of their scores
to (q1, q2), arrays or scalars. It sees at most _CHUNK replicates per
call, so it must act element by element. Elsewhere the decision is
forced and no q is needed. A rule that carries a population (pop) must
carry the simulated one.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    Assignment,
    ConfigurationError,
    Decision,
    Instance,
    Population,
    ProfileKind,
    log_marginal_score_density,
    thresholds,
)
from .frontier import ErrorPair, instance_geometry
from .adversary import map_guess
from .mechanism import Policy, QuadratureSettings, alg2_policy

_BLOCK = 1 << 16
# Replicates per slice of a block's arithmetic: a slice's live arrays of
# 128 KiB fit a core's L2 cache, and fewer slices make fewer GIL-held calls.
_CHUNK = 1 << 14


def stream(seed: int, index: int) -> np.random.Generator:
    """The documented counter-based stream derivation.

    Distinct indices occupy disjoint counter ranges of the same keyed
    Philox generator, so streams never overlap and the derivation is
    reproducible across platforms.
    """
    bg = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(index)])
    return np.random.Generator(bg)


def _thread_count() -> int:
    """PRIVCAL_THREADS if set, else the number of cores this process may use."""
    raw = os.environ.get("PRIVCAL_THREADS")
    if not raw:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ConfigurationError(f"PRIVCAL_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _select(mask: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.where(mask, x, y) for floats, bit for bit, in about half its time
    on a random mask, where np.where's branch per element mispredicts."""
    ones = -np.asarray(mask, dtype=bool).view(np.uint8).astype(np.int64)
    x, y = (np.asarray(v, dtype=np.float64).view(np.int64) for v in (x, y))
    return ((x & ones) | (y & ~ones)).view(np.float64)


def _count_wrong(acc_p1: np.ndarray, th1: np.ndarray, th2: np.ndarray) -> int:
    """Replicates whose accepted paper has the lower quality."""
    wrong = (acc_p1 & (th1 < th2)) | (~acc_p1 & (th2 < th1))
    return np.count_nonzero(wrong)


@functools.cache
def _helpers(count: int) -> ThreadPoolExecutor:
    """Threads kept for the process: one started per call may get a new malloc arena."""
    return ThreadPoolExecutor(count)


def _run_blocks(n: int, seed: int, worker: Callable[[int, int, int], np.ndarray]):
    """Run worker(block_index, offset, count) on every block, from the calling
    thread and helpers that take block indices from one locked iterator, and
    sum its (conference, adversary) totals in block order into a SimResult."""
    parts = [None] * -(-n // _BLOCK)
    blocks, lock = iter(range(len(parts))), threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                i = next(blocks, None)
            if i is None:
                return
            parts[i] = worker(i, i * _BLOCK, min(_BLOCK, n - i * _BLOCK))

    threads = _thread_count()
    spare = min(threads, len(parts)) - 1
    helpers = [_helpers(threads - 1).submit(drain) for _ in range(spare)]
    try:
        drain()
    finally:
        # A queued helper has no block left and may need this very thread.
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    conf_total, adv_total = sum(parts[1:], parts[0])
    p_ec, p_ea = float(conf_total) / n, float(adv_total) / n
    return SimResult(
        ErrorPair(p_ec, p_ea), _binomial_se(p_ec, n), _binomial_se(p_ea, n), n, seed
    )


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
    A block counts its replicates in the four (assignment, accepted
    paper) cells; each cell's adversary error, and in noiseless mode
    its conference error, is fixed. An Infeasible target is not a
    policy and raises ConfigurationError.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    geom = instance_geometry(inst)
    pu = geom.pu
    noisy = not inst.noiseless
    d1_p1 = geom.d1 is Decision.PAPER1
    # Cell 2 * is_a1 + acc_p1 holds (assignment, accepted paper).
    cells = [
        (a, d)
        for a in (Assignment.A2, Assignment.A1)
        for d in (Decision.PAPER2, Decision.PAPER1)
    ]
    adv_table = np.array(
        [map_guess(inst, policy, d).wrong_probability(a) for a, d in cells]
    )

    if noisy:
        from .model import quality_posterior

        # Per paper: its quality posterior's mean and sd, indexed by is_a1
        # (a table lookup, since np.where on a random mask mispredicts).
        post = [
            [quality_posterior(inst, p, a) for a in (Assignment.A2, Assignment.A1)]
            for p in (1, 2)
        ]
        means = [np.array([q.mean for q in pp]) for pp in post]
        sds = [np.array([math.sqrt(q.variance) for q in pp]) for pp in post]
    else:
        r1, r2 = inst.reviewer1, inst.reviewer2
        s1, s2 = inst.scores.s1, inst.scores.s2
        # The qualities of papers 1 and 2 under each assignment.
        th = {
            Assignment.A1: (r1.invert(s1), r2.invert(s2)),
            Assignment.A2: (r2.invert(s1), r1.invert(s2)),
        }
        conf_table = np.array(
            [_count_wrong(np.bool_(d is Decision.PAPER1), *th[a]) for a, d in cells],
            dtype=float,
        )

    def worker(block: int, offset: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)

        def uniforms(read: bool, later: bool) -> Optional[np.ndarray]:
            # Unread coins are not drawn, or skipped in Philox's 4-output steps.
            if read or (later and cnt % 4):
                return rng.random(cnt)
            if later:
                rng.bit_generator.advance(cnt // 4)
            return None

        is_a1 = rng.random(cnt) < pu
        coin = uniforms(geom.part2, geom.tie or noisy)
        tie_coin = uniforms(geom.tie, noisy)
        z = rng.standard_normal((2, cnt)) if noisy else None
        n_a1 = n_acc = n_both = conf = 0
        for lo in range(0, cnt, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            a1 = is_a1[sl]
            if geom.part2:
                c = coin[sl]
                truthful = (a1 & (c < policy.q1)) | (~a1 & (c < policy.q2))
                acc_p1 = d1_p1 ^ (truthful != a1)
            elif geom.tie:
                acc_p1 = tie_coin[sl] < 0.5
            else:
                acc_p1 = np.full(a1.size, d1_p1)
            n_a1 += np.count_nonzero(a1)
            n_acc += np.count_nonzero(acc_p1)
            n_both += np.count_nonzero(a1 & acc_p1)
            if noisy:
                # th = m + s * z, written over z.
                th1, th2 = z[:, sl]
                for p, th in enumerate((th1, th2)):
                    th *= sds[p].take(a1)
                    th += means[p].take(a1)
                conf += _count_wrong(acc_p1, th1, th2)
        counts = np.array(
            [cnt - n_a1 - n_acc + n_both, n_acc - n_both, n_a1 - n_both, n_both]
        )
        if not noisy:
            conf = counts @ conf_table
        return np.array([conf, counts @ adv_table], dtype=float)

    return _run_blocks(n, seed, worker)


def posterior_weight_arrays(
    pop: Population, s1: np.ndarray, s2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (pu, pv) over score arrays."""
    r1, r2, g2 = pop.reviewer1, pop.reviewer2, pop.sigma2
    logf = log_marginal_score_density
    logu = logf(r1, g2, s1) + logf(r2, g2, s2)
    d = logf(r2, g2, s1) + logf(r1, g2, s2) - logu
    # exp overflows to inf above about 709.78, where pu = 0 all the same.
    with np.errstate(over="ignore"):
        pu = 1.0 / (1.0 + np.exp(np.clip(d, -745.0, 745.0)))
    return pu, 1.0 - pu


class TruthfulRule:
    """Always calibrate under the true assignment."""

    def batch(self, pu: np.ndarray, pv: np.ndarray):
        return 1.0, 1.0


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

    def batch(self, pu: np.ndarray, pv: np.ndarray):
        w = 1.0 - np.minimum(self.ec_value, np.minimum(pu, pv))
        # A posterior weight can underflow to 0 at extreme scores; the
        # ceiling is then 0 and truthful play is already optimal.
        safe_pv = np.where(pv > 0.0, pv, 1.0)
        return 1.0, np.where(pv > 0.0, np.clip((w - pu) / safe_pv, 0.0, 1.0), 1.0)


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

    def batch(self, pu: np.ndarray, pv: np.ndarray):
        q1e, q2e = self._endpoint.batch(pu, pv)
        mix = self.average_policy.mix
        return mix * q1e + (1.0 - mix), mix * q2e + (1.0 - mix)


def simulate_average(
    pop: Population, policy_rule, n: int, seed: int
) -> SimResult:
    """Average-case simulation over the full generative model.

    Each replicate draws qualities, a uniform assignment, and noise,
    forms scores, applies the per-score policy rule, decides, and lets
    the adversary guess knowing the rule. A rule that carries a
    population (pop) must carry this one, since it reads this
    population's posterior weights.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    if getattr(policy_rule, "pop", pop) != pop:
        raise ConfigurationError("the policy rule was built for another population")
    r1, r2 = pop.reviewer1, pop.reviewer2
    noisy = not pop.noiseless
    sd = math.sqrt(pop.sigma2)
    # Per paper, the (slope, intercept) of its reviewer indexed by is_a1.
    ab = [np.array([[r.a for r in rs], [r.b for r in rs]]) for rs in ((r2, r1), (r1, r2))]

    def chunk(th, is_a1, coin, eps, sl: slice) -> tuple:
        """Conference, firm and wrong-guess counts of slice sl; its arrays die on return."""
        th1, th2, a1 = th[0, sl], th[1, sl], is_a1[sl]
        if r1.kind is r2.kind is ProfileKind.AFFINE:
            k = a1.view(np.uint8)
            s1, s2 = (a.take(k) * t + b.take(k) for (a, b), t in zip(ab, (th1, th2)))
        else:
            s1 = _select(a1, r1.apply(th1), r2.apply(th1))
            s2 = _select(a1, r2.apply(th2), r1.apply(th2))
        if noisy:
            s1 += sd * eps[0, sl]
            s2 += sd * eps[1, sl]
        d2_p1, d1_p1 = (s1 > t for t in thresholds(pop, s2))
        pu, pv = posterior_weight_arrays(pop, s1, s2)
        # Only the randomizing replicates need q; the rest are forced.
        idx = np.flatnonzero(d1_p1 != d2_p1)
        pu2, pv2, a1p, d1, d2 = pu[idx], pv[idx], a1[idx], d1_p1[idx], d2_p1[idx]
        q1, q2 = policy_rule.batch(pu2, pv2)
        c = coin[sl][idx]
        acc = d1 ^ (((a1p & (c < q1)) | (~a1p & (c < q2))) != a1p)
        acc_p1 = d1_p1
        acc_p1[idx] = acc

        # The adversary guesses the assignment with the larger of pu
        # and pv times the accepted paper's probability under it,
        # which is 1 for both on forced replicates: weigh only idx.
        guess_a1, guess_a2 = pu > pv, pu < pv
        prob_p1_a1 = q1 * d1 + (1.0 - q1) * d2
        prob_p1_a2 = q2 * d2 + (1.0 - q2) * d1
        l1 = pu2 * _select(acc, prob_p1_a1, 1.0 - prob_p1_a1)
        l2 = pv2 * _select(acc, prob_p1_a2, 1.0 - prob_p1_a2)
        guess_a1[idx], guess_a2[idx] = l1 > l2, l1 < l2
        firm = np.count_nonzero(guess_a1) + np.count_nonzero(guess_a2)
        wrong = np.count_nonzero(guess_a1 & ~a1) + np.count_nonzero(guess_a2 & a1)
        return _count_wrong(acc_p1, th1, th2), firm, wrong

    def worker(block: int, offset: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)
        th = rng.standard_normal((2, cnt))
        is_a1 = rng.random(cnt) < 0.5
        coin = rng.random(cnt)
        eps = rng.standard_normal((2, cnt)) if noisy else None
        sls = (slice(lo, lo + _CHUNK) for lo in range(0, cnt, _CHUNK))
        conf, firm, wrong = map(sum, zip(*(chunk(th, is_a1, coin, eps, sl) for sl in sls)))
        return np.array([conf, wrong + 0.5 * (cnt - firm)])

    return _run_blocks(n, seed, worker)


# Rows per block of kendall_tau_distance's pair comparison.
_KENDALL_ROWS = 256


def kendall_tau_distance(rank_a: Sequence[int], rank_b: Sequence[int]) -> float:
    """Fraction of discordant pairs between two rankings of the same items.

    rank_a[i] and rank_b[i] are item i's positions. Items are put in
    rank_a order (ties by index) and every pair whose rank_b order is
    reversed is counted. The n(n - 1)/2 pairs are compared in blocks of
    _KENDALL_ROWS rows, so memory stays O(_KENDALL_ROWS * n).
    """
    a = np.asarray(rank_a)
    b = np.asarray(rank_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("rankings must be one-dimensional and of equal length")
    n = a.size
    if n < 2:
        return 0.0
    s = b[np.argsort(a, kind="stable")]
    inversions = 0
    for i in range(0, n, _KENDALL_ROWS):
        # Rows i..i+R against columns i.., keeping column > row.
        block = s[i : i + _KENDALL_ROWS, None] > s[None, i:]
        inversions += int(np.count_nonzero(np.triu(block, 1)))
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
        for name in ("n_papers", "n_reviewers", "reviews_per_paper", "iterations"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if (self.reviews_per_paper * self.n_papers) % self.n_reviewers != 0:
            raise ConfigurationError(
                "total reviews must divide evenly among reviewers"
            )
        if not (self.messy_lo <= self.accept_top <= self.messy_hi):
            raise ConfigurationError("need messy_lo <= accept_top <= messy_hi")
        if self.messy_lo > self.n_papers or self.messy_hi < 1:
            raise ConfigurationError(
                f"messy_lo..messy_hi ({self.messy_lo}..{self.messy_hi}) "
                f"must overlap the ranks 1..{self.n_papers}"
            )
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

    Known limit: as the noise variance goes to 0 the ridge terms vanish
    and the sweeps stall short of the exact fit, although noiseless
    scores fix theta up to an affine map. At noise variance 1e-18 on a
    30-paper, 30-reviewer config (seed 3) the fitted ranking's
    Kendall-tau distance is 0.05-0.09 per iteration, where known
    parameters give 0.
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
