"""Monte Carlo verification harness and the reviewer-calibration study.

Simulation here serves two purposes: cross-checking every closed form
in the per-instance and average-case theory, and reproducing the
exogenous-calibration benefit study (three scoring methods compared by
Kendall-tau distance and the messy-middle error). It keeps no model
math: the regime, posterior and MAP-guess formulas it applies to arrays
live beside their scalar twins in model and adversary, the per-instance
simulator reads its adversary errors from adversary.scenario_table, and
Alg1Rule forms mechanism.alg1_policy's q2 expression on arrays.

Determinism contract: all randomness flows from stream(seed, index),
SFC64 seeded by SeedSequence(seed, spawn_key=(index,)); streams are
independent by seeding, not disjoint by construction. Replicates are
processed in fixed-size blocks, block i drawing from stream(seed, i),
and block totals are summed in block order, so results are a pure
function of (inputs, seed) no matter how many threads run the blocks:
PRIVCAL_THREADS, by default one per core the process may use, the
calling thread among them. stream owns the seed rule and _run_blocks the
replicate-count rule, for every caller.

A block draws exactly what it reads, in a fixed order. Its assignments
are one draw, the count k of A1 replicates, Binomial(cnt, pu) in
simulate_instance and Binomial(cnt, 1/2) in simulate_average:
replicates [0, k) are A1 and [k, cnt) A2. simulate_instance draws only
counts: k, each run's count of truthful plays where the instance
randomizes, then each (assignment, accepted paper) cell's count of
conference errors. simulate_average draws the qualities, k and, where
it is noisy, the score noise; each run then draws one coin per
randomizing replicate once its regime is known, the A1 run before the
A2 run. The replicates are i.i.d., the coin is independent of the
qualities, and a block keeps only sums over them, so putting them in
assignment order, a run's truthful plays first, and drawing a cell's
errors as one count changes the draws, not the law. A run of one
assignment has fixed profiles and q, and a block is evaluated as its
two runs, one pass each, an empty run included. A block reduces its
replicates to exact counts: conference errors, firm wrong guesses of
the adversary, and its ties at half an error. Every running total is
an integer or half-integer of at most n, and 2n <= 2^53, so it equals
the float sum of per-replicate errors bit for bit.

Workspace: each thread keeps, for as long as it lives, the arrays
simulate_average's blocks use (_Workspace, touched only as far as a
block needs; simulate_instance draws only counts and needs none):
2 MiB of draws, up to _DRAW_ROWS rows that a block draws into with
out=, and 2 MiB of rows, four float64 rows of a run's arithmetic. They
stay two arrays because numpy asks for transparent huge pages on any
array of 4 MiB or more, where touching one element can fault in a
whole 2 MiB page. A run computes in place through the out= forms of
the array twins in model and adversary, so no float array of a run's
size is allocated: glibc maps and unmaps each one of 128 KiB or more
on its own, and a block that freed its arrays had them faulted in
again. Two large runs per block make few GIL-releasing numpy calls, and
so few hand-offs of the GIL between threads. Workspaces come from a
per-thread free list, so a rule that simulates from inside a block gets
a second one.

Average-case policy rules see only the randomizing replicates of a run:
rule.batch(pu, pv) maps the posterior weights of their scores to (q1,
q2), arrays or scalars. Each call sees at most one run, up to _BLOCK
(2^16) replicates, usually about 2^15, and possibly none, so it must
act element by element; pu and pv are read-only views of the
workspace, which the next run overwrites. Elsewhere the decision is
forced and no q is needed: a forced replicate's guess reads the sign of
its log odds, so a run forms the weights at randomizing replicates
only. A rule that carries a population (pop) must carry the simulated
one.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    Assignment,
    ConfigurationError,
    Decision,
    Instance,
    ModeError,
    Population,
    log_odds,
    map_decisions,
    quality_posterior,
    std_normal_cdf,
    weights_of_log_odds,
)
from .frontier import ErrorPair, instance_geometry
from .adversary import map_guess_arrays, scenario_table
from .mechanism import Policy, QuadratureSettings, alg2_policy

_BLOCK = 1 << 16
# Float64 rows of _BLOCK a simulate_average block draws into at most: two
# of qualities and two of score noise.
_DRAW_ROWS = 4


def stream(seed: int, index: int) -> np.random.Generator:
    """The documented stream derivation, and the seed rule.

    SFC64 seeded by SeedSequence(seed, spawn_key=(index,)), numpy's
    documented seeding of parallel streams, reproducible across
    platforms: streams are independent by seeding, not disjoint by
    construction. A seed that is not an integer in [0, 2^64), a bool
    included, raises ConfigurationError.
    """
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    seq = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.SFC64(seq))


def _thread_count() -> int:
    """PRIVCAL_THREADS if set, else the number of cores this process may use."""
    raw = os.environ.get("PRIVCAL_THREADS")
    if not raw:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ConfigurationError(f"PRIVCAL_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


class _Workspace:
    """The arrays one thread reuses for every block it runs.

    draws holds a block's draws, up to _DRAW_ROWS rows of _BLOCK
    (2 MiB), laid out as contiguous rows of the block's count; rows
    holds four float64 rows of a run's arithmetic (2 MiB).
    Each stays under 4 MiB, where numpy starts to ask for transparent
    huge pages, and each is touched only as far as a block uses it.
    """

    def __init__(self):
        self.draws = np.empty(_DRAW_ROWS * _BLOCK)
        self.rows = np.empty((4, _BLOCK))


_spaces = threading.local()


@contextlib.contextmanager
def _workspace():
    """A workspace from this thread's free list, or a new one, for one block.

    It returns to the list when the block ends, so each thread keeps its
    workspaces for as long as it lives. A rule that simulates from inside
    a block takes a second one while the block holds the first.
    """
    free = _spaces.__dict__.setdefault("free", [])
    ws = free.pop() if free else _Workspace()
    try:
        yield ws
    finally:
        free.append(ws)


def _count_wrong(acc_p1, p1_worse, p2_worse) -> int:
    """Replicates whose accepted paper has the lower quality."""
    return np.count_nonzero((acc_p1 & p1_worse) | (~acc_p1 & p2_worse))


@functools.cache
def _helpers(count: int) -> ThreadPoolExecutor:
    """Threads kept for the process: one started per call may get a new malloc arena."""
    return ThreadPoolExecutor(count)


def _run_blocks(n: int, seed: int, worker: Callable[[int, int], np.ndarray]):
    """Run worker(block_index, count) on every block, count being _BLOCK
    but for the last block's remainder, from the calling thread and
    helpers that take block indices from one locked iterator, and fold its
    (conference, adversary) totals, in block order as soon as every
    earlier block's are in, into a SimResult. n must be an integer in
    [1, 2^52]: totals count half errors, so their float sum is exact only
    while 2n <= 2^53."""
    if isinstance(n, bool) or not isinstance(n, Integral) or not 1 <= n <= 2**52:
        raise ConfigurationError(f"n must be an integer in [1, 2^52], got {n!r}")
    count = -(-n // _BLOCK)
    blocks, lock = iter(range(count)), threading.Lock()
    total, pending, folded = np.zeros(2), {}, 0

    def drain() -> None:
        nonlocal total, folded
        while True:
            with lock:
                i = next(blocks, None)
            if i is None:
                return
            part = worker(i, min(_BLOCK, n - i * _BLOCK))
            with lock:
                pending[i] = part
                while folded in pending:
                    total += pending.pop(folded)
                    folded += 1

    threads = _thread_count()
    spare = min(threads, count) - 1
    helpers = [_helpers(threads - 1).submit(drain) for _ in range(spare)]
    try:
        drain()
    finally:
        # A queued helper has no block left and may need this very thread.
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    conf_total, adv_total = total
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

    Each replicate draws the assignment from its score posterior, runs
    the randomized decision, errs where its accepted paper is the worse
    one, and lets the MAP adversary guess. Adversary ties are tallied as
    half an error. A block draws only counts: its count k of A1
    replicates, Binomial(cnt, pu), replicates [0, k) being A1 and
    [k, cnt) A2; then, where the instance randomizes, each run's count
    of truthful plays, Binomial(size, q), which are the run's first
    replicates; then, the A1 run before the A2 run, the conference
    errors of its paper-1 cell and of its paper-2 cell, Binomial(count,
    w). Here w is the probability, given the scores and the assignment,
    that the cell's accepted paper is the worse one: 0 or 1 from the
    qualities noiseless scores invert to, and in noisy mode Phi of
    th1 - th2, whose posterior is normal with the difference of the two
    papers' quality_posterior means and the sum of their variances. Each
    (assignment, accepted paper) cell's adversary error is read from
    scenario_table. An Infeasible target is not a policy and raises
    ConfigurationError.
    """
    geom = instance_geometry(inst)
    cells = scenario_table(inst, policy).cells
    adv_table = np.array([c.adversary_wrong_prob for c in cells])
    r1, r2 = inst.reviewer1, inst.reviewer2
    # Per assignment: q, whether its MAP decision accepts paper 1, and the
    # probabilities that paper 1 and that paper 2 is the worse.
    plays = []
    for q, d, a, (rev1, rev2) in (
        (policy.q1, geom.d1, Assignment.A1, (r1, r2)),
        (policy.q2, geom.d2, Assignment.A2, (r2, r1)),
    ):
        if inst.noiseless:
            t1, t2 = rev1.invert(inst.scores.s1), rev2.invert(inst.scores.s2)
            w = float(t1 < t2), float(t2 < t1)
        else:
            p1, p2 = (quality_posterior(inst, p, a) for p in (1, 2))
            mean, sd = p1.mean - p2.mean, math.sqrt(p1.variance + p2.variance)
            x = mean / sd if sd > 0.0 else math.nan
            w = std_normal_cdf(-x), std_normal_cdf(x)
            if math.isnan(x):
                # sd underflowed to 0 or the mean is NaN: th1 - th2 is the mean.
                w = float(mean < 0.0), float(mean > 0.0)
        plays.append((q, d is Decision.PAPER1, w))

    def worker(block: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)
        k = rng.binomial(cnt, geom.pu)
        sizes = (k, cnt - k)
        # The first n_own replicates of a run accept its assignment's own
        # MAP decision: Binomial(size, q) truthful plays where the instance
        # randomizes, every replicate where it is forced.
        owns = [rng.binomial(m, q) if geom.part2 else m for m, (q, _, _) in zip(sizes, plays)]
        # The counts of the scenario table's cells: (A1, paper 1),
        # (A1, paper 2), (A2, paper 1), (A2, paper 2).
        counts, conf = [], 0
        for m, n_own, (_, own_p1, (w1, w2)) in zip(sizes, owns, plays):
            n_p1 = n_own if own_p1 else m - n_own
            counts += [n_p1, m - n_p1]
            conf += rng.binomial(n_p1, w1) + rng.binomial(m - n_p1, w2)
        return np.array([conf, np.array(counts) @ adv_table], dtype=float)

    return _run_blocks(n, seed, worker)


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
            raise ModeError("Alg1Rule requires sigma2 = 0")
        if not (0.0 <= ec_value <= 1.0):
            raise ConfigurationError("ec_value must lie in [0, 1]")
        self.pop = pop
        self.ec_value = float(ec_value)

    def batch(self, pu: np.ndarray, pv: np.ndarray):
        # alg1_policy's q2, clip((1 - min(ec_value, pu, pv) - pu) / pv, 0, 1),
        # in one array. Where pv underflowed to 0 (or is not a number),
        # truthful play is optimal, whatever the division gave there.
        q2 = np.minimum(pu, pv)
        np.minimum(self.ec_value, q2, out=q2)
        np.subtract(1.0, q2, out=q2)
        q2 -= pu
        with np.errstate(divide="ignore", invalid="ignore"):
            q2 /= pv
            np.clip(q2, 0.0, 1.0, out=q2)
        q2[~(pv > 0.0)] = 1.0
        return 1.0, q2


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
    if getattr(policy_rule, "pop", pop) != pop:
        raise ConfigurationError("the policy rule was built for another population")
    r1, r2 = pop.reviewer1, pop.reviewer2
    noisy = not pop.noiseless
    sd = math.sqrt(pop.sigma2)

    def run(rng, th, eps, rows, a1: bool) -> tuple:
        """Conference, firm and wrong-guess counts of one run, whose
        replicates all have assignment A1 (a1) or all A2, in place: its
        scores are written over its qualities th and its noise eps; its
        rows hold the thresholds, then the log odds and the coins, then
        the adversary's likelihoods; the randomizing replicates' weights,
        which the rule reads, are written over the scores. The run draws
        one coin per randomizing replicate."""
        th1, th2 = th
        rows = rows[:, : th1.size]
        p1_worse, p2_worse = th1 < th2, th2 < th1
        # Under A1 reviewer j scores paper j; under A2 the routing is crossed.
        rev1, rev2 = (r1, r2) if a1 else (r2, r1)
        s1, s2 = rev1.apply(th1, out=th1), rev2.apply(th2, out=th2)
        if noisy:
            s1 += np.multiply(eps[0], sd, out=eps[0])
            s2 += np.multiply(eps[1], sd, out=eps[1])
        d1_p1, d2_p1 = map_decisions(pop, s1, s2, out=rows[:2])
        d = log_odds(pop, s1, s2, out=rows[:2])
        # Only the randomizing replicates need q and the weights; the
        # rest are forced, and their guesses read the sign of d.
        idx = np.flatnonzero(d1_p1 != d2_p1)
        d1 = d1_p1[idx]
        d_idx = np.take(d, idx, out=s1[: idx.size], mode="clip")
        wu, wv = weights_of_log_odds(d_idx, s2[: idx.size])
        wu.flags.writeable = wv.flags.writeable = False
        q1, q2 = policy_rule.batch(wu, wv)
        # From here the rows hold randomizing replicates only.
        rows = rows[:, : idx.size]
        c = rng.random(out=rows[1])
        # Truthful play, coin < q, accepts d1 under A1 and d2, the other
        # paper, under A2.
        acc = np.equal(c < q1, d1) if a1 else np.not_equal(c < q2, d1)
        acc_p1 = d1_p1
        acc_p1[idx] = acc
        guess_a1, guess_a2 = map_guess_arrays(
            d, idx, wu, wv, q1, q2, d1, acc, out=rows[2:]
        )
        n_a1, n_a2 = np.count_nonzero(guess_a1), np.count_nonzero(guess_a2)
        wrong = n_a2 if a1 else n_a1
        return _count_wrong(acc_p1, p1_worse, p2_worse), n_a1 + n_a2, wrong

    def worker(block: int, cnt: int) -> np.ndarray:
        rng = stream(seed, block)
        with _workspace() as ws:
            th, eps = ws.draws[: 4 * cnt].reshape(2, 2, cnt)
            rng.standard_normal(out=th)
            # Replicates [0, k) are A1 and [k, cnt) are A2.
            k = rng.binomial(cnt, 0.5)
            if noisy:
                rng.standard_normal(out=eps)
            a1_run = run(rng, th[:, :k], eps[:, :k], ws.rows, True)
            a2_run = run(rng, th[:, k:], eps[:, k:], ws.rows, False)
            conf, firm, wrong = map(sum, zip(a1_run, a2_run))
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
        if self.reviews_per_paper > self.n_reviewers:
            raise ConfigurationError(
                f"reviews_per_paper ({self.reviews_per_paper}) exceeds "
                f"n_reviewers ({self.n_reviewers}): a paper needs distinct reviewers"
            )
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
        if not (0.0 < self.slope_rate < math.inf and 0.0 < self.bias_variance < math.inf):
            raise ConfigurationError("slope_rate and bias_variance must be positive and finite")
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
    rejecting draws where some paper sees the same reviewer twice. A draw
    passes with probability about exp(-P k (k - 1) / (2 R)) =
    exp(-(k - 1) load / 2) for P papers, R reviewers, k reviews per paper
    and load = P k / R; the default config needs at most 46 draws. After
    1,000 rejections, or at once when the estimate is below 1e-9, a
    random permutation of the reviewers is repeated cyclically over the
    slots instead: any k <= R consecutive entries of it are distinct, and
    each reviewer fills load slots.
    """
    load = cfg.reviews_per_paper * cfg.n_papers // cfg.n_reviewers
    slots = np.repeat(np.arange(cfg.n_reviewers), load)
    shape = (cfg.n_papers, cfg.reviews_per_paper)
    hopeless = (cfg.reviews_per_paper - 1) * load > 2 * math.log(1e9)
    for _ in range(0 if hopeless else 1_000):
        mat = rng.permutation(slots).reshape(shape)
        srt = np.sort(mat, axis=1)
        if not np.any(srt[:, 1:] == srt[:, :-1]):
            return mat
    return np.tile(rng.permutation(cfg.n_reviewers), load).reshape(shape)


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
    are scored on the same draws. Parameters so extreme that drawing or
    estimating overflows, divides by zero or forms a NaN raise
    ConfigurationError rather than rank papers by non-finite estimates.
    """
    cells = {}
    for vi, var in enumerate(cfg.noise_variances):
        taus = {m: [] for m in STUDY_METHODS}
        messy = {m: [] for m in STUDY_METHODS}
        for it in range(cfg.iterations):
            rng = stream(cfg.seed, vi * cfg.iterations + it)
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    theta, a, b, reviewers, scores = _draw_conference(rng, cfg, var)
                    est = {
                        "no_calibration": scores.mean(axis=1),
                        "within_conference": fit_within_conference(
                            scores, reviewers, cfg, var
                        ),
                        "known_parameters": (a * (scores - b)).sum(axis=1)
                        / (a * a).sum(axis=1),
                    }
            except FloatingPointError as exc:
                raise ConfigurationError(
                    f"the study's arithmetic fails ({exc}) at noise variance {var!r}: "
                    "slope_rate, bias_variance or the noise variance is too extreme"
                ) from None
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
