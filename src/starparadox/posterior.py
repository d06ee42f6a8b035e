"""Monte Carlo posteriors over resolved trees from star-tree data.

The posterior ratio between two resolved trees given pattern counts is the
ratio of prior expectations of the likelihood kernels

    K_i = P0^n0 * P1^n_i * P2^(n - n0 - n_i),        i in {1, 2, 3},

so everything reduces to estimating E[K_i] by averaging over prior draws.
Kernels underflow at sequence lengths of a few hundred, so all accumulation
happens in log scale with streaming log-sum-exp.

Reproducibility contract: work is split into fixed-size chunks, each chunk
draws from a substream seeded by (seed, tag, chunk index), and reduction
folds the per-chunk partials in ascending chunk order.  The scan's chunk
substreams carry counts only; a scan trial whose posterior is computed
draws its prior sample from its own substream, seeded by (seed, tag,
n index, trial index).  Results are therefore bit-identical for any worker
count.  The three trees share draws (common random numbers), which makes
equal counts give exactly equal estimates and shrinks the variance of
ratios.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import PatternCounts, PatternProbs, log_pattern_prob_arrays, star_probs
from .priors import Prior

__all__ = [
    "DegenerateEstimate",
    "LogMeanResult",
    "PosteriorEstimate",
    "ParadoxResult",
    "simulate_counts",
    "log_likelihood_kernel",
    "kernel_log_values",
    "tree_posterior",
    "paradox_scan",
    "wilson_interval",
]

DRAW_CHUNK = 8192
TRIAL_CHUNK = 64

_TAG_KERNEL = 1
_TAG_SCAN = 2
_TAG_SCAN_PRIOR = 3
_N_MAX = 2**63 - 1  # numpy's multinomial reads n as a C long


class DegenerateEstimate(RuntimeError):
    """Every sampled kernel value was zero; the log-mean is undefined."""


def _chunk_rng(seed: int, tag: int, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, *index]))


def simulate_counts(t: float, n: int, seed) -> PatternCounts:
    """Multinomial(n, star pattern probabilities at t); deterministic given seed."""
    if not 1 <= n <= _N_MAX:
        raise ValueError(f"sequence length n (--n) must lie in [1, 2**63 - 1], got {n!r}")
    q = star_probs(t)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    draw = rng.multinomial(n, q.array)
    return PatternCounts(*map(int, draw))


def log_likelihood_kernel(counts: PatternCounts, probs: PatternProbs, tree: int) -> float:
    """log of P0^n0 P1^n_tree P2^(n - n0 - n_tree); -inf when a zero-probability
    pattern carries positive count.  Zero counts contribute nothing even
    against vanishing probabilities."""
    if tree not in (1, 2, 3):
        raise ValueError("tree index must be 1, 2 or 3")
    lp = probs.log_array
    n_tree = counts.array[tree]
    rest = counts.n - counts.n0 - n_tree
    total = 0.0
    for count, logp in ((counts.n0, lp[0]), (n_tree, lp[1]), (rest, lp[2])):
        if count > 0:
            total += count * logp
    return total


def kernel_log_values(
    counts: PatternCounts, lp0: np.ndarray, lp1: np.ndarray, lp2: np.ndarray, trees
) -> np.ndarray:
    """Log-kernels of the given trees over arrays of per-draw log pattern probabilities.

    Returns a ``(len(trees), N)`` block, row k for tree ``trees[k]``.  Each
    value is the sum of ``log_likelihood_kernel``'s terms in its order
    (n0 log P0, then n_tree log P1, then rest log P2), and terms with a zero
    count are skipped, so a zero count never meets a -inf log-probability.
    """
    block = np.zeros((len(trees),) + np.shape(lp0))
    if counts.n0 > 0:
        block += counts.n0 * lp0
    term = np.empty(np.shape(lp0))
    for row, tree in zip(block, trees):
        n_tree = int(counts.array[tree])
        rest = counts.n - counts.n0 - n_tree
        for count, logp in ((n_tree, lp1), (rest, lp2)):
            if count > 0:
                row += np.multiply(count, logp, out=term)
    return block


@dataclass(frozen=True)
class LogMeanResult:
    """log of a Monte Carlo mean with a delta-method standard error (log scale)."""

    log_mean: float
    stderr: float
    n_samples: int
    ess: float  # effective sample size (sum w)^2 / sum w^2 of the weights w = exp(log)


@dataclass(frozen=True)
class PosteriorEstimate:
    log_epi: np.ndarray     # per-tree log E[K_i]
    stderr: np.ndarray      # per-tree log-scale standard errors
    posterior: np.ndarray   # P(tree i | counts), sums to 1
    n_samples: int
    ess: np.ndarray         # per-tree effective sample sizes of the kernel weights

    def __post_init__(self) -> None:
        post = self.posterior
        if np.any(post < 0.0) or abs(post.sum() - 1.0) > 1e-10:
            raise ValueError("posterior must be a probability vector")


@dataclass(frozen=True)
class ParadoxResult:
    n: int
    epsilon: float
    delta_hat: float
    ci_lo: float
    ci_hi: float
    trials: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.ci_lo <= self.ci_hi <= 1.0 and 0.0 <= self.delta_hat <= 1.0):
            raise ValueError("estimates must lie in [0, 1]")


_Z95 = 1.959963984540054  # standard normal 97.5% quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at 0 and 1."""
    z = _Z95
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


# ---------------------------------------------------------------------------
# streaming log-sum-exp accumulation
# ---------------------------------------------------------------------------

# np.exp is exactly 0.0 below this argument (it first differs from 0 near
# -745.13), but gets there through a per-element path ~15x slower than its
# vector path; kernel logs far below their maximum land there in bulk
_EXP_ZERO = -746.0


def _exp_inplace(a: np.ndarray) -> np.ndarray:
    """np.exp(a) written into a, bit for bit, with the exact zeros set directly."""
    zero = a < _EXP_ZERO
    np.putmask(a, zero, 0.0)
    np.exp(a, out=a)
    np.putmask(a, zero, 0.0)
    return a


def _partials(logs: np.ndarray):
    """(max, sum exp(l - max), sum exp(2(l - max)), count) along the last axis.

    A 1-D array gives one tuple; a ``(trees, N)`` block gives a list with
    one tuple per row.  An all -inf row gives (-inf, 0, 0, count).
    """
    m = np.max(logs, axis=-1)
    a = _exp_inplace(logs - np.where(m == -math.inf, 0.0, m)[..., None])
    s = a.sum(axis=-1)
    np.multiply(a, a, out=a)
    t = a.sum(axis=-1)
    n = logs.shape[-1]
    if logs.ndim == 1:
        return float(m), float(s), float(t), n
    return [(float(mi), float(si), float(ti), n) for mi, si, ti in zip(m, s, t)]


def _merge(p, q):
    m1, s1, t1, n1 = p
    m2, s2, t2, n2 = q
    m = max(m1, m2)
    if m == -math.inf:
        return -math.inf, 0.0, 0.0, n1 + n2
    w1 = math.exp(m1 - m) if m1 > -math.inf else 0.0
    w2 = math.exp(m2 - m) if m2 > -math.inf else 0.0
    return m, s1 * w1 + s2 * w2, t1 * w1 * w1 + t2 * w2 * w2, n1 + n2


def _finish(p) -> LogMeanResult:
    m, s, t, n = p
    if s <= 0.0:
        raise DegenerateEstimate("all kernel samples vanished")
    mu = s / n
    var = max(t / n - mu * mu, 0.0) * (n / max(n - 1, 1))
    se_log = math.sqrt(var / n) / mu
    return LogMeanResult(m + math.log(mu), se_log, n, s * s / t)


def _run_chunks(fn, fixed: tuple, total: int, chunk: int, jobs: int, chunksize: int) -> list:
    """fn(*fixed, index, size) over consecutive chunks of ``total`` items, in chunk order.

    With jobs > 1 the chunks run in a process pool; the results, and their
    order, do not depend on the worker count.
    """
    if jobs < 1:
        raise ValueError(f"jobs (--jobs) must be >= 1, got {jobs!r}")
    n_chunks = (total + chunk - 1) // chunk
    args = [(*fixed, i, min(chunk, total - i * chunk)) for i in range(n_chunks)]
    if jobs > 1 and n_chunks > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*args), chunksize=chunksize))
    return [fn(*a) for a in args]


def _kernel_chunk(prior: Prior, counts: PatternCounts, seed: int, index: int, size: int):
    rng = _chunk_rng(seed, _TAG_KERNEL, index)
    te, ti = prior.sample(rng, size)
    lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
    return _partials(kernel_log_values(counts, lp0, lp1, lp2, (1, 2, 3)))


def _log_weights(tree_weights) -> np.ndarray:
    """Normalized log tree weights; rejects anything but three finite positive numbers."""
    w = np.asarray(tree_weights, dtype=float)
    if w.shape != (3,) or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("tree_weights must be three finite, strictly positive numbers")
    return np.log(w / w.sum())


def _posterior_probs(log_w: np.ndarray, log_epi: np.ndarray) -> np.ndarray:
    """Probability vector proportional to w_i E[K_i], from log w and log E[K]."""
    log_post = log_w + log_epi
    log_post -= np.max(log_post)
    post = np.exp(log_post)
    return post / post.sum()


def tree_posterior(
    prior: Prior,
    counts: PatternCounts,
    tree_weights,
    n_samples: int,
    seed: int,
    jobs: int = 1,
) -> PosteriorEstimate:
    """Posterior over the three resolved trees: posterior_i ~ w_i E[K_i].

    Weights must be strictly positive; they are normalized internally, so
    common rescaling changes nothing.  All trees share the same draws.
    """
    log_w = _log_weights(tree_weights)
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    parts = _run_chunks(
        _kernel_chunk, (prior, counts, seed), n_samples, DRAW_CHUNK, jobs, chunksize=4
    )
    totals = parts[0]
    for part in parts[1:]:
        totals = [_merge(a, b) for a, b in zip(totals, part)]
    results = [_finish(p) for p in totals]
    log_epi = np.array([r.log_mean for r in results])
    stderr = np.array([r.stderr for r in results])
    ess = np.array([r.ess for r in results])
    return PosteriorEstimate(log_epi, stderr, _posterior_probs(log_w, log_epi), n_samples, ess)


# ---------------------------------------------------------------------------
# the paradox scan
# ---------------------------------------------------------------------------

# Rounding allowance of the scan's skip rule (see _losing_trees).  A kernel
# row entry is a sum of three products count * log P with the counts summing
# to n and |log P| <= 745 wherever it is finite (P >= 2^-1074), so it is off
# by at most 3 ulps of n * 745 < 2.5e-13 n; the row maximum, log E[K] and the
# log posterior carry at most one more ulp of that size each, and two trees
# are compared: under 1.2e-12 n in all.  The log-sum-exp sums and the final
# normalisation add under 1e-12 relative.  4e-12 n + 1e-9 covers both.
_SKIP_MARGIN_PER_SITE = 4e-12
_SKIP_MARGIN_FIXED = 1e-9


def _losing_trees(log_w: np.ndarray, epsilon: float, n: int) -> tuple[int, ...]:
    """Trees j in {2, 3} whose count n_j >= n_1 rules out a scan hit at length n.

    P1 >= P2 for every draw (the log1p argument of P1 is x - 2w >= -x), so
    n_j >= n_1 gives K_1 <= K_j draw by draw, hence E[K_1] <= E[K_j] and the
    posterior of tree 1 is at most w_1 / (w_1 + w_j).  That bound must lie
    below 1 - epsilon by the rounding allowance above.
    """
    limit = math.log1p(-epsilon) - (_SKIP_MARGIN_FIXED + _SKIP_MARGIN_PER_SITE * n)
    return tuple(
        j for j in (2, 3) if log_w[0] - np.logaddexp(log_w[0], log_w[j - 1]) < limit
    )


def _scan_chunk(prior, t, epsilon, n, n_samples, log_w, seed, n_index, chunk, n_trials):
    rng = _chunk_rng(seed, _TAG_SCAN, n_index * 1_000_003 + chunk)
    draws = rng.multinomial(n, star_probs(t).array, size=n_trials)
    losing = _losing_trees(log_w, epsilon, n)
    hits = 0
    for k, draw in enumerate(draws):
        if any(draw[j] >= draw[1] for j in losing):
            continue  # a certain miss
        trial_rng = _chunk_rng(seed, _TAG_SCAN_PRIOR, n_index, chunk * TRIAL_CHUNK + k)
        te, ti = prior.sample(trial_rng, n_samples)
        counts = PatternCounts(*map(int, draw))
        lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
        block = kernel_log_values(counts, lp0, lp1, lp2, (1, 2, 3))
        log_epi = np.array([_finish(p).log_mean for p in _partials(block)])
        post = _posterior_probs(log_w, log_epi)
        if post[0] >= 1.0 - epsilon:
            hits += 1
    return hits


def paradox_scan(
    prior: Prior,
    t: float,
    epsilon: float,
    n_list,
    trials: int,
    n_samples: int,
    seed: int,
    tree_weights=(1.0, 1.0, 1.0),
    jobs: int = 1,
) -> list[ParadoxResult]:
    """Estimate delta(n) = P(posterior of tree 1 >= 1 - epsilon) on star data.

    For each sequence length n, ``trials`` count vectors are simulated from
    the star tree at edge length t and the posterior is estimated with
    ``n_samples`` prior draws per trial; the hit fraction is reported with
    a 95% Wilson interval.

    A trial whose counts have n_j >= n_1 for a tree j in {2, 3} with
    w_1 / (w_1 + w_j) below 1 - epsilon (by a rounding allowance that
    grows with n) is counted as a miss without computing its posterior:
    tree 1's posterior is at most w_1 / (w_1 + w_j) there.
    A skipped trial draws only its counts; a computed trial draws its
    prior sample from the substream of (seed, n index, trial index), so
    a trial's outcome does not depend on which other trials were skipped,
    nor on ``jobs``.  A skipped trial is not checked for degeneracy:
    ``DegenerateEstimate`` is raised only by a trial whose posterior is
    computed.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_samples < 1:
        raise ValueError(f"n_samples (--samples) must be >= 1, got {n_samples!r}")
    n_list = [int(v) for v in n_list]
    ascending = all(a < b for a, b in zip(n_list, n_list[1:]))
    if not ascending or any(not 1 <= v <= _N_MAX for v in n_list):
        raise ValueError("n_list (--n-list) must be ascending integers in [1, 2**63 - 1]")
    log_w = _log_weights(tree_weights)

    results = []
    for n_index, n in enumerate(n_list):
        fixed = (prior, t, epsilon, n, n_samples, log_w, seed, n_index)
        hits = sum(_run_chunks(_scan_chunk, fixed, trials, TRIAL_CHUNK, jobs, chunksize=1))
        lo, hi = wilson_interval(hits, trials)
        results.append(ParadoxResult(n, epsilon, hits / trials, lo, hi, trials))
    return results
