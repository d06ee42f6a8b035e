"""Posteriors over resolved trees from star-tree data.

The posterior ratio between two resolved trees given pattern counts is the
ratio of prior expectations of the likelihood kernels

    K_i = P0^n0 * P1^n_i * P2^(n - n0 - n_i),        i in {1, 2, 3}.

``tree_posterior`` integrates each E[K_i] deterministically, by a product
rule over (Se, Ti) placed around the kernel's mode (``log_expected_kernel``);
it draws nothing.  Kernels underflow at sequence lengths of a few hundred,
so everything happens in log scale.

The paradox scan still estimates E[K_i] by averaging over prior draws: each
row of log-kernels is reduced by ``_shifted_exp`` (the one log-mean-exp
reduction, shared with ``claims``).  Reproducibility contract: work is
split into fixed-size chunks of trials; each chunk draws its counts from a
substream seeded by (seed, tag, chunk key), and a trial whose posterior is
computed draws its prior sample from its own substream, seeded by (seed,
tag, n index, trial index).  Results are therefore bit-identical for any
worker count.  The three trees share draws (common random numbers), which
makes equal counts give exactly equal estimates and shrinks the variance
of ratios.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import _N_MAX, PatternCounts, log_pattern_prob_arrays, star_probs
from .priors import Prior, _gauss_legendre

__all__ = [
    "DegenerateEstimate",
    "PosteriorEstimate",
    "ParadoxResult",
    "simulate_counts",
    "kernel_log_values",
    "log_expected_kernel",
    "tree_posterior",
    "paradox_scan",
    "wilson_interval",
]

TRIAL_CHUNK = 64

_TAG_SCAN = 2
_TAG_SCAN_PRIOR = 3
# The scan's counts stream of length index k, chunk c has key k * _SCAN_STRIDE + c,
# so one length may have at most _SCAN_STRIDE chunks before it reaches the next's keys.
_SCAN_STRIDE = 1_000_003
_TRIALS_MAX = TRIAL_CHUNK * _SCAN_STRIDE


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


def kernel_log_values(
    counts: PatternCounts, lp0: np.ndarray, lp1: np.ndarray, lp2: np.ndarray, trees
) -> np.ndarray:
    """Log-kernels of the given trees over arrays of per-draw log pattern probabilities.

    Returns a ``(len(trees), N)`` block, row k for tree ``trees[k]``: the log of
    P0^n0 P1^n_tree P2^rest, rest = n - n0 - n_tree, summed in that order
    (n0 log P0, then n_tree log P1, then rest log P2).  Terms with a zero
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
class PosteriorEstimate:
    log_epi: np.ndarray     # per-tree log E[K_i]
    error: np.ndarray       # per-tree error estimates of log E[K_i] (see log_expected_kernel)
    posterior: np.ndarray   # P(tree i | counts), sums to 1

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
# the log-mean-exp reduction
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


def _shifted_exp(rows: np.ndarray):
    """(m, a, s) of a ``(k, N)`` block of logs: per row its maximum m, a = exp(row - m)
    and s = a.sum(axis=1).  The log-mean of row i is m[i] + log(s[i] / N).

    Raises ``DegenerateEstimate`` on a row that is -inf throughout.
    """
    m = np.max(rows, axis=1)
    if np.any(m == -math.inf):
        raise DegenerateEstimate("all kernel samples vanished")
    a = _exp_inplace(rows - m[:, None])
    return m, a, a.sum(axis=1)


def _run_chunks(fn, fixed: tuple, total: int, chunk: int, jobs: int) -> list:
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
            return list(pool.map(fn, *zip(*args)))
    return [fn(*a) for a in args]


def _log_weights(tree_weights) -> np.ndarray:
    """Normalized log tree weights; rejects anything but three finite positive numbers."""
    w = np.asarray(tree_weights, dtype=float)
    if w.shape != (3,) or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("tree_weights must be three finite, strictly positive numbers")
    w = w / np.max(w)  # three weights near the float maximum would overflow the sum
    return np.log(w / math.fsum(w))


def _posterior_probs(log_w: np.ndarray, log_epi: np.ndarray) -> np.ndarray:
    """Probability vector proportional to w_i E[K_i], from log w and log E[K].

    The sums are exactly rounded (fsum), so permuting the trees permutes the
    result exactly.
    """
    log_post = log_w + log_epi
    log_post -= np.max(log_post)
    post = np.exp(log_post)
    return post / math.fsum(post)


# ---------------------------------------------------------------------------
# deterministic E[K_i]
# ---------------------------------------------------------------------------

# With x = Se = exp(-4 Te) and v = 1 - exp(-4 Ti), the kernel of a tree with
# counts (n0, ni, m = n - n0 - ni) is
#
#     K = ((1 + 3x - 2xv)/4)^n0 ((1 - x + 2xv)/4)^ni ((1 - x)/4)^m.
#
# Se has the CDF x^c, c = rate_e / 4, so u = x^c is uniform: the Se rule is
# Gauss-Legendre in u.  The Ti rule is a trapezoid Stieltjes sum
# sum (f(a) + f(b))/2 (F(b) - F(a)) of the Se integrals f over bins in v,
# extrapolated over bin halvings (Romberg).  The prior's exact CDF F is read
# at every edge, all edges in one array call (and the sub-bins of refined
# groups in one more), so each bin carries its exact mass F(b) - F(a).
# Both rules cover windows set by a Gaussian model of log K: its Taylor
# parabola at the maximum, or at the boundary where the maximum lies on
# one.  The Ti mass left outside the bins is added at Ti = 0 and at
# Ti = inf, or at the top of the prior's Ti support where the Ti window
# ends there (see _ti_edges).  A rule and its doubled rule (twice the Se
# nodes, half the bin width, one more halving) are evaluated; the doubled
# one is reported, and their difference is its error estimate.

_LOG4 = math.log(4.0)
_WIDTH = 10.0  # windows reach 10 model standard deviations: 50 nats below the peak
_SE_NODES = 24  # Gauss-Legendre nodes of the Se rule; the doubled rule has 48
_BINS_PER_UNIT = 2  # coarsest Ti bins per unit of the kernel's Ti scale; see _ti_edges
_V_MIN = 1e-12  # graded bins towards Ti = 0 stop at this fraction of that scale
_LEVELS = 4  # trapezoid sums of the doubled Ti rule: 1, 2, 4 and 8 bins per group
_REFINE = 16  # sub-bins per bin where the prior's mass is irregular (see _irregular_groups)
_BLOCK = 1024  # Ti nodes per kernel block: at most 65536 kernel values at once


def _window(mode, sd, lo: float, hi: float):
    """The part of [lo, hi] where the Gaussian log-model N(mode, sd^2) lies within
    _WIDTH^2 / 2 of its maximum over [lo, hi]; ``mode`` may lie outside [lo, hi]."""
    reach = _WIDTH * sd
    a = np.where(mode > hi, mode - np.hypot(mode - hi, reach), mode - reach)
    b = np.where(mode < lo, mode + np.hypot(lo - mode, reach), mode + reach)
    return np.clip(a, lo, hi), np.clip(b, lo, hi)


def _se_model(n0: int, ni: int, m: int, v: np.ndarray):
    """Gaussian model (mode, sd) of log K in x at each v; the mode may lie outside [0, 1].

    log K is concave in x.  Its derivative times (1 + al x)(1 + be x)(1 - x),
    with al = 3 - 2v and be = 2v - 1, is a quadratic q with q(1) <= 0, so
    for q(0) > 0 the maximum is q's smallest root in (0, 1), or x = 1 when
    m = 0 and q's other root lies beyond 1; for q(0) <= 0 it is x = 0.  A
    maximum on the boundary gets the Taylor parabola there, whose vertex
    lies outside; a kernel flat in x gets an infinite sd.
    """
    y = 1.0 - v
    al, be = 3.0 - 2.0 * v, 2.0 * v - 1.0
    a2 = -(n0 + ni + m) * al * be
    a1 = -2.0 * y * (n0 * al - ni * be) - 2.0 * m
    a0 = n0 * al + ni * be - m
    with np.errstate(divide="ignore", invalid="ignore"):
        if m > 0:  # log K falls to -inf at x = 1
            disc = np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * a0, 0.0))
            roots = [2.0 * a0 / (-a1 - r) for r in (disc, -disc)]
            x = np.minimum(*(np.where((r > 0.0) & (r < 1.0), r, 1.0) for r in roots))
            x = np.minimum(x, 1.0 - 2.0**-53)
        else:  # q = (1 - x)(a0 - a2 x)
            r = a0 / a2
            x = np.where((r > 0.0) & (r < 1.0), r, 1.0)
    x = np.where(a0 > 0.0, x, 0.0)
    slope, curvature = np.zeros(v.shape), np.zeros(v.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = ((n0, al / (1.0 + al * x)), (ni, be / (1.0 + be * x)), (m, -1.0 / (1.0 - x)))
        for count, d in terms:
            if count > 0:
                slope += count * d
                curvature += count * d * d
        edge = (x == 0.0) | (x == 1.0)
        mode = np.where(edge & (curvature > 0.0), x + slope / curvature, x)
        return mode, 1.0 / np.sqrt(curvature)


def _log_se_integrals(n0: int, ni: int, m: int, v: np.ndarray, c: float, k: int) -> np.ndarray:
    """log f(v) = log of the integral of K(x, v) over u = x^c in [0, 1], at each v.

    Gauss-Legendre with k nodes on the image in u of each v's window in x.
    """
    nodes, weights = _gauss_legendre(k)
    out = np.empty(v.shape)
    for lo in range(0, v.size, _BLOCK):
        vb = v[lo : lo + _BLOCK]
        xa, xb = _window(*_se_model(n0, ni, m, vb), 0.0, 1.0)
        ua, ub = xa**c, xb**c
        half = 0.5 * (ub - ua)
        u = (ua + half)[:, None] + half[:, None] * nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            if c == 1.0:
                x, rest = u, 1.0 - u
            else:
                log_x = np.where(u > 0.0, np.log(u) / c, -math.inf)
                x, rest = np.exp(log_x), -np.expm1(log_x)
            two_xv = 2.0 * x * vb[:, None]
            log_k = np.full(u.shape, -(n0 + ni + m) * _LOG4)
            if n0 > 0:
                log_k += n0 * np.log1p(3.0 * x - two_xv)
            if ni > 0:
                log_k += ni * np.log(rest + two_xv)
            if m > 0:
                log_k += m * np.log(rest)
            top = np.max(log_k, axis=1)
            top = np.where(np.isfinite(top), top, 0.0)
            total = np.exp(log_k - top[:, None]) @ weights
            out[lo : lo + _BLOCK] = top + np.log(total * half)
    return out


def _ti_model(n0: int, ni: int, m: int) -> tuple[float, float]:
    """Gaussian model (mode, sd) of log K in v = 1 - y; the mode may lie outside [0, 1].

    With x held at its maximum 1 - 2m/n, log K = n0 log(a + 2xy) +
    ni log(a - 2xy) + const, a = 1 + x, is concave in y.  The model is its
    Taylor parabola at the vertex clipped to [0, 1], with the spread that
    x's own sampling error carries into y added to the sd.
    """
    n = n0 + ni + m
    x = max(1.0 - 2.0 * m / n, 1e-3)
    a = 1.0 + x
    y = min(max(a * (n0 - ni) / (2.0 * x * (n0 + ni)), 0.0), 1.0) if n0 + ni else 0.5
    slope = curvature = 0.0
    for count, sign in ((n0, 1.0), (ni, -1.0)):
        if count:  # a - 2xy vanishes only where ni = 0 puts the vertex at y = 1
            d = sign * 2.0 * x / (a + sign * 2.0 * x * y)
            slope += count * d
            curvature += count * d * d
    if curvature == 0.0:  # K does not depend on Ti
        return 0.5, math.inf
    sd_x = 2.0 * math.sqrt(m / n * (1.0 - m / n) / n)
    return 1.0 - (y + slope / curvature), math.hypot(1.0 / math.sqrt(curvature), y * sd_x / x)


def _ti_edges(n0: int, ni: int, m: int, top: float) -> tuple[np.ndarray, float]:
    """Edges in v of the finest Ti bins (2^(_LEVELS - 1) times the coarsest rule's
    bins), and the v at which the mass above the last edge is weighted.

    ``top`` is v at the top of the prior's Ti support.  The window comes
    from ``_ti_model``, within [0, 1]; where the model's mode lies above
    ``top``, within [0, top (1 - 1e-9)] instead, with the mass above it
    (an atom at the top included) weighted at ``top`` rather than at
    Ti = inf.  Bins are uniform at the kernel's scale in v: the model's
    sd, or the shorter decay length sd^2 / d when the vertex lies a
    distance d outside the window's range.  A window that reaches Ti = 0
    is graded there instead, uniform in g = v/scale + log(v/scale): a
    prior CDF may behave like Ti^alpha near 0, so the bins shrink in
    proportion to v below the scale.
    """
    mode, sd = _ti_model(n0, ni, m)
    ceiling, end = (top, top * (1.0 - 1e-9)) if mode > top else (1.0, 1.0)
    lo, hi = (float(b) for b in _window(mode, sd, 0.0, end))
    outside = max(-mode, mode - end, 0.0)
    scale = 1.0 if math.isinf(sd) else min(sd * sd / math.hypot(outside, sd), 1.0)
    if lo > 0.0:
        bins = max(math.ceil(_BINS_PER_UNIT * (hi - lo) / scale), 8)
        return np.linspace(lo, hi, 2 ** (_LEVELS - 1) * bins + 1), ceiling
    g_lo = _V_MIN + math.log(_V_MIN)
    g_hi = hi / scale + math.log(hi / scale)
    bins = max(math.ceil(_BINS_PER_UNIT * (g_hi - g_lo)), 8)
    g = np.linspace(g_lo, g_hi, 2 ** (_LEVELS - 1) * bins + 1)
    # e^z + z = g for z = log(v/scale): Newton from above converges monotonically
    z = np.where(g > 1.0, np.log(np.maximum(g, 1.0)), g)
    for _ in range(12):
        z -= (np.exp(z) + z - g) / (np.exp(z) + 1.0)
    v = scale * np.exp(z)
    v[0], v[-1] = _V_MIN * scale, hi
    return v, ceiling


def _log_ti_cdf(prior: Prior, v: np.ndarray) -> np.ndarray:
    """log P(Ti <= t) at t = -log(1 - v)/4 for each v (v = 1 is Ti = inf), in one call."""
    with np.errstate(divide="ignore"):
        ti = -np.log1p(-v) / 4.0
    return prior.log_ti_cdf(ti)


def _romberg_weights(levels: int) -> np.ndarray:
    """Weights of trapezoid sums with 1, 2, 4, ... bins (coarsest first) in Romberg's
    extrapolation over ``levels`` halvings, which cancels the h^2, h^4, ... terms."""
    rows = list(np.eye(levels))
    for col in range(1, levels):
        rows = [(4.0**col * hi - lo) / (4.0**col - 1.0) for lo, hi in zip(rows, rows[1:])]
    return rows[0]


def _romberg_groups(f: np.ndarray, cdf: np.ndarray, levels: int) -> np.ndarray:
    """Per group of 2^(levels - 1) bins, Romberg's extrapolation of its trapezoid
    Stieltjes sums (f(a) + f(b))/2 (F(b) - F(a)) over 1, 2, 4, ... bins."""
    sums = []
    for j in range(levels):
        step = 2 ** (levels - 1 - j)
        trap = (f[:-step:step] + f[step::step]) * np.diff(cdf[::step]) / 2.0
        sums.append(trap.reshape(-1, 2**j).sum(axis=1))
    return _romberg_weights(levels) @ np.array(sums)


def _irregular_groups(f: np.ndarray, cdf: np.ndarray, total: float, size: int) -> np.ndarray:
    """Groups of ``size`` bins holding a bin whose mass is irregular and matters.

    Under a smooth CDF a bin's mass is the geometric mean of its
    neighbours' to within a few percent; a mass 10% away from it marks an
    atom or a kink (a CDF step a few atoms to a bin, or the end of a
    support), where extrapolation is unsound.  It matters when its
    first-order bound, mass times half the change of f across the bin,
    exceeds 1e-13 of the total.
    """
    mass = np.diff(cdf)
    near = np.sqrt(np.concatenate([[mass[0]], mass[:-1]]) * np.concatenate([mass[1:], [mass[-1]]]))
    odd = np.abs(mass - near) > 0.1 * np.maximum(mass, near)
    matters = mass * np.abs(np.diff(f)) > 2e-13 * total
    return (odd & matters).reshape(-1, size).any(axis=1)


def _ti_rule(log_f: np.ndarray, cdf: np.ndarray, tails: np.ndarray, levels: int, refine=None):
    """log of the Ti rule's sum, and a bound on its tail error relative to that sum.

    ``log_f`` holds log f at Ti = 0, at the upper tail's weight point, then
    at the edges; ``cdf`` holds the exact CDF at the edges, so each bin
    carries its exact mass; ``tails`` are the masses below the first and
    above the last edge.  f is unimodal, so over each tail it lies between
    its values at the tail's two ends.  With ``refine = (v, log_f_at,
    log_cdf_at)``, each irregular group of bins (see ``_irregular_groups``)
    is summed by the trapezoid rule on _REFINE sub-bins per bin instead of
    by extrapolation.
    """
    top = float(np.max(log_f))
    if top == -math.inf:
        raise DegenerateEstimate("the kernel vanished at every rule node")
    f_ends, f = np.exp(log_f[:2] - top), np.exp(log_f[2:] - top)
    groups = _romberg_groups(f, cdf, levels)
    tail = float(tails @ f_ends)
    if refine is not None:
        size = 2 ** (levels - 1)
        flagged = np.flatnonzero(_irregular_groups(f, cdf, float(groups.sum()) + tail, size))
        if flagged.size:
            groups[flagged] = _refined_groups(flagged, size, f, cdf, top, *refine)
    inner = float(groups.sum())
    if inner < 0.0:  # bins too coarse to extrapolate; the error estimate shows it
        inner = float(np.dot(f[:-1] + f[1:], np.diff(cdf))) / 2.0
    total = inner + tail
    if total <= 0.0:
        raise DegenerateEstimate("the kernel vanished at every rule node")
    tail_error = tails[0] * abs(f[0] - f_ends[0]) + tails[1] * abs(f[-1] - f_ends[1])
    return top + math.log(total), float(tail_error) / total


def _refined_groups(groups, size, f, cdf, top, v, log_f_at, log_cdf_at):
    """Trapezoid Stieltjes sums of the given groups of bins on _REFINE sub-bins per bin."""
    bins = (size * groups[:, None] + np.arange(size)).ravel()
    frac = np.arange(1, _REFINE) / _REFINE
    inner = v[bins, None] + (v[bins + 1] - v[bins])[:, None] * frac
    sub_f = np.exp(log_f_at(inner.ravel()) - top).reshape(inner.shape)
    sub_cdf = np.exp(log_cdf_at(inner.ravel())).reshape(inner.shape)
    sub_f = np.hstack([f[bins, None], sub_f, f[bins + 1, None]])
    sub_cdf = np.hstack([cdf[bins, None], sub_cdf, cdf[bins + 1, None]])
    sums = ((sub_f[:, :-1] + sub_f[:, 1:]) * np.diff(sub_cdf, axis=1)).sum(axis=1) / 2.0
    return sums.reshape(-1, size).sum(axis=1)


def log_expected_kernel(prior: Prior, n0: int, ni: int, m: int) -> tuple[float, float]:
    """log E[P0^n0 P1^ni P2^m] under the prior (log E[K_i] at ni = n_i, m = n - n0 - n_i),
    and an estimate of its absolute error; the counts are nonnegative integers, not all 0.

    Deterministic: a product rule over (Se, Ti) placed around the kernel's
    mode (see the comment above ``_WIDTH``).  The error estimate is the
    difference from the rule with half the Se nodes and twice the Ti bin
    width, plus a bound on the Ti mass outside the bins.  Raises
    ``DegenerateEstimate`` when the kernel vanishes at every rule node.
    """
    if not all(int(k) == k >= 0 for k in (n0, ni, m)) or n0 + ni + m == 0:
        raise ValueError(f"counts (n0, ni, m) must be nonnegative integers, not all 0: {n0, ni, m}")
    c = prior.rate_e / 4.0
    v, ceiling = _ti_edges(n0, ni, m, -math.expm1(-4.0 * prior.ti_max))
    ends = np.array([0.0, ceiling])

    def log_f_at(k):
        return lambda nodes: _log_se_integrals(n0, ni, m, nodes, c, k)

    log_cdf = _log_ti_cdf(prior, v)
    cdf = np.exp(log_cdf)
    tails = np.array([cdf[0], -math.expm1(log_cdf[-1])])
    coarse, _ = _ti_rule(
        log_f_at(_SE_NODES)(np.concatenate([ends, v[::2]])), cdf[::2], tails, _LEVELS - 1
    )
    fine, tail_error = _ti_rule(
        log_f_at(2 * _SE_NODES)(np.concatenate([ends, v])), cdf, tails, _LEVELS,
        refine=(v, log_f_at(2 * _SE_NODES), lambda nodes: _log_ti_cdf(prior, nodes)),
    )
    return fine, abs(fine - coarse) + tail_error


def tree_posterior(
    prior: Prior, counts: PatternCounts, tree_weights=(1.0, 1.0, 1.0)
) -> PosteriorEstimate:
    """Posterior over the three resolved trees: posterior_i ~ w_i E[K_i].

    Weights must be strictly positive; they are normalized internally, so
    common rescaling changes nothing.  Each log E[K_i] comes from
    ``log_expected_kernel``: trees with equal counts get equal values, and
    permuting (n1, n2, n3) permutes the posterior exactly.
    """
    log_w = _log_weights(tree_weights)
    n0, n = counts.n0, counts.n
    rows = [log_expected_kernel(prior, n0, ni, n - n0 - ni) for ni in counts.array[1:].tolist()]
    log_epi = np.array([value for value, _ in rows])
    error = np.array([err for _, err in rows])
    return PosteriorEstimate(log_epi, error, _posterior_probs(log_w, log_epi))


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
    rng = _chunk_rng(seed, _TAG_SCAN, n_index * _SCAN_STRIDE + chunk)
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
        m, _, s = _shifted_exp(kernel_log_values(counts, lp0, lp1, lp2, (1, 2, 3)))
        log_epi = np.array([mi + math.log(si / n_samples) for mi, si in zip(m, s)])
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
    a 95% Wilson interval.  ``trials`` may not exceed TRIAL_CHUNK *
    1_000_003 (64,000,192), where one length's counts streams would run
    into the next length's.

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
    if not 1 <= trials <= _TRIALS_MAX:
        raise ValueError(f"trials (--trials) must be in [1, {_TRIALS_MAX}], got {trials!r}")
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
        hits = sum(_run_chunks(_scan_chunk, fixed, trials, TRIAL_CHUNK, jobs))
        lo, hi = wilson_interval(hits, trials)
        results.append(ParadoxResult(n, epsilon, hits / trials, lo, hi, trials))
    return results
