"""Brute-force oracles shared by the tests and the fixture generator.

Also the reference forms the tests compare the package against: the
per-draw kernel factorizations behind the band-advantage argument, the
literal products and sums behind the moment lemma's closed forms, and a
distribution whose tail is exactly a ``TailParams`` series.  No command
runs them, so they live here rather than in the package.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from starparadox.claims import log_mu
from starparadox.model import (
    PatternCounts,
    delta_stats,
    log_pattern_prob_arrays,
    star_probs,
    zeta,
)
from starparadox.moments import TailParams, _frac
from starparadox.posterior import DegenerateEstimate, _chunk_rng, _run_chunks, kernel_log_values
from starparadox.priors import PowerPrior, QuadratureError, TamePrior, _discrete_table, h_aux


def band_event_probability(n: int, t: float, c: float) -> float:
    """Exact P(counts in F_c) by enumerating the integer box.

    The event is so deep in the joint tail (about 4e-37 at t=0.1, c=1.5)
    that sampling can never see it; summing the multinomial pmf over the
    box is exact and fast.
    """
    q = star_probs(t)
    q0, q1 = q.p0, q.p1
    rn = np.sqrt(n)
    n0s = np.arange(int(np.ceil(q0 * n - c * rn)), int(np.floor(q0 * n)) + 1)
    lgn = gammaln(n + 1)
    total = 0.0
    for n0 in n0s:
        base = (n - n0) / 3.0
        lo = int(np.ceil(base - 2 * c * rn))
        hi = int(np.floor(base - c * rn))
        if hi < max(lo, 0):
            continue
        n2 = np.arange(max(lo, 0), hi + 1)
        g2, g3 = np.meshgrid(n2, n2, indexing="ij")
        n1 = n - n0 - g2 - g3
        ok = n1 >= 0
        ll = (
            lgn
            - gammaln(n0 + 1)
            - gammaln(n1 + 1)
            - gammaln(g2 + 1)
            - gammaln(g3 + 1)
            + n0 * np.log(q0)
            + (n - n0) * np.log(q1)
        )
        total += float(np.exp(ll[ok]).sum())
    return total


def log_array(probs) -> np.ndarray:
    """log of (p0, p1, p2, p3) of a ``PatternProbs``; -inf entries where the probability is 0."""
    with np.errstate(divide="ignore"):
        return np.log(probs.array)


def log_likelihood_kernel(counts, lp, tree: int) -> float:
    """log of P0^n0 P1^n_tree P2^(n - n0 - n_tree) from the pattern log-probabilities
    ``lp`` (as ``log_array``), one draw at a time: the reference formula for
    ``kernel_log_values``.  -inf when a zero-probability pattern carries positive
    count; zero counts contribute nothing even against vanishing probabilities."""
    n_tree = counts.array[tree]
    rest = counts.n - counts.n0 - n_tree
    total = 0.0
    for count, logp in ((counts.n0, lp[0]), (n_tree, lp[1]), (rest, lp[2])):
        if count > 0:
            total += count * logp
    return total


# ---------------------------------------------------------------------------
# per-draw kernel factorizations: through the centered statistics, and
# through mu_t, U_t and W_j on the corner box
# ---------------------------------------------------------------------------

def log_u_statistic(t: float, lp0, lp1, lp2) -> np.ndarray:
    """log U_t = q0 log P0 + q1 log P1 + 2 q1 log P2 - log mu_t per draw."""
    q = star_probs(t)
    return q.p0 * lp0 + q.p1 * lp1 + 2.0 * q.p1 * lp2 - log_mu(t)


def log_w_statistic(counts: PatternCounts, t: float, lp0, lp1, lp2, j: int) -> np.ndarray:
    """log W_j = d0 log P0 + (dj - d0/3) log P1 + (d1 + dk - 2 d0/3) log P2."""
    if j not in (2, 3):
        raise ValueError("j must be 2 or 3")
    k = 5 - j
    d = delta_stats(counts, t)
    dj = d.d2 if j == 2 else d.d3
    dk = d.d2 if k == 2 else d.d3
    return d.d0 * lp0 + (dj - d.d0 / 3.0) * lp1 + (d.d1 + dk - 2.0 * d.d0 / 3.0) * lp2


def kernel_log_by_deltas(counts: PatternCounts, t: float, lp0, lp1, lp2, tree: int) -> np.ndarray:
    """Kernel in centered form: n0 log P0 + s (log P1 + 2 log P2)
    + d_tree sqrt(n) (log P1 - log P2), with s = (n - n0)/3."""
    d = delta_stats(counts, t)
    d_tree = (d.d1, d.d2, d.d3)[tree - 1]
    s = (counts.n - counts.n0) / 3.0
    rn = math.sqrt(counts.n)
    return counts.n0 * lp0 + s * (lp1 + 2.0 * lp2) + d_tree * rn * (lp1 - lp2)


def kernel_log_by_corner(counts: PatternCounts, t: float, lp0, lp1, lp2, j: int) -> np.ndarray:
    """Kernel in corner form: n (log mu_t + log U_t) + sqrt(n) log W_j."""
    n = counts.n
    return n * (log_mu(t) + log_u_statistic(t, lp0, lp1, lp2)) + math.sqrt(n) * log_w_statistic(
        counts, t, lp0, lp1, lp2, j
    )


def uv_variables(te, ti) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw (U, V): U = (P1 - P2)/(1 - P0) and V = zeta(U)."""
    x = np.exp(-4.0 * np.asarray(te, dtype=float))
    w = np.exp(-4.0 * np.asarray(ti, dtype=float))
    si = 1.0 + 2.0 * w
    u = x * (3.0 - si) / (3.0 - x * si)
    return u, zeta(u)


def corner_draws(t: float, n: int, rng: np.random.Generator, size: int):
    """Points of the corner box {ti <= 1/n, t <= te <= t + 1/n} (uniform)."""
    te = t + rng.random(size) / n
    ti = rng.random(size) / n
    return te, ti


# ---------------------------------------------------------------------------
# the moment lemma's factors as literal products and sums
# ---------------------------------------------------------------------------

def deflation_product_direct(eps: float, t: float, alpha: float) -> float:
    """prod_{l=1}^{[t]+1} (1 - eps/(alpha+eps+{t}+l)) as the literal product:
    the reference for ``moments.deflation_product``'s closed form."""
    ft, it = _frac(t)
    ell = np.arange(1, it + 2, dtype=float)
    return float(np.prod(1.0 - eps / (alpha + eps + ft + ell)))


def deflation_log_bounds(eps: float, t: float, alpha: float) -> tuple[float, float]:
    """The sums (S, T) with exp(-S-T) <= deflation_product <= exp(-S)."""
    ft, it = _frac(t)
    ell = np.arange(1, it + 2, dtype=float)
    den = alpha + eps + ft + ell
    return float(np.sum(eps / den)), float(np.sum(eps * eps / (den * den)))


def rising_factor(t: float, alpha: float) -> float:
    """(t+alpha)(t+alpha-1)...(t+{alpha}) / Gamma(alpha+1)."""
    fa, _ = _frac(alpha)
    return math.exp(
        math.lgamma(t + alpha + 1.0) - math.lgamma(t + fa) - math.lgamma(alpha + 1.0)
    )


def series_moment_quad(params: TailParams, t: float, sign: int) -> float:
    """Quadrature of the integral that ``series_moment_closed`` takes in closed form."""
    return _quad(lambda u: float(params.series_tail(u ** (1.0 / t), sign=sign)), 0.0, 1.0)


class ExpansionTailV:
    """A distribution whose tail is exactly the certified part of a TailParams.

    Construction validates that the series is a genuine tail (values in
    [0, 1], nonincreasing, 1 at v=0 within clipping) on a dense grid.
    """

    def __init__(self, params: TailParams):
        self.params = params
        grid = np.linspace(0.0, 1.0, 4001)
        vals = params.series_tail(grid)
        if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
            raise ValueError("series tail escapes [0, 1]")
        if np.any(np.diff(vals) > 1e-12):
            raise ValueError("series tail is not nonincreasing on [0, 1]")

    def tail(self, y):
        return np.clip(self.params.series_tail(1.0 - np.asarray(y, dtype=float)), 0.0, 1.0)


def discrete_zeta_moment(prior, z: float, t: float, head: int = 64) -> float:
    """M_t of ``ConditionalZetaV(prior, z)`` for a ``DiscretePrior``, as a sum over G's steps.

    For z > 1 + 2 exp(-4) and s below s_sat = (3 - z)/2 < z, G(z, .) is a step function:
    it jumps by (n/n_sat)^-b - ((n+1)/n_sat)^-b at s_n = z h^-1(n^-a) for every n >= n_sat,
    with h^-1(k) = expm1(4k) / (expm1(4k) + 3) the inverse of ``h_aux``.  With F(s) = 1 -
    zeta(2s/(3 - z))^t, integration by parts gives M_t = 1 - sum_n jump_n F(s_n): the first
    ``head`` steps are summed one by one, the rest by Euler-Maclaurin, in 30 digits.
    """
    import mpmath as mp

    n_sat = prior.index_n(z, prior.s_sat(z))
    with mp.workdps(30):
        a, b, z, t = (mp.mpf(x) for x in (prior.a, prior.b, z, t))

        def step(n):
            e = mp.expm1(4 * n ** -a)
            x = 2 * z * e / (e + 3) / (3 - z)
            jump = -(n / n_sat) ** -b * mp.expm1(-b * mp.log1p(1 / n))
            return jump * (1 - ((1 + 2 * x) * (1 - x) ** 2) ** t)

        total = mp.fsum(step(mp.mpf(n_sat + k)) for k in range(head))
        n0 = mp.mpf(n_sat + head)
        tail = (mp.quad(lambda y: step(n0 * mp.exp(y)) * n0 * mp.exp(y),
                        [0, 5, 10, 20, 40, 80, 160, 320, mp.inf])
                + step(n0) / 2 - mp.diff(step, n0) / 12 + mp.diff(step, n0, 3) / 720)
        return float(1 - total - tail)


# ---------------------------------------------------------------------------
# H by adaptive quadrature: the package's route before its fixed Gauss-Legendre
# rule, kept as the independent reference for that rule and the closed forms
# ---------------------------------------------------------------------------

def _quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Integral of f over [a, b] (0 when b <= a) by scipy's adaptive quad.

    H sections come here, one piece per step of ``_quad_running``.  quad is asked for 1e-11
    relative with at most 500 subintervals; QuadratureError is raised when
    quad's own error estimate exceeds 1e-9 |value|.  That estimate is not a
    proven bound, so a result can be off by more without raising.
    """
    if b <= a:
        return 0.0
    from scipy.integrate import quad

    value, err = quad(f, a, b, epsabs=0.0, epsrel=1e-11, limit=500)
    if err > 1e-9 * abs(value):
        raise QuadratureError("quadrature did not converge", value, err)
    return value


def _quad_running(f: Callable[[float], float], a: float, ends: np.ndarray) -> np.ndarray:
    """Integrals of f over [a, e] for every e of ``ends`` (any shape and order), in one pass.

    The distinct ends are sorted and the integral grows by one ``_quad`` piece per
    step, over [previous end, next end]; a cumulative sum of the pieces gives all of them.
    """
    uniq, inverse = np.unique(np.maximum(ends, a).ravel(), return_inverse=True)
    starts = np.concatenate(([a], uniq[:-1]))
    pieces = [_quad(f, lo, hi) for lo, hi in zip(starts.tolist(), uniq.tolist())]
    return np.cumsum(pieces)[inverse.ravel()].reshape(np.shape(ends))


def h_quad(prior, z: float, s):
    """H(z, s) of a ``power``, ``logti``, ``tlogti``, ``uniform`` or ``tame`` prior by
    adaptive quadrature, at every s of an array in one running pass (a float for a scalar s).

    The integrands are the section integrals of the prior classes' docstrings, each in
    the variable the package integrated them in before its fixed rule: xi for the shared
    form, tau = xi^theta for ``power`` (which removes its endpoint singularity) and
    x = Se for ``tame``.
    """
    if isinstance(prior, TamePrior):
        ee = prior.rate_e / 4.0 - 1.0
        ei = prior.rate_i / 4.0 - 1.0
        ce = prior.rate_e / 4.0
        ci = prior.rate_i / 8.0

        def integrand(x: float) -> float:
            y = z / x
            return ce * ci * x**ee * ((y - 1.0) / 2.0) ** ei / x

        out = _quad_running(integrand, z / 3.0, np.minimum(min(1.0, z), (2.0 * np.asarray(s) + z) / 3.0))
    elif isinstance(prior, PowerPrior):
        th = prior.theta

        def integrand(tau: float) -> float:
            xi = tau ** (1.0 / th)
            if xi < 1e-17 * z:
                # the limit at xi = 0, exact to rounding as the correction is O(xi/z);
                # for small theta xi underflows here and the product below overflows
                return (0.75 / z) ** (th - 1.0) / (th * z)
            return float(prior._rho(h_aux(xi / z))) / (z - xi) * (1.0 / th) * tau ** (1.0 / th - 1.0)

        out = _quad_running(integrand, 0.0, np.minimum(s, prior.s_sat(z)) ** th)
    else:
        def integrand(xi: float) -> float:
            if xi <= 0.0:
                return 0.0
            return float(prior._rho(h_aux(xi / z))) / (z - xi)

        out = _quad_running(integrand, 0.0, np.minimum(s, prior.s_sat(z)))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# the discrete tail one float at a time: the package's route before it summed
# the series over arrays, kept as the reference for the array route
# ---------------------------------------------------------------------------

def gamma_series(p: float, m: float) -> float:
    """S(p, m) = -sum_{k>=1} (-m)^k / (k! (p + k)), summed to convergence.

    Equals m^-p * integral_0^m t^(p-1) (1 - e^-t) dt, so it is positive and
    stays in float range for every p > 0, where Gamma(p) alone overflows.
    """
    series, power, k = 0.0, 1.0, 0
    while True:
        k += 1
        power *= -m / k
        term = power / (p + k)
        series -= term
        if abs(term) <= 1e-17 * abs(series):
            return series


def discrete_log_tail(prior, log_x: float, lib=math) -> float:
    """``DiscretePrior._log_tail`` at one float log_x, one term at a time.

    ``lib`` supplies exp, expm1, log and log1p: ``math`` (the C library's) by default,
    or ``numpy``, whose vectorized routines can differ from the C library's in the
    last bit.
    """
    a, b = prior.a, prior.b
    inv_x = lib.exp(-log_x)
    m = 4.0 * lib.exp(-a * log_x)
    e4, one_minus_e4 = lib.exp(-m), -lib.expm1(-m)
    k = -lib.expm1(-b * lib.log1p(inv_x))  # (x^-b - (x+1)^-b) x^b
    f = one_minus_e4 * k
    fprime = inv_x * (-e4 * a * m * k
                      + one_minus_e4 * b * lib.expm1(-(b + 1.0) * lib.log1p(inv_x)))
    coeff = (1.0, -(b + 1.0) / 2.0, (b + 1.0) * (b + 2.0) / 6.0,
             -(b + 1.0) * (b + 2.0) * (b + 3.0) / 24.0)
    integral = 0.0
    for j, c in enumerate(coeff):
        x_j = inv_x**j
        if x_j < 1e-17:
            break
        integral += b * c / a * x_j * gamma_series((b + j) / a, m)
    return -b * log_x + lib.log(3.0 - 2.0 * (integral + f / 2.0 - fprime / 12.0))


def discrete_log_ti_cdf(prior, x: float, lib=math) -> float:
    """``DiscretePrior.log_ti_cdf`` at one float x, by its three routes one value at a time.

    With ``lib`` = ``numpy`` pass x as ``numpy.float64``; ``lib`` also supplies pow.
    """
    if x <= 0.0:
        return -math.inf
    if x >= 1.0:
        return 0.0
    # the atoms n >= m0 = x^(-1/a) lie at or below x; m0 overflows for small x and a
    log_m0 = -lib.log(x) / prior.a
    if log_m0 >= 53.0 * math.log(2.0):  # no exact ceil(m0): m0 itself, off by O(b/m0)
        return discrete_log_tail(prior, log_m0, lib) - math.log(prior.r)
    m = math.ceil(lib.pow(x, -1.0 / prior.a)) - 1
    if m <= prior._N_TABLE:
        return lib.log(_discrete_table(prior.a, prior.b)[m]) - math.log(prior.r)
    return discrete_log_tail(prior, lib.log(m + 1), lib) - math.log(prior.r)


# ---------------------------------------------------------------------------
# Monte Carlo log E[K_i]: the estimator ``tree_posterior`` used before it
# integrated deterministically, with the same substreams (seed, 1, chunk
# index), chunk size and merge order, so it reproduces that code's numbers
# ---------------------------------------------------------------------------

DRAW_CHUNK = 8192
_TAG_KERNEL = 1


@dataclass(frozen=True)
class LogMean:
    """log of a Monte Carlo mean with a delta-method standard error (log scale)."""

    log_mean: float
    stderr: float
    ess: float  # effective sample size (sum w)^2 / sum w^2 of the weights w = exp(log)


def _partials(block):
    """(max, sum exp(l - max), sum exp(2(l - max)), count) of each row of a block of
    logs; a row that is -inf throughout gives (-inf, 0, 0, count)."""
    m = np.max(block, axis=1)
    a = np.exp(block - np.where(m == -math.inf, 0.0, m)[:, None])
    s, t = a.sum(axis=1), (a * a).sum(axis=1)
    return [(float(mi), float(si), float(ti), block.shape[1]) for mi, si, ti in zip(m, s, t)]


def _merge(p, q):
    """Two (max, sum, sum of squares, count) partials of log-sum-exp as one."""
    m1, s1, t1, n1 = p
    m2, s2, t2, n2 = q
    m = max(m1, m2)
    if m == -math.inf:
        return -math.inf, 0.0, 0.0, n1 + n2
    w1 = math.exp(m1 - m) if m1 > -math.inf else 0.0
    w2 = math.exp(m2 - m) if m2 > -math.inf else 0.0
    return m, s1 * w1 + s2 * w2, t1 * w1 * w1 + t2 * w2 * w2, n1 + n2


def _finish(p) -> LogMean:
    m, s, t, n = p
    if s <= 0.0:
        raise DegenerateEstimate("all kernel samples vanished")
    mu = s / n
    var = max(t / n - mu * mu, 0.0) * (n / max(n - 1, 1))
    return LogMean(m + math.log(mu), math.sqrt(var / n) / mu, s * s / t)


def _kernel_chunk(prior, counts, seed, index, size):
    rng = _chunk_rng(seed, _TAG_KERNEL, index)
    te, ti = prior.sample(rng, size)
    lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
    return _partials(kernel_log_values(counts, lp0, lp1, lp2, (1, 2, 3)))


def mc_log_expected_kernels(prior, counts, n_samples: int, seed: int, jobs: int = 1):
    """``LogMean`` of log E[K_i] for trees 1, 2, 3 from ``n_samples`` shared draws.

    Chunks of DRAW_CHUNK draws, each from its own substream, reduced in
    chunk order: bit-identical for any ``jobs``.  Raises ``DegenerateEstimate``
    when every sampled kernel of a tree vanished.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    parts = _run_chunks(_kernel_chunk, (prior, counts, seed), n_samples, DRAW_CHUNK, jobs)
    totals = parts[0]
    for part in parts[1:]:
        totals = [_merge(a, b) for a, b in zip(totals, part)]
    return [_finish(p) for p in totals]


# ---------------------------------------------------------------------------
# dense reference for log E[K] (independent of the route in posterior.py)
# ---------------------------------------------------------------------------
#
# E[K] = int f dF over Ti, f(t) = E_Se[K | Ti = t], is integrated by parts,
#
#     int_[0,T] f dF = f(0) F(c) + int_0^c (F(c) - F) f' dt
#                      + f(T) (F(T) - F(c)) - int_c^T (F - F(c)) f' dt,
#
# with c the peak of the kernel's profile in t, T the end of the support
# (plus f(inf) (1 - F(T)) beyond it, where that mass is positive), by
# composite Gauss-Legendre panels in t: geometric towards 0, uniform across
# the profile's 80-nat window, and split at each of the first 2000 atoms of
# a discrete prior inside that window.  The inner f and f' are composite
# Gauss-Legendre in u = Se^c over each t's 60-nat window in Se, found by
# bisection.

_DROP_SE = 60.0
_DROP_TI = 80.0


def _log_k_parts(n0, ni, m, x, t):
    """log K and d log K / dt at Se = x and Ti = t (broadcast arrays)."""
    y, w = np.exp(-4.0 * t), -np.expm1(-4.0 * t)
    p0, p1, p2 = 1.0 + x + 2.0 * x * y, (1.0 - x) + 2.0 * x * w, 1.0 - x
    with np.errstate(divide="ignore", invalid="ignore"):
        log_k = -(n0 + ni + m) * math.log(4.0)
        dt = 0.0
        if n0:
            log_k = log_k + n0 * np.log(p0)
            dt = dt - 8.0 * n0 * x * y / p0
        if ni:
            log_k = log_k + ni * np.log(p1)
            dt = dt + 8.0 * ni * x * y / p1
        if m:
            log_k = log_k + m * np.log(p2)
    return log_k, dt


def _d_log_k_dx(n0, ni, m, x, t):
    y, w = np.exp(-4.0 * t), -np.expm1(-4.0 * t)
    out = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if n0:
            out = out + n0 * (1.0 + 2.0 * y) / (1.0 + x + 2.0 * x * y)
        if ni:
            out = out + ni * (1.0 - 2.0 * y) / ((1.0 - x) + 2.0 * x * w)
        if m:
            out = out - m / (1.0 - x)
    return out


def _bisect(pred, lo, hi, iterations=56):
    """Largest x in [lo, hi] with pred(x) true, for pred true below a threshold (arrays)."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        ok = pred(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo


def _se_integrals(n0, ni, m, t, c, scale, panels=6, order=16):
    """f(t) and f'(t), both divided by exp(scale), at each t (array)."""
    zero, one = np.zeros_like(t), np.ones_like(t)
    mode = _bisect(lambda x: _d_log_k_dx(n0, ni, m, x, t) > 0.0, zero, one)
    top = _log_k_parts(n0, ni, m, mode, t)[0]
    level = top - _DROP_SE
    a = np.where(_log_k_parts(n0, ni, m, zero, t)[0] >= level, zero,
                 1.0 - _bisect(lambda s: _log_k_parts(n0, ni, m, 1.0 - s, t)[0] >= level,
                               1.0 - mode, one))
    b = np.where(_log_k_parts(n0, ni, m, one, t)[0] >= level, one,
                 _bisect(lambda x: _log_k_parts(n0, ni, m, x, t)[0] >= level, mode, one))
    nodes, weights = np.polynomial.legendre.leggauss(order)
    ua, ub = a**c, b**c
    edges = ua[:, None] + (ub - ua)[:, None] * np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges, axis=1)
    u = ((edges[:, :-1] + half)[:, :, None] + half[:, :, None] * nodes).reshape(t.size, -1)
    wt = (half[:, :, None] * weights).reshape(t.size, -1)
    log_k, dt = _log_k_parts(n0, ni, m, u ** (1.0 / c), t[:, None])
    k = np.exp(log_k - scale)
    return (k * wt).sum(axis=1), np.nan_to_num(k * dt * wt).sum(axis=1)


def dense_log_expected_kernel(prior, n0: int, ni: int, m: int) -> float:
    """log E[K] of a tree with counts (n0, ni, m = n - n0 - ni), by a dense rule."""
    c = prior.rate_e / 4.0
    end = {"uniform": getattr(prior, "theta", 1.0), "tame": 200.0 / getattr(prior, "rate_i", 1.0)}
    end = end.get(prior.kind, 1.0)
    # the kernel's profile in t locates its peak and its window
    grid = np.unique(np.concatenate([np.geomspace(1e-16 * end, end, 300),
                                     np.linspace(0.0, end, 501)]))
    x = _bisect(lambda x: _d_log_k_dx(n0, ni, m, x, grid) > 0.0,
                np.zeros_like(grid), np.ones_like(grid))
    profile = _log_k_parts(n0, ni, m, x, grid)[0]
    peak = int(np.argmax(profile))
    inside = np.flatnonzero(profile >= profile[peak] - _DROP_TI)
    lo, hi = grid[max(inside[0] - 1, 0)], grid[min(inside[-1] + 1, grid.size - 1)]
    centre, scale = grid[peak], float(profile[peak])
    breaks = [np.geomspace(1e-16 * end, max(hi, 1e-15 * end), 80), np.linspace(lo, hi, 161),
              [0.0, centre, end]]
    if prior.kind == "discrete":
        atoms = np.arange(1.0, 2001.0) ** -prior.a
        breaks.append(atoms[(atoms > lo) & (atoms < hi)])
    breaks = np.unique(np.clip(np.concatenate(breaks), 0.0, end))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(breaks)
    t = ((breaks[:-1] + half)[:, None] + half[:, None] * nodes).ravel()
    wt = (half[:, None] * weights).ravel()
    _, df = _se_integrals(n0, ni, m, t, c, scale)
    cdf = np.exp(prior.log_ti_cdf(t))
    cdf_c = math.exp(prior.log_ti_cdf(centre))
    f0, f_end = _se_integrals(n0, ni, m, np.array([0.0, end]), c, scale)[0]
    below = t < centre
    total = (f0 * cdf_c + np.sum(((cdf_c - cdf) * df * wt)[below])
             + f_end * (math.exp(prior.log_ti_cdf(end)) - cdf_c)
             - np.sum(((cdf - cdf_c) * df * wt)[~below]))
    beyond = -math.expm1(prior.log_ti_cdf(end))
    if beyond > 0.0:  # f at Ti = inf may overflow where the prior has no mass there
        total += _se_integrals(n0, ni, m, np.array([60.0]), c, scale)[0][0] * beyond
    return scale + math.log(total)
