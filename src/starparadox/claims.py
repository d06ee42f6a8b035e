"""Conditional-expectation checks behind the paradox argument.

For counts in the band event F_c (which favours tree 1) and j in {2, 3},
two facts connect the kernels K_j to the band interval I_t of 4 P0 - 1:

* band advantage: E[K_j | 4P0 - 1 in I_t] >= E[K_j | 4P0 - 1 not in I_t]
  for n large, with explicit envelopes on both sides built from
  mu_t = q0^q0 q1^{3 q1}, the corner probability Q_n(t) and the
  Kullback-Leibler defect outside the band;

* conditional dominance: E[K_1 | 4P0 - 1 = z] >= c^2 * alpha *
  E[K_j | 4P0 - 1 = z] uniformly over z in I_t, with alpha independent
  of c.

Both are estimated here by stratified Monte Carlo over prior draws; the
point conditioning in the second uses hard bands z +- delta_z, each a
contiguous slice of the draws stable-sorted by band.  Every estimator
with the same prior instance, sample size and seed reads one draw set,
sampled and turned into pattern log-probabilities once and kept read-only
until the prior is freed or asked for another (size, seed).  Where
n_2 = n_3 (as ``counts_in_band`` builds them) K_2 = K_3 draw by draw.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .model import (
    PatternCounts,
    band_half_width,
    band_interval,
    in_band_fc,
    log_pattern_prob_arrays,
    star_probs,
)
from .posterior import _shifted_exp, kernel_log_values
from .priors import Prior

__all__ = [
    "EmptyStratum",
    "Claim1Report",
    "Claim2Report",
    "log_mu",
    "in_band_advantage",
    "conditional_ratio_scan",
]


class EmptyStratum(ValueError):
    """A conditioning stratum received no prior draws: too few --samples for the strata asked for."""


def log_mu(t: float) -> float:
    """log of q0^q0 q1^(3 q1), the per-site likelihood scale on the star tree."""
    q = star_probs(t)
    return q.p0 * math.log(q.p0) + 3.0 * q.p1 * math.log(q.p1)


def _remedy(prior: Prior, t: float, n_samples: int, change: str) -> str:
    """Advice for an empty stratum: ``change``, or where n_samples (sup I_t)^(rate_e/4) < 1,
    that bound on P(4P0 - 1 in I_t), as 4P0 - 1 = Se Si >= Se and P(Se <= x) = x^(rate_e/4)."""
    log10_bound = prior.rate_e / 4.0 * math.log10(band_interval(t).hi)  # underflows as a float
    if math.log10(n_samples) + log10_bound >= 0.0:
        return f"use {change}"
    bound, limit = (Decimal(10) ** Decimal(x) for x in (log10_bound, -log10_bound))
    return (f"{change} will not do: P(4P0 - 1 in I_t) <= {bound:.2g}, so --samples would "
            f"have to exceed {limit:.2g}, or --t must be lower")


# ---------------------------------------------------------------------------
# stratified estimators
# ---------------------------------------------------------------------------

_DRAWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _draw(prior: Prior, n_samples: int, seed: int):
    """Read-only (lp0, lp1, lp2, zval) of ``n_samples`` draws from ``default_rng(seed)``.

    zval = 4 P0 - 1 per draw.  One entry per prior instance, held weakly and
    outside it, so the arrays go with the prior, and a pickled copy, which
    carries only the constructor arguments, never ships them.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples (--samples) must be >= 1, got {n_samples!r}")
    key = (n_samples, seed)
    hit = _DRAWS.get(prior)
    if hit is not None and hit[0] == key:
        return hit[1]
    te, ti = prior.sample(np.random.default_rng(seed), n_samples)
    lp = log_pattern_prob_arrays(te, ti)
    del te, ti
    arrays = (*lp, 4.0 * np.exp(lp[0]) - 1.0)
    for a in arrays:
        a.flags.writeable = False
    _DRAWS[prior] = (key, arrays)
    return arrays


def _log_mean_se(logs: np.ndarray) -> tuple[float, float]:
    """log of the mean of e^l over ``logs`` and its delta-method s.e. (log scale)."""
    m, a, s = _shifted_exp(logs[None, :])
    np.multiply(a, a, out=a)  # in place: a is draw-sized
    (m,), (s,), (t,), n = m.tolist(), s.tolist(), a.sum(axis=1).tolist(), logs.size
    mu = s / n
    var = max(t / n - mu * mu, 0.0) * (n / max(n - 1, 1))
    return m + math.log(mu), math.sqrt(var / n) / mu


def _paired_log_ratio(band: np.ndarray) -> tuple[float, float]:
    """log(mean e^l1 / mean e^l2) over the rows (l1, l2) of ``band`` and its delta-method
    s.e. with shared draws, from one exp per row: a = exp(l - max l), influence a / sum a."""
    m, a, s = _shifted_exp(band)
    (m1, m2), (s1, s2), n = m.tolist(), s.tolist(), band.shape[1]
    infl = a[0] / s1 - a[1] / s2
    return m1 + math.log(s1 / n) - (m2 + math.log(s2 / n)), math.sqrt(float((infl * infl).sum()))


@dataclass(frozen=True)
class Claim1Report:
    j: int
    n_in: int
    n_out: int
    log_mean_in: float
    log_mean_out: float
    se_in: float
    se_out: float
    log_ratio: float            # in - out
    se_ratio: float
    significant: bool           # log_ratio > 3 se_ratio
    envelope_low_log: float     # lower envelope for the in-band mean
    envelope_high_log: float    # upper envelope for the out-of-band mean
    samplewise_upper_ok: bool   # every out draw obeys the kernel <= envelope bound


def in_band_advantage(
    prior: Prior,
    t: float,
    counts: PatternCounts,
    c: float,
    j: int,
    n_samples: int,
    seed: int,
) -> Claim1Report:
    """Estimate E[K_j | 4P0-1 in I_t] against E[K_j | 4P0-1 not in I_t].

    Counts must lie in the band event F_c.  Also evaluates the two
    envelopes: the in-band mean dominates mu^n Q_n exp(n log(1 - kap/n))
    q1^(c sqrt n) with kap = 5 exp(-4t)/q0, and every out-of-band draw
    obeys K_j <= mu^n exp(-n l_t^2 / 32) (checked sample-wise).
    """
    if j not in (2, 3):
        raise ValueError("j must be 2 or 3")
    if not in_band_fc(counts, c, t):
        raise ValueError("counts must lie in the band event F_c")
    lp0, lp1, lp2, zval = _draw(prior, n_samples, seed)
    iv = band_interval(t)
    inside = (zval >= iv.lo) & (zval <= iv.hi)
    if not np.any(inside):
        raise EmptyStratum(f"no draw of {n_samples} fell in the band interval I_t; "
                           + _remedy(prior, t, n_samples, "more --samples"))
    if not np.any(~inside):
        raise EmptyStratum(f"no draw of {n_samples} fell outside the band interval I_t; "
                           "use more --samples")
    n = counts.n
    q = star_probs(t)
    kap = 5.0 * math.exp(-4.0 * t) / q.p0
    env_low = (
        n * log_mu(t)
        + prior.log_q_n(t, n)
        + n * math.log1p(-kap / n)
        + c * math.sqrt(n) * math.log(q.p1)
    )
    ell = band_half_width(t)
    env_high = n * log_mu(t) - n * ell * ell / 32.0

    logs = kernel_log_values(counts, lp0, lp1, lp2, (j,))[0]
    logs_in, logs_out = logs[inside], logs[~inside]
    del logs  # one draw-sized array fewer while the larger stratum is reduced
    mean_in, se_in = _log_mean_se(logs_in)
    out_ok = bool(np.all(logs_out <= env_high + 1e-9 * abs(env_high)))
    mean_out, se_out = _log_mean_se(logs_out)
    log_ratio = mean_in - mean_out
    se_ratio = math.hypot(se_in, se_out)
    return Claim1Report(
        j=j,
        n_in=int(inside.sum()),
        n_out=int((~inside).sum()),
        log_mean_in=mean_in,
        log_mean_out=mean_out,
        se_in=se_in,
        se_out=se_out,
        log_ratio=log_ratio,
        se_ratio=se_ratio,
        significant=bool(log_ratio > 3.0 * se_ratio),
        envelope_low_log=env_low,
        envelope_high_log=env_high,
        samplewise_upper_ok=out_ok,
    )


@dataclass(frozen=True)
class Claim2Report:
    j: int
    c: float
    z_grid: np.ndarray
    band_counts: np.ndarray
    log_ratio: np.ndarray       # per z: log E[K_1 | z] - log E[K_j | z]
    se_ratio: np.ndarray
    min_log_gap: float          # inf_z (log_ratio - 2 log c)
    min_ratio_over_c2: float    # inf_z E[K_1|z] / (c^2 E[K_j|z]); inf if the gap overflows
    min_ratio_over_3c2: float
    min_ratio_over_4c2: float
    significant: bool           # min_log_gap > 3 se at the argmin


def conditional_ratio_scan(
    prior: Prior,
    t: float,
    counts: PatternCounts,
    c: float,
    j: int,
    z_points: int,
    n_samples: int,
    seed: int,
) -> Claim2Report:
    """Scan z over the band interval and compare E[K_1 | z] to c^2 E[K_j | z].

    Point conditioning uses hard bands z +- delta_z with delta_z = half the
    grid spacing, so the bands tile I_t.  Both normalizations of the
    dominance constant (3 c^2 and 4 c^2) are reported.
    """
    if j not in (2, 3):
        raise ValueError("j must be 2 or 3")
    if not in_band_fc(counts, c, t):
        raise ValueError("counts must lie in the band event F_c")
    if z_points < 1:
        raise ValueError(f"z_points (--z-points) must be >= 1, got {z_points!r}")
    if z_points > n_samples:  # the bands tile I_t: at most n_samples of them can fill
        raise ValueError(f"z_points (--z-points) must not exceed n_samples (--samples), "
                         f"got {z_points!r} > {n_samples!r}")
    iv = band_interval(t)
    edges = np.linspace(iv.lo, iv.hi, z_points + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    lp0, lp1, lp2, zval = _draw(prior, n_samples, seed)
    # band k holds the draws with edges[k] <= z < edges[k + 1]; a stable sort
    # by band keeps draw order inside each band and makes each a contiguous slice
    grid = np.flatnonzero((zval >= edges[0]) & (zval < edges[-1]))
    keys = np.searchsorted(edges, zval[grid], side="right") - 1
    keys = keys.astype(np.min_scalar_type(z_points - 1))  # small ints: a radix sort
    band_n = np.bincount(keys, minlength=z_points)
    order = grid[np.argsort(keys, kind="stable")]
    del grid, keys
    block = kernel_log_values(counts, lp0[order], lp1[order], lp2[order], (1, j))
    del order

    log_ratio = np.empty(z_points)
    se_ratio = np.empty(z_points)
    for k, stop in enumerate(np.cumsum(band_n)):
        if band_n[k] == 0:
            remedy = _remedy(prior, t, n_samples, "fewer --z-points or more --samples")
            raise EmptyStratum(
                f"z band {k} around {centers[k]:.4g} is empty: {block.shape[1]} of {n_samples} "
                f"draws fall in I_t; {remedy}"
            )
        log_ratio[k], se_ratio[k] = _paired_log_ratio(block[:, stop - band_n[k]:stop])
    gap = log_ratio - 2.0 * math.log(c)
    k_min = int(np.argmin(gap))
    min_gap = float(gap[k_min])
    ratio = math.exp(min_gap) if min_gap < 700.0 else math.inf
    return Claim2Report(
        j=j,
        c=c,
        z_grid=centers,
        band_counts=band_n,
        log_ratio=log_ratio,
        se_ratio=se_ratio,
        min_log_gap=min_gap,
        min_ratio_over_c2=ratio,
        min_ratio_over_3c2=ratio / 3.0,
        min_ratio_over_4c2=ratio / 4.0,
        significant=bool(min_gap > 3.0 * se_ratio[k_min]),
    )
