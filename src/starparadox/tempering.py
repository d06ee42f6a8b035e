"""Temperedness classifier for branch-length priors.

A prior is *tempered* when two things hold:

1. For every star edge length t there is an interval I_t around 4q0 - 1 on
   which the conditional CDF s -> G(z, s) admits a generalized power-series
   expansion at s = 0,

       | G(z, s) - sum_{i<k} F_i(z) s^(alpha + eps_i) | <= kappa s^(alpha + eps_k),

   with bounded coefficients, eps_0 = 0 and eps_{k-1} <= 2 < eps_k (an
   expansion to better than second order).

2. The corner probability Q_n(t) = P(Ti <= 1/n, t <= Te <= t + 1/n) decays
   subexponentially: log Q_n(t) / n -> 0.

Condition 1 is checked by fitting the one ladder eps = (0, 1, 2, 3) (every
catalog prior has G = s^alpha times a power series in s, or log terms no
ladder fits) to G sampled on a geometric s-grid below saturation, in two
linear solves (alpha is the log s coefficient of a fit of log G), and by
demanding window stability: refitting with the grid top reduced must leave
the fitted leading exponent unchanged and shrink the residual like a
beyond-guard power.  Log-contaminated expansions (terms like s^j * log s)
drag the exponent by ~1/log s instead and are reported with a diagnostic
obtained from an explicit model contest.  Fit, stability test, remainder
bound and contest each take every z row at once, with numpy's linear
algebra and no optimizer.  Condition 2 is checked in log
scale on a doubling n-grid, so nothing underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import band_interval
from .priors import Prior

__all__ = [
    "TaylorModel",
    "ExpansionViolation",
    "Condition2Result",
    "TemperVerdict",
    "fit_taylor",
    "check_condition2",
    "check_tempered",
    "default_s_grid",
    "default_z_grid",
]

#: fraction u0 of inf I_t used for the expansion radius s0
S0_FRACTION = 0.05
#: the geometric s-grid spans this many decades below s0, at 14 points per decade
_S_DECADES = 4
_S_PER_DECADE = 14
#: the largest t of the check.  The s-grid's bottom is 1.5e-5 exp(-8t), 7.2e-301 at t = 85;
#: from t = 85.7 (2.7e-303) it nears the subnormal range, where s itself loses digits
_T_MAX = 85.0

#: the one exponent ladder eps_0..eps_k; its last entry is the guard order
_EPS = (0.0, 1.0, 2.0, 3.0)
#: relative accuracy of every prior's G rows, the fit's noise tolerance
_G_ACCURACY = 1e-12
#: smallest s-grid points whose log-log slope is a failed ladder's leading exponent
_SLOPE_POINTS = 15
#: the log-model contest: the pure model's eps1 grid on [0.3, 3], with 0.5, 1 and 2 on it
_PURE_EPS1 = np.arange(6, 61) / 20.0
#: the log model's geometric grid of offsets x0 - x_max from 0.05, and its Newton-step cap
_LOG_OFFSET_MIN = 0.05
_LOG_OFFSET_POINTS = 64
_NEWTON_STEPS = 20
#: the doubling n-grid of condition 2, up to 2^16
_N_GRID = 2 ** np.arange(6, 17)


@dataclass(frozen=True)
class TaylorModel:
    """Fitted generalized power series for G(z, .) over a z-grid, on the ladder ``_EPS``."""

    alpha: float
    z_grid: np.ndarray
    coeffs: np.ndarray              # shape (n_z, k): F_i(z) for i < k
    guard_coeffs: np.ndarray        # shape (n_z,): fitted coefficient at the guard order
    kappa: float
    alpha_per_z: np.ndarray
    max_rel_residual: float


@dataclass(frozen=True)
class ExpansionViolation:
    """Condition 1 failed; diagnostic names the detected non-power term."""

    diagnostic: str
    leading_exponent: float


@dataclass(frozen=True)
class Condition2Result:
    status: str                     # "satisfied" | "violated" | "inconclusive"
    exponent: float | None

    @property
    def satisfied(self) -> bool:
        return self.status == "satisfied"


@dataclass(frozen=True)
class TemperVerdict:
    condition1: TaylorModel | ExpansionViolation
    condition2: Condition2Result

    @property
    def tempered(self) -> bool:
        return isinstance(self.condition1, TaylorModel) and self.condition2.satisfied

    def summary(self) -> dict:
        out = {"tempered": self.tempered}
        if isinstance(self.condition1, TaylorModel):
            out["condition1"] = {
                "status": "satisfied",
                "alpha": self.condition1.alpha,
                "eps": list(_EPS),
                "kappa": self.condition1.kappa,
                "ladder": "integer",
            }
        else:
            out["condition1"] = {
                "status": "violated",
                "diagnostic": self.condition1.diagnostic,
                "leading_exponent": self.condition1.leading_exponent,
            }
        out["condition2"] = {
            "status": self.condition2.status,
            "exponent": self.condition2.exponent,
        }
        return out


def default_z_grid(t: float, points: int = 5) -> np.ndarray:
    """Evenly spaced z values strictly inside the band interval I_t."""
    iv = band_interval(t)
    pad = 0.02 * iv.width
    return np.linspace(iv.lo + pad, iv.hi - pad, points)


def default_s_grid(t: float) -> np.ndarray:
    """Geometric s-grid on [s0 * 10^-4, s0] with s0 = u0 * inf I_t."""
    s0 = S0_FRACTION * band_interval(t).lo
    return s0 * 10.0 ** np.linspace(-_S_DECADES, 0.0, _S_DECADES * _S_PER_DECADE + 1)


# ---------------------------------------------------------------------------
# condition 1: ladder fitting
# ---------------------------------------------------------------------------

def _ladder_fit(x: np.ndarray, L: np.ndarray):
    """Least squares fit of G ~ sum_i F_i s^(alpha+eps_i) in relative units, all rows at once.

    x = ln s has shape (n,) and L = ln G shape (Z, n), one row per z.  With
    G = s^alpha sum_i F_i s^i, ln G = ln F_0 + alpha ln s + a power series in
    s, so alpha is the ln s coefficient of one linear fit of ln G on
    [1, ln s, w^eps for eps in _EPS[1:]], w = s / s_top: exact to the guard
    order.  The design is shared, so one solve takes every row.  The F_i,
    guard order included, are then a second linear fit of each row at its
    alpha, on the relative design rel = s^(alpha+eps_i) / G.  Returns
    (alpha, coef, rel, resid) of shapes (Z,), (Z, k), (Z, n, k) and (Z, n),
    with resid = (G - model) / G.
    """
    w = np.exp(x - x[-1])
    log_design = np.column_stack([np.ones_like(x), x] + [w**e for e in _EPS[1:]])
    alpha = np.linalg.lstsq(log_design, L.T, rcond=None)[0][1]
    # s^(alpha+eps_i) / G formed in logs: at alpha = 50 both powers underflow
    rel = np.exp((alpha[:, None, None] + np.asarray(_EPS)) * x[:, None] - L[:, :, None])
    coef = np.array([np.linalg.lstsq(r, np.ones_like(x), rcond=None)[0] for r in rel])
    return alpha, coef, rel, 1.0 - np.einsum("znk,zk->zn", rel, coef)


def _log_model_contest(x: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compare pure-power vs log-contaminated local models on (x = ln s, L = ln G), all rows at once.

    Pure:  L = c + a x + b exp(eps1 (x - x_max)),        eps1 the best of the grid ``_PURE_EPS1``.
    Log:   L = c + p x + b exp(x - x_max) + ln(x0 - x),  x0 - x_max in [0.05, 80 + |x_max|].
    L has one row per z.  Returns arrays over the rows (rms_pure, rms_log, p_log), with
    p_log the log-model power.

    Each model's linear columns are factored once (QR): [1, x] for the pure model,
    [1, x, exp(x - x_max)] for the log model, whose next-order term keeps the rest of
    the expansion out of p.  Every residual is projected off its model's columns.
    The pure model projects its grid columns off them too and fits each in closed
    form.  The log model's x0 is the argmin over a geometric grid of offsets, refined
    by Newton steps on the closed-form first and second derivatives of RSS(x0), each
    row kept between the grid argmin's two neighbours.  The best offset grows with
    the grid's scale (about |x_max| / 2 at large t), and so does the top of the bracket.
    """
    x_max = x[-1]
    ones = np.ones_like(x)
    q_pure = np.linalg.qr(np.column_stack([ones, x]))[0]
    q_log, r_log = np.linalg.qr(np.column_stack([ones, x, np.exp(x - x_max)]))

    def off(q: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v - (v @ q) @ q.T

    def log_target(x0: np.ndarray) -> np.ndarray:
        return L - np.log(x0[..., None] - x)

    r_l = off(q_pure, L)
    c = off(q_pure, np.exp(np.outer(_PURE_EPS1, x - x_max)))
    r = r_l[:, None, :] - ((r_l @ c.T) / np.sum(c * c, axis=1))[:, :, None] * c
    rss_pure = np.min(np.sum(r * r, axis=-1), axis=1)

    grid = x_max + np.geomspace(_LOG_OFFSET_MIN, 80.0 + abs(x_max), _LOG_OFFSET_POINTS)
    r = off(q_log, log_target(grid[:, None]))
    k = np.argmin(np.sum(r * r, axis=-1), axis=0)
    lo, hi = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.size - 1)]
    x0 = grid[k]
    for _ in range(_NEWTON_STEPS):
        inv = 1.0 / (x0[:, None] - x)
        r, v = off(q_log, log_target(x0)), off(q_log, inv)
        # with u = x0 - x and v = 1/u off the columns: RSS' = -2 r.v and RSS'' = 2 v.v + 2 r.(1/u^2)
        d1 = -np.sum(r * v, axis=1)
        d2 = np.sum(v * v, axis=1) + np.sum(r * inv * inv, axis=1)
        # a row with RSS'' <= 0 takes no step, so from the start it keeps its grid point
        x0_next = np.clip(x0 - d1 / np.where(d2 > 0.0, d2, np.inf), lo, hi)
        # the convergence is quadratic: after a step below 1e-8 of the offset, rounding dominates
        done = np.all(np.abs(x0_next - x0) <= 1e-8 * (x0 - x_max))
        x0 = x0_next
        if done:
            break
    target = log_target(x0)
    r = off(q_log, target)
    p_log = np.linalg.solve(r_log, q_log.T @ target.T)[1]
    n = len(x)
    return np.sqrt(rss_pure / n), np.sqrt(np.sum(r * r, axis=1) / n), p_log


def _log_diagnostic(p: float) -> str:
    j = int(round(p))
    power = "s" if j == 1 else f"s^{j}"
    return f"{power}·log s"


def fit_taylor(spec: Prior, z_grid: np.ndarray, s_grid: np.ndarray) -> TaylorModel | ExpansionViolation:
    """Fit the small-s expansion of G(z, .) or report why none exists.

    z_grid must lie inside the band interval; s_grid must be geometric,
    span at least four decades and stay below saturation.  x = ln s and
    L = ln G, one row per z, are formed once.  The integer ladder, guard
    term included in the basis, is fitted on every row at once by
    :func:`_ladder_fit`; every row must pass the stability tests of
    :func:`_guard_valid`, at G's relative accuracy ``_G_ACCURACY``.
    Otherwise a local model contest, :func:`_log_model_contest` on all rows
    at once, decides whether a log term is responsible and supplies the
    diagnostic.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    s_grid = np.sort(np.asarray(s_grid, dtype=float))
    if len(s_grid) < 20 or s_grid[0] <= 0.0:
        raise ValueError("s_grid too short for a stable fit (need >= 20 positive points)")
    decades = math.log10(s_grid[-1] / s_grid[0])
    if decades < 4.0 - 1e-9:
        raise ValueError(f"s_grid spans {decades:.2f} decades; need >= 4")

    G = np.array([spec.g(z, s_grid) for z in z_grid])
    tiny = np.finfo(float).tiny
    if np.any(G < tiny):  # a subnormal or zero G has lost the digits the fit reads
        iz, i = np.unravel_index(np.argmin(G), G.shape)
        raise ValueError(f"G falls below the smallest normal float ({tiny:.3g}) on the s-grid: "
                         f"G(z={z_grid[iz]:.6g}, s={s_grid[i]:.6g}) = {G[iz, i]:.3g}; "
                         "the fit needs every G at or above it")
    x = np.log(s_grid)
    L = np.log(G)

    alpha, coef, rel, resid = _ladder_fit(x, L)
    if np.all(_guard_valid(x, L, alpha, resid)):
        score = float(np.max(np.abs(resid)))
        return TaylorModel(
            alpha=float(np.median(alpha)),
            z_grid=z_grid,
            coeffs=coef[:, :-1],
            guard_coeffs=coef[:, -1],
            kappa=_kappa_bound(rel, coef, score),
            alpha_per_z=alpha,
            max_rel_residual=score,
        )

    # the ladder failed: run the model contest on the small end for a diagnostic
    win = s_grid <= s_grid[0] * 10.0**2.5
    rms_pure, rms_log, p_log = _log_model_contest(x[win], L[:, win])
    # a log vote needs the pure misfit to stand clear of the data noise
    votes = (rms_log < rms_pure) & (rms_pure > 3.0 * _G_ACCURACY)
    if np.count_nonzero(votes) >= max(1, len(z_grid) // 2 + 1):
        p = float(np.median(p_log[votes]))
        return ExpansionViolation(diagnostic=_log_diagnostic(p), leading_exponent=p)
    # the leading exponent of a failed ladder: the log-log slope at the smallest s
    slope = np.polyfit(x[:_SLOPE_POINTS], L[:, :_SLOPE_POINTS].T, 1)[0]
    return ExpansionViolation(
        diagnostic="non-power structure (no log term identified)",
        leading_exponent=float(np.median(slope)),
    )


_NOISE_FACTOR = 300.0      # multiple of data accuracy inside the fit-noise floor
_ABS_FLOOR = 1e-8          # optimizer/least-squares floor on relative residuals
_SHRINK_CAP = 8.0          # grid-top reduction used by the stability tests
_SHRINK_GAIN = 4.0         # residual must drop at least this much if above floor
_ALPHA_DRIFT_TOL = 3e-4    # allowed drift of the fitted exponent under capping
_GROSS_MISFIT = 0.05       # a ladder that misses by >5% is no expansion at all


def _guard_valid(x, L, alpha_full, resid_full) -> np.ndarray:
    """Per row of L, whether the ladder behaves like a genuine power expansion.

    Two window-stability properties separate power series from log
    contamination by several orders of magnitude: refitting on
    s <= s_top / M must (a) leave the fitted leading exponent essentially
    unchanged (a log term drags it by ~1/log s, observed >= 1e-2, versus
    <= 1e-5 for true ladders), and (b) shrink the residual like the next
    power order unless it already sits at the noise floor.  One capped
    refit takes every row.
    """
    r_full = np.max(np.abs(resid_full), axis=1)
    cap = x <= x[-1] - math.log(_SHRINK_CAP)
    if np.count_nonzero(cap) < len(_EPS) + 4:
        return np.zeros(len(L), dtype=bool)
    alpha_cap, _, _, resid_cap = _ladder_fit(x[cap], L[:, cap])
    floor = max(_NOISE_FACTOR * _G_ACCURACY, _ABS_FLOOR)
    r_cap = np.max(np.abs(resid_cap), axis=1)
    return ((r_full <= _GROSS_MISFIT)
            & (np.abs(alpha_cap - alpha_full) <= _ALPHA_DRIFT_TOL)
            & ((r_full <= floor) | (r_cap <= np.maximum(r_full / _SHRINK_GAIN, floor))))


def _kappa_bound(rel, coef, full_resid) -> float:
    """Certified remainder constant for |G - sum_{i<k} F_i s^(alpha+eps_i)|.

    Reads the fit's relative design rel = s^(alpha+eps_i) / G and
    coefficients coef, of shapes (Z, n, k) and (Z, k).  Measured as
    sup |r_k| / s^(alpha+eps_k) over the points where the guard term stands
    above the fit-noise floor; at the remaining (small-s) points the bound
    kappa s^(alpha+eps_k) + noise-band is verified instead.
    """
    band = 100.0 * _G_ACCURACY + 3.0 * full_resid
    guards = coef[:, -1]
    r = np.abs(1.0 - np.einsum("znk,zk->zn", rel[..., :-1], coef[:, :-1]))  # |G - model_k| / G
    guard_scale = rel[..., -1]                                               # s^(alpha + eps_k) / G
    trusted = np.abs(guards)[:, None] * guard_scale >= band
    return max(float(np.max(r[trusted] / guard_scale[trusted], initial=0.0)),
               float(np.max(np.abs(guards))))


# ---------------------------------------------------------------------------
# condition 2: corner probability decay
# ---------------------------------------------------------------------------

def check_condition2(spec: Prior, t: float) -> Condition2Result:
    """Classify the decay of Q_n(t): polynomial decay satisfies |log Q_n|/n -> 0.

    Works in log scale throughout; reports "inconclusive" when log Q_n is
    not finite on part of the grid (e.g. Ti bounded away from 0).
    """
    log_q = spec.log_q_n(t, _N_GRID)
    if not np.all(np.isfinite(log_q)):
        return Condition2Result("inconclusive", None)
    slope = float(np.polyfit(np.log(_N_GRID), log_q, 1)[0])
    exponent = -slope
    a_n = np.abs(log_q) / _N_GRID
    shrinking = a_n[-1] <= 0.5 * a_n[0]
    monotone = np.all(np.diff(a_n) <= 1e-2 * a_n[0])
    status = "satisfied" if (shrinking and monotone) else "violated"
    return Condition2Result(status, exponent)


# ---------------------------------------------------------------------------
# combined verdict
# ---------------------------------------------------------------------------

def check_tempered(spec: Prior, t: float) -> TemperVerdict:
    """Run both tempered-prior conditions at star edge length t.

    The s-grid tops out at most at half the smallest s_sat(z): above it G = 1.
    t must lie in (0, 85]: above 85 the grid's bottom nears the subnormal range.
    """
    if not 0.0 < t <= _T_MAX:
        raise ValueError(f"t (--t) must lie in (0, {_T_MAX:g}] for the temperedness check, "
                         f"got t={t!r}: above it the s-grid's bottom falls below 7e-301")
    z_grid, s_grid = default_z_grid(t), default_s_grid(t)
    scale = min(1.0, 0.5 * min(spec.s_sat(z) for z in z_grid) / s_grid[-1])
    cond1 = fit_taylor(spec, z_grid, scale * s_grid)
    cond2 = check_condition2(spec, t)
    return TemperVerdict(cond1, cond2)
