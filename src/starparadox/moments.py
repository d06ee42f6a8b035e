"""Moment ratios of [0,1]-valued random variables and threshold scans.

For a random variable V on [0, 1] define M_t = E[V^t] and the ratio gap
R_t = 1 - M_{t+1}/M_t.  When the upper tail P(V >= v) behaves like a
generalized power series in (1 - v) with leading exponent alpha,

    | P(V >= v) - sum_{i<n} g_i (1 - v)^(alpha + eps_i) | <= g_n (1 - v)^(alpha + eps_n)

for v0 <= v <= 1 with 0 = eps_0 < ... < eps_{n-1} <= 1 < eps_n, then
2 t R_t -> 2 alpha, and in particular 2 t R_t >= alpha for all t past a
finite threshold that depends continuously on the coefficients.  This
module evaluates the moments (by quadrature of the tail-integral form),
the closed Beta-function forms of the series moments, the gamma-ratio
bounding factors behind the threshold certificate, and the threshold
scans themselves.

Everything gamma-related is evaluated through log-gamma (``math.lgamma``),
so arguments up to 1e6 are safe.  The moment quadratures go through
``priors._quad``, which imports scipy when one runs.  The fractional/integer
split {t}, [t] uses floor semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import zeta_inv
from .priors import Prior, _quad

__all__ = [
    "TailParams",
    "beta_fn",
    "gamma_ratio",
    "deflation_product",
    "deflation_log_bounds",
    "rising_factor",
    "chi_weighted_sum",
    "series_moment_closed",
    "series_moment_quad",
    "moment_mt",
    "moment_curve",
    "ScanResult",
    "threshold_scan",
    "threshold_from_gap",
    "certified_gap_curve",
    "ChiCheckReport",
    "lemma_chi_check",
    "UniformV",
    "PointMassOneV",
    "BetaTailV",
    "QuadraticV",
    "ExpansionTailV",
    "ConditionalZetaV",
    "geometric_grid",
]


# ---------------------------------------------------------------------------
# special-function building blocks
# ---------------------------------------------------------------------------

def beta_fn(x: float, y: float) -> float:
    """Beta function via log-gamma (overflow safe)."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError("beta_fn arguments must be positive")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _frac(t: float) -> tuple[float, int]:
    it = math.floor(t)
    return t - it, int(it)


def gamma_ratio(eps: float, t: float, alpha: float) -> float:
    """Gamma({t}+alpha+1) / Gamma({t}+alpha+eps+1); equals 1/({t}+alpha+1) at eps=1."""
    ft, _ = _frac(t)
    return math.exp(math.lgamma(ft + alpha + 1.0) - math.lgamma(ft + alpha + eps + 1.0))


def deflation_product(eps: float, t: float, alpha: float, direct: bool = False) -> float:
    """prod_{l=1}^{[t]+1} (1 - eps/(alpha+eps+{t}+l)).

    The closed form Gamma(alpha+t+2) Gamma(alpha+eps+{t}+1) /
    (Gamma(alpha+{t}+1) Gamma(alpha+eps+t+2)) is used unless ``direct``
    forces the literal product (kept for cross-checks).
    """
    ft, it = _frac(t)
    if direct:
        ell = np.arange(1, it + 2, dtype=float)
        return float(np.prod(1.0 - eps / (alpha + eps + ft + ell)))
    return math.exp(
        math.lgamma(alpha + t + 2.0)
        + math.lgamma(alpha + eps + ft + 1.0)
        - math.lgamma(alpha + ft + 1.0)
        - math.lgamma(alpha + eps + t + 2.0)
    )


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


# ---------------------------------------------------------------------------
# tail-expansion parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailParams:
    """Parameters of a one-sided tail expansion of P(V >= v) near v = 1.

    ``eps`` lists (eps_0=0, ..., eps_n) with eps_{n-1} <= 1 < eps_n;
    ``gamma`` lists the matching coefficients, the last being the
    remainder magnitude (nonnegative); v0 is where the control starts.
    """

    alpha: float
    eps: tuple[float, ...]
    gamma: tuple[float, ...]
    v0: float = 0.0

    def __post_init__(self) -> None:
        eps, gam = tuple(self.eps), tuple(self.gamma)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "gamma", gam)
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if len(eps) != len(gam) or len(eps) < 2:
            raise ValueError("need matching eps/gamma lists with at least two entries")
        if eps[0] != 0.0 or any(a >= b for a, b in zip(eps, eps[1:])):
            raise ValueError("eps must be strictly ascending from 0")
        if not (eps[-2] <= 1.0 < eps[-1]):
            raise ValueError("need eps_{n-1} <= 1 < eps_n")
        if gam[-1] < 0.0:
            raise ValueError("remainder coefficient must be nonnegative")
        if not (0.0 <= self.v0 < 1.0):
            raise ValueError("v0 must lie in [0, 1)")

    @property
    def gamma_total(self) -> float:
        return float(sum(abs(g) for g in self.gamma))

    @property
    def beta(self) -> float:
        b = min(self.eps[-1], 1.0 + self.eps[1])
        if not (1.0 < b <= 2.0):
            raise AssertionError(f"beta = {b} escaped (1, 2]")
        return b

    def series_tail(self, v, sign: int = 0):
        """sum_{i<n} g_i (1-v)^(alpha+eps_i), plus sign * g_n remainder term."""
        v = np.asarray(v, dtype=float)
        one_m = 1.0 - v
        out = np.zeros_like(one_m)
        for e, g in zip(self.eps[:-1], self.gamma[:-1]):
            out = out + g * one_m ** (self.alpha + e)
        if sign:
            out = out + sign * self.gamma[-1] * one_m ** (self.alpha + self.eps[-1])
        return out


def chi_weighted_sum(params: TailParams, t: float, sign: int) -> float:
    """sum_{i=1}^{n-1} g_i L(eps_i) P(eps_i) + sign * g_n L(eps_n) P(eps_n).

    L and P are :func:`gamma_ratio` and :func:`deflation_product`; the
    i = 0 term (identically 1) is carried separately by the callers.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    a = params.alpha
    total = 0.0
    for e, g in zip(params.eps[1:-1], params.gamma[1:-1]):
        total += g * gamma_ratio(e, t, a) * deflation_product(e, t, a)
    e_n, g_n = params.eps[-1], params.gamma[-1]
    total += sign * g_n * gamma_ratio(e_n, t, a) * deflation_product(e_n, t, a)
    return total


def series_moment_closed(params: TailParams, t: float, sign: int) -> float:
    """Exact integral of t v^(t-1) (series_tail +- remainder): a Beta sum,
    sum_i g_i t B(t, alpha+eps_i+1) with the remainder signed."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    a = params.alpha
    total = 0.0
    for e, g in zip(params.eps[:-1], params.gamma[:-1]):
        total += g * t * beta_fn(t, a + e + 1.0)
    total += sign * params.gamma[-1] * t * beta_fn(t, a + params.eps[-1] + 1.0)
    return total


def series_moment_quad(params: TailParams, t: float, sign: int) -> float:
    """Quadrature of the same integral, for the dual-route identity check."""
    return _quad(lambda u: float(params.series_tail(u ** (1.0 / t), sign=sign)), 0.0, 1.0)


# ---------------------------------------------------------------------------
# moments of a distribution handle
# ---------------------------------------------------------------------------

def moment_mt(dist, t: float) -> float:
    """M_t = E[V^t] = integral_0^1 t v^(t-1) P(V >= v) dv, via the substitution
    v = u^(1/t) (uniform weight, stable for large t).

    QuadratureError is raised when quad's own error estimate exceeds 1e-9
    relative; that estimate is not a proven bound on the error."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 1.0
    return _quad(lambda u: float(dist.tail(u ** (1.0 / t))), 0.0, 1.0)


# Largest t of a moment curve.  R_t comes from two quadratures, each good to
# ~1e-11 relative, so it loses about log10(t) digits: on V ~ U[0, 1], 2 t R_t
# is within 4e-8 of 2t/(t+2) at t = 1e5, 1.2e-4 off at 1e7, and the
# quadrature fails by 1e10.  The slack admits a grid whose --t-hi is 1e5 but
# whose top point rounds a few ulps above it.
_T_MAX = 1e5


def moment_curve(dist, t_grid) -> np.ndarray:
    """Rows (t, M_t, M_{t+1}, R_t, 2 t R_t) over the grid; R_t = 1 - M_{t+1}/M_t, in [0, 1].

    Grids reaching above t = 1e5 are rejected (ValueError)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid > _T_MAX * (1.0 + 1e-12)):
        raise ValueError(
            f"moment curves stop at t = {_T_MAX:g}; got t = {float(t_grid.max())!r} "
            "(lower --t-hi)"
        )
    rows = []
    for t in t_grid:
        mt = moment_mt(dist, t)
        if mt <= 0.0:
            raise ZeroDivisionError(f"M_t underflowed at t={float(t)!r}")
        mt1 = moment_mt(dist, t + 1.0)
        rt = 1.0 - mt1 / mt
        rows.append((t, mt, mt1, rt, 2.0 * t * rt))
    return np.array(rows)


@dataclass(frozen=True)
class ScanResult:
    reached: bool
    t_star: float | None

    def __bool__(self) -> bool:  # truthy when the threshold exists on the grid
        return self.reached


def geometric_grid(lo: float, hi: float, per_decade: int = 64) -> np.ndarray:
    """Points from lo to hi, evenly spaced in log t, per_decade to a decade."""
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"grid needs finite 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade!r}")
    if not math.isfinite(hi / lo):
        raise ValueError(f"grid span hi/lo overflows, got lo={lo!r}, hi={hi!r}")
    decades = math.log10(hi / lo)
    return lo * 10.0 ** np.linspace(0.0, decades, int(round(decades * per_decade)) + 1)


_SCAN_SLACK = 1e-9


def _check_scan(alpha: float, t_grid) -> np.ndarray:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be ascending")
    if t_grid[-1] / t_grid[0] < 10.0**3 * (1.0 - 1e-12):
        raise ValueError("t_grid must span at least three decades")
    return t_grid


def threshold_scan(dist_or_params, alpha: float, t_grid) -> ScanResult:
    """Smallest grid t* with 2 t R_t >= alpha at every grid point t >= t*.

    Accepts either a distribution handle (empirical curve, the 2 t R_t
    column of :func:`moment_curve`) or :class:`TailParams` (certified
    lower-bound curve; enlarging the remainder coefficient can only push t*
    up).  alpha must be finite and positive; grids must be ascending and
    span at least three decades.  ``NotReached`` is expressed as
    ``reached=False``, not an error.
    """
    t_grid = _check_scan(alpha, t_grid)
    if isinstance(dist_or_params, TailParams):
        gap = certified_gap_curve(dist_or_params, t_grid)
    else:
        gap = moment_curve(dist_or_params, t_grid)[:, 4]
    return threshold_from_gap(gap, alpha, t_grid)


def threshold_from_gap(gap, alpha: float, t_grid) -> ScanResult:
    """The :func:`threshold_scan` verdict for an already computed 2 t R_t curve."""
    t_grid = _check_scan(alpha, t_grid)
    gap = np.asarray(gap, dtype=float)
    ok = gap >= alpha * (1.0 - _SCAN_SLACK) - 1e-12
    if not ok[-1]:
        return ScanResult(False, None)
    idx = len(ok) - 1
    while idx > 0 and ok[idx - 1]:
        idx -= 1
    return ScanResult(True, float(t_grid[idx]))


def certified_gap_curve(params: TailParams, t_grid) -> np.ndarray:
    """Certified lower bound on 2 t R_t from the tail expansion alone.

    Splitting M_t at v0 gives M_t >= m^-(t) - g v0^t and
    M_{t+1} <= m^+(t+1) + (1 + g) v0^(t+1), with m^+- the exact Beta-form
    series moments and g the total coefficient mass; the bound is
    2t (1 - M^+ / M^-), or -inf where the denominator is not yet positive.
    """
    g = params.gamma_total
    out = np.empty(len(t_grid))
    for k, t in enumerate(np.asarray(t_grid, dtype=float)):
        lower = series_moment_closed(params, t, -1) - g * params.v0**t
        upper = series_moment_closed(params, t + 1.0, +1) + (1.0 + g) * params.v0 ** (t + 1.0)
        if lower <= 0.0:
            out[k] = -math.inf
        else:
            out[k] = 2.0 * t * (1.0 - upper / lower)
    return out


# ---------------------------------------------------------------------------
# the bounding-constant inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiCheckReport:
    beta: float
    bound_constant: float
    max_violation_diff: float    # chi_+(t+1) - chi_-(t) - [2 g_n + eps_n g] C t^-beta
    max_violation_lower: float   # -C g t^-eps_1 - chi_-(t)

    @property
    def ok(self) -> bool:
        return self.max_violation_diff <= 1e-12 and self.max_violation_lower <= 1e-12


def lemma_chi_check(params: TailParams, t_grid) -> ChiCheckReport:
    """Evaluate both chi inequalities on the grid with the explicit constant
    C = max_i (alpha + eps_i + 3)^eps_i; violations should not exceed 1e-12."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 1.0):
        raise ValueError("the chi bounds hold for t >= 1")
    a = params.alpha
    C = max((a + e + 3.0) ** e for e in params.eps[1:])
    g = params.gamma_total
    g_n = params.gamma[-1]
    e_n = params.eps[-1]
    e_1 = params.eps[1]
    beta = params.beta
    v_diff = -math.inf
    v_low = -math.inf
    for t in t_grid:
        chi_plus = chi_weighted_sum(params, t + 1.0, +1)
        chi_minus = chi_weighted_sum(params, t, -1)
        v_diff = max(v_diff, chi_plus - chi_minus - (2.0 * g_n + e_n * g) * C * t**-beta)
        v_low = max(v_low, -C * g * t**-e_1 - chi_minus)
    return ChiCheckReport(beta, C, float(v_diff), float(v_low))


# ---------------------------------------------------------------------------
# distribution handles
# ---------------------------------------------------------------------------

class UniformV:
    """V uniform on [0, 1]: M_t = 1/(t+1), 2 t R_t = 2t/(t+2)."""

    def tail(self, v):
        return 1.0 - np.asarray(v, dtype=float)


class PointMassOneV:
    """V = 1 almost surely: M_t = 1, R_t = 0."""

    def tail(self, v):
        return np.ones_like(np.asarray(v, dtype=float))


class BetaTailV:
    """P(V >= v) = (1 - v)^alpha: M_t = t B(t, alpha + 1); alpha in [0.01, 5]."""

    def __init__(self, alpha: float):
        # A sweep of t over [1e-3, 1e5] found M_t within 3e-10 of t B(t, alpha + 1)
        # and 2 t R_t within 3e-5 of 2 t alpha/(t + alpha + 1) on this range; the
        # quadrature fails near t = 8e4 from alpha = 5.75-6 and at t = 1 for
        # alpha = 1000, and 2 t R_t is 3e-4 off at alpha = 1e-3.
        if not 0.01 <= alpha <= 5.0:
            raise ValueError(f"beta alpha must be finite and in [0.01, 5], got {alpha!r}")
        self.alpha = alpha

    def tail(self, v):
        return (1.0 - np.asarray(v, dtype=float)) ** self.alpha


class QuadraticV:
    """Density 2v on [0, 1]: tail 1 - v^2, M_t = 2/(t+2)."""

    def tail(self, v):
        return 1.0 - np.asarray(v, dtype=float) ** 2


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

    def tail(self, v):
        return np.clip(self.params.series_tail(v), 0.0, 1.0)


class ConditionalZetaV:
    """V = zeta(U) with U the scaled external-branch variable conditioned on
    4 P0 - 1 = z; the tail is P(V >= v | z) = G(z, zeta^{-1}(v) (3 - z)/2)."""

    def __init__(self, prior: Prior, z: float):
        self.prior = prior
        self.z = float(z)

    def tail(self, v: float) -> float:
        return self.prior.g(self.z, float(zeta_inv(v)) * (3.0 - self.z) / 2.0)
