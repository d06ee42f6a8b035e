"""Moment ratios of [0,1]-valued random variables and threshold scans.

For a random variable V on [0, 1] define M_t = E[V^t] and the ratio gap
R_t = 1 - M_{t+1}/M_t.  When the upper tail P(V >= v) behaves like a
generalized power series in (1 - v) with leading exponent alpha,

    | P(V >= v) - sum_{i<n} g_i (1 - v)^(alpha + eps_i) | <= g_n (1 - v)^(alpha + eps_n)

for v0 <= v <= 1 with 0 = eps_0 < ... < eps_{n-1} <= 1 < eps_n, then
2 t R_t -> 2 alpha, and in particular 2 t R_t >= alpha for all t past a
finite threshold that depends continuously on the coefficients.  This
module evaluates the moments (by one fixed quadrature rule over the whole
t grid, see :func:`moment_curve`), the closed Beta-function forms of the
series moments, the gamma-ratio bounding factors behind the threshold
certificate, and the threshold scans themselves.

Everything gamma-related is evaluated through log-gamma (``math.lgamma``),
so arguments up to 1e6 are safe.  Neither the moment rule nor any tail
it reads (the priors' G included) needs scipy.  The fractional/integer
split {t}, [t] uses floor semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import zeta_inv
from .priors import Prior, QuadratureError, _gauss_legendre

__all__ = [
    "TailParams",
    "beta_fn",
    "gamma_ratio",
    "deflation_product",
    "chi_weighted_sum",
    "series_moment_closed",
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


def deflation_product(eps: float, t: float, alpha: float) -> float:
    """prod_{l=1}^{[t]+1} (1 - eps/(alpha+eps+{t}+l)), in the closed form
    Gamma(alpha+t+2) Gamma(alpha+eps+{t}+1) / (Gamma(alpha+{t}+1) Gamma(alpha+eps+t+2))."""
    ft, _ = _frac(t)
    return math.exp(
        math.lgamma(alpha + t + 2.0)
        + math.lgamma(alpha + eps + ft + 1.0)
        - math.lgamma(alpha + ft + 1.0)
        - math.lgamma(alpha + eps + t + 2.0)
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
            raise ValueError(f"beta = min(eps_n, 1 + eps_1) = {b!r} must lie in (1, 2]")
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


# ---------------------------------------------------------------------------
# moments of a distribution handle
# ---------------------------------------------------------------------------

def moment_mt(dist, t: float) -> float:
    """M_t = E[V^t], by the rule of :func:`moment_curve` at the one point t."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 1.0
    return float(_moments(dist, np.array([float(t)]))[0][0])


# Largest t of a moment curve.  Every node's gap y = 1 - u^(1/t) comes from log u
# without rounding v, so on BetaTailV, alpha in [0.01, 5], 2 t R_t stays within
# 3.8e-14 of 2 t alpha/(t + alpha + 1) for t in [1e-3, 1e5], and within 1.9e-14 at
# t = 1e6 and 1e7; the cap stays until larger t is checked on the zeta curves.
# The slack admits a grid whose --t-hi is 1e5 but whose top point rounds a few
# ulps above it.
_T_MAX = 1e5

#: Gauss-Legendre nodes per panel; the error estimate compares with twice as many
_GL_NODES = 16
#: panels graded toward each end of the u-interval, each this ratio of the next
_LEVELS, _GRADING = 26, 0.2
#: relative rounding charged to each term of the rule's sums (16 ulps)
_SUM_ROUNDING = 2.0**-49
_REL_TOL = 1e-9


def _half_panels(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights, shape (_LEVELS + 1, k), of a k-point Gauss-Legendre rule on
    each panel of [0, 1/2], the panels graded geometrically toward 0."""
    edges = np.concatenate(([0.0], 0.5 * _GRADING ** np.arange(_LEVELS, -1, -1.0)))
    nodes, weights = _gauss_legendre(k)
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (1.0 + nodes), half * weights


def _rule_sums(exact, coarse, fine) -> tuple[np.ndarray, np.ndarray]:
    """Value (the 2k-node rule) and error estimate per t of one integral, from its exact
    part and the per-node terms of the k- and the 2k-node rule."""
    value = exact + np.sum(fine, axis=(1, 2))
    err = (np.abs(value - exact - np.sum(coarse, axis=(1, 2)))
           + _SUM_ROUNDING * np.sum(np.abs(fine), axis=(1, 2)))
    return value, err


def _moments(dist, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """M_t = E[V^t], D_t = M_t - M_{t+1} = E[V^t (1 - V)] and their error estimates at
    every t > 0, from one tail call.

    In u = v^t, M_t = integral_0^1 tail(y) du with the gap y = 1 - u^(1/t) =
    -expm1(log(u)/t), and D_t is the same integral with the weight omega = 1 - (1 +
    1/t) u^(1/t) = y - v/t, which is O(1/t), so D_t comes without the cancellation of
    M_t - M_{t+1}.  The tail is 1 for y >= y_one (``dist.y_one``, 1 when the handle
    has none), that is on u <= a = (1 - y_one)^t, where both integrals are exact (a
    and a y_one).  [a, 1] is cut in two at its middle, each half into panels graded
    geometrically toward its end.  Each node's y is formed from its log u, which is
    log1p(-w) of the node's w = 1 - u where u > 1/2, so no node rounds v; every node
    of both rules and every t go to the tail in one array.

    The error estimate is, per t, the difference between the 2k- and the k-node rule
    plus 16 ulps of each term.  QuadratureError is raised when an estimate exceeds
    1e-9 of its own integral, so M_t, D_t and R_t = D_t/M_t are good to 1e-9 relative
    (2e-9 for R_t).  A D_t far below M_t can fail where M_t passes: ``power:1e-9`` has
    D_t = 5.5e-10 at t = 0.5, where its estimate is 2.7e-6 of D_t.
    """
    t = np.asarray(t, dtype=float)
    y_one = float(getattr(dist, "y_one", 1.0))
    log_v_one = math.log1p(-y_one) if y_one < 1.0 else -math.inf
    a = np.exp(t * log_v_one)
    t = t[:, None, None]
    span = -np.expm1(t * log_v_one)  # 1 - a
    rules = []
    for k in (_GL_NODES, 2 * _GL_NODES):
        x, wx = _half_panels(k)
        # the lower half's rows count x up from a, the upper half's down from 1; w = 1 - u
        lower = np.arange(2 * len(x))[:, None] < len(x)
        x, wx = np.concatenate([x, x]), np.concatenate([wx, wx])
        w = span * np.where(lower, 1.0 - x, x)
        with np.errstate(divide="ignore"):  # log1p(-w) at w = 1 is not taken
            log_v = np.where(w < 0.5, np.log1p(-w), np.log(a[:, None, None] + span * x)) / t
        rules.append((log_v, span * wx))
    y = [-np.expm1(log_v) for log_v, _ in rules]
    f = np.split(dist.tail(np.concatenate([yr.ravel() for yr in y])), [y[0].size])
    m, d = [], []
    for (log_v, weight), yr, fr in zip(rules, y, f):
        terms = weight * fr.reshape(yr.shape)
        m.append(terms)
        d.append(terms * (yr - np.exp(log_v) / t))
    mt, err_m = _rule_sums(a, *m)
    dt, err_d = _rule_sums(a * y_one, *d)
    for name, value, err in (("M_t", mt, err_m), ("D_t", dt, err_d)):
        gate = _REL_TOL * value
        bad = ~(err <= gate)
        if bad.any():
            i = int(np.argmax(bad))
            raise QuadratureError(f"moment rule did not converge for {name} at t={float(t.flat[i])!r}: "
                                  f"its error estimate exceeds the gate 1e-9·{name} = {gate[i]:.3g}",
                                  float(value[i]), float(err[i]))
    return mt, dt, err_m, err_d


def moment_curve(dist, t_grid) -> np.ndarray:
    """Rows (t, M_t, M_{t+1}, R_t, 2 t R_t) over the grid; R_t = D_t / M_t, in [0, 1].

    One rule in u = v^t gives M_t and D_t = M_t - M_{t+1} for the whole grid from
    one array call of ``dist.tail`` (see ``_moments``); M_{t+1} is M_t - D_t.  A
    handle's ``tail(y)`` is P(V >= 1 - y), read at the gap y; it may set ``y_one``,
    the smallest y with tail(y) = 1, where the rule then splits.  Grids reaching
    above t = 1e5 are rejected (ValueError).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid > _T_MAX * (1.0 + 1e-12)):
        raise ValueError(
            f"moment curves stop at t = {_T_MAX:g}; got t = {float(t_grid.max())!r} "
            "(lower --t-hi)"
        )
    if np.any(t_grid <= 0.0):
        raise ValueError("moment curves need t > 0")
    mt, dt, _, _ = _moments(dist, t_grid)
    if np.any(mt <= 0.0):
        raise ZeroDivisionError(f"M_t underflowed at t={float(t_grid[np.argmax(mt <= 0.0)])!r}")
    rt = dt / mt
    return np.column_stack([t_grid, mt, mt - dt, rt, 2.0 * t_grid * rt])


@dataclass(frozen=True)
class ScanResult:
    reached: bool
    t_star: float | None


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

    def tail(self, y):
        return np.array(y, dtype=float)


class PointMassOneV:
    """V = 1 almost surely: M_t = 1, R_t = 0."""

    y_one = 0.0

    def tail(self, y):
        return np.ones_like(np.asarray(y, dtype=float))


class BetaTailV:
    """P(V >= 1 - y) = y^alpha: M_t = t B(t, alpha + 1); alpha in [0.01, 5]."""

    def __init__(self, alpha: float):
        # A sweep of t over [1e-3, 1e5] found 2 t R_t within 3.8e-14 of 2 t alpha/(t +
        # alpha + 1) on this range, with the rule's estimate covering its error;
        # outside it the rule raises QuadratureError at alpha = 20 (t = 56) and
        # alpha = 100 (t = 0.06).
        if not 0.01 <= alpha <= 5.0:
            raise ValueError(f"beta alpha must be finite and in [0.01, 5], got {alpha!r}")
        self.alpha = alpha

    def tail(self, y):
        return np.asarray(y, dtype=float) ** self.alpha


class QuadraticV:
    """Density 2v on [0, 1]: tail 1 - v^2 = y (2 - y), M_t = 2/(t+2)."""

    def tail(self, y):
        y = np.asarray(y, dtype=float)
        return y * (2.0 - y)


class ConditionalZetaV:
    """V = zeta(U) with U the scaled external-branch variable conditioned on
    4 P0 - 1 = z; the tail is P(V >= 1 - y | z) = G(z, x (3 - z)/2), where x is the
    root of 1 - zeta(x) = x^2 (3 - 2x) = y.

    As 1 - zeta(x) ~ 3 x^2 at x = 0, a CDF exponent alpha of G in s gives the
    tail exponent alpha/2 in y, so 2 t R_t tends to alpha."""

    def __init__(self, prior: Prior, z: float):
        self.prior = prior
        self.z = float(z)
        # G(z, s) = 1 from s_sat on, that is from x_one = 2 s_sat / (3 - z) on
        x_one = min(1.0, 2.0 * prior.s_sat(self.z) / (3.0 - self.z))
        self.y_one = x_one * x_one * (3.0 - 2.0 * x_one)

    def tail(self, y):
        return self.prior.g(self.z, zeta_inv(y) * (3.0 - self.z) / 2.0)
