"""Branch-length prior catalog and the conditional CDF machinery.

Each prior describes the joint law of the branch-length pair (Te, Ti).  In
the transformed coordinates Se = exp(-4 Te), Si = 1 + 2 exp(-4 Ti) the
quantity 4 P0 - 1 equals Z = Se * Si, and the conditional CDF

    G(z, s) = P(Se (3 - Si) <= 2 s | Se Si = z)

drives everything downstream.  G is computed as a ratio H(z, s) / H(z,
s_sat), where H is an unnormalized section integral of the joint density
along the hyperbola Se Si = z, taken at every s of an array by one fixed
Gauss-Legendre rule where no closed form exists (``_running_rule``).  For
the discrete catalog entry H is a step function with an exact index formula
instead, and G is formed from its log.  The saturation point s_sat is where
the integration limit stops moving, so G(z, s) = 1 beyond it.

Catalog (in every entry Te is exponential and independent of Ti, with rate
4 except in "tame", where it is a parameter; only the law of Ti changes):

    tame      smooth everywhere-positive product density (rates re, ri)
    uniform   Ti uniform on [0, theta]
    power     Ti with density theta * t^(theta-1) on [0, 1], theta in (0,1)
    logti     Ti with density log(1/t) on [0, 1]
    tlogti    Ti with density 4 t log(1/t) on [0, 1]
    discrete  Ti supported on the atoms n^(-a) with tail weights n^(-b)

Priors serialize to JSON objects {"kind": ..., "params": {...}}; the same
kind strings double as CLI shorthand (e.g. ``uniform:1.0``,
``discrete:0.1,0.5``).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "Prior",
    "TamePrior",
    "UniformPrior",
    "PowerPrior",
    "LogPrior",
    "TLogPrior",
    "DiscretePrior",
    "PRIOR_KINDS",
    "h_aux",
    "prior_from_json",
    "parse_prior",
]

class QuadratureError(RuntimeError):
    """A quadrature rule's error estimate exceeded its bound; carries the value and estimate."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(f"{message} (value={value!r}, error estimate={error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate


#: Gauss-Legendre nodes per panel of the H rule; its error estimate compares with twice as many
_H_NODES = 16
#: below this fraction of z (of q = (Si - 1)/2 for ``tame``) H takes its leading term in closed form
_H_TAIL = 1e-16
#: relative bound on the H rule's error estimate
_H_REL_TOL = 1e-9
#: most panels an H rule may add beyond one per piece: a bound on its time
_H_MAX_EXTRA_PANELS = 1 << 15
#: panels whose nodes f takes in one array: a bound on the rule's memory (4096 x 48 nodes)
_H_BLOCK = 1 << 12


def _running_rule(f: Callable[[np.ndarray, np.ndarray], np.ndarray], base: np.ndarray,
                  width: np.ndarray, max_width: float, offset: float = 0.0) -> np.ndarray:
    """offset + the integral of f over pieces 0 to i, for every piece i of a chain.

    Piece i starts where f's variable is ``base[i]`` and spans ``width[i]`` >= 0 of it;
    f(base, d) takes a point as its piece's base and the offset d from there, so no
    node carries the rounding of a large variable.  Each piece is cut into equal
    panels no wider than ``max_width``, and f takes the nodes of up to ``_H_BLOCK``
    panels in one array.  The value is the 2k-node Gauss-Legendre rule (k =
    ``_H_NODES``) and the error estimate the accumulated difference from the k-node
    rule; QuadratureError is raised where that exceeds 1e-9 of the value.
    """
    panels = np.ceil(width / max_width)  # 0 on a piece of no width
    extra = float(panels.sum()) - width.size
    if extra > _H_MAX_EXTRA_PANELS:
        raise ValueError(f"the H rule would need {extra:.4g} panels beyond one a piece (limit "
                         f"{_H_MAX_EXTRA_PANELS}): the integrand varies too fast for it")
    panels = panels.astype(int)
    piece = np.repeat(np.arange(width.size), panels)
    step = (width / np.maximum(panels, 1))[piece]
    start = (np.arange(piece.size) - np.repeat(np.cumsum(panels) - panels, panels)) * step
    (x16, w16), (x32, w32) = _gauss_legendre(_H_NODES), _gauss_legendre(2 * _H_NODES)
    nodes = 1.0 + np.concatenate([x16, x32])
    coarse, fine = np.empty(piece.size), np.empty(piece.size)
    for block in range(0, piece.size, _H_BLOCK):
        at = slice(block, block + _H_BLOCK)
        half = 0.5 * step[at]
        values = f(base[piece[at]][:, None], start[at, None] + half[:, None] * nodes)
        coarse[at] = values[:, :_H_NODES] @ w16 * half
        fine[at] = values[:, _H_NODES:] @ w32 * half

    def running(per_panel):
        return np.cumsum(np.bincount(piece, weights=per_panel, minlength=width.size))

    value, err = offset + running(fine), running(np.abs(fine - coarse))
    bad = ~(err <= _H_REL_TOL * np.abs(value))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError("H rule did not converge", float(value[i]), float(err[i]))
    return value


@functools.lru_cache(maxsize=4)
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss  # not at import: keeps start-up light

    return leggauss(k)


def h_aux(u):
    """The index function h(u) = -(1/4) log(1 - 3u/(1+2u)) on [0, 1].

    Equals (1/4)(log1p(2u) - log1p(-u)); increasing, h(0) = 0,
    h(u)/u -> 3/4 at 0, and h(1) = +inf.  u may be an array; the result is
    then an array of its shape, else a float.
    """
    u = np.asarray(u, dtype=float)
    bad = ~((u >= 0.0) & (u <= 1.0))
    if bad.any():
        raise ValueError(f"h_aux argument must lie in [0, 1], got {float(u[bad].flat[0])!r}")
    with np.errstate(divide="ignore"):  # h(1) = inf
        out = 0.25 * (np.log1p(2.0 * u) - np.log1p(-u))
    return float(out) if out.ndim == 0 else out


class Prior:
    """Base class: joint law of (Te, Ti) plus the G(z, .) machinery.

    Te ~ Exp(rate_e), independent of Ti.  A catalog subclass declares its Ti
    law (``_sample_ti``, ``_log_ti_cdf``, ``_h``, and ``ti_max`` where Ti is not
    bounded by 1) and its constructor arguments, stored under their own names,
    in constructor order, as the only instance attributes.  So ``params()`` is
    the instance's ``vars``, a pickled copy carries exactly them, and a
    replay's ``--spec`` is read off ``params().values()``.
    """

    kind: str = "abstract"
    rate_e: float = 4.0  # Te rate; at 4, Se = exp(-4 Te) is uniform on [0, 1]
    ti_max: float = 1.0  # top of the Ti support

    # ---- serialization ------------------------------------------------
    def params(self) -> dict:
        return dict(vars(self))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params()}

    def declared_tempering(self) -> dict | None:
        """Known classification metadata (k, alpha, eps) when established.

        Returns None when nothing is declared; the classifier in
        :mod:`starparadox.tempering` must then decide from scratch.
        """
        return None

    # ---- sampling -----------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw (te, ti) arrays of the given size, te first."""
        te = rng.exponential(scale=1.0 / self.rate_e, size=size)
        return te, self._sample_ti(rng, size)

    def _sample_ti(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    # ---- marginal pieces used by the corner probability ----------------
    def log_ti_cdf(self, x):
        """log P(Ti <= x): -inf for x <= 0, 0 from the top of the Ti support on.

        x may be an array; the result is then an array of its shape, else a float.
        Every element is read by the same formula as a float, in one array pass.
        """
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf at x <= 0
            out = self._log_ti_cdf(np.asarray(x, dtype=float))
        return float(out) if out.ndim == 0 else out

    def _log_ti_cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_q_n(self, t: float, n):
        """log P(Ti <= 1/n, t <= Te <= t + 1/n) for the independent catalog, Te ~ Exp(rate_e).

        Summed as log P(Ti <= 1/n) + (-rate_e t + log(1 - exp(-rate_e (1/n)))), in that order.
        n may be an array; the result is then an array of its shape, else a float.
        """
        n = np.asarray(n, dtype=float)
        if np.any(n < 1.0):
            raise ValueError("n must be >= 1")
        if t <= 0.0:
            raise ValueError("t must be > 0")
        width = 1.0 / n
        out = self.log_ti_cdf(width) + (-self.rate_e * t + np.log(-np.expm1(-self.rate_e * width)))
        return float(out) if out.ndim == 0 else out

    # ---- section integral H and conditional CDF G ----------------------
    @property
    def y_min(self) -> float:
        """Bottom of the Si support, 1 + 2 exp(-4 ti_max)."""
        return 1.0 + 2.0 * math.exp(-4.0 * self.ti_max)

    def s_sat(self, z: float) -> float:
        """Saturation point: G(z, s) = 1 for s >= s_sat(z)."""
        z = _check_z(z)
        return 0.5 * (3.0 * min(1.0, z / self.y_min) - z)

    def h(self, z: float, s):
        """Unnormalized section integral H(z, s); nondecreasing in s.

        s may be an array; the result is then an array of its shape, else a float.
        """
        out = self._h(_check_z(z), _check_s(s))
        return float(out) if out.ndim == 0 else out

    def _h(self, z: float, s: np.ndarray) -> np.ndarray:
        """H(z, s) at a validated z and array s, by the one route the prior's parameters pick."""
        raise NotImplementedError

    def h_sat(self, z: float) -> float:
        """H(z, s_sat(z)), the normalizer of G(z, .)."""
        return self.h(z, self.s_sat(z))

    def g(self, z: float, s):
        """Conditional CDF G(z, s) = H(z, min(s, s_sat)) / H(z, s_sat) in [0, 1].

        s may be an array; the result is then an array of its shape, else a float.
        """
        h = self.h(z, s)
        denom = self.h_sat(z)
        if denom <= 0.0:
            raise ValueError(f"H(z, s_sat) underflows to 0 at z={float(z)!r} for {self.to_dict()}: "
                             "G is not representable there")
        out = np.clip(np.asarray(h) / denom, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out


def _check_z(z: float) -> float:
    z = float(z)
    if not (0.0 < z < 3.0):
        raise ValueError(f"z must lie in (0, 3), got {z!r}")
    return z


def _check_s(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    bad = ~(np.isfinite(s) & (s >= 0.0))
    if bad.any():
        raise ValueError(f"s must be finite and >= 0, got {float(s[bad].flat[0])!r}")
    return s


class _ExpIndepPrior(Prior):
    """A Ti density with Te at the base rate 4, so that Se is uniform on [0, 1].

    Subclasses provide the Ti law, the section-integrand factor ``rho(k)`` on arrays,
    where k = h_aux(xi / z), and its integral ``R(k)`` = int_0^k rho; the shared form is

        H(z, s) = int_0^min(s, s_sat) rho(h_aux(xi/z)) dxi / (z - xi).

    In u = log(xi / (z - xi)) the measure dxi / (z - xi) is sigma du, sigma = xi/z, and
    rho(h_aux(sigma)) sigma is analytic in the strip |Im u| < pi: the singularity of
    rho at k = 0 becomes a power of e^u as u -> -inf, and the pole at xi = z moves to
    u = +inf.  So one rule serves every s (``_running_rule``, panels at most 1 wide in
    u).  Below xi = 1e-16 z, where h_aux(sigma) = 3 sigma/4 and z - xi = z to relative
    O(sigma), H is the closed form (4/3) R(3 xi / 4z).
    """

    def _rho(self, k):
        raise NotImplementedError

    def _rho_integral(self, k: float) -> float:
        raise NotImplementedError

    def _integrand(self, r: np.ndarray, d: np.ndarray) -> np.ndarray:
        """rho(h_aux(sigma)) sigma at u = log(r) + d, where e^u = sigma / (1 - sigma)."""
        e_u = r * np.exp(d)
        sigma = e_u / (1.0 + e_u)
        return self._rho(h_aux(sigma)) * sigma

    def _h(self, z: float, s: np.ndarray) -> np.ndarray:
        sigma = np.minimum(s, self.s_sat(z)) / z
        positive = sigma > 0.0
        h = np.zeros_like(sigma)
        if positive.any():
            ends, inverse = np.unique(sigma[positive], return_inverse=True)
            lo = np.concatenate(([min(_H_TAIL, ends[0])], ends[:-1]))
            # each piece's width in u, from ratios: no ulp of a large |u| enters
            width = np.log(ends / lo) + (np.log1p(-lo) - np.log1p(-ends))
            tail = 4.0 / 3.0 * self._rho_integral(0.75 * lo[0])
            h[positive] = _running_rule(self._integrand, lo / (1.0 - lo), width, 1.0, tail)[inverse]
        return h


class UniformPrior(_ExpIndepPrior):
    """Ti uniform on [0, theta].  H(z, s) = -log(1 - s/z) up to saturation."""

    kind = "uniform"

    def __init__(self, theta: float):
        theta = float(theta)
        if not (math.isfinite(theta) and theta > 0.0):
            raise ValueError(f"theta must be > 0, got {theta!r}")
        self.theta = theta

    @property
    def ti_max(self) -> float:
        return self.theta

    def _rho(self, k):
        return 1.0

    def _h(self, z: float, s: np.ndarray) -> np.ndarray:
        s_sat = self.s_sat(z)
        with np.errstate(divide="ignore", invalid="ignore"):  # s_sat/z >= 1 in rounding; see below
            h = -np.log1p(-np.minimum(s, s_sat) / z)  # log1p keeps every digit as s/z -> 0
        if z <= 1.0 or z < self.y_min:
            # H(z, s_sat) = -log(1 - s_sat/z) in closed form: 1 - s_sat/z =
            # 3 exp(-4 theta) / y_min cancels, to 0 or below once y_min
            # rounds to 1 (theta >= 9.5)
            saturated = 4.0 * self.theta + math.log1p(2.0 * math.exp(-4.0 * self.theta)) - math.log(3.0)
            h = np.where(s >= s_sat, saturated, h)
        return h

    def _sample_ti(self, rng, size):
        return self.theta * rng.random(size)

    def _log_ti_cdf(self, x):
        return np.minimum(0.0, np.log(np.maximum(x, 0.0) / self.theta))

    def declared_tempering(self) -> dict:
        return {"tempered": True, "k": 3, "alpha": 1.0, "eps": (1.0, 2.0, 3.0)}


class PowerPrior(_ExpIndepPrior):
    """Ti with density theta * t^(theta - 1) on [0, 1], theta in (0, 1).

    The section integrand has an integrable endpoint singularity of order
    theta - 1 at xi = 0; in the shared rule's variable it is the factor
    e^(theta u), and the closed form below 1e-16 z carries the rest.
    """

    kind = "power"

    def __init__(self, theta: float):
        theta = float(theta)
        if not (0.0 < theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
        self.theta = theta

    def _rho(self, k):
        return k ** (self.theta - 1.0)

    def _rho_integral(self, k):
        return k**self.theta / self.theta

    def _sample_ti(self, rng, size):
        return rng.random(size) ** (1.0 / self.theta)

    def _log_ti_cdf(self, x):
        return self.theta * np.minimum(0.0, np.log(np.maximum(x, 0.0)))

    def declared_tempering(self) -> dict:
        return {"tempered": True, "k": 3, "alpha": self.theta, "eps": (1.0, 2.0, 3.0)}


class LogPrior(_ExpIndepPrior):
    """Ti with density log(1/t) on [0, 1] (the law of a product of two uniforms)."""

    kind = "logti"

    def _rho(self, k):
        return -np.log(k)

    def _rho_integral(self, k):
        return k * (1.0 - math.log(k))

    def _sample_ti(self, rng, size):
        return rng.random(size) * rng.random(size)

    def _log_ti_cdf(self, x):
        log_x = np.log(np.minimum(x, 1.0))
        return np.where(x > 0.0, log_x + np.log1p(-log_x), -math.inf)

    def declared_tempering(self) -> dict:
        return {"tempered": False, "diagnostic": "s·log s"}


class TLogPrior(_ExpIndepPrior):
    """Ti with density 4 t log(1/t) on [0, 1] (square root of a product of uniforms)."""

    kind = "tlogti"

    def _rho(self, k):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(k > 0.0, -4.0 * k * np.log(k), 0.0)

    def _rho_integral(self, k):
        return k * k * (1.0 - 2.0 * math.log(k))

    def _sample_ti(self, rng, size):
        return np.sqrt(rng.random(size) * rng.random(size))

    def _log_ti_cdf(self, x):
        log_x = np.log(np.minimum(x, 1.0))
        return np.where(x > 0.0, 2.0 * log_x + np.log1p(-2.0 * log_x), -math.inf)

    def declared_tempering(self) -> dict:
        return {"tempered": False, "diagnostic": "s^2·log s"}


class TamePrior(Prior):
    """Smooth product prior: Te ~ Exp(rate_e), Ti ~ Exp(rate_i), independent.

    The joint density is smooth, bounded and everywhere nonzero on the
    quadrant, which is the regularity class whose members are all tempered.
    In (Se, Si) coordinates the density is

        pi(x, y) = (re/4) x^(re/4 - 1) * (ri/8) ((y-1)/2)^(ri/4 - 1)

    on 0 < x <= 1 < y <= 3, and H(z, s) integrates pi(x, z/x)/x over
    x in [z/3, m(s, z)] with m(s, z) = min(1, z, (2s+z)/3).  For the
    default rates (4, 4) this is (1/2) log(3 m / z) in closed form, written
    (1/2) log1p(2s/z) below the cap min(1, z).

    At other rates, with mu = re/4 and lam = ri/4, H is the integral over w in
    [0, -log q] of mu lam z^(mu-1) (1 + 2q)^(-mu) q^lam, q = e^-w, where q =
    (z/m - 1)/2 is (Si - 1)/2 at the upper end; the integrand is analytic in
    |Im w| < pi, so ``_running_rule`` takes it on panels at most 1/max(1, mu,
    lam) wide.  Beyond q = 1e-16, where (1 + 2q)^-mu = 1 to relative O(mu q),
    the rest is the closed form mu lam z^(mu-1) (q_top^lam - q^lam) / lam.
    """

    kind = "tame"
    ti_max = math.inf

    def __init__(self, rate_e: float = 4.0, rate_i: float = 4.0):
        for name, v in (("rate_e", rate_e), ("rate_i", rate_i)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be > 0, got {v!r}")
            setattr(self, name, float(v))

    def _sample_ti(self, rng, size):
        return rng.exponential(scale=1.0 / self.rate_i, size=size)

    def _log_ti_cdf(self, x):
        return np.log(-np.expm1(-self.rate_i * np.maximum(x, 0.0)))

    def declared_tempering(self) -> dict:
        return {"tempered": True, "k": 3, "alpha": 1.0, "eps": (1.0, 2.0, 3.0)}

    def _h(self, z: float, s: np.ndarray) -> np.ndarray:
        cap = min(1.0, z)
        below = s < self.s_sat(z)  # m = (2s + z)/3 below the cap; rounding must not leave it
        if (self.rate_e, self.rate_i) == (4.0, 4.0):
            return np.where(below, 0.5 * np.log1p(2.0 * s / z), 0.5 * math.log(3.0 * cap / z))
        mu, lam = self.rate_e / 4.0, self.rate_i / 4.0
        log_c = math.log(mu) + math.log(lam) + (mu - 1.0) * math.log(z)
        with np.errstate(divide="ignore"):  # q = 0, w = inf at saturation when z <= 1
            # below the cap q = (z - s)/(2s + z), and -log q = 4 h_aux(s/z) keeps every digit
            w = np.where(below, 4.0 * h_aux(np.minimum(s / z, 1.0)), -np.log((z / cap - 1.0) / 2.0))
        top = -math.log(_H_TAIL)
        beyond = np.zeros(np.shape(w))
        far = w > top  # only where z <= 1 + 2e-16, so z^(mu-1) does not overflow
        if far.any():
            beyond[far] = math.exp(log_c - lam * top) * -np.expm1(-lam * (w[far] - top)) / lam
        ends, inverse = np.unique(np.minimum(w, top), return_inverse=True)
        lo = np.concatenate(([0.0], ends[:-1]))

        def integrand(v, d):
            return np.exp(log_c - mu * np.log1p(2.0 * np.exp(-(v + d))) - lam * (v + d))

        h = _running_rule(integrand, lo, ends - lo, 1.0 / max(1.0, mu, lam))
        return h[inverse].reshape(np.shape(s)) + beyond


class DiscretePrior(Prior):
    """Ti supported on the atoms t_n = n^(-a) with P(Ti = t_n) proportional to
    y_n (n^(-b) - (n+1)^(-b)), y_n = 1 + 2 exp(-4 t_n); Te ~ Exp(4) independent.

    Requires 3a < min(1, b) and b/a <= 50.  The section function is the exact step
    H(z, s) = n(z, s)^(-b), where n(z, s) is the smallest index whose atom
    satisfies both z <= y_n and 3z <= (2s + z) y_n; for s below both z and
    (3 - z)/2 this reduces to ceil(h_aux(s/z)^(-1/a)).  H and G are formed from
    log n, so G = (n / n_sat)^-b holds where n^-b alone underflows.

    The normalizer r = sum_n y_n (n^(-b) - (n+1)^(-b)) and all tail sums are
    evaluated with a direct head sum plus an Euler-Maclaurin tail whose
    integral term reduces exactly to incomplete gamma functions, giving
    ~1e-15 relative accuracy despite the heavy tail.
    """

    kind = "discrete"

    _N_TABLE = 1 << 20

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"a and b must be finite and > 0; got a={a!r}, b={b!r}")
        if not 3.0 * a < min(1.0, b):
            raise ValueError(f"need 3a < min(1, b); got a={a!r}, b={b!r}")
        # G(z, s) ~ s^(b/a) underflows on prior-check's s-grid at t = 0.1 from
        # b/a ~ 56; the bound also keeps every tail-table entry normal (b < 50/3)
        if b / a > 50.0:
            raise ValueError(f"need b/a <= 50; got a={a!r}, b={b!r}")
        self.a = a
        self.b = b

    def declared_tempering(self) -> dict:
        return {"tempered": True, "k": 3, "alpha": self.b / self.a, "eps": (1.0, 2.0, 3.0)}

    # ---- series tails ---------------------------------------------------
    def _log_tail(self, log_x: np.ndarray) -> np.ndarray:
        """log sum_{n >= x} r_n, x = exp(log_x), from the table's end out to any float log_x,
        at every element of an array.

        The sum of 3 (n^-b - (n+1)^-b) telescopes to 3 x^-b; the rest, 2 sum_{n >= x} f(n)
        with f(u) = (1 - exp(-4 u^-a)) (u^-b - (u+1)^-b), is Euler-Maclaurin's
        I + f(x)/2 - f'(x)/12, I = integral_x^inf f.  With x^-b factored out of every term
        this is -b log_x + log(3 - 2 (I + f/2 - f'/12) x^b).  I x^b expands (u+1)^-b in
        powers of 1/u; term j reduces by m = 4 u^-a to b c_j / a * x^-j * S((b + j)/a,
        4 x^-a) (``_gamma_series``) and is summed where x^-j >= 1e-17.
        """
        a, b = self.a, self.b
        inv_x = np.exp(-log_x)
        m = 4.0 * np.exp(-a * log_x)
        e4, one_minus_e4 = np.exp(-m), -np.expm1(-m)
        k = -np.expm1(-b * np.log1p(inv_x))  # (x^-b - (x+1)^-b) x^b
        f = one_minus_e4 * k
        fprime = inv_x * (-e4 * a * m * k
                          + one_minus_e4 * b * np.expm1(-(b + 1.0) * np.log1p(inv_x)))
        coeff = (1.0, -(b + 1.0) / 2.0, (b + 1.0) * (b + 2.0) / 6.0,
                 -(b + 1.0) * (b + 2.0) * (b + 3.0) / 24.0)
        integral = np.zeros(np.shape(log_x))
        for j, c in enumerate(coeff):
            x_j = inv_x**j
            on = x_j >= 1e-17  # x^-j falls with j: a term left out leaves out all after it
            if not on.any():
                break
            integral[on] += b * c / a * x_j[on] * _gamma_series((b + j) / a, m[on])
        return -b * log_x + np.log(3.0 - 2.0 * (integral + f / 2.0 - fprime / 12.0))

    @property
    def r(self) -> float:
        """The series normalizer r = sum_n y_n (n^-b - (n+1)^-b)."""
        return float(_discrete_table(self.a, self.b)[0])

    def _log_ti_cdf(self, x):
        out = np.where(x > 0.0, 0.0, -math.inf)
        inside = (x > 0.0) & (x < 1.0)
        # the atoms n >= m0 = x^(-1/a) lie at or below x; m0 overflows for small x and a
        log_m0 = -np.log(x[inside]) / self.a
        far = log_m0 >= 53.0 * math.log(2.0)  # no exact ceil(m0): m0 itself, off by O(b/m0)
        with np.errstate(over="ignore"):
            m = np.ceil(x[inside] ** (-1.0 / self.a)) - 1.0
        table = ~far & (m <= self._N_TABLE)
        log_tail = np.empty(log_m0.shape)
        log_tail[table] = np.log(_discrete_table(self.a, self.b)[m[table].astype(int)])
        log_tail[~table] = self._log_tail(np.where(far, log_m0, np.log(m + 1.0))[~table])
        out[inside] = log_tail - math.log(self.r)
        return out

    # ---- exact step section function -------------------------------------
    def _atom_bound(self, z: float, s: np.ndarray) -> np.ndarray:
        """k(z, s) = min(c_a, h_aux(s/z)), the largest atom allowed at (z, s): z <= y_n
        holds for t_n <= c_a = -log((z - 1)/2)/4 (for every atom where z <= y_1), and
        3z <= (2s + z) y_n for t_n <= h_aux(s/z) (for every atom where s >= z)."""
        c_a = -0.25 * math.log((z - 1.0) / 2.0) if z > 1.0 + 2.0 * math.exp(-4.0) else math.inf
        return np.minimum(c_a, h_aux(np.minimum(s / z, 1.0)))

    def index_n(self, z: float, s):
        """Smallest atom index n >= 1 with z <= y_n and 3z <= (2s + z) y_n: ceil(k^(-1/a)),
        k = ``_atom_bound``.

        s may be an array; the result is then an array of its shape, else a float.  It
        is the exact integer while k^(-1/a) <= 9e15; beyond, where no float holds every
        integer, it is k^(-1/a) itself, inf where that overflows and at s = 0.
        """
        k = self._atom_bound(_check_z(z), _check_s(s))
        with np.errstate(divide="ignore", over="ignore"):
            real = k ** (-1.0 / self.a)
        n = np.where(real <= 9e15, np.maximum(np.ceil(real), 1.0), real)
        return float(n) if n.ndim == 0 else n

    def _log_n(self, z: float, s: np.ndarray) -> np.ndarray:
        """log n(z, s): of the exact index up to 9e15, -log(k)/a beyond, which never overflows."""
        n = self.index_n(z, s)
        with np.errstate(divide="ignore"):
            return np.where(n <= 9e15, np.log(n), -np.log(self._atom_bound(z, s)) / self.a)

    def s_sat(self, z: float) -> float:
        # at the base formula's s_sat, h_aux(s/z) = 1 only in theory; rounding can give index 2
        z = _check_z(z)
        return 0.5 * (3.0 - z)

    def _h(self, z: float, s: np.ndarray) -> np.ndarray:
        return np.exp(-self.b * self._log_n(z, np.minimum(s, self.s_sat(z))))

    def g(self, z: float, s):
        """G(z, s) = (n(z, s) / n(z, s_sat))^-b, formed as exp(-b (log n - log n_sat)):
        neither power underflows on its own, so G is 0 only where it is below the float range.

        s may be an array; the result is then an array of its shape, else a float.
        """
        z = _check_z(z)
        s_sat = self.s_sat(z)
        log_n = self._log_n(z, np.minimum(_check_s(s), s_sat))
        out = np.minimum(np.exp(-self.b * (log_n - self._log_n(z, s_sat))), 1.0)
        return float(out) if out.ndim == 0 else out

    # ---- sampling ---------------------------------------------------------
    def _sample_ti(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Exact sampler for Ti = I^-a with P(I = n) = r_n / r over the infinite support.

        Proposes J with P(J = n) = n^-b - (n+1)^-b via inverse CDF and
        accepts with probability y_J / 3; acceptance rate is r / 3.  The
        atoms J^-a of a proposal batch serve both the acceptance test and
        the accepted values.
        """
        out = np.empty(size, dtype=float)
        filled = 0
        while filled < size:
            todo = size - filled
            u = rng.random(int(todo * 3.2 / max(self.r, 1.0)) + 16)
            with np.errstate(over="ignore"):
                j = u ** (-1.0 / self.b)
            atoms = (np.ceil(j) - 1.0) ** -self.a
            # for small b, J = u^(-1/b) overflows; there J^-a = u^(a/b) to float precision
            big = np.isinf(j)
            if big.any():
                atoms[big] = u[big] ** (self.a / self.b)
            accept = rng.random(atoms.shape) * 3.0 <= 1.0 + 2.0 * np.exp(-4.0 * atoms)
            got = atoms[accept][:todo]
            out[filled : filled + got.size] = got
            filled += got.size
        return out


def _gamma_series(p: float, m: np.ndarray) -> np.ndarray:
    """S(p, m) = -sum_{k>=1} (-m)^k / (k! (p + k)) at every m of a 1-d array, each summed
    until its term falls to 1e-17 of its sum.

    Equals m^-p * integral_0^m t^(p-1) (1 - e^-t) dt, so it is positive and
    stays in float range for every p > 0, where Gamma(p) alone overflows.
    Each element adds its terms in the order, and stops at the term, that it would alone.
    """
    out = np.empty(m.shape)
    live, m_live = np.arange(m.size), m
    series, power, k = np.zeros(m.size), np.ones(m.size), 0
    while live.size:
        k += 1
        power *= -m_live / k
        term = power / (p + k)
        series -= term
        done = np.abs(term) <= 1e-17 * np.abs(series)
        if done.any():
            out[live[done]] = series[done]
            keep = ~done
            live, m_live, series, power = live[keep], m_live[keep], series[keep], power[keep]
    return out


@functools.lru_cache(maxsize=4)
def _discrete_table(a: float, b: float) -> np.ndarray:
    """Read-only DiscretePrior(a, b) tail sums sum_{n > m} r_n, m = 0..2^20; once per process."""
    n = np.arange(1, DiscretePrior._N_TABLE + 1, dtype=float)
    rn = (1.0 + 2.0 * np.exp(-4.0 * n**-a)) * (n**-b - (n + 1) ** -b)
    suffix = np.empty(n.size + 1)
    suffix[-1] = math.exp(DiscretePrior(a, b)._log_tail(np.array([math.log(n.size + 1.0)]))[0])
    suffix[:-1] = suffix[-1] + np.cumsum(rn[::-1])[::-1]
    suffix.flags.writeable = False
    return suffix


PRIOR_KINDS: dict[str, type[Prior]] = {
    cls.kind: cls for cls in (TamePrior, UniformPrior, PowerPrior, LogPrior, TLogPrior, DiscretePrior)
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _build(kind: str, args: list, kwargs: dict) -> Prior:
    if kind not in PRIOR_KINDS:
        raise ValueError(f"unknown prior kind {kind!r}; known: {sorted(PRIOR_KINDS)}")
    signature = inspect.signature(PRIOR_KINDS[kind])
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:  # wrong arguments; the constructor's own ValueErrors pass through
        raise ValueError(f"{kind} takes ({', '.join(signature.parameters)})") from None
    try:
        return PRIOR_KINDS[kind](*bound.args, **bound.kwargs)
    except TypeError as exc:  # a value of the wrong type, e.g. a list for theta
        raise ValueError(f"{kind} parameters must be numbers: {exc}") from None


def prior_from_dict(obj: dict) -> Prior:
    try:
        kind = obj["kind"]
        params = obj.get("params", {})
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed prior spec: {obj!r}") from exc
    if not isinstance(kind, str):
        raise ValueError(f"malformed prior spec: {obj!r}")
    return _build(kind, [], params)


def prior_from_json(text: str) -> Prior:
    return prior_from_dict(json.loads(text))


def parse_prior(text: str) -> Prior:
    """Parse CLI shorthand like 'uniform:1.0', 'discrete:0.1,0.5', 'logti', 'tame'."""
    kind, _, argstr = text.partition(":")
    args = [float(v) for v in argstr.split(",") if v.strip()] if argstr else []
    return _build(kind.strip().lower(), args, {})
