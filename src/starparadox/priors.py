"""Branch-length prior catalog and the conditional CDF machinery.

Each prior describes the joint law of the branch-length pair (Te, Ti).  In
the transformed coordinates Se = exp(-4 Te), Si = 1 + 2 exp(-4 Ti) the
quantity 4 P0 - 1 equals Z = Se * Si, and the conditional CDF

    G(z, s) = P(Se (3 - Si) <= 2 s | Se Si = z)

drives everything downstream.  G is computed as a ratio H(z, s) / H(z,
s_sat), where H is an unnormalized section integral of the joint density
along the hyperbola Se Si = z (for the discrete catalog entry H is a step
function with an exact index formula instead).  The saturation point s_sat
is where the integration limit stops moving, so G(z, s) = 1 beyond it.

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
    """Adaptive quadrature failed to converge; carries the achieved estimate."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(f"{message} (value={value!r}, error estimate={error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate


def _quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Integral of f over [a, b] (0 when b <= a): the one adaptive quadrature of the package.

    G/H sections come here, one piece per step of ``_quad_running``.  quad is asked for 1e-11
    relative with at most 500 subintervals; QuadratureError is raised when
    quad's own error estimate exceeds 1e-9 |value|.  That estimate is not a
    proven bound, so a result can be off by more without raising.
    """
    if b <= a:
        return 0.0
    from scipy.integrate import quad  # the only scipy.integrate import; keeps start-up light

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


@functools.lru_cache(maxsize=4)
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss  # not at import: keeps start-up light

    return leggauss(k)


def h_aux(u: float) -> float:
    """The index function h(u) = -(1/4) log(1 - 3u/(1+2u)) on [0, 1].

    Equals (1/4)(log1p(2u) - log1p(-u)); increasing, h(0) = 0,
    h(u)/u -> 3/4 at 0, and h(1) = +inf.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"h_aux argument must lie in [0, 1], got {u!r}")
    return 0.25 * (math.log1p(2.0 * u) - math.log1p(-u)) if u < 1.0 else math.inf


class Prior:
    """Base class: joint law of (Te, Ti) plus the G(z, .) machinery.

    Te ~ Exp(rate_e), independent of Ti.  A catalog subclass declares its Ti
    law (``_sample_ti``, ``log_ti_cdf``, ``_h``, and ``ti_max`` where Ti is not
    bounded by 1) and its constructor arguments, stored under their own names
    as the only instance attributes that are not caches (``params()``).
    """

    kind: str = "abstract"
    rate_e: float = 4.0  # Te rate; at 4, Se = exp(-4 Te) is uniform on [0, 1]
    ti_max: float = 1.0  # top of the Ti support
    g_accuracy: float = 3e-10  # relative accuracy of g(); tightened where closed forms exist
    _CACHES: tuple[str, ...] = ("_h_sat_memo",)  # per-instance memos, never pickled

    # ---- serialization ------------------------------------------------
    def params(self) -> dict:
        return self.__getstate__()

    def __getstate__(self):
        # caches are cheap to rebuild; do not ship them to workers
        return {k: v for k, v in self.__dict__.items() if k not in self._CACHES}

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
    def log_ti_cdf(self, x: float) -> float:
        """log P(Ti <= x)."""
        raise NotImplementedError

    def log_te_band(self, t: float, width: float) -> float:
        """log P(t <= Te <= t + width) for Te ~ Exp(rate_e)."""
        return -self.rate_e * t + math.log(-math.expm1(-self.rate_e * width))

    def log_q_n(self, t: float, n: int) -> float:
        """log P(Ti <= 1/n, t <= Te <= t + 1/n) for the independent catalog."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if t <= 0.0:
            raise ValueError("t must be > 0")
        return self.log_ti_cdf(1.0 / n) + self.log_te_band(t, 1.0 / n)

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
        """H(z, s_sat(z)), computed once per z and kept on the instance."""
        z = _check_z(z)
        memo = self.__dict__.setdefault("_h_sat_memo", {})
        if z not in memo:
            memo[z] = self.h(z, self.s_sat(z))
        return memo[z]

    def g(self, z: float, s):
        """Conditional CDF G(z, s) = H(z, min(s, s_sat)) / H(z, s_sat) in [0, 1].

        s may be an array; the result is then an array of its shape, else a float.
        """
        h = self.h(z, s)
        denom = self.h_sat(z)
        if denom <= 0.0:
            raise ValueError(f"H(z, s_sat) underflows to 0 at z={z!r} for {self.to_dict()}: "
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
        raise ValueError(f"s must be finite and >= 0, got {s[bad].flat[0]!r}")
    return s


class _ExpIndepPrior(Prior):
    """A Ti density with Te at the base rate 4, so that Se is uniform on [0, 1].

    Subclasses provide the Ti law and the scalar section-integrand factor
    ``rho(k)`` where k = h_aux(xi / z); the shared form is

        H(z, s) = int_0^min(s, s_sat) rho(h_aux(xi/z)) dxi / (z - xi).
    """

    def _rho(self, k: float) -> float:
        raise NotImplementedError

    def _h(self, z: float, s: np.ndarray) -> np.ndarray:
        return self._h_quad(z, s)

    def _h_quad(self, z: float, s) -> np.ndarray:
        """H(z, s) by adaptive quadrature, at every s in one running pass; the reference
        for closed forms in tests."""
        def integrand(xi: float) -> float:
            if xi <= 0.0:
                return 0.0
            return self._rho(h_aux(xi / z)) / (z - xi)

        return _quad_running(integrand, 0.0, np.minimum(s, self.s_sat(z)))


class UniformPrior(_ExpIndepPrior):
    """Ti uniform on [0, theta].  H(z, s) = -log(1 - s/z) up to saturation."""

    kind = "uniform"
    g_accuracy = 1e-12

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

    def log_ti_cdf(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        return min(0.0, math.log(x / self.theta))

    def declared_tempering(self) -> dict:
        return {"tempered": True, "k": 3, "alpha": 1.0, "eps": (1.0, 2.0, 3.0)}


class PowerPrior(_ExpIndepPrior):
    """Ti with density theta * t^(theta - 1) on [0, 1], theta in (0, 1).

    The section integrand has an integrable endpoint singularity of order
    theta - 1 at xi = 0; the substitution xi = tau^(1/theta) removes it
    exactly.
    """

    kind = "power"

    def __init__(self, theta: float):
        theta = float(theta)
        if not (0.0 < theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
        self.theta = theta

    def _rho(self, k):
        return k ** (self.theta - 1.0)

    def _h_quad(self, z: float, s) -> np.ndarray:
        th = self.theta

        def integrand(tau: float) -> float:
            xi = tau ** (1.0 / th)
            if xi < 1e-17 * z:
                # the limit at xi = 0, exact to rounding as the correction is O(xi/z);
                # for small theta xi underflows here and the product below overflows
                return (0.75 / z) ** (th - 1.0) / (th * z)
            return self._rho(h_aux(xi / z)) / (z - xi) * (1.0 / th) * tau ** (1.0 / th - 1.0)

        return _quad_running(integrand, 0.0, np.minimum(s, self.s_sat(z)) ** th)

    def _sample_ti(self, rng, size):
        return rng.random(size) ** (1.0 / self.theta)

    def log_ti_cdf(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        return self.theta * min(0.0, math.log(x))

    def declared_tempering(self) -> dict:
        return {"tempered": True, "k": 3, "alpha": self.theta, "eps": (1.0, 2.0, 3.0)}


class LogPrior(_ExpIndepPrior):
    """Ti with density log(1/t) on [0, 1] (the law of a product of two uniforms)."""

    kind = "logti"

    def _rho(self, k):
        return -math.log(k)

    def _sample_ti(self, rng, size):
        return rng.random(size) * rng.random(size)

    def log_ti_cdf(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        if x >= 1.0:
            return 0.0
        return math.log(x) + math.log1p(-math.log(x))

    def declared_tempering(self) -> dict:
        return {"tempered": False, "diagnostic": "s·log s"}


class TLogPrior(_ExpIndepPrior):
    """Ti with density 4 t log(1/t) on [0, 1] (square root of a product of uniforms)."""

    kind = "tlogti"

    def _rho(self, k):
        return -4.0 * k * math.log(k) if k > 0.0 else 0.0

    def _sample_ti(self, rng, size):
        return np.sqrt(rng.random(size) * rng.random(size))

    def log_ti_cdf(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        if x >= 1.0:
            return 0.0
        return 2.0 * math.log(x) + math.log1p(-2.0 * math.log(x))

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
    """

    kind = "tame"
    g_accuracy = 1e-12
    ti_max = math.inf

    def __init__(self, rate_e: float = 4.0, rate_i: float = 4.0):
        for name, v in (("rate_e", rate_e), ("rate_i", rate_i)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be > 0, got {v!r}")
            setattr(self, name, float(v))

    def _sample_ti(self, rng, size):
        return rng.exponential(scale=1.0 / self.rate_i, size=size)

    def log_ti_cdf(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        return math.log(-math.expm1(-self.rate_i * x))

    def declared_tempering(self) -> dict:
        return {"tempered": True, "k": 3, "alpha": 1.0, "eps": (1.0, 2.0, 3.0)}

    def _m(self, z: float, s):
        # kept apart from s_sat: clipping s there first rounds differently
        return np.minimum(min(1.0, z), (2.0 * s + z) / 3.0)

    def _h(self, z: float, s: np.ndarray) -> np.ndarray:
        if (self.rate_e, self.rate_i) != (4.0, 4.0):
            return self._h_quad(z, s)
        cap = min(1.0, z)
        return np.where((2.0 * s + z) / 3.0 < cap, 0.5 * np.log1p(2.0 * s / z),
                        0.5 * math.log(3.0 * cap / z))

    def _h_quad(self, z: float, s) -> np.ndarray:
        ee = self.rate_e / 4.0 - 1.0
        ei = self.rate_i / 4.0 - 1.0
        ce = self.rate_e / 4.0
        ci = self.rate_i / 8.0

        def integrand(x: float) -> float:
            y = z / x
            return ce * ci * x**ee * ((y - 1.0) / 2.0) ** ei / x

        return _quad_running(integrand, z / 3.0, self._m(z, s))


class DiscretePrior(Prior):
    """Ti supported on the atoms t_n = n^(-a) with P(Ti = t_n) proportional to
    y_n (n^(-b) - (n+1)^(-b)), y_n = 1 + 2 exp(-4 t_n); Te ~ Exp(4) independent.

    Requires 3a < min(1, b) and b/a <= 50.  The section function is the exact step
    H(z, s) = n(z, s)^(-b), where n(z, s) is the smallest index whose atom
    satisfies both z <= y_n and 3z <= (2s + z) y_n; for s below both z and
    (3 - z)/2 this reduces to ceil(h_aux(s/z)^(-1/a)).

    The normalizer r = sum_n y_n (n^(-b) - (n+1)^(-b)) and all tail sums are
    evaluated with a direct head sum plus an Euler-Maclaurin tail whose
    integral term reduces exactly to incomplete gamma functions, giving
    ~1e-15 relative accuracy despite the heavy tail.
    """

    kind = "discrete"
    g_accuracy = 1e-12

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
    def _log_tail(self, log_x: float) -> float:
        """log sum_{n >= x} r_n, x = exp(log_x), from the table's end out to any float log_x.

        The sum of 3 (n^-b - (n+1)^-b) telescopes to 3 x^-b; the rest, 2 sum_{n >= x} f(n)
        with f(u) = (1 - exp(-4 u^-a)) (u^-b - (u+1)^-b), is Euler-Maclaurin's
        I + f(x)/2 - f'(x)/12, I = integral_x^inf f.  With x^-b factored out of every term
        this is -b log_x + log(3 - 2 (I + f/2 - f'/12) x^b).  I x^b expands (u+1)^-b in
        powers of 1/u; term j reduces by m = 4 u^-a to b c_j / a * x^-j * S((b + j)/a,
        4 x^-a) (``_gamma_series``) and is summed only while x^-j >= 1e-17.
        """
        a, b = self.a, self.b
        inv_x = math.exp(-log_x)
        m = 4.0 * math.exp(-a * log_x)
        e4, one_minus_e4 = math.exp(-m), -math.expm1(-m)
        k = -math.expm1(-b * math.log1p(inv_x))  # (x^-b - (x+1)^-b) x^b
        f = one_minus_e4 * k
        fprime = inv_x * (-e4 * a * m * k
                          + one_minus_e4 * b * math.expm1(-(b + 1.0) * math.log1p(inv_x)))
        coeff = (1.0, -(b + 1.0) / 2.0, (b + 1.0) * (b + 2.0) / 6.0,
                 -(b + 1.0) * (b + 2.0) * (b + 3.0) / 24.0)
        integral = 0.0
        for j, c in enumerate(coeff):
            x_j = inv_x**j
            if x_j < 1e-17:
                break
            integral += b * c / a * x_j * _gamma_series((b + j) / a, m)
        return -b * log_x + math.log(3.0 - 2.0 * (integral + f / 2.0 - fprime / 12.0))

    @property
    def r(self) -> float:
        """The series normalizer r = sum_n y_n (n^-b - (n+1)^-b)."""
        return float(_discrete_table(self.a, self.b)[0])

    def log_ti_cdf(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        if x >= 1.0:
            return 0.0
        # the atoms n >= m0 = x^(-1/a) lie at or below x; m0 overflows for small x and a
        log_m0 = -math.log(x) / self.a
        if log_m0 >= 53.0 * math.log(2.0):  # no exact ceil(m0): m0 itself, off by O(b/m0)
            return self._log_tail(log_m0) - math.log(self.r)
        m = math.ceil(x ** (-1.0 / self.a)) - 1
        if m <= self._N_TABLE:
            return math.log(_discrete_table(self.a, self.b)[m]) - math.log(self.r)
        return self._log_tail(math.log(m + 1)) - math.log(self.r)

    # ---- exact step section function -------------------------------------
    def index_n(self, z: float, s: float) -> int:
        """Smallest atom index n with z <= y_n and 3z <= (2s + z) y_n.

        Raises OverflowError when the index exceeds 2^53 (s too small for
        exact integer representation); callers fall back to the continuous
        approximation h_aux(s/z)^(-b/a) there.
        """
        z = _check_z(z)
        s = _check_s(s)
        if s == 0.0:
            raise ValueError("index is infinite at s = 0")
        n_a = 1
        if z > 1.0 + 2.0 * math.exp(-4.0):
            ca = -0.25 * math.log((z - 1.0) / 2.0)
            n_a = math.ceil(ca ** (-1.0 / self.a))
        n_b = 1
        if s < z:
            hb = h_aux(s / z)
            real = hb ** (-1.0 / self.a)
            if real > 9e15:
                raise OverflowError("atom index exceeds exact float range")
            n_b = math.ceil(real)
        return max(n_a, n_b, 1)

    def s_sat(self, z: float) -> float:
        # at the base formula's s_sat, h_aux(s/z) = 1 only in theory; rounding can give index 2
        z = _check_z(z)
        return 0.5 * (3.0 - z)

    def _h(self, z: float, s: np.ndarray) -> np.ndarray:
        s_sat = self.s_sat(z)
        return np.array([self._h_step(z, min(x, s_sat)) for x in s.ravel().tolist()]).reshape(s.shape)

    def _h_step(self, z: float, s: float) -> float:
        if s == 0.0:
            return 0.0
        try:
            return self.index_n(z, s) ** -self.b
        except OverflowError:
            return h_aux(s / z) ** (self.b / self.a)

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


def _gamma_series(p: float, m: float) -> float:
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


@functools.lru_cache(maxsize=4)
def _discrete_table(a: float, b: float) -> np.ndarray:
    """Read-only DiscretePrior(a, b) tail sums sum_{n > m} r_n, m = 0..2^20; once per process."""
    n = np.arange(1, DiscretePrior._N_TABLE + 1, dtype=float)
    rn = (1.0 + 2.0 * np.exp(-4.0 * n**-a)) * (n**-b - (n + 1) ** -b)
    suffix = np.empty(n.size + 1)
    suffix[-1] = math.exp(DiscretePrior(a, b)._log_tail(math.log(n.size + 1.0)))
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
