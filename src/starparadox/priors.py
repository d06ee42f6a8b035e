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
    "prior_to_json",
    "prior_from_json",
    "parse_prior",
]

_Y_UNIT = 1.0 + 2.0 * math.exp(-4.0)  # bottom of the Si support when Ti <= 1
_LOG_1E17 = math.log(1e17)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the achieved estimate."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(f"{message} (value={value!r}, error estimate={error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate


def _quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Integral of f over [a, b] (0 when b <= a): the one adaptive quadrature of the package.

    G/H sections and the moments all come here.  quad is asked for 1e-11
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


def h_aux(u):
    """The index function h(u) = -(1/4) log(1 - 3u/(1+2u)) on [0, 1).

    Equals (1/4)(log1p(2u) - log1p(-u)); increasing, h(0) = 0,
    h(u)/u -> 3/4 at 0, and +inf at u -> 1.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any((u_arr < 0.0) | (u_arr > 1.0) | ~np.isfinite(u_arr)):
        raise ValueError("h_aux argument must lie in [0, 1)")
    with np.errstate(divide="ignore"):
        out = 0.25 * (np.log1p(2.0 * u_arr) - np.log1p(-u_arr))
    return float(out) if out.ndim == 0 else out


def _h_aux(u: float) -> float:
    """Scalar :func:`h_aux` for quadrature nodes and index formulas, 0 <= u < 1."""
    return 0.25 * (math.log1p(2.0 * u) - math.log1p(-u))


class Prior:
    """Base class: joint law of (Te, Ti) plus the G(z, .) machinery.

    Te ~ Exp(rate_e), independent of Ti.  A catalog subclass declares its Ti
    law (``_sample_ti``, ``log_ti_cdf``, ``_h``, and ``y_min`` where Ti is not
    bounded by 1) and its constructor arguments, stored under their own names
    as the only instance attributes that are not caches (``params()``).
    """

    kind: str = "abstract"
    rate_e: float = 4.0  # Te rate; at 4, Se = exp(-4 Te) is uniform on [0, 1]
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
        """Bottom of the Si support, 1 + 2 exp(-4 sup Ti): here for Ti <= 1."""
        return _Y_UNIT

    def s_sat(self, z: float) -> float:
        """Saturation point: G(z, s) = 1 for s >= s_sat(z)."""
        z = _check_z(z)
        return 0.5 * (3.0 * min(1.0, z / self.y_min) - z)

    def h(self, z: float, s: float) -> float:
        """Unnormalized section integral H(z, s); nondecreasing in s."""
        return self._h(_check_z(z), _check_s(s))

    def _h(self, z: float, s: float) -> float:
        """H(z, s) for validated z and s, by the one route the prior's parameters pick."""
        raise NotImplementedError

    def h_sat(self, z: float) -> float:
        """H(z, s_sat(z)), computed once per z and kept on the instance."""
        z = _check_z(z)
        memo = self.__dict__.setdefault("_h_sat_memo", {})
        if z not in memo:
            memo[z] = self.h(z, self.s_sat(z))
        return memo[z]

    def g(self, z: float, s: float) -> float:
        """Conditional CDF G(z, s) = H(z, min(s, s_sat)) / H(z, s_sat) in [0, 1]."""
        h = self.h(z, s)
        denom = self.h_sat(z)
        if denom <= 0.0:
            raise ZeroDivisionError(f"H(z, s_sat) vanished at z={z!r}")
        return min(1.0, max(0.0, h / denom))


def _check_z(z: float) -> float:
    z = float(z)
    if not (0.0 < z < 3.0):
        raise ValueError(f"z must lie in (0, 3), got {z!r}")
    return z


def _check_s(s: float) -> float:
    s = float(s)
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"s must be finite and >= 0, got {s!r}")
    return s


class _ExpIndepPrior(Prior):
    """A Ti density with Te at the base rate 4, so that Se is uniform on [0, 1].

    Subclasses provide the Ti law and the scalar section-integrand factor
    ``rho(k)`` where k = h_aux(xi / z); the shared form is

        H(z, s) = int_0^min(s, s_sat) rho(h_aux(xi/z)) dxi / (z - xi).
    """

    def _rho(self, k: float) -> float:
        raise NotImplementedError

    def _h(self, z: float, s: float) -> float:
        return self._h_quad(z, s)

    def _h_quad(self, z: float, s: float) -> float:
        """H(z, s) by adaptive quadrature; the reference for closed forms in tests."""
        def integrand(xi: float) -> float:
            if xi <= 0.0:
                return 0.0
            return self._rho(_h_aux(xi / z)) / (z - xi)

        return _quad(integrand, 0.0, min(s, self.s_sat(z)))


class UniformPrior(_ExpIndepPrior):
    """Ti uniform on [0, theta].  H(z, s) = log(z / (z - s)) up to saturation."""

    kind = "uniform"
    g_accuracy = 1e-12

    def __init__(self, theta: float):
        theta = float(theta)
        if not (math.isfinite(theta) and theta > 0.0):
            raise ValueError(f"theta must be > 0, got {theta!r}")
        self.theta = theta

    @property
    def y_min(self) -> float:
        return 1.0 + 2.0 * math.exp(-4.0 * self.theta)

    def _rho(self, k):
        return 1.0

    def _h(self, z: float, s: float) -> float:
        s_sat = self.s_sat(z)
        if s >= s_sat and (z <= 1.0 or z < self.y_min):
            # log(z / (z - s_sat)) in closed form: the subtraction z - s_sat =
            # 3 z exp(-4 theta) / y_min cancels, to 0 or below once y_min
            # rounds to 1 (theta >= 9.5)
            return 4.0 * self.theta + math.log1p(2.0 * math.exp(-4.0 * self.theta)) - math.log(3.0)
        return math.log(z / (z - min(s, s_sat)))

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

    def _h_quad(self, z: float, s: float) -> float:
        th = self.theta

        def integrand(tau: float) -> float:
            if tau <= 0.0:
                return 0.0
            xi = tau ** (1.0 / th)
            return self._rho(_h_aux(xi / z)) / (z - xi) * (1.0 / th) * tau ** (1.0 / th - 1.0)

        return _quad(integrand, 0.0, min(s, self.s_sat(z)) ** th)

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
    default rates (4, 4) this is (1/2) log(3 m / z) in closed form.
    """

    kind = "tame"
    g_accuracy = 1e-12

    def __init__(self, rate_e: float = 4.0, rate_i: float = 4.0):
        for name, v in (("rate_e", rate_e), ("rate_i", rate_i)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be > 0, got {v!r}")
            setattr(self, name, float(v))

    @property
    def y_min(self) -> float:
        return 1.0

    def _sample_ti(self, rng, size):
        return rng.exponential(scale=1.0 / self.rate_i, size=size)

    def log_ti_cdf(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        return math.log(-math.expm1(-self.rate_i * x))

    def declared_tempering(self) -> dict:
        return {"tempered": True, "k": 3, "alpha": 1.0, "eps": (1.0, 2.0, 3.0)}

    def _m(self, z: float, s: float) -> float:
        # kept apart from s_sat: clipping s there first rounds differently
        return min(1.0, z, (2.0 * s + z) / 3.0)

    def _h(self, z: float, s: float) -> float:
        if (self.rate_e, self.rate_i) != (4.0, 4.0):
            return self._h_quad(z, s)
        m = self._m(z, s)
        return 0.5 * math.log(3.0 * m / z) if m > z / 3.0 else 0.0

    def _h_quad(self, z: float, s: float) -> float:
        ee = self.rate_e / 4.0 - 1.0
        ei = self.rate_i / 4.0 - 1.0
        ce = self.rate_e / 4.0
        ci = self.rate_i / 8.0

        def integrand(x: float) -> float:
            y = z / x
            return ce * ci * x**ee * ((y - 1.0) / 2.0) ** ei / x

        return _quad(integrand, z / 3.0, self._m(z, s))


class DiscretePrior(Prior):
    """Ti supported on the atoms t_n = n^(-a) with P(Ti = t_n) proportional to
    y_n (n^(-b) - (n+1)^(-b)), y_n = 1 + 2 exp(-4 t_n); Te ~ Exp(4) independent.

    Requires 3a < min(1, b).  The section function is the exact step
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
        if not (a > 0.0 and b > 0.0):
            raise ValueError("a and b must be > 0")
        if not 3.0 * a < min(1.0, b):
            raise ValueError(f"need 3a < min(1, b); got a={a!r}, b={b!r}")
        self.a = a
        self.b = b

    def declared_tempering(self) -> dict:
        return {"tempered": True, "k": 3, "alpha": self.b / self.a, "eps": (1.0, 2.0, 3.0)}

    # ---- series tails ---------------------------------------------------
    def _em_integral(self, x: float) -> float:
        """Exact integral_x^inf (1 - exp(-4 u^-a)) (u^-b - (u+1)^-b) du.

        Expands the second factor in powers of 1/u (u >= x >> 1) and reduces
        each term to a lower incomplete gamma by the substitution m = 4 u^-a:
        term j is 4^-p (m^p/p - gamma(p, m)) with p = (b + j)/a.  Expanding
        gamma(p, m) = sum_k (-1)^k m^(p+k) / (k! (p+k)) and using
        4^-p m^p = x^-(b+j) gives x^-(b+j) * _gamma_series(p, m), which stays
        in float range for every p; Gamma(p) alone overflows past p ~ 171,
        which term j = 3 reaches for a < (b + 3)/171.
        """
        a, b = self.a, self.b
        coeff = [1.0, -(b + 1.0) / 2.0, (b + 1.0) * (b + 2.0) / 6.0,
                 -(b + 1.0) * (b + 2.0) * (b + 3.0) / 24.0]
        m = 4.0 * x**-a  # <= 4 for x >= 1: the series converges fast
        total = 0.0
        for j, c in enumerate(coeff):
            total += b * c / a * x ** -(b + j) * _gamma_series((b + j) / a, m)
        return total

    def _em_f(self, x: float) -> float:
        return (1.0 - math.exp(-4.0 * x**-self.a)) * (x**-self.b - (x + 1.0) ** -self.b)

    def _em_fprime(self, x: float) -> float:
        a, b = self.a, self.b
        A = 1.0 - math.exp(-4.0 * x**-a)
        Ap = -math.exp(-4.0 * x**-a) * 4.0 * a * x ** (-a - 1.0)
        B = x**-b - (x + 1.0) ** -b
        Bp = -b * x ** (-b - 1.0) + b * (x + 1.0) ** (-b - 1.0)
        return Ap * B + A * Bp

    def _tail_beyond(self, m: int) -> float:
        """sum_{n > m} y_n (n^-b - (n+1)^-b) for m >= the table size."""
        x = float(m + 1)
        e = 2.0 * (self._em_integral(x) + self._em_f(x) / 2.0 - self._em_fprime(x) / 12.0)
        return 3.0 * x**-self.b - e

    def _table(self) -> np.ndarray:
        return _discrete_table(self.a, self.b)

    @property
    def r(self) -> float:
        """The series normalizer r = sum_n y_n (n^-b - (n+1)^-b)."""
        return float(self._table()[0])

    def atom_prob(self, n: int) -> float:
        """P(Ti = n^-a) = r_n / r."""
        if n < 1:
            raise ValueError("atom index must be >= 1")
        yn = 1.0 + 2.0 * math.exp(-4.0 * n**-self.a)
        return yn * (n**-self.b - (n + 1.0) ** -self.b) / self.r

    def _tail_from(self, m0: int) -> float:
        """sum_{n >= m0} y_n (n^-b - (n+1)^-b)."""
        if m0 <= 1:
            return self.r
        if m0 - 1 <= self._N_TABLE:
            return float(self._table()[m0 - 1])
        return self._tail_beyond(m0 - 1)

    def log_ti_cdf(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        if x >= 1.0:
            return 0.0
        # m0 = x^(-1/a) is compared in log scale: it overflows for small x and a
        if -math.log(x) / self.a > _LOG_1E17:
            # beyond exact integer arithmetic; ceil shifts the tail by O(1/m0).
            # The tail is the integral m0^-b [3 + 2 sum_k (-4x)^k/k! * p/(k + p)],
            # p = b/a, m0^-b = x^p, and the sum is -p * S(p, 4x)
            p = self.b / self.a
            log_tail = math.log(3.0 - 2.0 * p * _gamma_series(p, 4.0 * x)) + p * math.log(x)
            return log_tail - math.log(self.r)
        m0 = math.ceil(x ** (-1.0 / self.a))
        return math.log(self._tail_from(m0)) - math.log(self.r)

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
            hb = _h_aux(s / z)
            real = hb ** (-1.0 / self.a)
            if real > 9e15:
                raise OverflowError("atom index exceeds exact float range")
            n_b = math.ceil(real)
        return max(n_a, n_b, 1)

    def s_sat(self, z: float) -> float:
        # at the base formula's s_sat, h_aux(s/z) = 1 only in theory; rounding can give index 2
        z = _check_z(z)
        return 0.5 * (3.0 - z)

    def _h(self, z: float, s: float) -> float:
        if s == 0.0:
            return 0.0
        s = min(s, self.s_sat(z))
        try:
            return self.index_n(z, s) ** -self.b
        except OverflowError:
            return _h_aux(s / z) ** (self.b / self.a)

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
    suffix[-1] = DiscretePrior(a, b)._tail_beyond(n.size)
    suffix[:-1] = suffix[-1] + np.cumsum(rn[::-1])[::-1]
    suffix.flags.writeable = False
    return suffix


PRIOR_KINDS: dict[str, type[Prior]] = {
    cls.kind: cls for cls in (TamePrior, UniformPrior, PowerPrior, LogPrior, TLogPrior, DiscretePrior)
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def prior_to_json(spec: Prior) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True)


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
