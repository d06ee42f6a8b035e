"""Exact formulas for the two-state symmetric model on three taxa.

A rooted triplet with external branch length ``te`` and internal branch
length ``ti`` (both in expected-substitution time units, rate 1 between the
two states) produces four site patterns: all taxa equal (index 0), or one
taxon different (index 1, 2, 3).  The pattern probabilities are

    4 p0 = 1 + exp(-4 te) + 2 exp(-4 (ti + te))
    4 p1 = 1 + exp(-4 te) - 2 exp(-4 (ti + te))
    4 p2 = 4 p3 = 1 - exp(-4 te)

The star tree with edge length ``t`` is the ``ti = 0`` degeneration, with
pattern probabilities ``q0 = p0(t, 0)`` and ``q1 = q2 = q3``.

This module also provides the scaled centered count statistics used to
describe count configurations that favour one resolution, the cubic map
``zeta`` and its inverse used by the moment machinery, and Kullback-Leibler
divergence between pattern distributions.  Everything here is a pure
function; nothing is stateful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatternProbs",
    "PatternCounts",
    "DeltaStats",
    "Interval",
    "pattern_probs",
    "star_probs",
    "log_pattern_prob_arrays",
    "band_interval",
    "band_half_width",
    "delta_stats",
    "in_band_fc",
    "counts_in_band",
    "zeta",
    "zeta_inv",
    "kl_divergence",
]

_SUM_TOL = 1e-12
_N_MAX = 2**63 - 1  # the largest sequence length: numpy's multinomial reads n as a C long


def _check_finite_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class PatternProbs:
    """Probability vector (p0, p1, p2, p3) over site patterns, with p2 == p3.

    Only three values are stored; :attr:`array` expands them to four.
    """

    p0: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name in ("p0", "p1", "p2"):
            v = float(getattr(self, name))
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v!r} outside [0, 1]")
            object.__setattr__(self, name, v)
        total = self.p0 + self.p1 + 2.0 * self.p2
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"pattern probabilities sum to {total!r}, not 1")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2, self.p2])


@dataclass(frozen=True)
class PatternCounts:
    """Observed site-pattern counts (n0, n1, n2, n3), total >= 1."""

    n0: int
    n1: int
    n2: int
    n3: int

    def __post_init__(self) -> None:
        for name in ("n0", "n1", "n2", "n3"):
            v = getattr(self, name)
            if int(v) != v or v < 0:
                raise ValueError(f"{name}={v!r} must be a nonnegative integer")
            object.__setattr__(self, name, int(v))
        if self.n == 0:
            raise ValueError("total count must be >= 1")

    @property
    def n(self) -> int:
        return self.n0 + self.n1 + self.n2 + self.n3

    @property
    def array(self) -> np.ndarray:
        return np.array([self.n0, self.n1, self.n2, self.n3])


@dataclass(frozen=True)
class DeltaStats:
    """Scaled centered counts: d0 = (n0 - q0 n)/sqrt(n), di = (ni - (n - n0)/3)/sqrt(n)."""

    d0: float
    d1: float
    d2: float
    d3: float

    def __post_init__(self) -> None:
        if abs(self.d1 + self.d2 + self.d3) > 1e-9:
            raise ValueError("d1 + d2 + d3 must vanish")


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


def pattern_probs(te: float, ti: float) -> PatternProbs:
    """Site-pattern probabilities for a resolved triplet with branch lengths (te, ti).

    Rejects negative or non-finite inputs.  Very large branch lengths
    saturate cleanly (the exponentials underflow to zero).
    """
    te = _check_finite_nonneg("te", te)
    ti = _check_finite_nonneg("ti", ti)
    x = math.exp(-4.0 * te)
    ey = math.exp(-4.0 * ti)
    # nested form keeps p0 >= p1 >= p2 exact in floating point
    p2 = (1.0 - x) / 4.0
    p1 = p2 + 0.5 * x * -math.expm1(-4.0 * ti)
    p0 = p1 + x * ey
    return PatternProbs(p0, p1, p2)


def star_probs(t: float) -> PatternProbs:
    """Site-pattern probabilities (q0, q1, q1, q1) on the star tree with edge length t > 0.

    Identical to ``pattern_probs(te=t, ti=0)``; the star tree is the
    zero-internal-branch degeneration.
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError(f"star edge length must be finite and > 0, got {t!r}")
    return pattern_probs(t, 0.0)


def log_pattern_prob_arrays(
    te: np.ndarray, ti: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized stable (log p0, log p1, log p2) for arrays of branch lengths.

    Uses log1p forms; returns -inf where a probability is exactly zero
    (p1 at te = ti = 0, p2 at te = 0).  With x = exp(-4 te) and
    w = exp(-4 (te + ti)) <= x <= 1, the log1p arguments x - 2w >= -x and
    -x never fall below -1, and log1p(-1) is -inf, so no case needs a guard.
    The arrays are computed in place (the same operations, so the same
    values): three arrays of the draws' size at most, besides te and ti.
    """
    te = np.asarray(te, dtype=float)
    ti = np.asarray(ti, dtype=float)
    x = np.multiply(te, -4.0, out=np.empty(te.shape))
    np.exp(x, out=x)
    w = np.add(te, ti, out=np.empty(np.broadcast(te, ti).shape))
    w *= -4.0
    np.exp(w, out=w)
    log4 = math.log(4.0)
    lp0 = np.multiply(w, 2.0, out=np.empty(w.shape))
    lp0 += x
    lp1 = np.multiply(w, -2.0, out=w)
    lp1 += x
    lp2 = np.negative(x, out=x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lp in (lp0, lp1, lp2):
            np.log1p(lp, out=lp)
            lp -= log4
    return lp0[()], lp1[()], lp2[()]  # numpy scalars for 0-d input, as arithmetic gives


def band_half_width(t: float) -> float:
    """Half width 3 exp(-4t) (1 - exp(-4t)) of the band around 4 q0 - 1."""
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError(f"t must be finite and > 0, got {t!r}")
    x = math.exp(-4.0 * t)
    return 3.0 * x * (1.0 - x)


def band_interval(t: float) -> Interval:
    """The interval [4q0 - 1 - l, 4q0 - 1 + l] with l = 3 exp(-4t)(1 - exp(-4t)).

    The endpoints simplify to 3 exp(-8t) and 3 exp(-4t)(2 - exp(-4t)),
    which are used directly (the subtractive form cancels at large t).
    They sit strictly inside (0, 3), equivalently 1 < 4q0 - l and
    4q0 + l < 4.  Where floating point cannot keep them there (t above
    about 93, or exp(-4t) rounding to 1) a ValueError is raised.
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError(f"t must be finite and > 0, got {t!r}")
    x = math.exp(-4.0 * t)
    iv = Interval(3.0 * x * x, 3.0 * x * (2.0 - x))
    if not (0.0 < iv.lo and iv.hi < 3.0):
        raise ValueError(
            f"t={t!r} is too extreme: the band interval is not representable inside (0, 3)"
        )
    return iv


def delta_stats(counts: PatternCounts, t: float) -> DeltaStats:
    """Scaled centered count statistics at star edge length t."""
    q = star_probs(t)
    n = counts.n
    rn = math.sqrt(n)
    d0 = (counts.n0 - q.p0 * n) / rn
    base = (n - counts.n0) / 3.0
    d1 = (counts.n1 - base) / rn
    d2 = (counts.n2 - base) / rn
    d3 = (counts.n3 - base) / rn
    return DeltaStats(d0, d1, d2, d3)


def in_band_fc(counts: PatternCounts, c: float, t: float) -> bool:
    """Whether counts lie in the band event favouring resolution 1.

    The event requires -2c <= d2 <= -c, -2c <= d3 <= -c and -c <= d0 <= 0
    for c > 1.  Membership forces 2c <= d1 <= 4c, which is checked.
    """
    c = float(c)
    if c <= 1.0:
        raise ValueError(f"band parameter c must be > 1, got {c!r}")
    d = delta_stats(counts, t)
    inside = (
        -2.0 * c <= d.d2 <= -c
        and -2.0 * c <= d.d3 <= -c
        and -c <= d.d0 <= 0.0
    )
    if inside and not (2.0 * c - 1e-9 <= d.d1 <= 4.0 * c + 1e-9):
        raise AssertionError(f"membership should force 2c <= d1 <= 4c, got d1={d.d1}")
    return inside


def counts_in_band(n: int, t: float, c: float) -> PatternCounts:
    """Construct an integer count vector with total n inside the band event.

    It targets the box midpoints d0 = -c/2, d2 = d3 = -3c/2.  Rounding is
    followed by a verification; n must be large enough that the box contains
    integer points (roughly n >= (4c)^2 * 25).
    """
    c = float(c)
    if not (1.0 < c < math.inf):
        raise ValueError(f"band parameter c (--c) must be finite and > 1, got {c!r}")
    if not 1 <= n <= _N_MAX:
        raise ValueError(f"sequence length n (--n) must lie in [1, 2**63 - 1], got {n!r}")
    q = star_probs(t)
    rn = math.sqrt(n)
    n0 = round(q.p0 * n - 0.5 * c * rn)
    base = (n - n0) / 3.0
    n2 = round(base - 1.5 * c * rn)
    if min(n0, n2, n - n0 - 2 * n2) >= 0:
        counts = PatternCounts(n0, n - n0 - 2 * n2, n2, n2)
        if in_band_fc(counts, c, t):
            return counts
    raise ValueError(f"could not realize band targets at n={n} (--n) and c={c!r} (--c); "
                     "increase n or lower c")


def zeta(u):
    """The cubic (1 + 2u)(1 - u)^2, decreasing from 1 to 0 on [0, 1]."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0.0) | (u > 1.0) | ~np.isfinite(u)):
        raise ValueError("zeta argument must lie in [0, 1]")
    out = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    return float(out) if out.ndim == 0 else out


def zeta_inv(y):
    """The root x in [0, 1] of 1 - zeta(x) = x^2 (3 - 2x) = y: the inverse of
    :func:`zeta` read at the gap y = 1 - v, accurate to ~1e-15 relative.

    The root of the cubic in closed trigonometric form,
    x = 2 sin(phi) sin(2 pi/3 - phi) with phi = atan2(sqrt(y), sqrt(1 - y)) / 3.
    The product keeps full relative accuracy as y -> 0, subnormal y included, and
    as y -> 1; zeta_inv(0) = 0 and zeta_inv(1) = 1 exactly.
    """
    y = np.asarray(y, dtype=float)
    if np.any((y < 0.0) | (y > 1.0) | ~np.isfinite(y)):
        raise ValueError("zeta_inv argument must lie in [0, 1]")
    phi = np.arctan2(np.sqrt(y), np.sqrt(1.0 - y)) / 3.0
    x = np.where(y == 1.0, 1.0, 2.0 * np.sin(phi) * np.sin(2.0 * math.pi / 3.0 - phi))
    return float(x) if x.ndim == 0 else x


def kl_divergence(q, p) -> float:
    """Kullback-Leibler divergence sum q_i log(q_i / p_i) of discrete vectors.

    Returns +inf when some q_i > 0 has p_i = 0; terms with q_i = 0
    contribute nothing.  Accepts any matching-length probability vectors
    (or PatternProbs).
    """
    qa = q.array if isinstance(q, PatternProbs) else np.asarray(q, dtype=float)
    pa = p.array if isinstance(p, PatternProbs) else np.asarray(p, dtype=float)
    if qa.shape != pa.shape:
        raise ValueError("q and p must have the same shape")
    if np.any(qa < 0.0) or np.any(pa < 0.0):
        raise ValueError("probability vectors must be nonnegative")
    for name, vec in (("q", qa), ("p", pa)):
        if abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must sum to 1")
    support = qa > 0.0
    if np.any(pa[support] == 0.0):
        return math.inf
    return float(np.sum(qa[support] * np.log(qa[support] / pa[support])))
