import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from starparadox.model import (
    PatternCounts,
    band_half_width,
    band_interval,
    counts_in_band,
    delta_stats,
    in_band_fc,
    kl_divergence,
    log_pattern_prob_arrays,
    pattern_probs,
    star_probs,
    zeta,
    zeta_inv,
)

from oracles import log_array

mp.mp.dps = 40


def mp_pattern_probs(te, ti):
    x = mp.e ** (-4 * mp.mpf(te))
    w = mp.e ** (-4 * (mp.mpf(te) + mp.mpf(ti)))
    return ((1 + x + 2 * w) / 4, (1 + x - 2 * w) / 4, (1 - x) / 4)


class TestPatternProbs:
    def test_no_time_all_identical(self):
        p = pattern_probs(0.0, 0.0)
        assert p.array.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_saturation_limit(self):
        p = pattern_probs(1e6, 0.3)
        assert np.allclose(p.array, 0.25, atol=1e-12)

    def test_against_high_precision(self):
        p = pattern_probs(0.1, 0.0)
        p0, p1, p2 = mp_pattern_probs(0.1, 0.0)
        assert abs(p.p0 - float(p0)) < 1e-15
        assert abs(p.p1 - float(p1)) < 1e-15
        # six-figure spot values
        assert p.p0 == pytest.approx(0.752740, abs=5e-7)
        assert p.p1 == pytest.approx(0.082420, abs=5e-7)

    @pytest.mark.parametrize("te,ti", [(-0.1, 0.0), (0.1, -1.0), (math.nan, 0.0), (math.inf, 0.0)])
    def test_rejects_bad_inputs(self, te, ti):
        with pytest.raises(ValueError):
            pattern_probs(te, ti)

    @given(te=st.floats(0.0, 50.0), ti=st.floats(0.0, 50.0))
    def test_ordering_and_sum(self, te, ti):
        p = pattern_probs(te, ti)
        assert p.p0 >= p.p1 >= p.p2
        assert abs(p.array.sum() - 1.0) <= 1e-12

    def test_log_arrays_match_scalar(self):
        te = np.array([0.05, 0.3, 2.0, 0.0])
        ti = np.array([0.0, 0.7, 0.1, 0.0])
        lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
        for k in range(len(te)):
            p = pattern_probs(te[k], ti[k])
            ref = log_array(p)
            assert lp0[k] == pytest.approx(ref[0], abs=1e-14)
            assert lp1[k] == ref[1] or lp1[k] == pytest.approx(ref[1], abs=1e-13)
            assert lp2[k] == ref[2] or lp2[k] == pytest.approx(ref[2], abs=1e-13)

    @given(draws=st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
                  st.one_of(st.just(0.0), st.floats(1e-9, 1e3))),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=300, deadline=None)
    def test_log_arrays_match_guarded_form(self, draws):
        te, ti = (np.array(v) for v in zip(*draws))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lp = log_pattern_prob_arrays(te, ti)
        # the former form, with np.where guards on the two log1p arguments
        x = np.exp(-4.0 * te)
        w = np.exp(-4.0 * (te + ti))
        log4 = math.log(4.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            guarded = (
                np.log1p(x + 2.0 * w) - log4,
                np.where(x - 2.0 * w > -1.0, np.log1p(x - 2.0 * w), -np.inf) - log4,
                np.where(x < 1.0, np.log1p(-x), -np.inf) - log4,
            )
        for new, old in zip(lp, guarded):
            assert new.tobytes() == old.tobytes()


class TestStarProbs:
    def test_saturation(self):
        assert np.allclose(star_probs(1e6).array, 0.25, atol=1e-12)

    def test_spot_value(self):
        q = star_probs(0.1)
        assert q.p0 == pytest.approx(0.752740, abs=5e-7)
        assert q.p1 == pytest.approx(0.082420, abs=5e-7)

    @pytest.mark.parametrize("t", [0.05, 0.1, 0.5, 1.0])
    def test_consistency_with_pattern_probs(self, t):
        assert star_probs(t) == pattern_probs(t, 0.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_rejects(self, t):
        with pytest.raises(ValueError):
            star_probs(t)


class TestBandInterval:
    def test_values_at_t01(self):
        center = float(3 * mp.e ** mp.mpf("-0.4"))
        ell = float(3 * mp.e ** mp.mpf("-0.4") * (1 - mp.e ** mp.mpf("-0.4")))
        iv = band_interval(0.1)
        assert 0.5 * (iv.lo + iv.hi) == pytest.approx(center, abs=1e-14)
        assert band_half_width(0.1) == pytest.approx(ell, abs=1e-14)
        assert center == pytest.approx(2.010960, abs=5e-7)
        # direct evaluation gives 0.6629732...
        assert ell == pytest.approx(0.662973, abs=5e-7)

    def test_closed_form_endpoints(self):
        for t in (0.03, 0.1, 1.0, 3.0):
            iv = band_interval(t)
            assert iv.lo == pytest.approx(3 * math.exp(-8 * t), rel=1e-12)
            x = math.exp(-4 * t)
            assert iv.hi == pytest.approx(3 * x * (2 - x), rel=1e-12)

    def test_containment_on_log_grid(self):
        # 1 < 4q0 - l and 4q0 + l < 4 in the cancellation-free centered form:
        # 4q0 - l - 1 = iv.lo and 3 - (4q0 + l - 1) = 3 - iv.hi
        for t in np.geomspace(0.01, 5.0, 200):
            iv = band_interval(t)
            assert iv.lo > 0.0
            assert iv.hi < 3.0
            if t < 2.0:  # subtractive form is float-safe here
                q0 = star_probs(t).p0
                ell = band_half_width(t)
                assert 1.0 < 4 * q0 - ell
                assert 4 * q0 + ell < 4.0

    def test_large_t_collapse(self):
        iv = band_interval(3.0)
        assert iv.width < 1e-4 and iv.lo > 0.0


class TestDeltaStats:
    def test_centered_counts_near_zero(self):
        t, n = 0.1, 10**6
        q = star_probs(t)
        n0 = round(q.p0 * n)
        rest = n - n0
        base = rest // 3
        counts = PatternCounts(n0, rest - 2 * base, base, base)
        d = delta_stats(counts, t)
        assert max(abs(d.d0), abs(d.d1), abs(d.d2), abs(d.d3)) < 0.01

    def test_arithmetic_example(self):
        d = delta_stats(PatternCounts(753, 130, 59, 58), 0.1)
        q0 = star_probs(0.1).p0
        assert d.d0 == pytest.approx((753 - q0 * 1000) / math.sqrt(1000), rel=1e-12)
        assert d.d0 == pytest.approx(0.00822, abs=5e-5)
        assert d.d1 == pytest.approx((130 - 247 / 3) / math.sqrt(1000), rel=1e-12)
        assert d.d1 == pytest.approx(1.5075, abs=5e-4)

    def test_sum_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            v = rng.integers(0, 500, size=4)
            if v.sum() == 0:
                v[0] = 1
            d = delta_stats(PatternCounts(*map(int, v)), 0.37)
            assert abs(d.d1 + d.d2 + d.d3) < 1e-9


class TestBandEvent:
    def test_constructed_membership(self):
        t, c, n = 0.1, 1.5, 10**4
        counts = counts_in_band(n, t, c)
        assert in_band_fc(counts, c, t)
        d = delta_stats(counts, t)
        assert 2 * c <= d.d1 <= 4 * c

    def test_midpoint_targets(self):
        t, c, n = 0.1, 1.5, 10**4
        counts = counts_in_band(n, t, c)
        d = delta_stats(counts, t)
        assert d.d1 == pytest.approx(3 * c, abs=0.1)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10**9), t=st.floats(1e-3, 5.0),
           c=st.floats(1.0, 20.0, exclude_min=True))
    def test_constructed_tail_counts_equal(self, n, t, c):
        # the claims CLI writes its j = 3 reports as the j = 2 reports on this
        try:
            counts = counts_in_band(n, t, c)
        except ValueError:
            return
        assert counts.n2 == counts.n3 and counts.n == n and in_band_fc(counts, c, t)

    def test_typical_counts_outside(self):
        counts = PatternCounts(7527, 825, 824, 824)
        assert not in_band_fc(counts, 1.5, 0.1)

    def test_c_must_exceed_one(self):
        with pytest.raises(ValueError):
            in_band_fc(PatternCounts(10, 1, 1, 1), 1.0, 0.1)


class TestZeta:
    def test_endpoints_and_half(self):
        assert zeta(0.0) == 1.0
        assert zeta(1.0) == 0.0
        assert zeta(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_decreasing(self):
        u = np.linspace(0.0, 1.0, 10**4)
        v = zeta(u)
        assert np.all(np.diff(v) <= 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta(1.2)
        with pytest.raises(ValueError):
            zeta_inv(-0.1)

    # zeta_inv takes the gap y = 1 - v and returns the root x of 1 - zeta(x) = y

    def test_inverse_endpoints(self):
        assert zeta_inv(0.0) == 0.0
        assert zeta_inv(1.0) == 1.0
        assert zeta_inv(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_roundtrip_grids(self):
        u = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(zeta_inv(1.0 - zeta(u)) - u)) < 1e-10
        y = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(zeta(zeta_inv(y)) - (1.0 - y))) < 1e-10

    @given(y=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_roundtrip_property(self, y):
        assert zeta(zeta_inv(y)) == pytest.approx(1.0 - y, abs=1e-10)

    def test_series_near_one(self):
        # v = 1 - y near one; cubic inversion
        # u = w/sqrt(3) + w^2/9 + 5 w^3/(54 sqrt 3) + (8/243) w^4 + ...
        y = 1e-6
        w = math.sqrt(y)
        s3 = math.sqrt(3.0)
        series = w / s3 + w**2 / 9.0 + 5.0 * w**3 / (54.0 * s3)
        quartic = (8.0 / 243.0) * w**4
        u = zeta_inv(y)
        assert abs(u - series) <= 2.0 * quartic
        # independent root-finder oracle at 1e-15 tolerance
        root = brentq(lambda x: x * x * (3 - 2 * x) - y, 0.0, 1.0, xtol=1e-15)
        assert u == pytest.approx(root, abs=5e-13)

    def test_accuracy_against_mpmath(self):
        def reference(y):
            # bisection of the increasing cubic x^2 (3 - 2x) in 50-digit arithmetic, on
            # [0, sqrt(y)]: x^2 <= y, so 130 halvings resolve the root relative to its size
            with mp.workdps(50):
                lo, y = mp.mpf(0), mp.mpf(y)
                hi = min(mp.mpf(1), mp.sqrt(y))
                for _ in range(130):
                    mid = (lo + hi) / 2
                    if mid * mid * (3 - 2 * mid) < y:
                        lo = mid
                    else:
                        hi = mid
                return (lo + hi) / 2

        rng = np.random.default_rng(2024)
        # the points of the old v-argument test, written as gaps y = 1 - v: v near 0 (down
        # to subnormal) is y near 1, v near 1 is y near 0 (down to subnormal)
        y = np.concatenate([
            rng.random(100),
            1.0 - 10.0 ** -np.arange(1.0, 16.0),
            [1.0 - 2.0**-53],
            np.logspace(-1.0, -323.0, 120),
            [5e-324],
        ])
        u = zeta_inv(y)
        for yi, ui in zip(y, u):
            ref = reference(yi)
            assert abs((mp.mpf(ui) - ref) / ref) <= 2e-15, yi

    def test_shape_preserved(self):
        y = np.linspace(0.0, 1.0, 12)
        assert isinstance(zeta_inv(0.3), float)
        assert isinstance(zeta_inv(np.array(0.3)), float)
        assert zeta_inv(y).shape == (12,)
        grid = zeta_inv(y.reshape(3, 4))
        assert grid.shape == (3, 4)
        assert grid.ravel().tolist() == [zeta_inv(x) for x in y]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -5e-324, 1.0 + 2.0**-52])
    def test_rejects_nan_and_out_of_range(self, bad):
        with pytest.raises(ValueError, match="zeta_inv"):
            zeta_inv(bad)
        with pytest.raises(ValueError, match="zeta_inv"):
            zeta_inv(np.array([0.5, bad]))

    def test_power_mean_inequality(self):
        # ((1+2u)/(1-u))^m >= m^2 (1 - zeta(u)) for u in [0,1), m in 3..100,
        # compared in log scale to avoid overflow at u near 1
        u = np.linspace(0.0, 0.999, 400)
        log_base = np.log((1 + 2 * u) / (1 - u))
        for m in range(3, 101):
            rhs = m * m * (1.0 - zeta(u))
            with np.errstate(divide="ignore"):
                log_rhs = np.where(rhs > 0, np.log(np.maximum(rhs, 1e-300)), -np.inf)
            assert np.all(m * log_base >= log_rhs - 1e-12)


class TestKL:
    def test_zero_on_equal(self):
        q = star_probs(0.2)
        assert kl_divergence(q, q) == 0.0

    def test_example_against_high_precision(self):
        q = [0.7, 0.1, 0.1, 0.1]
        p = [0.25] * 4
        oracle = float(
            mp.mpf("0.7") * mp.log(mp.mpf("0.7") / mp.mpf("0.25"))
            + 3 * mp.mpf("0.1") * mp.log(mp.mpf("0.1") / mp.mpf("0.25"))
        )
        val = kl_divergence(q, p)
        assert val == pytest.approx(oracle, rel=1e-14)
        l1 = abs(0.7 - 0.25) + 3 * abs(0.1 - 0.25)
        assert val >= 0.5 * l1**2

    def test_pinsker_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            q = rng.dirichlet(np.ones(4))
            p = rng.dirichlet(np.ones(4))
            d = kl_divergence(q, p)
            assert d >= 0.5 * np.abs(q - p).sum() ** 2 - 1e-12

    def test_infinite_off_support(self):
        assert kl_divergence([0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.6, 0.0, 0.0], [0.25] * 4)


class TestPatternCounts:
    def test_total_must_be_positive(self):
        with pytest.raises(ValueError):
            PatternCounts(0, 0, 0, 0)

    def test_entries_nonnegative_integers(self):
        with pytest.raises(ValueError):
            PatternCounts(-1, 2, 0, 0)
        with pytest.raises(ValueError):
            PatternCounts(1.5, 0, 0, 0)

    def test_total_and_array(self):
        c = PatternCounts(5, 3, 2, 1)
        assert c.n == 11
        assert c.array.tolist() == [5, 3, 2, 1]
