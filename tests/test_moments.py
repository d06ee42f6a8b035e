import math

import mpmath as mp
import numpy as np
import pytest

from starparadox.moments import (
    BetaTailV,
    ConditionalZetaV,
    ExpansionTailV,
    PointMassOneV,
    QuadraticV,
    TailParams,
    UniformV,
    beta_fn,
    certified_gap_curve,
    chi_weighted_sum,
    deflation_log_bounds,
    deflation_product,
    gamma_ratio,
    geometric_grid,
    lemma_chi_check,
    moment_curve,
    moment_mt,
    rising_factor,
    series_moment_closed,
    series_moment_quad,
    threshold_scan,
)
from starparadox.priors import QuadratureError, UniformPrior

mp.mp.dps = 40

GRID = geometric_grid(0.05, 500.0)


class TestMoments:
    def test_uniform_closed_forms(self):
        u = UniformV()
        for t in (1.0, 2.0, 10.0):
            assert moment_mt(u, t) == pytest.approx(1.0 / (t + 1.0), rel=1e-9)

    def test_point_mass(self):
        v = PointMassOneV()
        for t in (0.5, 3.0, 200.0):
            assert moment_mt(v, t) == pytest.approx(1.0, rel=1e-12)
        assert moment_curve(v, [5.0])[0, 3] == pytest.approx(0.0, abs=1e-9)

    def test_t_zero(self):
        assert moment_mt(UniformV(), 0.0) == 1.0

    def test_beta_tail_gamma_identity(self):
        # M_t = t B(t, alpha+1) = Gamma(t+1) Gamma(alpha+1) / Gamma(t+alpha+1)
        t, alpha = 5.0, 1.5
        oracle = float(mp.gamma(t + 1) * mp.gamma(alpha + 1) / mp.gamma(t + alpha + 1))
        assert moment_mt(BetaTailV(alpha), t) == pytest.approx(oracle, rel=1e-9)
        assert t * beta_fn(t, alpha + 1.0) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.01, 5.0])
    def test_beta_tail_range_ends_hold(self, alpha):
        # the ends of the accepted alpha range, over the whole t range moment_curve takes
        grid = geometric_grid(1e-3, 1e5, 2)
        curve = moment_curve(BetaTailV(alpha), grid)
        exact_m = np.array([t * beta_fn(t, alpha + 1.0) for t in grid])
        np.testing.assert_allclose(curve[:, 1], exact_m, rtol=1e-9)
        np.testing.assert_allclose(curve[:, 4], 2.0 * grid * alpha / (grid + alpha + 1.0),
                                   rtol=1e-4)

    @pytest.mark.parametrize("alpha", [0.0, 0.0099, 5.01, math.inf, math.nan])
    def test_beta_tail_alpha_outside_range(self, alpha):
        with pytest.raises(ValueError, match=r"beta alpha must be finite and in \[0.01, 5\]"):
            BetaTailV(alpha)

    def test_curve_stops_at_t_1e5(self):
        assert moment_curve(UniformV(), [1e5 * (1.0 + 1e-15)]).shape == (1, 5)
        with pytest.raises(ValueError, match="--t-hi"):
            moment_curve(UniformV(), [1.0, 1.0001e5])

    def test_quadratic_density(self):
        q = QuadraticV()
        for t in (1.0, 5.0, 40.0):
            assert moment_mt(q, t) == pytest.approx(2.0 / (t + 2.0), rel=1e-9)

    def test_ratio_ranges(self):
        u = UniformV()
        for t in (0.5, 2.0, 100.0):
            r = moment_curve(u, [t])[0, 3]
            assert 0.0 <= r <= 1.0
            assert r == pytest.approx(1.0 / (t + 2.0), rel=1e-8)

    def test_monotone_moments(self):
        curve = moment_curve(UniformV(), np.array([1.0, 2.0, 4.0, 8.0]))
        assert np.all(np.diff(curve[:, 1]) < 0)
        assert np.all(curve[:, 2] <= curve[:, 1])

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            moment_mt(UniformV(), -1.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_oscillating_tail_raises(self):
        class OscillatingTail:
            def tail(self, v):
                return 0.5 + 0.5 * math.sin(1.0 / (1.0 - v))

        with pytest.raises(QuadratureError, match="did not converge"):
            moment_mt(OscillatingTail(), 2.0)


class TestThresholdScan:
    def test_uniform_threshold_exact(self):
        scan = threshold_scan(UniformV(), 1.0, GRID)
        assert scan.reached
        step = GRID[1] / GRID[0]
        assert 2.0 / step <= scan.t_star <= 2.0 * step

    def test_quadratic_density_threshold(self):
        # smooth density with f(1) > 0: 2 t R_t = 2t/(t+3) >= 1 iff t >= 3
        scan = threshold_scan(QuadraticV(), 1.0, GRID)
        step = GRID[1] / GRID[0]
        assert scan.reached and 3.0 / step <= scan.t_star <= 3.0 * step

    def test_beta_tail_alpha2_approaches_two(self):
        dist = BetaTailV(2.0)
        assert moment_curve(dist, [2000.0])[0, 4] == pytest.approx(2.0 * 2.0, rel=2e-3)
        scan = threshold_scan(dist, 2.0 * (1.0 - 0.05), geometric_grid(0.1, 3000.0))
        assert scan.reached and scan.t_star < 100.0

    def test_not_reached_is_a_result(self):
        scan = threshold_scan(UniformV(), 3.0, GRID)  # limit is 2 < 3
        assert not scan.reached and scan.t_star is None

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            threshold_scan(UniformV(), 1.0, np.geomspace(1.0, 10.0, 30))
        with pytest.raises(ValueError):
            threshold_scan(UniformV(), 1.0, np.array([3.0, 2.0, 1.0, 4.0]))
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                threshold_scan(UniformV(), alpha, GRID)
        with pytest.raises(ValueError, match="per_decade"):
            geometric_grid(1.0, 1e4, 0)

    @pytest.mark.parametrize("lo, hi", [(2.2250738585072014e-308, 1e3), (1e-10, 1e300)])
    def test_grid_span_overflow_rejected(self, lo, hi):
        # hi / lo is infinite: the grid's point count cannot be formed
        with pytest.raises(ValueError, match="overflows"):
            geometric_grid(lo, hi, 1)

    def test_certified_monotone_in_remainder(self):
        grid = geometric_grid(1.0, 2e4, 32)
        base = TailParams(1.0, (0.0, 1.0, 3.0), (1.0, 0.5, 0.2))
        bigger = TailParams(1.0, (0.0, 1.0, 3.0), (1.0, 0.5, 0.6))
        a = threshold_scan(base, 1.0, grid)
        b = threshold_scan(bigger, 1.0, grid)
        assert a.reached and b.reached
        assert b.t_star >= a.t_star

    def test_certified_continuity_under_perturbation(self):
        grid = geometric_grid(1.0, 2e4, 32)
        base = TailParams(1.0, (0.0, 1.0, 3.0), (1.0, 0.5, 0.2))
        t0 = threshold_scan(base, 1.0, grid).t_star
        step = grid[1] / grid[0]
        for k in range(3):
            for sign in (-1, 1):
                gam = list(base.gamma)
                gam[k] *= 1.0 + 0.1 * sign
                pert = TailParams(1.0, base.eps, tuple(gam))
                t1 = threshold_scan(pert, 1.0, grid).t_star
                assert t1 is not None
                assert abs(math.log(t1 / t0)) <= 6.0 * math.log(step)

    def test_certified_curve_bounds_truth(self):
        # the certified gap never exceeds the true 2 t R_t of the matching tail
        params = TailParams(1.0, (0.0, 1.0, 3.0), (0.7, 0.3, 0.0))
        dist = ExpansionTailV(params)
        grid = geometric_grid(2.0, 3000.0, 8)
        cert = certified_gap_curve(params, grid)
        true = moment_curve(dist, grid)[:, 4]
        assert np.all(cert <= true + 1e-6)

    def test_empirical_scan_on_expansion_tail(self):
        params = TailParams(0.8, (0.0, 0.7, 1.6), (0.6, 0.4, 0.0))
        dist = ExpansionTailV(params)
        scan = threshold_scan(dist, 0.8, geometric_grid(0.5, 1000.0))
        assert scan.reached

    def test_zeta_conditional_threshold(self, oracle):
        ref = oracle["zeta_threshold"]
        prior = UniformPrior(1.0)
        grid = geometric_grid(ref["grid_lo"], ref["grid_hi"], ref["per_decade"])
        for z, t_ref in zip(ref["z_grid"], ref["t_star"]):
            scan = threshold_scan(ConditionalZetaV(prior, z), ref["alpha"], grid)
            assert scan.reached
            assert scan.t_star == pytest.approx(t_ref, rel=1e-9)
        stars = np.array(ref["t_star"], dtype=float)
        # stable across z: all five thresholds within a factor 1.5 of each other
        assert stars.max() / stars.min() <= 1.5


class TestSpecialFactors:
    def test_gamma_ratio_recurrence(self):
        for t in (0.3, 2.5, 17.0):
            for alpha in (0.5, 1.0, 3.2):
                assert gamma_ratio(1.0, t, alpha) == pytest.approx(
                    1.0 / ((t % 1.0) + alpha + 1.0), rel=1e-12
                )

    def test_deflation_closed_vs_direct(self):
        for t in (0.5, 7.3, 100.0, 5000.0):
            for eps in (0.4, 1.7):
                for alpha in (0.6, 2.0):
                    c = deflation_product(eps, t, alpha)
                    d = deflation_product(eps, t, alpha, direct=True)
                    assert c == pytest.approx(d, rel=1e-12)

    def test_rising_factor_direct(self):
        for t in (1.0, 6.6):
            for alpha in (0.5, 1.0, 2.7):
                fa = alpha - math.floor(alpha)
                prod, x = 1.0, t + alpha
                while x >= t + fa - 1e-12:
                    prod *= x
                    x -= 1.0
                assert rising_factor(t, alpha) == pytest.approx(
                    prod / math.gamma(alpha + 1.0), rel=1e-12
                )

    def test_beta_rising_lower_bound(self):
        # t B(t, alpha+1) Q_alpha(t) >= 1 for t >= 1
        for t in np.geomspace(1.0, 1e4, 60):
            for alpha in (0.3, 1.0, 1.7, 3.5):
                val = t * beta_fn(t, alpha + 1.0) * rising_factor(t, alpha)
                assert val >= 1.0 - 1e-12

    def test_deflation_sandwich(self):
        for t in np.geomspace(1.0, 1e4, 25):
            for eps in (0.4, 1.0, 1.9):
                for alpha in (0.5, 2.0):
                    s, tt = deflation_log_bounds(eps, t, alpha)
                    p = deflation_product(eps, t, alpha)
                    assert math.exp(-s - tt) * (1 - 1e-12) <= p <= math.exp(-s) * (1 + 1e-12)

    def test_deflation_power_envelope(self):
        # deflation * t^eps stays within (0, (alpha+eps+3)^eps] for t >= 1
        for eps in (0.4, 1.0, 1.9):
            for alpha in (0.5, 2.0):
                vals = np.array(
                    [deflation_product(eps, t, alpha) * t**eps for t in np.geomspace(1, 1e4, 80)]
                )
                assert np.all(vals > 0.0)
                assert np.all(vals <= (alpha + eps + 3.0) ** eps + 1e-12)
                assert vals.min() > 0.05  # bounded away from zero in practice


class TestSeriesMoments:
    def test_closed_vs_quadrature_identity(self):
        params = TailParams(1.0, (0.0, 1.0, 3.0), (1.0, 0.5, 0.2))
        for t in (0.7, 3.3, 17.0, 150.0):
            for sign in (-1, +1):
                closed = series_moment_closed(params, t, sign)
                quadv = series_moment_quad(params, t, sign)
                assert quadv == pytest.approx(closed, rel=1e-8)

    def test_chi_sum_sign(self):
        params = TailParams(1.0, (0.0, 1.0, 3.0), (1.0, 0.5, 0.2))
        plus = chi_weighted_sum(params, 5.0, +1)
        minus = chi_weighted_sum(params, 5.0, -1)
        assert plus > minus


class TestChiLemma:
    def test_reference_params(self):
        params = TailParams(1.0, (0.0, 1.0, 3.0), (1.0, 0.5, 0.2))
        rep = lemma_chi_check(params, geometric_grid(1.0, 1e4, 16))
        assert rep.ok
        assert rep.beta == 2.0

    def test_trivial_remainder(self):
        params = TailParams(1.0, (0.0, 1.5), (1.0, 0.0))
        rep = lemma_chi_check(params, geometric_grid(1.0, 1e4, 8))
        assert rep.ok

    def test_beta_in_range(self):
        params = TailParams(0.7, (0.0, 0.25, 0.8, 1.3), (1.0, -0.4, 0.2, 0.1))
        assert 1.0 < params.beta <= 2.0

    def test_random_params_never_violate(self):
        rng = np.random.default_rng(2718)
        grid = geometric_grid(1.0, 1e4, 12)
        for _ in range(20):
            n = rng.integers(1, 4)
            inner = np.sort(rng.uniform(0.05, 1.0, size=n - 1)) if n > 1 else np.array([])
            eps = (0.0, *inner, float(rng.uniform(1.05, 2.0)))
            gamma = tuple(rng.uniform(-2.0, 2.0, size=n)) + (float(rng.uniform(0.0, 2.0)),)
            params = TailParams(float(rng.uniform(0.3, 3.0)), eps, gamma)
            rep = lemma_chi_check(params, grid)
            assert rep.ok, (params, rep)


class TestTailParamsValidation:
    def test_orderings(self):
        with pytest.raises(ValueError):
            TailParams(1.0, (0.0, 1.2, 1.1), (1.0, 0.1, 0.1))
        with pytest.raises(ValueError):
            TailParams(1.0, (0.1, 1.5), (1.0, 0.1))
        with pytest.raises(ValueError):
            TailParams(1.0, (0.0, 0.9), (1.0, 0.1))  # eps_n must exceed 1
        with pytest.raises(ValueError):
            TailParams(1.0, (0.0, 1.5), (1.0, -0.1))  # remainder negative
        with pytest.raises(ValueError):
            TailParams(-1.0, (0.0, 1.5), (1.0, 0.1))

    def test_expansion_tail_must_be_monotone(self):
        with pytest.raises(ValueError):
            ExpansionTailV(TailParams(1.0, (0.0, 1.0, 1.5), (2.0, -1.5, 0.0)))
