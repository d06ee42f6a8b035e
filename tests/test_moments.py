import math

import mpmath as mp
import numpy as np
import pytest

from starparadox import moments
from starparadox.moments import (
    BetaTailV,
    ConditionalZetaV,
    PointMassOneV,
    QuadraticV,
    TailParams,
    UniformV,
    beta_fn,
    certified_gap_curve,
    chi_weighted_sum,
    deflation_product,
    gamma_ratio,
    geometric_grid,
    lemma_chi_check,
    moment_curve,
    moment_mt,
    series_moment_closed,
    threshold_scan,
)
from starparadox.priors import DiscretePrior, PowerPrior, QuadratureError, UniformPrior

from oracles import (
    ExpansionTailV,
    deflation_log_bounds,
    deflation_product_direct,
    discrete_zeta_moment,
    rising_factor,
    series_moment_quad,
)

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
        with pytest.raises(ValueError, match="t > 0"):
            moment_curve(UniformV(), [0.0, 1.0])

    def test_oscillating_tail_raises(self):
        class OscillatingTail:
            def tail(self, y):
                with np.errstate(divide="ignore", invalid="ignore"):
                    return 0.5 + 0.5 * np.sin(1.0 / y)

        with pytest.raises(QuadratureError, match="did not converge"):
            moment_mt(OscillatingTail(), 2.0)


# the benchmark's zeta curve: z and the grid 0.5, 5, 50, 500
BENCH_Z = 2.0109601381069178
BENCH_GRID = geometric_grid(0.5, 500.0, 1)
RULE_ALPHAS = (0.01, 0.02, 0.05, 0.1, 0.3, 1.0, 2.0, 5.0)
RULE_GRID = geometric_grid(1e-3, 1e5, 4)


def _beta_tail_exact(alpha, t):
    """M_t = t B(t, alpha + 1) and D_t = M_t alpha/(t + alpha + 1) of BetaTailV(alpha)."""
    m = mp.mpf(t) * mp.beta(t, alpha + 1)
    return float(m), float(m * alpha / (mp.mpf(t) + alpha + 1))


class TestMomentRule:
    """M_t and D_t = M_t - M_{t+1} from one fixed rule in u = v^t (moments._moments)."""

    @pytest.mark.parametrize("alpha", RULE_ALPHAS)
    def test_beta_tail_two_t_r_t_exact(self, alpha):
        # 2 t R_t = 2 t alpha/(t + alpha + 1)
        curve = moment_curve(BetaTailV(alpha), RULE_GRID)
        np.testing.assert_allclose(curve[:, 4], 2.0 * RULE_GRID * alpha / (RULE_GRID + alpha + 1.0),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dist,exact", [
        (UniformV(), lambda t: 2.0 * t / (t + 2.0)),
        (QuadraticV(), lambda t: 2.0 * t / (t + 3.0)),
    ], ids=["uniform", "quadratic"])
    def test_closed_form_two_t_r_t(self, dist, exact):
        curve = moment_curve(dist, RULE_GRID)
        np.testing.assert_allclose(curve[:, 4], exact(RULE_GRID), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", RULE_ALPHAS + (0.5, 3.0))
    def test_estimate_covers_the_error(self, alpha):
        m, d, err_m, err_d = moments._moments(BetaTailV(alpha), RULE_GRID)
        exact = np.array([_beta_tail_exact(alpha, t) for t in RULE_GRID])
        assert np.all(np.abs(m - exact[:, 0]) <= err_m)
        assert np.all(np.abs(d - exact[:, 1]) <= err_d)
        assert np.all(err_m <= 1e-9 * m) and np.all(err_d <= 1e-9 * m)

    def test_zeta_curve_at_500_against_mpmath(self):
        # uniform:1.0: G(z, s) = log1p(-s/z) / log1p(-s_sat/z), s = x (3 - z)/2, v = zeta(x)
        t = mp.mpf(500)
        with mp.workdps(30):
            z = mp.mpf(BENCH_Z)
            h_sat = mp.log1p(-(3 - z) / (2 * z))

            def weight(x):  # P(V >= zeta(x)) times |d zeta / dx|
                return 6 * x * (1 - x) * mp.log1p(-x * (3 - z) / (2 * z)) / h_sat

            def zeta(x):
                return (1 + 2 * x) * (1 - x) ** 2

            pts = [0, 0.003, 0.01, 0.03, 0.1, 0.3, 1]
            m = mp.quad(lambda x: t * zeta(x) ** (t - 1) * weight(x), pts)
            d = mp.quad(lambda x: zeta(x) ** (t - 1) * (t - (t + 1) * zeta(x)) * weight(x), pts)
            gap = float(2 * t * d / m)
        row = moment_curve(ConditionalZetaV(UniformPrior(1.0), BENCH_Z), [500.0])[0]
        assert row[4] == pytest.approx(gap, rel=1e-12, abs=0.0)

    def test_discrete_zeta_curve_against_step_sum(self):
        # G of discrete:0.1,0.5 is a step function; the oracle sums its steps exactly
        prior = DiscretePrior(0.1, 0.5)
        m, d, err_m, err_d = moments._moments(ConditionalZetaV(prior, BENCH_Z), BENCH_GRID)
        for k, t in enumerate(BENCH_GRID):
            exact_m = discrete_zeta_moment(prior, BENCH_Z, t)
            exact_next = discrete_zeta_moment(prior, BENCH_Z, t + 1.0)
            assert abs(m[k] - exact_m) <= err_m[k] <= 1e-9 * exact_m
            assert abs(m[k] - d[k] - exact_next) <= err_m[k] + err_d[k]

    def test_one_tail_call_per_curve(self, monkeypatch):
        dist = ConditionalZetaV(PowerPrior(0.5), BENCH_Z)
        sizes = []
        real = dist.tail
        monkeypatch.setattr(dist, "tail", lambda y: sizes.append(np.size(y)) or real(y))
        moment_curve(dist, BENCH_GRID)
        assert len(sizes) == 1 and sizes[0] > 1000 * len(BENCH_GRID)

    def test_moment_mt_takes_the_rule(self):
        dist = BetaTailV(1.5)
        curve = moment_curve(dist, [7.0])
        assert moment_mt(dist, 7.0) == curve[0, 1]

    def test_split_where_the_tail_reaches_one(self):
        # z < y_min: G(z, s) = 1 from s_sat < (3 - z)/2 on, so the tail is 1 above y_one < 1
        dist = ConditionalZetaV(UniformPrior(1.0), 0.7)
        assert 0.0 < dist.y_one < 1.0
        assert dist.tail(dist.y_one * (1.0 + 1e-12)) == 1.0
        assert dist.tail(dist.y_one - 1e-6) < 1.0
        m, d, err_m, err_d = moments._moments(dist, geometric_grid(0.5, 500.0, 2))
        assert np.all(err_m <= 1e-12 * m) and np.all(err_d <= 1e-9 * m)


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
                    d = deflation_product_direct(eps, t, alpha)
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

    def test_beta_outside_its_range_is_a_value_error(self):
        # construction accepts eps_n = 3 (certified curves do not read beta); the chi check
        # reads beta = min(eps_n, 1 + eps_1) = 3 and names the range it left
        params = TailParams(1.0, (0.0, 3.0), (1.0, 0.2))
        with pytest.raises(ValueError, match=r"min\(eps_n, 1 \+ eps_1\) = 3.0 must lie in \(1, 2\]"):
            lemma_chi_check(params, geometric_grid(1.0, 1e4, 8))

    def test_expansion_tail_must_be_monotone(self):
        with pytest.raises(ValueError):
            ExpansionTailV(TailParams(1.0, (0.0, 1.0, 1.5), (2.0, -1.5, 0.0)))
