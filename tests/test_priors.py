import json
import math
import pickle
import re
from concurrent.futures import ProcessPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _quad, discrete_log_tail, discrete_log_ti_cdf, gamma_series, h_quad

from starparadox.priors import _running_rule
from starparadox.tempering import default_s_grid, default_z_grid

from starparadox.priors import (
    PRIOR_KINDS,
    DiscretePrior,
    LogPrior,
    PowerPrior,
    Prior,
    QuadratureError,
    TamePrior,
    TLogPrior,
    UniformPrior,
    _discrete_table,
    _gamma_series,
    h_aux,
    parse_prior,
    prior_from_json,
)

ALL_PRIORS = [
    TamePrior(),
    UniformPrior(1.0),
    PowerPrior(0.5),
    LogPrior(),
    TLogPrior(),
    DiscretePrior(0.1, 0.5),
]


class TestSerialization:
    @pytest.mark.parametrize("spec", ALL_PRIORS, ids=lambda s: s.kind)
    def test_json_roundtrip(self, spec):
        assert prior_from_json(json.dumps(spec.to_dict())).to_dict() == spec.to_dict()

    def test_shorthand(self):
        assert parse_prior("uniform:1.0").to_dict() == UniformPrior(1.0).to_dict()
        assert parse_prior("discrete:0.1,0.5").to_dict() == DiscretePrior(0.1, 0.5).to_dict()
        assert parse_prior("logti").kind == "logti"
        assert parse_prior("tame").kind == "tame"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_prior("cauchy:1.0")
        with pytest.raises(ValueError):
            prior_from_json(json.dumps({"kind": "nope", "params": {}}))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            UniformPrior(0.0)
        with pytest.raises(ValueError):
            PowerPrior(1.0)
        with pytest.raises(ValueError):
            DiscretePrior(0.4, 0.5)  # violates 3a < min(1, b)
        assert DiscretePrior(0.1, 5.0).declared_tempering()["alpha"] == 50.0  # b/a at its bound

    @pytest.mark.parametrize("a, b, message", [
        (0.1, math.inf, "finite and > 0"),
        (math.nan, 0.5, "finite and > 0"),
        (0.1, math.nan, "finite and > 0"),
        (math.inf, 0.5, "finite and > 0"),
        (0.1, 5.0000001, "b/a <= 50"),
        (1e-9, 0.5, "b/a <= 50"),
    ])
    def test_discrete_bounds(self, a, b, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DiscretePrior(a, b)

    @pytest.mark.parametrize("text, message", [
        ("uniform", "uniform takes (theta)"),
        ("logti:1", "logti takes ()"),
        ("discrete:0.1", "discrete takes (a, b)"),
        ("tame:1,2,3", "tame takes (rate_e, rate_i)"),
    ])
    def test_wrong_arguments_named(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_prior(text)

    @pytest.mark.parametrize("obj", [
        {"kind": "uniform", "params": {"th": 1.0}},
        {"kind": "uniform"},
        {"kind": "uniform", "params": [1.0]},
    ])
    def test_wrong_dict_params_named(self, obj):
        with pytest.raises(ValueError, match=re.escape("uniform takes (theta)")):
            prior_from_json(json.dumps(obj))


class TestSharedTeLaw:
    """Te ~ Exp(rate_e), drawn before Ti, and params() are defined once on Prior."""

    @pytest.mark.parametrize(
        "spec", [TamePrior(2.0, 3.0), UniformPrior(1.0), DiscretePrior(0.1, 0.5)], ids=lambda s: s.kind
    )
    @pytest.mark.parametrize("seed", [0, 17])
    def test_sample_is_te_then_ti(self, spec, seed):
        te, ti = spec.sample(np.random.default_rng(seed), 5000)
        rng = np.random.default_rng(seed)
        te_ref = rng.exponential(1.0 / spec.rate_e, 5000)
        ti_ref = spec._sample_ti(rng, 5000)
        assert np.array_equal(te, te_ref) and np.array_equal(ti, ti_ref)

    @pytest.mark.parametrize("n", [1, 3, 10, 1000, 10**6])
    def test_tame_log_q_n_uses_rate_e(self, n):
        spec = TamePrior(2.0, 3.0)
        expected = math.log(-math.expm1(-3.0 / n)) - 0.2 + math.log(-math.expm1(-2.0 / n))
        assert spec.log_q_n(0.1, n) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("kind", sorted(PRIOR_KINDS))
    def test_holds_only_constructor_arguments(self, kind):
        # constructor order: a replay's --spec is read off params().values()
        args = {"tame": {"rate_e": 2.0, "rate_i": 3.0}, "uniform": {"theta": 1.0},
                "power": {"theta": 0.5}, "logti": {}, "tlogti": {},
                "discrete": {"a": 0.1, "b": 0.5}}[kind]
        spec = PRIOR_KINDS[kind](**args)
        z_grid, s_grid = default_z_grid(0.1), default_s_grid(0.1)
        spec.h(1.7, s_grid)
        spec.h_sat(1.7)
        rows = np.array([spec.g(z, s_grid) for z in z_grid])
        spec.log_ti_cdf(np.array([0.0, 0.01, 0.5, 2.0]))
        spec.log_q_n(0.1, [10, 10**4])
        assert list(vars(spec).items()) == list(args.items())
        assert spec.params() == args
        assert type(spec)(**spec.params()).to_dict() == spec.to_dict()
        clone = pickle.loads(pickle.dumps(spec))
        assert vars(clone) == args
        assert np.array([clone.g(z, s_grid) for z in z_grid]).tobytes() == rows.tobytes()

    def test_catalog_declares_only_its_ti_law(self):
        for cls in PRIOR_KINDS.values():
            for name in ("sample", "log_q_n", "params", "y_min"):
                assert getattr(cls, name) is getattr(Prior, name), (cls.kind, name)
        own_ti_max = {cls.kind for cls in PRIOR_KINDS.values() if cls.ti_max is not Prior.ti_max}
        assert own_ti_max == {"uniform", "tame"}


class TestSampling:
    @pytest.mark.parametrize("spec", ALL_PRIORS, ids=lambda s: s.kind)
    def test_deterministic(self, spec):
        te_a, ti_a = spec.sample(np.random.default_rng(42), 50)
        te_b, ti_b = spec.sample(np.random.default_rng(42), 50)
        assert np.array_equal(te_a, te_b) and np.array_equal(ti_a, ti_b)
        assert te_a.shape == ti_a.shape == (50,)

    def test_exponential_external_mean(self):
        te, _ = UniformPrior(1.0).sample(np.random.default_rng(7), 10**6)
        se = 0.25 / math.sqrt(len(te))
        assert abs(te.mean() - 0.25) < 3 * se

    def test_discrete_atom_frequency(self):
        spec = DiscretePrior(0.1, 0.5)
        rng = np.random.default_rng(3)
        _, ti = spec.sample(rng, 4 * 10**5)
        p1 = (1 + 2 * math.exp(-4)) * (1 - 2 ** -spec.b) / spec.r  # r_1 / r
        freq = np.mean(ti == 1.0)
        se = math.sqrt(p1 * (1 - p1) / len(ti))
        assert abs(freq - p1) < 4 * se

    def test_discrete_normalizer_against_mpmath(self):
        spec = DiscretePrior(0.1, 0.5)
        mp.mp.dps = 30
        a, b = mp.mpf("0.1"), mp.mpf("0.5")
        oracle = mp.nsum(
            lambda n: (1 + 2 * mp.e ** (-4 * n**-a)) * (n**-b - (n + 1) ** -b),
            [1, mp.inf],
            method="e",
        )
        assert spec.r == pytest.approx(float(oracle), rel=1e-13)

    @pytest.mark.parametrize("a, b", [(0.1, 0.5), (0.05, 0.2), (0.3, 1.5), (0.2, 0.7)])
    def test_discrete_sample_matches_two_pow_form(self, a, b):
        # the former sampler: indices first, then a second pow for ti = idx**-a
        spec = DiscretePrior(a, b)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            te_ref = rng.exponential(scale=0.25, size=3000)
            idx = np.empty(3000)
            filled = 0
            while filled < 3000:
                todo = 3000 - filled
                u = rng.random(int(todo * 3.2 / max(spec.r, 1.0)) + 16)
                j = np.ceil(u ** (-1.0 / b)) - 1.0
                accept = rng.random(j.shape) * 3.0 <= 1.0 + 2.0 * np.exp(-4.0 * j**-a)
                got = j[accept][:todo]
                idx[filled : filled + got.size] = got
                filled += got.size
            te, ti = spec.sample(np.random.default_rng(seed), 3000)
            assert te.tobytes() == te_ref.tobytes()
            assert ti.tobytes() == (idx**-a).tobytes()


class TestHFunction:
    def test_uniform_closed_form(self):
        spec = UniformPrior(1.0)
        assert spec.h(2.0, 0.2) == pytest.approx(math.log(2.0 / 1.8), rel=1e-14)
        assert spec.h(2.0, 0.2) == pytest.approx(0.105361, abs=5e-7)

    def test_uniform_quadrature_matches_closed(self):
        spec = UniformPrior(1.0)
        for z in (1.5, 2.0, 2.6):
            for s in (1e-4, 0.05, 0.15):
                closed = spec.h(z, s)
                quadv = h_quad(spec, z, min(s, spec.s_sat(z)))
                assert quadv == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("theta", [1.0, 9.5, 20.0])
    def test_uniform_saturated_closed_value(self, theta):
        # H(z, s_sat) = log(z / (z - s_sat)) = 4 theta + log(y_min) - log 3 for z < y_min
        spec = UniformPrior(theta)
        closed = 4.0 * theta + math.log1p(2.0 * math.exp(-4.0 * theta)) - math.log(3.0)
        for z in (0.3, 0.7, 0.99, 1.0):
            s_sat = spec.s_sat(z)
            assert spec.h(z, s_sat) == pytest.approx(closed, rel=1e-14)
            assert spec.h(z, 2.0 * s_sat) == pytest.approx(closed, rel=1e-14)
            if theta == 1.0:
                assert spec.h(z, s_sat) == pytest.approx(math.log(z / (z - s_sat)), rel=1e-13)

    def test_discrete_matches_brute_force_scan(self):
        spec = DiscretePrior(0.3, 0.95)
        rng = np.random.default_rng(9)
        for _ in range(40):
            z = rng.uniform(0.3, 2.7)
            s = rng.uniform(0.4, 0.9) * min(z, (3 - z) / 2)
            n_direct = _scan_index(spec, z, s)
            assert spec.index_n(z, s) == n_direct
            assert spec.h(z, s) == pytest.approx(n_direct ** -spec.b, rel=1e-12)

    def test_discrete_spec_parameters_moderate_u(self):
        # z kept below ~1.7 so the index stays within brute-force range at a = 0.1
        spec = DiscretePrior(0.1, 0.5)
        for z, s in [(1.5, 1.2), (1.0, 0.8), (0.6, 0.55)]:
            n_direct = _scan_index(spec, z, s)
            assert spec.h(z, s) == pytest.approx(n_direct ** -spec.b, rel=1e-12)

    @pytest.mark.parametrize(
        "spec", [TamePrior(), UniformPrior(1.0), PowerPrior(0.5), LogPrior(), TLogPrior()],
        ids=lambda s: s.kind,
    )
    def test_density_kinds_vanish_at_zero(self, spec):
        assert spec.h(2.0, 0.0) == 0.0

    @pytest.mark.parametrize("spec", ALL_PRIORS, ids=lambda s: s.kind)
    def test_constant_past_saturation(self, spec):
        for z in (0.8, 1.7, 2.4):
            base = spec.h(z, (3 - z) / 2)
            for s in ((3 - z) / 2 + 0.05, 1.0, 2.5):
                assert spec.h(z, s) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("theta", [1e-2, 3e-3, 1e-3])
    def test_power_small_theta_against_mpmath(self, theta):
        # xi = tau^(1/theta) underflows over most of the substituted range, where the
        # integrand takes its limit (3/(4z))^(theta-1) / (theta z)
        spec = PowerPrior(theta)
        for z, s in [(2.0, 0.01), (1.37, 1e-6), (2.6, 0.2)]:
            with mp.workdps(30):
                def integrand(tau):
                    xi = tau ** (1 / mp.mpf(theta))
                    if xi == 0:
                        return (0.75 / mp.mpf(z)) ** (theta - 1) / (theta * z)
                    ratio = (mp.log1p(2 * xi / z) - mp.log1p(-xi / z)) / (4 * xi)  # h_aux/xi
                    return ratio ** (theta - 1) / (theta * (z - xi))
                ref = mp.quad(integrand, [0, mp.mpf(s) ** theta])
            assert spec.h(z, s) == pytest.approx(float(ref), rel=1e-13), (z, s)

    def test_discrete_saturation_in_log_scale(self):
        # z near 3 puts the saturated index near (3 - z)^(-1/a) ~ 1e129, where n^-b underflows
        # to 0; G = (n / n_sat)^-b is formed from log n, so it still reads (k_b / c_a)^(b/a)
        spec, z = DiscretePrior(0.1, 5.0), 3.0 - 1e-12
        c_a = -0.25 * math.log1p((z - 3.0) / 2.0)
        assert spec.h_sat(z) == 0.0
        assert spec.g(z, 1e-3) == 1.0  # index c_a^(-1/a) > h_aux(s/z)^(-1/a): G is 1
        for s in (1e-14, 1e-16, 1e-20):
            expected = math.exp(spec.b / spec.a * (math.log(h_aux(s / z)) - math.log(c_a)))
            assert spec.g(z, s) == pytest.approx(expected, rel=1e-12), s

    def test_power_expansion_first_term(self):
        spec = PowerPrior(0.5)
        z, s = 2.0, 1e-8
        lead = 4.0 / math.sqrt(3 * z) * math.sqrt(s)
        assert spec.h(z, s) == pytest.approx(lead, rel=1e-4)


def _scan_index(spec: DiscretePrior, z: float, s: float) -> int:
    for n in range(1, 10**7):
        yn = 1.0 + 2.0 * math.exp(-4.0 * n ** -spec.a)
        if z <= yn and 3.0 * z <= (2.0 * s + z) * yn:
            return n
    raise AssertionError("scan exhausted")


class TestArrayS:
    """H and G take an array of s in one call; a scalar s still gives a float."""

    @pytest.mark.parametrize("spec", ALL_PRIORS + [TamePrior(4.0, 2.0)],
                             ids=lambda s: f"{s.kind}{'-rates' if s.params() == {'rate_e': 4.0, 'rate_i': 2.0} else ''}")
    def test_array_matches_scalar(self, spec):
        z = 2.0109601381069178
        s = np.concatenate([np.geomspace(1e-9, 0.3, 25)[::-1], [0.0, 0.3, 0.45, 2.0]]).reshape(-1, 1)
        g = spec.g(z, s)
        assert g.shape == s.shape
        scalar = np.array([spec.g(z, float(x)) for x in s.ravel()]).reshape(s.shape)
        assert type(spec.g(z, 0.1)) is float and type(spec.h(z, 0.1)) is float
        if spec.kind in ("power", "logti", "tlogti") or spec.params().get("rate_i", 4.0) != 4.0:
            # one running rule over every s against one rule per point
            np.testing.assert_allclose(g, scalar, rtol=1e-13, atol=0.0)
        else:
            np.testing.assert_array_equal(g, scalar)

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_bad_s_in_an_array_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"s must be finite and >= 0, got {bad!r}")):
            UniformPrior(1.0).g(2.0, np.array([0.1, bad]))

    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_log_scale_closed_forms_against_mpmath(self, z):
        # H = -log(1 - s/z) (uniform) and (1/2) log(1 + 2s/z) (tame, below the cap), s/z
        # from 1e-18 to 0.5 (to 0.24 at z = 2, where s_sat/z is 0.25)
        s = z * np.geomspace(1e-18, 0.5 if z < 1.0 else 0.24, 60)
        uniform, tame = UniformPrior(1.0).h(z, s), TamePrior().h(z, s)
        with mp.workdps(30):
            x = [mp.mpf(float(v)) / z for v in s]
            np.testing.assert_allclose(uniform, [float(-mp.log1p(-v)) for v in x], rtol=1e-15, atol=0)
            np.testing.assert_allclose(tame, [float(mp.log1p(2 * v) / 2) for v in x], rtol=1e-15, atol=0)


class TestHAux:
    def test_endpoints(self):
        assert h_aux(0.0) == 0.0
        assert h_aux(1.0) == math.inf

    def test_small_u_slope(self):
        assert h_aux(1e-6) / 1e-6 == pytest.approx(0.75, abs=1e-6)

    def test_increasing(self):
        u = np.linspace(0.0, 0.999, 2000)
        assert np.all(np.diff([h_aux(v) for v in u]) > 0.0)

    @pytest.mark.parametrize("u", [-1e-300, 1.0 + 1e-15, math.nan, math.inf])
    def test_outside_unit_interval_rejected(self, u):
        with pytest.raises(ValueError, match="h_aux argument"):
            h_aux(u)

    def test_ceil_identity_against_scan(self):
        # for s < min(z, (3-z)/2): n(z, s) = ceil(h(s/z)^(-1/a))
        spec = DiscretePrior(0.3, 0.95)
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 100:
            z = rng.uniform(0.3, 2.7)
            s = rng.uniform(0.45, 0.9) * z
            if s >= min(z, (3 - z) / 2):
                continue
            expected = math.ceil(h_aux(s / z) ** (-1.0 / spec.a))
            assert _scan_index(spec, z, s) == expected
            checked += 1


class TestGFunction:
    @pytest.mark.parametrize("spec", ALL_PRIORS, ids=lambda s: s.kind)
    def test_range_monotone_saturation(self, spec):
        for z in (1.4, 2.0, 2.6):
            s_grid = np.linspace(0.0, max(z, (3 - z) / 2) + 0.1, 40)
            vals = [spec.g(z, s) for s in s_grid]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_value(self):
        spec = UniformPrior(1.0)
        z = 2.0
        expected = math.log(2.0 / 1.8) / spec.h_sat(z)
        assert spec.g(z, 0.2) == pytest.approx(expected, rel=1e-12)

    def test_uniform_monte_carlo_conditional(self):
        # P(Se (3 - Si) <= 2s | Se Si in z +- delta) vs G(z, s)
        spec = UniformPrior(1.0)
        z, s, delta = 2.0, 0.2, 1e-3
        rng = np.random.default_rng(123)
        te, ti = spec.sample(rng, 10**7)
        se_ = np.exp(-4 * te)
        si = 1 + 2 * np.exp(-4 * ti)
        sel = np.abs(se_ * si - z) <= delta
        hits = se_[sel] * (3 - si[sel]) <= 2 * s
        phat = hits.mean()
        se_mc = math.sqrt(phat * (1 - phat) / hits.size)
        assert spec.g(z, s) == pytest.approx(phat, abs=3 * se_mc + 2e-4)

    @pytest.mark.parametrize(
        "spec,gv",
        [(TamePrior(), None), (UniformPrior(1.0), None), (DiscretePrior(0.1, 0.5), None)],
        ids=["tame", "uniform", "discrete"],
    )
    def test_characterizing_identity(self, spec, gv):
        # E[H(Se Si); Se(3-Si) <= 2s] = E[H(Se Si) G(Se Si, s)] for bounded H
        rng = np.random.default_rng(77)
        te, ti = spec.sample(rng, 10**6)
        se_ = np.exp(-4 * te)
        si = 1 + 2 * np.exp(-4 * ti)
        zv = se_ * si
        s = 0.21
        indicator = (se_ * (3 - si) <= 2 * s).astype(float)
        gvals = _g_vectorized(spec, zv, s)
        for hfun in (lambda z: np.ones_like(z), lambda z: z, lambda z: np.sin(z)):
            diff = hfun(zv) * (indicator - gvals)
            mean = diff.mean()
            se_mc = diff.std(ddof=1) / math.sqrt(diff.size)
            assert abs(mean) <= 4 * se_mc + 1e-6

    def test_discrete_sandwich(self):
        # h(u)^(b/a) (1 + h(u)^(1/a))^(-b) < H(z,1) G(z,s) <= h(u)^(b/a)
        spec = DiscretePrior(0.3, 0.95)
        rng = np.random.default_rng(5)
        for _ in range(60):
            z = rng.uniform(0.4, 2.5)
            s = rng.uniform(0.3, 0.95) * min(z, (3 - z) / 2, z * 0.99)
            u = s / z
            hu = h_aux(u)
            lhs = hu ** (spec.b / spec.a) * (1 + hu ** (1 / spec.a)) ** -spec.b
            mid = spec.h(z, 1.0) * spec.g(z, s)
            rhs = hu ** (spec.b / spec.a)
            assert lhs < mid * (1 + 1e-12)
            assert mid <= rhs * (1 + 1e-12)


class TestGPath:
    """G = H / H(z, s_sat), for ``discrete`` formed as exp(-b (log n - log n_sat))."""

    @pytest.mark.parametrize("spec", ALL_PRIORS, ids=lambda s: s.kind)
    def test_g_is_fresh_h_ratio(self, spec):
        fresh = type(spec)(**spec.params())
        for z in (1.4, 2.0, 2.6):
            for s in (0.01, 0.1, 0.3):
                expected = min(1.0, fresh.h(z, s) / fresh.h(z, fresh.s_sat(z)))
                first = spec.g(z, s)
                if spec.kind == "discrete":  # one exp of a log difference, not a ratio of two
                    assert first == pytest.approx(expected, rel=1e-13, abs=0.0)
                else:
                    assert first == expected
                assert spec.g(z, s) == first

    @pytest.mark.parametrize(
        "spec,reference",
        [
            (UniformPrior(1.0), lambda k: np.ones_like(k)),
            (PowerPrior(0.3), lambda k: k ** (0.3 - 1.0)),
            (LogPrior(), lambda k: -np.log(k)),
            (TLogPrior(), lambda k: -4.0 * k * np.log(k)),
        ],
        ids=["uniform", "power", "logti", "tlogti"],
    )
    def test_scalar_integrand_matches_array_form(self, spec, reference):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.5, 2.9, 200)
        xi = rng.uniform(0.0, 1.0, 200) * np.minimum(z, 1.0) * 0.99
        expected = reference(_np_h_aux(xi / z)) / (z - xi)
        got = np.array([spec._rho(h_aux(x / zz)) / (zz - x) for x, zz in zip(xi, z)])
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("kind", ["logti", "discrete:0.1,0.5"])
    def test_pickle_after_g_calls(self, kind):
        spec = parse_prior(kind)
        before = [spec.g(z, 0.05) for z in (1.5, 2.2)]
        spec.log_ti_cdf(0.01)  # builds the discrete tail-sum table
        clone = pickle.loads(pickle.dumps(spec))
        misses = _discrete_table.cache_info().misses
        assert clone.log_ti_cdf(0.01) == spec.log_ti_cdf(0.01)
        assert _discrete_table.cache_info().misses == misses  # one tail table per (a, b) per process
        assert [clone.g(z, 0.05) for z in (1.5, 2.2)] == before

    def test_discrete_table_shared_and_read_only(self):
        table = _discrete_table(0.1, 0.5)
        assert _discrete_table(0.1, 0.5) is table
        assert _discrete_table(0.1, 0.6) is not table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0

    def test_discrete_table_built_once_per_worker(self):
        # eight single-task batches over two workers: each worker builds the table once
        prior = DiscretePrior(0.12, 0.5)
        before = _discrete_table.cache_info().misses
        with ProcessPoolExecutor(max_workers=2) as pool:
            infos = list(pool.map(_table_cache_info, [prior] * 8, chunksize=1))
        assert max(misses for _, misses in infos) <= before + 1
        assert max(hits for hits, _ in infos) >= 1  # later batches reuse the table


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestQuadratureRejection:
    """_quad raises when quad's error estimate exceeds 1e-9 of the value."""

    def test_oscillating_integrand_raises_with_its_estimates(self):
        with pytest.raises(QuadratureError) as info:
            _quad(lambda x: math.sin(1.0 / x), 0.0, 1.0)
        exc = info.value
        assert math.isfinite(exc.value) and 0.0 < exc.value < 1.0
        assert exc.error_estimate > 1e-9 * abs(exc.value)
        assert f"value={exc.value!r}, error estimate={exc.error_estimate!r}" in str(exc)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError):
            _quad(lambda x: 1.0 / x, 0.0, 1.0)


def _table_cache_info(prior):
    """(hits, misses) of this process's tail-table cache after ``prior`` has used its table."""
    prior.r
    info = _discrete_table.cache_info()
    return info.hits, info.misses


def _np_h_aux(u):
    """h_aux on an array, written with numpy: the reference for the scalar routine."""
    return 0.25 * (np.log1p(2.0 * u) - np.log1p(-u))


def _g_vectorized(spec, zv, s):
    """Vectorized, independently coded G for the closed-form catalog entries."""
    if isinstance(spec, UniformPrior):
        q = math.exp(-4.0 * spec.theta)
        y_min = 1 + 2 * q
        s_sat = np.minimum(zv * (1 - q) / (1 + 2 * q), (3 - zv) / 2)
        num = np.log(zv / (zv - np.minimum(s, s_sat)))
        den = np.log(zv / (zv - s_sat))
        return np.clip(num / den, 0.0, 1.0)
    if isinstance(spec, TamePrior):
        m_s = np.minimum.reduce([np.ones_like(zv), zv, (2 * s + zv) / 3])
        m_inf = np.minimum(np.ones_like(zv), zv)
        return np.clip(np.log(3 * m_s / zv) / np.log(3 * m_inf / zv), 0.0, 1.0)
    if isinstance(spec, DiscretePrior):
        a, b = spec.a, spec.b
        y1 = 1 + 2 * math.exp(-4.0)
        ca = np.where(zv > y1, -0.25 * np.log(np.maximum((zv - 1) / 2, 1e-300)), np.inf)
        n_a = np.where(zv > y1, np.ceil(ca ** (-1 / a)), 1.0)
        with np.errstate(divide="ignore"):
            hb = _np_h_aux(np.minimum(s / zv, 1.0))
        n_b = np.where(s >= zv, 1.0, np.ceil(np.maximum(hb, 1e-300) ** (-1 / a)))
        n_idx = np.maximum(np.maximum(n_a, n_b), 1.0)
        n_sat = np.maximum(n_a, 1.0)
        return n_idx**-b / n_sat**-b
    raise NotImplementedError


class TestCornerProbability:
    def test_uniform_exact(self):
        spec = UniformPrior(1.0)
        for n in (1, 4, 100):
            expected = (1 / n) * (math.exp(-0.4) - math.exp(-4 * (0.1 + 1 / n)))
            assert math.exp(spec.log_q_n(0.1, n)) == pytest.approx(expected, rel=1e-12)

    def test_power_ti_marginal(self):
        spec = PowerPrior(0.5)
        for n in (2, 32, 1024):
            assert math.exp(spec.log_ti_cdf(1.0 / n)) == pytest.approx(n**-0.5, rel=1e-12)

    def test_tame_loglog_slope(self):
        spec = TamePrior()
        ns = 2.0 ** np.arange(6, 17)
        lq = np.array([spec.log_q_n(0.1, int(n)) for n in ns])
        slope = np.polyfit(np.log(ns), lq, 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_discrete_tail_bounds(self):
        spec = DiscretePrior(0.1, 0.5)
        for n in (2, 64, 4096, 2**16):
            p = math.exp(spec.log_ti_cdf(1.0 / n))
            lo = 1.0 / (spec.r * (n ** (1 / spec.a) + 1) ** spec.b)
            hi = 3.0 / (spec.r * n ** (spec.b / spec.a))
            assert lo <= p <= hi

    @pytest.mark.parametrize("spec", ALL_PRIORS, ids=lambda s: s.kind)
    def test_monotone_in_n(self, spec):
        vals = [spec.log_q_n(0.1, n) for n in (1, 2, 4, 8, 64, 512)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformPrior(1.0).log_q_n(0.1, 0)
        with pytest.raises(ValueError):
            UniformPrior(1.0).log_q_n(-0.1, 4)


def _discrete_points(a: float) -> np.ndarray:
    """x at 0, 5e-324, the table's last index m = 2^20 and each side of it, each side of the
    switch to m0 = 2^53, 1 - 2^-53, 1 and 2 (m = ceil(m0) - 1, m0 = x^(-1/a))."""
    table = [(m + 0.5) ** -a for m in (2**20 - 1, 2**20, 2**20 + 1)]
    switch = 2.0 ** (-53.0 * a)
    return np.array([0.0, 5e-324, *table, np.nextafter(switch, 0.0), switch,
                     np.nextafter(switch, 1.0), 1.0 - 2.0**-53, 1.0, 2.0])


# (a, b) over the constructor's domain: 0 < a, 3a < min(1, b), b/a <= 50
_DISCRETE_AB = st.floats(1e-9, 1.0 / 3.0, exclude_max=True).flatmap(
    lambda a: st.tuples(st.just(a), st.floats(3.0, 50.0, exclude_min=True).map(lambda r: r * a)
                        .filter(lambda b: 3.0 * a < b and b / a <= 50.0)))


class TestArrayCdf:
    """log_ti_cdf reads an array in one pass, and the discrete tail sums its series over arrays.

    The scalar routes in ``oracles`` are the package's former float-at-a-time code.  Read
    with numpy's exp, expm1, log, log1p and pow, they give the array routes' values bit for
    bit.  With the C library's (``math``) they differ where numpy's vectorized routines
    round differently: in the last bit of each, which the alternating series S(p, m)
    amplifies by up to e^m ~ 55 (m <= 4); over 40,000 sampled points the two stay within
    1.1e-14 of each other, relative to max(1, |value|).
    """

    @pytest.mark.parametrize("spec", ALL_PRIORS, ids=lambda s: s.kind)
    def test_array_matches_float_calls(self, spec):
        xs = np.concatenate([[-1.0, 0.0, 5e-324], np.geomspace(1e-300, 2.0, 600),
                             [1.0 - 2.0**-53, 1.0, math.inf]])
        got = spec.log_ti_cdf(xs)
        singles = [spec.log_ti_cdf(float(x)) for x in xs]
        assert all(type(v) is float for v in singles)
        assert got.shape == xs.shape and np.array_equal(got, singles)
        assert got[0] == got[1] == -math.inf and got[-1] == 0.0
        assert np.array_equal(spec.log_ti_cdf(xs[3:603].reshape(20, 30)), got[3:603].reshape(20, 30))

    @settings(max_examples=30, deadline=None)
    @given(ab=_DISCRETE_AB, drawn=st.lists(st.floats(1e-300, 1.0), max_size=20))
    def test_discrete_matches_scalar_route(self, ab, drawn):
        prior = DiscretePrior(*ab)
        xs = np.concatenate([_discrete_points(prior.a), drawn])
        got = prior.log_ti_cdf(xs)
        assert np.array_equal(got, [discrete_log_ti_cdf(prior, np.float64(x), np) for x in xs])
        np.testing.assert_allclose(got, [discrete_log_ti_cdf(prior, float(x)) for x in xs],
                                   rtol=2e-14, atol=2e-14)

    @settings(max_examples=60, deadline=None)
    @given(ab=_DISCRETE_AB,
           log_x=st.lists(st.floats(math.log(2.0**20 + 1.0), 1e12), min_size=1, max_size=30))
    def test_log_tail_matches_scalar_route(self, ab, log_x):
        prior = DiscretePrior(*ab)
        got = prior._log_tail(np.array(log_x))
        assert got.tolist() == [discrete_log_tail(prior, np.float64(v), np) for v in log_x]
        np.testing.assert_allclose(got, [discrete_log_tail(prior, v) for v in log_x],
                                   rtol=2e-14, atol=2e-14)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(1e-3, 1e10), m=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=30))
    def test_gamma_series_stops_per_element(self, p, m):
        # each element stops at the term the lone loop stops at, so every bit agrees
        assert _gamma_series(p, np.array(m)).tolist() == [gamma_series(p, v) for v in m]


class TestSmallADiscrete:
    """The discrete tail machinery stays in float range for small a (large (b + j)/a)."""

    @pytest.mark.parametrize("a, b", [(0.1, 0.5), (0.3, 2.0), (0.05, 0.3), (0.01, 0.04),
                                      (0.005, 0.02), (0.002, 0.01)])
    def test_em_integral_against_mpmath(self, a, b):
        # _log_tail, the Euler-Maclaurin closure 3 x^-b - 2 (I + f/2 - f'/12) with I in
        # its incomplete-gamma form 4^-p (m^p/p - gamma(p, m)), p = (b + j)/a, evaluated
        # in mpmath from the table's end out to x = e^700
        for log_x in (math.log(2.0**20 + 1.0), 20.0, 36.7, 40.0, 100.0, 300.0, 700.0):
            # m^p/p - gamma(p, m) cancels to relative m: carry that many more digits
            with mp.workdps(40 + int(a * log_x / math.log(10.0))):
                x, bb = mp.exp(log_x), mp.mpf(b)
                m = 4 * x**-a
                coeff = [1, -(bb + 1) / 2, (bb + 1) * (bb + 2) / 6,
                         -(bb + 1) * (bb + 2) * (bb + 3) / 24]
                integral = 0
                for j, c in enumerate(coeff):
                    p = (bb + j) / a
                    integral += bb * c * 4 ** (-p) / a * (m**p / p - mp.gammainc(p, 0, m))
                f = lambda u: (1 - mp.exp(-4 * u**-a)) * (u**-bb - (u + 1) ** -bb)
                tail = 3 * x**-bb - 2 * (integral + f(x) / 2 - mp.diff(f, x) / 12)
                ref = float(mp.log(tail))
            got = DiscretePrior(a, b)._log_tail(np.array([log_x]))[0]
            # 1e-15 relative in the log; 2e-15 relative in the tail itself, where
            # 3 - 2 (I + ...) x^b cancels about threefold for small a at the table's end
            assert got == pytest.approx(ref, rel=1e-15, abs=2e-15), log_x

    @pytest.mark.parametrize("a, b", [(0.01, 0.04), (0.005, 0.02)])
    def test_log_ti_cdf_in_range(self, a, b):
        spec = DiscretePrior(a, b)
        xs = [0.5, 0.1, 1e-2, 1e-3, 1e-5, 1e-20, 1e-100, 1e-300]
        vals = [spec.log_ti_cdf(x) for x in xs]
        assert all(math.isfinite(v) for v in vals)
        assert all(lo < hi for hi, lo in zip(vals, vals[1:]))
        log_r = math.log(spec.r)
        for x, v in zip(xs, vals):
            # 1 / (r (n^(1/a) + 1)^b) <= P(Ti <= 1/n) <= 3 / (r n^(b/a)), n = 1/x, in logs
            log_lo = -log_r + (b / a) * math.log(x) - b * math.log1p(x ** (1.0 / a))
            log_hi = math.log(3.0) - log_r + (b / a) * math.log(x)
            assert log_lo - 1e-12 <= v <= log_hi + 1e-12, x

    def test_log_ti_cdf_near_one(self):
        # where m0 = x^(-1/a) >= 2^53 the tail is, to O(1/m0), the integral
        # x^p (1 + 2 p m^-p gamma(p, m)), m = 4x, p = b/a; at 4x ~ 3 a six-term
        # expansion of exp(-4x) once gave P(Ti <= 0.9) = 1.145 here
        spec = DiscretePrior(0.001, 0.004)
        xs = np.linspace(0.005, 0.999, 200)
        vals = [spec.log_ti_cdf(x) for x in xs]
        assert all(v <= 0.0 for v in vals)
        assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))
        p, log_r = spec.b / spec.a, math.log(spec.r)
        on_series = [x for x in xs if -math.log(x) / spec.a >= 53 * math.log(2.0)]
        assert len(on_series) > 150
        for x in on_series:
            with mp.workdps(40):
                m = 4 * mp.mpf(x)
                ref = mp.log(1 + 2 * p * m**-p * mp.gammainc(p, 0, m)) + p * mp.log(x)
            assert spec.log_ti_cdf(x) == pytest.approx(float(ref) - log_r, abs=1e-12), x

    @pytest.mark.filterwarnings("error")
    def test_atoms_where_proposal_overflows(self):
        # b = 0.004: u^(-1/b) overflows for u < 0.058, where atoms lie below 0.49;
        # those proposals must give atoms near u^(a/b), not Ti = 0
        spec = DiscretePrior(0.001, 0.004)
        ti = spec._sample_ti(np.random.default_rng(5), 100_000)
        assert ti.min() > 0.0 and ti.max() <= 1.0
        for x in (0.3, 0.4):
            p = math.exp(spec.log_ti_cdf(x))
            assert abs(np.mean(ti <= x) - p) < 5.0 * math.sqrt(p / ti.size), x


class TestTameGeneralRates:
    def test_default_rate_quadrature_matches_closed(self):
        spec = TamePrior()
        for z in (1.5, 2.3):
            for s in (0.01, 0.2):
                assert h_quad(spec, z, s) == pytest.approx(spec.h(z, s), rel=1e-9)

    def test_non_default_rates_behave(self):
        spec = TamePrior(rate_e=4.0, rate_i=2.0)
        vals = [spec.g(2.0, s) for s in (0.0, 0.05, 0.2, 0.5, 1.0)]
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def _check_grids(spec, t):
    """check_tempered's z-grid and s-grid (scaled below saturation as it scales them)."""
    z_grid, s_grid = default_z_grid(t), default_s_grid(t)
    return z_grid, s_grid * min(1.0, 0.5 * min(spec.s_sat(z) for z in z_grid) / s_grid[-1])


def _mp_power_h(theta, z, s):
    """PowerPrior H in 40 digits: the leading term (4/3) k^theta / theta, k = 3s/4z, in closed
    form, plus the integral of the integrand minus its leading term (O(xi^theta), no singularity)."""
    with mp.workdps(40):
        th, z, s = mp.mpf(theta), mp.mpf(z), mp.mpf(s)
        lead = lambda xi: (3 * xi / (4 * z)) ** (th - 1) / z
        f = lambda xi: ((mp.log1p(2 * xi / z) - mp.log1p(-xi / z)) / 4) ** (th - 1) / (z - xi)
        cuts = [s * mp.mpf(10) ** -j for j in range(60, -1, -2)]
        return float(mp.mpf(4) / 3 * (3 * s / (4 * z)) ** th / th
                     + mp.quad(lambda xi: f(xi) - lead(xi), [0] + cuts))


class TestFixedRule:
    """H of power, logti, tlogti and tame at other rates comes from one fixed Gauss-Legendre rule."""

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0, 85.0])
    @pytest.mark.parametrize("spec", [PowerPrior(0.5), PowerPrior(1e-3), LogPrior(), TLogPrior()],
                             ids=lambda s: f"{s.kind}{s.params().get('theta', '')}")
    def test_g_rows_match_adaptive_oracle(self, spec, t):
        z_grid, s_grid = _check_grids(spec, t)
        for z in z_grid:
            g = spec.g(z, s_grid)
            h = h_quad(spec, z, s_grid)
            if h.max() < 1e-290:
                # tlogti at t = 85 (H ~ 1e-301): QUADPACK's error test breaks down for values
                # below 2e-294, and the oracle drifts by 1e-13; there H is its leading term
                # (4/3) k^2 (1 - 2 log k), k = 3s/4z, to relative O(s/z) ~ 1e-148
                k = 0.75 * s_grid / z
                h = 4.0 / 3.0 * k * k * (1.0 - 2.0 * np.log(k))
                np.testing.assert_allclose(spec.h(z, s_grid), h, rtol=1e-14, atol=0.0)
                continue
            np.testing.assert_allclose(g, h / h_quad(spec, z, spec.s_sat(z)), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("theta", [1e-3, 1e-4])
    def test_small_theta_power_against_mpmath(self, theta):
        # the former tau = xi^theta quadrature was 1.1e-10 off here at theta = 1e-4, unflagged
        spec = PowerPrior(theta)
        for z, s in [(1.37, 1e-6), (2.0, 0.01), (2.6, 0.2), (2.9908668246221497, 0.002283293844462575)]:
            for x in (s, spec.s_sat(z)):
                assert spec.h(z, x) == pytest.approx(_mp_power_h(theta, z, x), rel=1e-12), (z, x)

    @pytest.mark.parametrize("rates", [(4.0, 2.0), (3.0, 7.0), (0.5, 0.3)])
    def test_tame_rates_against_mpmath(self, rates):
        # H = mu lam z^(mu-1) int_{q_m}^1 (1 + 2q)^(-mu) q^(lam-1) dq, q = (Si - 1)/2 over the
        # section, q_m its value at the upper end; in tau = q^lam the singularity at q = 0 is gone
        spec = TamePrior(*rates)
        for z in (0.7, 2.0):
            for s in (1e-12, 1e-4, 0.1, spec.s_sat(z)):
                with mp.workdps(30):
                    mu, lam, zm, sm = mp.mpf(rates[0]) / 4, mp.mpf(rates[1]) / 4, mp.mpf(z), mp.mpf(s)
                    q_m = (zm - sm) / (2 * sm + zm) if s < spec.s_sat(z) else max(0, (zm - 1) / 2)
                    ref = mu * zm ** (mu - 1) * mp.quad(lambda tau: (1 + 2 * tau ** (1 / lam)) ** -mu,
                                                        [q_m**lam, 1])
                assert spec.h(z, s) == pytest.approx(float(ref), rel=1e-12), (z, s)

    def test_estimate_raises(self):
        # 16 and 32 nodes a panel disagree on a fast oscillation: no silent result
        with pytest.raises(QuadratureError, match="H rule did not converge"):
            _running_rule(lambda b, d: 1.0 + np.cos(60.0 * (b + d)), np.zeros(1), np.array([3.0]), 1.0)

    def test_no_adaptive_quadrature(self, monkeypatch):
        # the G rows of every quadrature prior come without scipy's quad
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.integrate.quad called")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        from starparadox.tempering import check_tempered

        for spec in (PowerPrior(0.5), LogPrior(), TLogPrior(), DiscretePrior(0.1, 0.5), TamePrior(4.0, 2.0)):
            check_tempered(spec, 0.1)
