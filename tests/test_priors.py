import json
import math
import pickle
import re
from concurrent.futures import ProcessPoolExecutor

import mpmath as mp
import numpy as np
import pytest

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
    _h_aux,
    _quad,
    h_aux,
    parse_prior,
    prior_from_json,
    prior_to_json,
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
        assert prior_from_json(prior_to_json(spec)).to_dict() == spec.to_dict()

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

    @pytest.mark.parametrize("cls", sorted(PRIOR_KINDS.values(), key=lambda c: c.kind),
                             ids=lambda c: c.kind)
    def test_params_rebuild_after_memo(self, cls):
        spec = next(p for p in ALL_PRIORS if type(p) is cls)
        spec.h_sat(1.7)
        assert "_h_sat_memo" in vars(spec) and "_h_sat_memo" not in spec.params()
        assert type(spec)(**spec.params()).to_dict() == spec.to_dict()

    def test_catalog_declares_only_its_ti_law(self):
        for cls in PRIOR_KINDS.values():
            for name in ("sample", "log_te_band", "params"):
                assert getattr(cls, name) is getattr(Prior, name), (cls.kind, name)
        own_y_min = {cls.kind for cls in PRIOR_KINDS.values() if cls.y_min is not Prior.y_min}
        assert own_y_min == {"uniform", "tame"}


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
        p1 = spec.atom_prob(1)
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

    def test_discrete_atom_law(self):
        spec = DiscretePrior(0.1, 0.5)
        for n in (1, 2, 17):
            tn = n ** -spec.a
            yn = 1 + 2 * math.exp(-4 * tn)
            rn = yn * (n ** -spec.b - (n + 1) ** -spec.b)
            assert spec.atom_prob(n) == pytest.approx(rn / spec.r, rel=1e-12)


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
                quadv = spec._h_quad(z, min(s, spec.s_sat(z)))
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


class TestHAux:
    def test_endpoints(self):
        assert h_aux(0.0) == 0.0
        assert h_aux(1.0) == math.inf

    def test_small_u_slope(self):
        assert h_aux(1e-6) / 1e-6 == pytest.approx(0.75, abs=1e-6)

    def test_increasing(self):
        u = np.linspace(0.0, 0.999, 2000)
        assert np.all(np.diff(h_aux(u)) > 0.0)

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
            expected = math.ceil(float(h_aux(s / z)) ** (-1.0 / spec.a))
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
            hu = float(h_aux(u))
            lhs = hu ** (spec.b / spec.a) * (1 + hu ** (1 / spec.a)) ** -spec.b
            mid = spec.h(z, 1.0) * spec.g(z, s)
            rhs = hu ** (spec.b / spec.a)
            assert lhs < mid * (1 + 1e-12)
            assert mid <= rhs * (1 + 1e-12)


class TestGPath:
    """G = H / H(z, s_sat) with H(z, s_sat) kept per z on the prior instance."""

    @pytest.mark.parametrize("spec", ALL_PRIORS, ids=lambda s: s.kind)
    def test_g_is_fresh_h_ratio(self, spec):
        fresh = type(spec)(**spec.params())
        for z in (1.4, 2.0, 2.6):
            for s in (0.01, 0.1, 0.3):
                expected = min(1.0, fresh.h(z, s) / fresh.h(z, fresh.s_sat(z)))
                assert spec.g(z, s) == expected
                assert spec.g(z, s) == expected  # second call reads the stored H(z, s_sat)

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
        expected = reference(h_aux(xi / z)) / (z - xi)
        got = np.array([spec._rho(_h_aux(x / zz)) / (zz - x) for x, zz in zip(xi, z)])
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose([_h_aux(u) for u in xi / z], h_aux(xi / z),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("kind", ["logti", "discrete:0.1,0.5"])
    def test_pickle_after_g_calls(self, kind):
        spec = parse_prior(kind)
        before = [spec.g(z, 0.05) for z in (1.5, 2.2)]
        spec.log_ti_cdf(0.01)  # builds the discrete tail-sum table
        assert "_h_sat_memo" in vars(spec)
        clone = pickle.loads(pickle.dumps(spec))
        assert "_h_sat_memo" not in vars(clone)
        if spec.kind == "discrete":
            assert clone._table() is spec._table()  # one tail table per (a, b) per process
        assert [clone.g(z, 0.05) for z in (1.5, 2.2)] == before

    def test_discrete_table_shared_and_read_only(self):
        table = DiscretePrior(0.1, 0.5)._table()
        assert DiscretePrior(0.1, 0.5)._table() is table
        assert DiscretePrior(0.1, 0.6)._table() is not table
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
            hb = np.asarray(h_aux(np.minimum(s / zv, 1.0)))
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


class TestSmallADiscrete:
    """The discrete tail machinery stays in float range for small a (large (b + j)/a)."""

    @pytest.mark.parametrize("a, b", [(0.1, 0.5), (0.3, 2.0), (0.05, 0.3), (0.01, 0.04),
                                      (0.005, 0.02), (0.002, 0.01)])
    def test_em_integral_against_mpmath(self, a, b):
        # the incomplete-gamma form 4^-p (m^p/p - gamma(p, m)) of each block, in 60 digits
        for x in (2.0**20 + 1.0, 1e3):
            with mp.workdps(60):
                m = 4 * mp.mpf(x) ** -a
                coeff = [1, -(b + 1) / mp.mpf(2), (b + 1) * (b + 2) / mp.mpf(6),
                         -(b + 1) * (b + 2) * (b + 3) / mp.mpf(24)]
                ref = 0
                for j, c in enumerate(coeff):
                    p = (mp.mpf(b) + j) / a
                    ref += b * c * 4 ** (-p) / a * (m**p / p - mp.gammainc(p, 0, m))
            got = DiscretePrior(a, b)._em_integral(x)
            assert got == pytest.approx(float(ref), rel=1e-12), x

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
        # where m0 = x^(-1/a) > 1e17 the tail is the integral
        # x^p (1 + 2 p m^-p gamma(p, m)), m = 4x, p = b/a; at 4x ~ 3 a six-term
        # expansion of exp(-4x) once gave P(Ti <= 0.9) = 1.145 here
        spec = DiscretePrior(0.001, 0.004)
        xs = np.linspace(0.005, 0.999, 200)
        vals = [spec.log_ti_cdf(x) for x in xs]
        assert all(v <= 0.0 for v in vals)
        assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))
        p, log_r = spec.b / spec.a, math.log(spec.r)
        on_series = [x for x in xs if -math.log(x) / spec.a > math.log(1e17)]
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
                assert spec._h_quad(z, s) == pytest.approx(spec.h(z, s), rel=1e-9)

    def test_non_default_rates_behave(self):
        spec = TamePrior(rate_e=4.0, rate_i=2.0)
        vals = [spec.g(2.0, s) for s in (0.0, 0.05, 0.2, 0.5, 1.0)]
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))
