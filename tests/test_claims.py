import dataclasses
import gc
import json
import math
import pickle
import weakref

import numpy as np
import pytest

from starparadox import claims, cli
from starparadox.claims import EmptyStratum, conditional_ratio_scan, in_band_advantage
from starparadox.model import (
    PatternCounts,
    band_interval,
    counts_in_band,
    log_pattern_prob_arrays,
    star_probs,
    zeta,
)
from starparadox.posterior import kernel_log_values
from starparadox.priors import Prior, UniformPrior

from oracles import (
    _finish,
    _partials,
    corner_draws,
    kernel_log_by_corner,
    kernel_log_by_deltas,
    log_u_statistic,
    log_w_statistic,
    uv_variables,
)


def _random_counts(rng, n):
    v = rng.multinomial(n, [0.7, 0.12, 0.1, 0.08])
    return PatternCounts(*map(int, v))


class TestPerDrawIdentities:
    def test_delta_form_matches_direct(self):
        rng = np.random.default_rng(1)
        te = rng.exponential(0.25, 10**5)
        ti = rng.random(10**5)
        lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
        for n in (100, 1777):
            counts = _random_counts(rng, n)
            for tree in (1, 2, 3):
                direct = kernel_log_values(counts, lp0, lp1, lp2, (tree,))[0]
                via_deltas = kernel_log_by_deltas(counts, 0.1, lp0, lp1, lp2, tree)
                assert np.max(np.abs(direct - via_deltas) / np.abs(direct)) < 1e-8

    def test_corner_form_matches_direct(self):
        rng = np.random.default_rng(2)
        t, n = 0.1, 500
        te, ti = corner_draws(t, n, rng, 10**5)
        lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
        counts = _random_counts(rng, n)
        for j in (2, 3):
            direct = kernel_log_values(counts, lp0, lp1, lp2, (j,))[0]
            via_corner = kernel_log_by_corner(counts, t, lp0, lp1, lp2, j)
            assert np.max(np.abs(direct - via_corner) / np.abs(direct)) < 1e-8

    def test_uv_factorizations(self):
        rng = np.random.default_rng(3)
        te = rng.exponential(0.25, 10**5)
        ti = rng.random(10**5)
        u, v = uv_variables(te, ti)
        x = np.exp(-4 * te)
        w = np.exp(-4 * ti)
        p0 = (1 + x + 2 * x * w) / 4
        p1 = (1 + x - 2 * x * w) / 4
        p2 = (1 - x) / 4
        lhs = p1 * p2**2
        rhs = v * (1 - p0) ** 3 / 27.0
        assert np.max(np.abs(lhs - rhs) / np.maximum(lhs, 1e-300)) < 1e-10
        ratio = p1 / p2
        expected = (1 + 2 * u) / (1 - u)
        assert np.max(np.abs(ratio - expected) / ratio) < 1e-10
        assert np.allclose(v, zeta(np.clip(u, 0, 1)), rtol=1e-12)


class TestLemmaBounds:
    def test_w_at_most_one_on_band_counts(self):
        rng = np.random.default_rng(4)
        t, c, n = 0.1, 1.5, 10**4
        counts = counts_in_band(n, t, c)
        te = rng.exponential(0.25, 10**5)
        ti = rng.random(10**5)
        lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
        for j in (2, 3):
            logw = log_w_statistic(counts, t, lp0, lp1, lp2, j)
            assert np.all(logw <= 1e-10)

    def test_w_floor_on_corner(self):
        rng = np.random.default_rng(5)
        t, c = 0.1, 1.5
        q1 = star_probs(t).p1
        for n in (10, 100, 1000):
            counts = counts_in_band(max(n, 10**4), t, c)  # band counts need large n
            te, ti = corner_draws(t, n, rng, 20000)
            lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
            for j in (2, 3):
                logw = log_w_statistic(counts, t, lp0, lp1, lp2, j)
                assert np.all(logw >= c * math.log(q1) - 1e-10)

    def test_u_statistic_floor_on_corner(self):
        rng = np.random.default_rng(6)
        t = 0.1
        q0 = star_probs(t).p0
        kap = 5.0 * math.exp(-4 * t) / q0
        for n in (10, 100, 1000):
            te, ti = corner_draws(t, n, rng, 20000)
            lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
            log_u = log_u_statistic(t, lp0, lp1, lp2)
            floor = math.exp(-kap) * 0.95
            assert np.all(n * log_u >= math.log(floor))
            # and the n-dependent bound from the corner geometry
            assert np.all(n * log_u >= n * math.log1p(-kap / n) - 1e-9)

    def test_u_is_neg_kl(self):
        rng = np.random.default_rng(7)
        t = 0.1
        te = rng.exponential(0.25, 100)
        ti = rng.random(100)
        lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
        log_u = log_u_statistic(t, lp0, lp1, lp2)
        from starparadox.model import kl_divergence, pattern_probs

        q = star_probs(t)
        for k in range(100):
            d = kl_divergence(q, pattern_probs(te[k], ti[k]))
            assert log_u[k] == pytest.approx(-d, rel=1e-10)


class _ConcentratedPrior(Prior):
    """All mass close to the star point: 4P0 - 1 always lands in the band."""

    kind = "synthetic-concentrated"

    def __init__(self, t):
        self.t = t

    def sample(self, rng, size):
        te = np.full(size, self.t) + 1e-4 * rng.random(size)
        ti = 1e-4 * rng.random(size)
        return te, ti


class TestClaim1:
    def test_band_advantage_significant(self, oracle):
        prior = UniformPrior(1.0)
        t, c, n = 0.1, 1.5, 10**4
        counts = counts_in_band(n, t, c)
        rep = in_band_advantage(prior, t, counts, c, 2, 2 * 10**5, 314159)
        assert rep.significant and rep.log_ratio > 0
        ref = oracle["claims"]["claim1"]["2"]
        se = math.hypot(rep.se_ratio, ref["se_ratio"])
        assert rep.log_ratio == pytest.approx(ref["log_ratio"], abs=3 * se)

    def test_envelopes(self):
        prior = UniformPrior(1.0)
        t, c, n = 0.1, 1.5, 10**4
        counts = counts_in_band(n, t, c)
        rep = in_band_advantage(prior, t, counts, c, 3, 10**5, 7)
        assert rep.samplewise_upper_ok
        assert rep.log_mean_in >= rep.envelope_low_log
        assert rep.log_mean_out <= rep.envelope_high_log + 3 * rep.se_out

    def test_strata_match_the_reference_reduction(self):
        # each stratum's log-mean and s.e. are the former (max, sum, sum of squares) ones
        prior = UniformPrior(1.0)
        t, c = 0.1, 1.5
        counts = counts_in_band(10**4, t, c)
        rep = in_band_advantage(prior, t, counts, c, 2, 50000, 5)
        lp0, lp1, lp2 = log_pattern_prob_arrays(*prior.sample(np.random.default_rng(5), 50000))
        zval = 4.0 * np.exp(lp0) - 1.0
        iv = band_interval(t)
        inside = (zval >= iv.lo) & (zval <= iv.hi)
        logs = kernel_log_values(counts, lp0, lp1, lp2, (2,))
        est_in, est_out = (_finish(*_partials(logs[:, mask])) for mask in (inside, ~inside))
        assert (rep.log_mean_in, rep.se_in) == (est_in.log_mean, est_in.stderr)
        assert (rep.log_mean_out, rep.se_out) == (est_out.log_mean, est_out.stderr)

    def test_counts_must_be_in_band(self):
        prior = UniformPrior(1.0)
        with pytest.raises(ValueError):
            in_band_advantage(prior, 0.1, PatternCounts(7527, 825, 824, 824), 1.5, 2, 2000, 1)

    def test_empty_stratum(self):
        t = 0.1
        counts = counts_in_band(10**4, t, 1.5)
        with pytest.raises(EmptyStratum):
            in_band_advantage(_ConcentratedPrior(t), t, counts, 1.5, 2, 5000, 1)

    def test_equal_tail_counts_make_j_symmetric(self):
        prior = UniformPrior(1.0)
        counts = counts_in_band(10**4, 0.1, 1.5)  # n2 == n3 by construction
        r2 = in_band_advantage(prior, 0.1, counts, 1.5, 2, 50000, 5)
        r3 = in_band_advantage(prior, 0.1, counts, 1.5, 3, 50000, 5)
        assert r2.log_ratio == r3.log_ratio


class TestClaim2:
    def test_dominance_positive_and_stable_in_c(self, oracle):
        prior = UniformPrior(1.0)
        t, n = 0.1, 10**4
        gaps = {}
        for c in (1.5, 3.0):
            counts = counts_in_band(n, t, c)
            rep = conditional_ratio_scan(prior, t, counts, c, 2, 8, 2 * 10**5, 11)
            assert rep.significant
            assert rep.min_log_gap > 0.0
            gaps[c] = rep
            ref = oracle["claims"]["claim2"][f"{c:g}"]
            se = math.hypot(rep.se_ratio[int(np.argmin(rep.log_ratio - 2 * math.log(c)))],
                            ref["se_at_min"])
            assert rep.min_log_gap == pytest.approx(ref["min_log_gap"], abs=4 * se)
        # doubling c must not shrink the c^2-normalized dominance
        se_pair = math.hypot(float(np.max(gaps[1.5].se_ratio)), float(np.max(gaps[3.0].se_ratio)))
        assert gaps[3.0].min_log_gap >= gaps[1.5].min_log_gap - 2 * se_pair

    def test_empty_band_raises(self):
        t = 0.1
        counts = counts_in_band(10**4, t, 1.5)
        with pytest.raises(EmptyStratum):
            conditional_ratio_scan(_ConcentratedPrior(t), t, counts, 1.5, 2, 8, 5000, 1)

    T, C, Z_POINTS = 0.1, 1.5, 4

    def _scan_on(self, monkeypatch, zval):
        """conditional_ratio_scan over a stub draw set whose 4P0 - 1 values are ``zval``."""
        rng = np.random.default_rng(5)
        lp = log_pattern_prob_arrays(*UniformPrior(1.0).sample(rng, zval.size))
        monkeypatch.setattr(claims, "_draw", lambda prior, size, seed: (*lp, zval))
        counts = counts_in_band(10**4, self.T, self.C)
        rep = conditional_ratio_scan(UniformPrior(1.0), self.T, counts, self.C, 2,
                                     self.Z_POINTS, zval.size, 1)
        return rep, kernel_log_values(counts, *lp, (1, 2))

    def _edges(self):
        iv = band_interval(self.T)
        return np.linspace(iv.lo, iv.hi, self.Z_POINTS + 1)

    def test_band_edges_follow_hard_band_rule(self, monkeypatch):
        edges = self._edges()
        # every edge (the top one is excluded), each band's midpoint and the last
        # float below its top, and two points below the bottom edge, shuffled
        zval = np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:]),
                               np.nextafter(edges[1:], -np.inf),
                               [np.nextafter(edges[0], -np.inf), edges[0] - 1e-3]])
        zval = np.random.default_rng(7).permutation(zval)
        rep, block = self._scan_on(monkeypatch, zval)
        masks = [(zval >= lo) & (zval < hi) for lo, hi in zip(edges[:-1], edges[1:])]
        assert rep.band_counts.tolist() == [int(m.sum()) for m in masks] == [3] * self.Z_POINTS
        # each band's ratio and s.e. are those of its draws picked by a per-band mask
        for k, mask in enumerate(masks):
            band = block[:, mask]
            m1, m2 = (_finish(p).log_mean for p in _partials(band))
            w = np.exp(band - band.max(axis=1, keepdims=True))
            infl = w[0] / w[0].sum() - w[1] / w[1].sum()
            assert rep.log_ratio[k] == pytest.approx(m1 - m2, rel=1e-13, abs=1e-13)
            assert rep.se_ratio[k] == pytest.approx(math.sqrt((infl * infl).sum()), rel=1e-12)

    def test_lowest_empty_band_named(self, monkeypatch):
        edges = self._edges()
        centers = 0.5 * (edges[:-1] + edges[1:])
        zval = np.repeat(centers[[2, 0]], 5)  # bands 1 and 3 stay empty
        with pytest.raises(EmptyStratum) as err:
            self._scan_on(monkeypatch, zval)
        message = str(err.value)
        assert message.startswith(f"z band 1 around {centers[1]:.4g} is empty")
        assert "10 of 10 draws fall in I_t" in message
        assert "--z-points" in message and "--samples" in message

    def test_reports_both_normalizations(self):
        prior = UniformPrior(1.0)
        counts = counts_in_band(10**4, 0.1, 1.5)
        rep = conditional_ratio_scan(prior, 0.1, counts, 1.5, 2, 6, 50000, 3)
        if math.isfinite(rep.min_ratio_over_c2):
            assert rep.min_ratio_over_3c2 == pytest.approx(rep.min_ratio_over_c2 / 3.0)
            assert rep.min_ratio_over_4c2 == pytest.approx(rep.min_ratio_over_c2 / 4.0)
        else:
            assert rep.min_log_gap > 700.0


class TestSharedDraw:
    T, C, N, SAMPLES, SEED = 0.1, 1.5, 10**4, 20000, 2

    def test_claims_run_samples_once(self, tmp_path, monkeypatch):
        calls = []
        original = UniformPrior.sample

        def counted(self, rng, size):
            calls.append(size)
            return original(self, rng, size)

        monkeypatch.setattr(UniformPrior, "sample", counted)
        blocks = []

        def counted_kernels(*args):
            blocks.append(args[-1])
            return kernel_log_values(*args)

        monkeypatch.setattr(claims, "kernel_log_values", counted_kernels)
        argv = ["claims", "--spec", "uniform:1.0", "--t", str(self.T), "--c", str(self.C),
                "--n", str(self.N), "--samples", str(self.SAMPLES), "--seed", str(self.SEED),
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        # one draw set, one (1, 2) block for claim 2 and one (2,) row for claim 1:
        # the j = 3 reports reuse the j = 2 ones
        assert calls == [self.SAMPLES]
        assert blocks == [(1, 2), (2,)]
        report = json.loads((tmp_path / "claims.json").read_text())
        # fresh prior instances share no draws; their reports must be the same
        counts = counts_in_band(self.N, self.T, self.C)
        for j in (2, 3):
            fresh = {
                "band_advantage": in_band_advantage(
                    UniformPrior(1.0), self.T, counts, self.C, j, self.SAMPLES, self.SEED),
                "conditional_dominance": conditional_ratio_scan(
                    UniformPrior(1.0), self.T, counts, self.C, j, 8, self.SAMPLES, self.SEED),
            }
            for section, rep in fresh.items():
                expected = json.loads(json.dumps(dataclasses.asdict(rep),
                                                 default=cli._json_default))
                for key, value in report[section][str(j)].items():
                    assert value == (math.inf if value is None else expected[key]), key
        assert len(calls) == 5

    def test_memo_not_pickled_and_freed_with_prior(self):
        prior = UniformPrior(1.0)
        arrays = claims._draw(prior, 5000, 3)
        assert claims._draw(prior, 5000, 3) is arrays
        assert not any(a.flags.writeable for a in arrays)
        clone = pickle.loads(pickle.dumps(prior))
        assert clone not in claims._DRAWS
        cloned = claims._draw(clone, 5000, 3)
        assert cloned is not arrays
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, cloned))
        # another seed or size replaces the prior's entry
        reseeded = claims._draw(prior, 5000, 4)
        assert reseeded[0].tobytes() != arrays[0].tobytes()
        resized = claims._draw(prior, 6000, 4)
        assert resized[0].size == 6000 and claims._draw(prior, 6000, 4) is resized
        probe, prior_ref = weakref.ref(resized[0]), weakref.ref(prior)
        held = len(claims._DRAWS)
        del arrays, cloned, reseeded, resized, prior
        gc.collect()
        assert prior_ref() is None and probe() is None
        assert len(claims._DRAWS) == held - 1 and clone in claims._DRAWS


class TestBandEventProbability:
    """The band event F_c is a tail event: its probability is strictly
    positive with an n-independent Gaussian limit, but at the reference
    parameters (t=0.1, c=1.5) the value is ~4e-37, far beyond any direct
    simulation, so positivity and n-behaviour are verified by exact
    enumeration of the multinomial box instead of Monte Carlo."""

    def test_positive_and_regression(self, oracle):
        from oracles import band_event_probability

        ref = oracle["band_event"]["spec_point"]
        p = band_event_probability(ref["n"][0], ref["t"], ref["c"])
        assert p > 0.0
        assert p == pytest.approx(ref["prob"][0], rel=1e-9)
        assert all(v > 0.0 for v in ref["prob"])

    def test_moderate_point_approaches_limit(self, oracle):
        # at (t=2, c=1.05) the drift per doubling of n shrinks toward zero
        ref = oracle["band_event"]["moderate_point"]
        probs = np.array(ref["prob"])
        rel_steps = np.abs(np.diff(np.log(probs)))
        assert np.all(np.diff(rel_steps) < 0)
        assert rel_steps[-1] < 0.05

    def test_simulation_cannot_reach_spec_point(self, oracle):
        # expected hits at any feasible trial budget are essentially zero
        ref = oracle["band_event"]["spec_point"]
        assert ref["prob"][0] * 1e12 < 1e-20
