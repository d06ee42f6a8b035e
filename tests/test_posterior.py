import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starparadox.model import (
    PatternCounts,
    PatternProbs,
    log_pattern_prob_arrays,
    pattern_probs,
    star_probs,
)
from starparadox.posterior import (
    _EXP_ZERO,
    _TAG_SCAN,
    _TAG_SCAN_PRIOR,
    _TRIALS_MAX,
    TRIAL_CHUNK,
    DegenerateEstimate,
    _chunk_rng,
    _exp_inplace,
    _finish,
    _log_weights,
    _losing_trees,
    _merge,
    _partials,
    _posterior_probs,
    kernel_log_values,
    log_likelihood_kernel,
    paradox_scan,
    simulate_counts,
    tree_posterior,
    wilson_interval,
)
from starparadox.priors import DiscretePrior, Prior, UniformPrior, parse_prior

mp.mp.dps = 40


class TestSimulateCounts:
    def test_frequency_clt(self):
        t, n = 0.1, 10**6
        counts = simulate_counts(t, n, 99)
        q0 = star_probs(t).p0
        sigma = math.sqrt(q0 * (1 - q0) / n)
        assert abs(counts.n0 / n - q0) < 4 * sigma

    def test_single_site_is_unit_vector(self):
        counts = simulate_counts(0.3, 1, 5)
        assert counts.n == 1
        assert sorted(counts.array.tolist()) == [0, 0, 0, 1]

    def test_deterministic(self):
        assert simulate_counts(0.1, 500, 12) == simulate_counts(0.1, 500, 12)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            simulate_counts(0.1, 0, 1)

    def test_length_bounded_by_int64(self):
        assert simulate_counts(0.1, 2**63 - 1, 1).n == 2**63 - 1
        with pytest.raises(ValueError, match=r"--n\)"):
            simulate_counts(0.1, 2**63, 1)


class TestLogKernel:
    def test_certain_pattern(self):
        counts = PatternCounts(10, 0, 0, 0)
        probs = PatternProbs(1.0, 0.0, 0.0)
        assert log_likelihood_kernel(counts, probs, 1) == 0.0

    def test_uniform_probs_tree_free(self):
        counts = PatternCounts(3, 2, 1, 4)
        probs = PatternProbs(0.25, 0.25, 0.25)
        expected = 10 * math.log(0.25)
        for tree in (1, 2, 3):
            assert log_likelihood_kernel(counts, probs, tree) == pytest.approx(expected, rel=1e-15)

    def test_against_high_precision(self):
        counts = PatternCounts(2, 1, 1, 0)
        probs = pattern_probs(0.1, 0.05)
        x = mp.e ** (-4 * mp.mpf("0.1"))
        w = mp.e ** (-4 * (mp.mpf("0.1") + mp.mpf("0.05")))
        p0, p1, p2 = (1 + x + 2 * w) / 4, (1 + x - 2 * w) / 4, (1 - x) / 4
        oracle = float(2 * mp.log(p0) + 1 * mp.log(p1) + 1 * mp.log(p2))
        assert log_likelihood_kernel(counts, probs, 1) == pytest.approx(oracle, rel=1e-13)

    def test_tree_symmetry_identity(self):
        # kernel of tree 2 on (n0,n1,n2,n3) equals kernel of tree 1 on (n0,n2,n3,n1)
        probs = pattern_probs(0.17, 0.4)
        counts = PatternCounts(5, 3, 2, 7)
        rotated = PatternCounts(5, 2, 7, 3)
        assert log_likelihood_kernel(counts, probs, 2) == pytest.approx(
            log_likelihood_kernel(rotated, probs, 1), rel=1e-14
        )

    def test_minus_inf_when_impossible(self):
        counts = PatternCounts(1, 1, 0, 0)
        probs = PatternProbs(1.0, 0.0, 0.0)
        assert log_likelihood_kernel(counts, probs, 1) == -math.inf

    def test_vectorized_matches_scalar(self):
        counts = PatternCounts(8, 3, 2, 1)
        te = np.array([0.1, 0.8])
        ti = np.array([0.2, 0.05])
        lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
        for tree in (1, 2, 3):
            vec = kernel_log_values(counts, lp0, lp1, lp2, (tree,))[0]
            for k in range(2):
                ref = log_likelihood_kernel(counts, pattern_probs(te[k], ti[k]), tree)
                assert vec[k] == pytest.approx(ref, rel=1e-12)


# branch lengths at the extremes: exactly 0 (zero pattern probabilities) or 1e-9..1e3
_LENGTH = st.one_of(st.just(0.0), st.floats(1e-9, 1e3))
_COUNT = st.one_of(st.just(0), st.integers(0, 2_500_000))


class TestKernelBlock:
    @given(
        draws=st.lists(st.tuples(_LENGTH, _LENGTH), min_size=1, max_size=12),
        raw=st.tuples(_COUNT, _COUNT, _COUNT, _COUNT).filter(lambda c: sum(c) > 0),
    )
    @settings(max_examples=300, deadline=None)
    def test_block_matches_scalar_kernel(self, draws, raw):
        counts = PatternCounts(*raw)
        te, ti = (np.array(v) for v in zip(*draws))
        lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
        block = kernel_log_values(counts, lp0, lp1, lp2, (1, 2, 3))
        assert block.shape == (3, len(draws))
        for k in range(len(draws)):
            # the same log-probabilities: the same terms in the same order, bit for bit
            same = SimpleNamespace(log_array=np.array([lp0[k], lp1[k], lp2[k], lp2[k]]))
            exact = pattern_probs(te[k], ti[k])
            for row, tree in enumerate((1, 2, 3)):
                assert block[row, k] == log_likelihood_kernel(counts, same, tree)
                ref = log_likelihood_kernel(counts, exact, tree)
                if ref == -math.inf:
                    assert block[row, k] == -math.inf
                else:
                    assert block[row, k] == pytest.approx(ref, rel=1e-6, abs=counts.n * 1e-15)

    def test_impossible_draws(self):
        # te = 0 makes P2 vanish, te = ti = 0 also P1: -inf unless those counts are zero
        lp0, lp1, lp2 = log_pattern_prob_arrays(np.array([0.0, 0.0]), np.array([0.0, 0.5]))
        both = kernel_log_values(PatternCounts(5, 1, 0, 0), lp0, lp1, lp2, (1, 2, 3))
        assert both[0, 0] == -math.inf and np.isfinite(both[0, 1])
        assert np.all(both[1:] == -math.inf)
        only_n0 = kernel_log_values(PatternCounts(5, 0, 0, 0), lp0, lp1, lp2, (1, 2, 3))
        assert np.all(np.isfinite(only_n0))

    def test_exp_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(9)
        x = np.concatenate([
            -rng.exponential(400.0, 20000),
            np.linspace(-760.0, -700.0, 20001),  # across the exact-zero and subnormal edges
            [0.0, -0.0, -math.inf, math.nan, _EXP_ZERO, np.nextafter(_EXP_ZERO, 0.0)],
        ])
        assert _exp_inplace(x.copy()).tobytes() == np.exp(x).tobytes()
        assert np.exp(np.linspace(-5000.0, _EXP_ZERO, 100001)).max() == 0.0

    def test_partials_per_row(self):
        rng = np.random.default_rng(4)
        block = rng.normal(-500.0, 600.0, (3, 4096))  # wide: many exact-zero weights
        block[1] = -np.inf
        block[2, ::7] = -np.inf
        rows = _partials(block)
        # the former one-row reduction, with a plain np.exp
        for row, got in zip(block, rows):
            m = float(np.max(row))
            if m == -math.inf:
                assert got == (-math.inf, 0.0, 0.0, 4096)
            else:
                a = np.exp(row - m)
                assert got == (m, float(a.sum()), float((a * a).sum()), 4096)
            assert _partials(row) == got
        with pytest.raises(DegenerateEstimate):
            _finish(rows[1])


class _DegeneratePrior(Prior):
    kind = "synthetic-degenerate"

    def sample(self, rng, size):
        return np.zeros(size), np.zeros(size)


class TestExpectedKernel:
    """Per-tree log E[K] estimates, read from the matching row of tree_posterior."""

    @staticmethod
    def _row(prior, counts, tree, n_samples, seed):
        est = tree_posterior(prior, counts, (1.0, 1.0, 1.0), n_samples, seed)
        return SimpleNamespace(log_mean=est.log_epi[tree - 1], stderr=est.stderr[tree - 1])

    def test_single_pattern_against_quadrature(self):
        # E[K] for counts (1,0,0,0) is E[P0]; closed form for the uniform prior
        prior = UniformPrior(1.0)
        counts = PatternCounts(1, 0, 0, 0)
        est = self._row(prior, counts, 1, 10**5, 31)
        e_se = 0.5  # E[exp(-4 Te)], Te ~ Exp(4)
        e_si = (1 - math.exp(-4.0)) / 4.0  # E[exp(-4 Ti)], Ti ~ U[0,1]
        expected = (1 + e_se + 2 * e_se * e_si) / 4.0
        assert est.log_mean == pytest.approx(math.log(expected), abs=3 * est.stderr)

    def test_symmetric_counts_equal_estimates(self):
        prior = UniformPrior(1.0)
        counts = PatternCounts(700, 100, 100, 100)
        vals = [self._row(prior, counts, tr, 5000, 8).log_mean for tr in (1, 2, 3)]
        assert vals[0] == vals[1] == vals[2]

    def test_stderr_scaling_with_samples(self):
        prior = UniformPrior(1.0)
        counts = PatternCounts(753, 130, 59, 58)
        ratios = [
            self._row(prior, counts, 1, 20000, 1000 + r).stderr
            / self._row(prior, counts, 1, 40000, 5000 + r).stderr
            for r in range(20)
        ]
        assert 1.3 <= float(np.mean(ratios)) <= 1.55

    def test_degenerate_reported(self):
        counts = PatternCounts(1, 1, 0, 0)  # p1 = 0 at te = ti = 0
        with pytest.raises(DegenerateEstimate):
            self._row(_DegeneratePrior(), counts, 1, 2000, 3)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            self._row(UniformPrior(1.0), PatternCounts(1, 0, 0, 0), 1, 10, 0)


class TestTreePosterior:
    def test_symmetric_counts_uniform_posterior(self):
        prior = UniformPrior(1.0)
        counts = PatternCounts(700, 100, 100, 100)
        est = tree_posterior(prior, counts, (1.0, 1.0, 1.0), 4000, 5)
        assert np.allclose(est.posterior, 1 / 3, atol=1e-15)

    def test_weight_rescaling_invariant(self):
        prior = UniformPrior(1.0)
        counts = PatternCounts(500, 260, 130, 110)
        a = tree_posterior(prior, counts, (1.0, 1.0, 1.0), 4000, 5)
        b = tree_posterior(prior, counts, (7.0, 7.0, 7.0), 4000, 5)
        assert np.array_equal(a.posterior, b.posterior)

    def test_weights_validated(self):
        prior = UniformPrior(1.0)
        counts = PatternCounts(5, 3, 1, 1)
        with pytest.raises(ValueError):
            tree_posterior(prior, counts, (1.0, 0.0, 1.0), 2000, 1)
        with pytest.raises(ValueError):
            tree_posterior(prior, counts, (1.0, -1.0, 1.0), 2000, 1)

    def test_reference_counts_direction_and_oracle(self, oracle):
        prior = UniformPrior(1.0)
        counts = PatternCounts(753, 130, 59, 58)
        est = tree_posterior(prior, counts, (1.0, 1.0, 1.0), 10**5, 2024)
        assert est.posterior[0] > est.posterior[1]
        assert est.posterior[0] > est.posterior[2]
        ref = oracle["posterior_753"]
        for i in range(3):
            se = math.hypot(est.stderr[i], ref["stderr"][i])
            assert est.log_epi[i] == pytest.approx(ref["log_epi"][i], abs=3 * se + 1e-6)

    def test_permutation_symmetry(self):
        # permuting (n1,n2,n3) and tree labels together permutes the posterior
        prior = UniformPrior(1.0)
        base = PatternCounts(500, 260, 130, 110)
        est = tree_posterior(prior, base, (1.0, 1.0, 1.0), 4000, 9)
        perm = PatternCounts(500, 130, 110, 260)  # cyclic shift of (n1,n2,n3)
        est_p = tree_posterior(prior, perm, (1.0, 1.0, 1.0), 4000, 9)
        # tree holding count 260 is tree 1 before, tree 3 after, etc.
        assert np.array_equal(est_p.posterior, est.posterior[[1, 2, 0]])

    def test_jobs_bit_identical(self):
        prior = UniformPrior(1.0)
        counts = PatternCounts(753, 130, 59, 58)
        a = tree_posterior(prior, counts, (1.0, 1.0, 1.0), 30000, 11, jobs=1)
        b = tree_posterior(prior, counts, (1.0, 1.0, 1.0), 30000, 11, jobs=3)
        assert np.array_equal(a.log_epi, b.log_epi)
        assert np.array_equal(a.posterior, b.posterior)

    def test_jobs_bit_identical_discrete(self):
        prior = DiscretePrior(0.1, 0.5)
        counts = PatternCounts(777, 68, 78, 77)
        a = tree_posterior(prior, counts, (1.0, 1.0, 1.0), 30000, 11, jobs=1)
        b = tree_posterior(prior, counts, (1.0, 1.0, 1.0), 30000, 11, jobs=2)
        for field in ("log_epi", "stderr", "posterior", "ess"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_ess_per_tree(self):
        counts = PatternCounts(500, 260, 130, 110)
        est = tree_posterior(UniformPrior(1.0), counts, (1.0, 1.0, 1.0), 20000, 3)
        assert est.ess.shape == (3,)
        assert np.all((est.ess >= 1.0) & (est.ess <= 20000))


class TestEffectiveSampleSize:
    def test_matches_direct_formula(self):
        logs = np.random.default_rng(8).normal(-700.0, 3.0, 5000)
        w = np.exp(logs - logs.max())
        direct = w.sum() ** 2 / (w * w).sum()
        assert _finish(_partials(logs)).ess == pytest.approx(direct, rel=1e-12)
        merged = _merge(_partials(logs[:1234]), _partials(logs[1234:]))
        assert _finish(merged).ess == pytest.approx(direct, rel=1e-12)

    def test_constant_weights_give_n(self):
        assert _finish(_partials(np.full(4096, -123.4))).ess == 4096.0
        assert _finish(_partials(np.array([-5.0, -math.inf, -5.0]))).ess == 2.0


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo > 0.95
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)


class TestParadoxScan:
    def test_validations(self):
        prior = UniformPrior(1.0)
        with pytest.raises(ValueError):
            paradox_scan(prior, 0.1, 1.5, [100], 10, 2000, 1)
        with pytest.raises(ValueError):
            paradox_scan(prior, 0.1, 0.05, [100], 0, 2000, 1)
        with pytest.raises(ValueError):
            paradox_scan(prior, 0.1, 0.05, [100, 100], 10, 2000, 1)
        for weights in ((1.0, 1.0, math.inf), (1.0, math.nan, 1.0), (1.0, 0.0, 1.0)):
            with pytest.raises(ValueError, match="tree_weights"):
                paradox_scan(prior, 0.1, 0.05, [100], 5, 1000, 1, tree_weights=weights)

    def test_degenerate_trial_reported(self):
        # P1 = P2 = 0 at te = ti = 0, so every star count vector has zero likelihood
        with pytest.raises(DegenerateEstimate):
            paradox_scan(_DegeneratePrior(), 0.1, 0.05, [100], 3, 1000, 1)

    def test_vacuous_threshold(self):
        prior = UniformPrior(1.0)
        res = paradox_scan(prior, 0.1, 0.999, [50, 200], 100, 2048, 17)
        assert all(r.delta_hat >= 0.9 for r in res)

    def test_jobs_invariance(self):
        prior = UniformPrior(1.0)
        a = paradox_scan(prior, 0.1, 0.05, [100, 400], 130, 2048, 21, jobs=1)
        b = paradox_scan(prior, 0.1, 0.05, [100, 400], 130, 2048, 21, jobs=2)
        assert [r.delta_hat for r in a] == [r.delta_hat for r in b]

    def test_jobs_bit_identical_discrete(self):
        prior = DiscretePrior(0.1, 0.5)
        a = paradox_scan(prior, 0.1, 0.05, [100, 400], 130, 2048, 21, jobs=1)
        b = paradox_scan(prior, 0.1, 0.05, [100, 400], 130, 2048, 21, jobs=2)
        assert a == b

    def test_rows_have_wilson_bounds(self):
        prior = UniformPrior(1.0)
        res = paradox_scan(prior, 0.1, 0.05, [100], 150, 2048, 33)
        r = res[0]
        lo, hi = wilson_interval(round(r.delta_hat * r.trials), r.trials)
        assert (r.ci_lo, r.ci_hi) == (lo, hi)


CATALOG = ("tame", "uniform:1.0", "power:0.5", "logti", "tlogti", "discrete:0.1,0.5")


def _full_path_posterior(counts, te, ti, log_w):
    """The scan's posterior of a computed trial: kernels, reduction, normalisation."""
    lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
    block = kernel_log_values(counts, lp0, lp1, lp2, (1, 2, 3))
    log_epi = np.array([_finish(p).log_mean for p in _partials(block)])
    return _posterior_probs(log_w, log_epi)


class TestScanSkip:
    """A trial with n_j >= n_1 is a certain miss when w_1 / (w_1 + w_j) < 1 - epsilon."""

    @given(
        spec=st.sampled_from(CATALOG),
        # n0 + 2 n1 + lead + nk <= 10^6
        n1=st.integers(0, 200_000),
        lead=st.one_of(st.just(0), st.integers(1, 20), st.integers(0, 200_000)),
        nk=st.integers(0, 200_000),
        n0=st.integers(0, 200_000),
        j=st.sampled_from((2, 3)),
        epsilon=st.floats(0.001, 0.999),
        slack=st.one_of(st.just(1.0001), st.floats(1.0001, 1e6)),
        wk=st.floats(1e-3, 1e3),
        te_zero=st.sampled_from((0.0, 0.05, 0.5)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_skip_rule_is_sound(self, spec, n1, lead, nk, n0, j, epsilon, slack, wk, te_zero,
                                seed):
        nj = n1 + lead
        if n0 + n1 + nj + nk == 0:
            n0 = 1
        by_tree = {1: n1, j: nj, 5 - j: nk}
        counts = PatternCounts(n0, by_tree[1], by_tree[2], by_tree[3])
        assert counts.n <= 10**6
        # w_1 / (w_1 + w_j) just below the rule's limit (slack 1.0001) or far below it
        margin = 1e-9 + 4e-12 * counts.n
        ratio = math.exp(math.log1p(-epsilon) - slack * margin)
        weights = [0.0, 0.0, 0.0]
        weights[0], weights[j - 1], weights[4 - j] = ratio, 1.0 - ratio, wk
        log_w = _log_weights(weights)
        assert j in _losing_trees(log_w, epsilon, counts.n)
        rng = np.random.default_rng(seed)
        te, ti = parse_prior(spec).sample(rng, 4096)
        te[rng.random(te.size) < te_zero] = 0.0  # log P2 = -inf on those draws
        te[0] = ti[0] = 1.0  # keeps every kernel row finite somewhere
        post = _full_path_posterior(counts, te, ti, log_w)
        assert post[0] < 1.0 - epsilon

    def test_losing_trees(self):
        equal = _log_weights((1.0, 1.0, 1.0))
        assert _losing_trees(equal, 0.05, 10**4) == (2, 3)
        assert _losing_trees(equal, 0.49, 10**4) == (2, 3)
        assert _losing_trees(equal, 0.5, 10**4) == ()  # the bound 1/2 reaches 1 - epsilon
        assert _losing_trees(equal, 0.6, 10**4) == ()
        lopsided = _log_weights((3.0, 1.0, 9.0))
        assert _losing_trees(lopsided, 0.05, 100) == (2, 3)
        assert _losing_trees(lopsided, 0.3, 100) == (3,)
        # the rounding allowance is 4e-12 n + 1e-9 in log scale
        for n in (1, 100, 10**4, 10**6):
            margin = 1e-9 + 4e-12 * n
            for factor, losing in ((1.01, (2,)), (0.99, ())):
                ratio = math.exp(math.log1p(-0.2) - factor * margin)
                log_w = _log_weights((ratio, 1.0 - ratio, 1e-6))
                assert _losing_trees(log_w, 0.2, n) == losing, (n, factor)

    def test_only_trials_that_can_hit_are_computed(self, monkeypatch):
        import starparadox.posterior as posterior

        calls = []
        real = posterior.log_pattern_prob_arrays
        monkeypatch.setattr(posterior, "log_pattern_prob_arrays",
                            lambda te, ti: calls.append(1) or real(te, ti))
        prior, q = UniformPrior(1.0), star_probs(0.1).array
        rng = _chunk_rng(3, _TAG_SCAN, 0)  # the chunk's stream carries counts only
        leading = 0
        for _ in range(50):
            counts = rng.multinomial(200, q)
            leading += int(counts[1] > max(counts[2:]))
        paradox_scan(prior, 0.1, 0.05, [200], 50, 1024, 3)
        assert 0 < len(calls) == leading < 50

    def test_prior_sampled_once_per_computed_trial(self, monkeypatch):
        sampled = []
        real = Prior.sample

        def sample(prior, rng, size):
            sampled.append(tuple(rng.bit_generator.seed_seq.entropy))
            return real(prior, rng, size)

        monkeypatch.setattr(Prior, "sample", sample)
        seed, n_list, trials, q = 8, [100, 400], TRIAL_CHUNK + 20, star_probs(0.1).array
        computed = []
        for n_index, n in enumerate(n_list):
            for chunk in range(2):
                counts = _chunk_rng(seed, _TAG_SCAN, n_index * 1_000_003 + chunk).multinomial(
                    n, q, size=min(TRIAL_CHUNK, trials - chunk * TRIAL_CHUNK))
                computed += [(seed, _TAG_SCAN_PRIOR, n_index, chunk * TRIAL_CHUNK + k)
                             for k, c in enumerate(counts) if c[1] > max(c[2:])]
        paradox_scan(UniformPrior(1.0), 0.1, 0.05, n_list, trials, 1024, seed, jobs=1)
        assert 0 < len(computed) < len(n_list) * trials
        assert sampled == computed  # once per computed trial, in trial order, none skipped

    def test_trial_substreams_never_collide(self):
        # a packed key n_index * 1_000_003 + trial would give both the same stream
        a = _chunk_rng(5, _TAG_SCAN_PRIOR, 0, 1_000_003).random(4)
        b = _chunk_rng(5, _TAG_SCAN_PRIOR, 1, 0).random(4)
        assert not np.any(a == b)

    def test_trials_above_the_bound_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("prior sampled before the check")

        monkeypatch.setattr(Prior, "sample", no_draw)
        assert _TRIALS_MAX == 64_000_192
        with pytest.raises(ValueError, match=r"trials \(--trials\) must be in \[1, 64000192\]"):
            paradox_scan(UniformPrior(1.0), 0.1, 0.05, [100], _TRIALS_MAX + 1, 1024, 0)

    def test_counts_streams_of_two_lengths_stay_apart_at_the_bound(self, monkeypatch):
        import starparadox.posterior as posterior

        keys = []
        real = posterior._chunk_rng

        def record(seed, tag, *index):
            if tag == _TAG_SCAN:
                keys.append(index)
            return real(seed, tag, *index)

        monkeypatch.setattr(posterior, "_chunk_rng", record)
        log_w = _log_weights((1.0, 1.0, 1.0))
        last = (_TRIALS_MAX - 1) // TRIAL_CHUNK  # the last chunk of a scan at the bound
        for k in (0, 1, 7):
            keys.clear()
            for n_index, chunk in ((k, last), (k + 1, 0), (k, last + 1)):
                posterior._scan_chunk(UniformPrior(1.0), 0.1, 0.05, 100, 1024, log_w, 0,
                                      n_index, chunk, 0)
            (last_key,), (first_next,), (beyond,) = keys
            assert last_key < first_next
            assert beyond == first_next  # one chunk more would reuse the next length's counts

    @pytest.mark.parametrize("spec", CATALOG)
    def test_rows_do_not_depend_on_jobs(self, spec):
        prior = parse_prior(spec)
        a = paradox_scan(prior, 0.1, 0.05, [100, 400], 130, 2048, 21, jobs=1)
        b = paradox_scan(prior, 0.1, 0.05, [100, 400], 130, 2048, 21, jobs=2)
        assert a == b

    @pytest.mark.parametrize("spec", CATALOG)
    def test_hits_match_computing_every_trial(self, spec):
        prior = parse_prior(spec)
        t, n_list, trials, n_samples, seed = 0.1, [50, 400], TRIAL_CHUNK + 6, 1024, 5
        settings_ = [(eps, w) for eps in (0.05, 0.3, 0.49, 0.6) for w in ((1, 1, 1), (3, 1, 1))]
        q = star_probs(t).array
        ref = {key: [0] * len(n_list) for key in settings_}
        skipped = 0
        for n_index, n in enumerate(n_list):
            for chunk in range(2):
                rng = _chunk_rng(seed, _TAG_SCAN, n_index * 1_000_003 + chunk)
                for k in range(min(TRIAL_CHUNK, trials - chunk * TRIAL_CHUNK)):
                    counts = PatternCounts(*map(int, rng.multinomial(n, q)))
                    # every trial computed, each from its own prior substream
                    trial_rng = _chunk_rng(seed, _TAG_SCAN_PRIOR, n_index, chunk * TRIAL_CHUNK + k)
                    te, ti = prior.sample(trial_rng, n_samples)
                    lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
                    block = kernel_log_values(counts, lp0, lp1, lp2, (1, 2, 3))
                    log_epi = np.array([_finish(p).log_mean for p in _partials(block)])
                    for eps, w in settings_:
                        hit = _posterior_probs(_log_weights(w), log_epi)[0] >= 1.0 - eps
                        ref[eps, w][n_index] += int(hit)
                        losing = _losing_trees(_log_weights(w), eps, n)
                        if any(counts.array[j] >= counts.n1 for j in losing):
                            skipped += 1
                            assert not hit
        assert skipped > 0
        for eps, w in settings_:
            rows = paradox_scan(prior, t, eps, n_list, trials, n_samples, seed, tree_weights=w)
            assert [round(r.delta_hat * r.trials) for r in rows] == ref[eps, w], (eps, w)

    def test_degenerate_trial_where_tree_1_leads_raises(self):
        q = star_probs(0.1).array

        def first_counts(seed):  # the first trial's counts at n = 100, as the scan draws them
            return _chunk_rng(seed, _TAG_SCAN, 0).multinomial(100, q)

        leads = next(s for s in range(100) if first_counts(s)[1] > max(first_counts(s)[2:]))
        with pytest.raises(DegenerateEstimate):
            paradox_scan(_DegeneratePrior(), 0.1, 0.05, [100], 1, 1000, leads)
        trails = next(s for s in range(100) if first_counts(s)[1] <= max(first_counts(s)[2:]))
        # a skipped trial is a miss with no posterior, so its degeneracy goes unseen
        assert paradox_scan(_DegeneratePrior(), 0.1, 0.05, [100], 1, 1000, trails)[0].delta_hat == 0
        # with no losing tree (3/4 > 1 - 0.3) the same trial is computed
        with pytest.raises(DegenerateEstimate):
            paradox_scan(_DegeneratePrior(), 0.1, 0.3, [100], 1, 1000, trails,
                         tree_weights=(3.0, 1.0, 1.0))
