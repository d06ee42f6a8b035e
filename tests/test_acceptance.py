"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margin and runtime."""

import json
import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np

from starparadox.model import (
    PatternCounts,
    band_interval,
    log_pattern_prob_arrays,
    pattern_probs,
)
from starparadox.moments import (
    TailParams,
    UniformV,
    beta_fn,
    geometric_grid,
    lemma_chi_check,
    threshold_scan,
)
from starparadox.posterior import kernel_log_values, paradox_scan
from starparadox.priors import (
    DiscretePrior,
    LogPrior,
    PowerPrior,
    TamePrior,
    TLogPrior,
    UniformPrior,
)
from starparadox.tempering import check_condition2, check_tempered, fit_taylor, default_s_grid

from oracles import h_quad, kernel_log_by_corner, kernel_log_by_deltas, rising_factor

mp.mp.dps = 30


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} — {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_model_exactness():
    start = time.time()
    rng = np.random.default_rng(1)
    te = np.concatenate([rng.uniform(0.0, 8.0, 996), [0.0, 1e-9, 5.0, 0.1]])
    ti = np.concatenate([rng.uniform(0.0, 8.0, 996), [0.0, 0.0, 0.0, 2.0]])
    worst = 0.0
    for a, b in zip(te.tolist(), ti.tolist()):
        p = pattern_probs(a, b)
        x = mp.e ** (-4 * mp.mpf(a))
        w = mp.e ** (-4 * (mp.mpf(a) + mp.mpf(b)))
        ref = ((1 + x + 2 * w) / 4, (1 + x - 2 * w) / 4, (1 - x) / 4)
        worst = max(
            worst,
            abs(p.p0 - float(ref[0])),
            abs(p.p1 - float(ref[1])),
            abs(p.p2 - float(ref[2])),
        )
        assert abs(p.array.sum() - 1.0) <= 1e-12
    elapsed = time.time() - start
    _report(1, "model exactness", worst < 1e-14,
            f"max abs error vs extended precision = {worst:.2e} over 1000 points", elapsed, 1.0)


def test_criterion_2_closed_form_vs_quadrature():
    start = time.time()
    spec = UniformPrior(1.0)
    iv = band_interval(0.1)
    worst = 0.0
    for z in np.linspace(iv.lo + 1e-6, iv.hi - 1e-6, 10):
        s_sat = spec.s_sat(z)
        for s in np.geomspace(1e-6, s_sat, 12):
            closed = spec.h(z, s)
            quadv = h_quad(spec, z, min(s, s_sat))
            worst = max(worst, abs(quadv - closed) / closed)
    elapsed = time.time() - start
    _report(2, "closed form vs quadrature", worst < 1e-8,
            f"max relative gap = {worst:.2e} over the I_0.1 x (0, s_sat] grid", elapsed, 10.0)


def test_criterion_3_catalog_classification():
    start = time.time()
    expectations = [
        (TamePrior(), True, None),
        (DiscretePrior(0.1, 0.5), True, 5.0),
        (UniformPrior(1.0), True, None),
        (PowerPrior(0.5), True, None),
        (LogPrior(), False, None),
        (TLogPrior(), False, None),
    ]
    details = []
    ok = True
    for spec, want_tempered, want_alpha in expectations:
        v = check_tempered(spec, 0.1)
        good = v.tempered == want_tempered
        msg = f"{spec.kind}:{'T' if v.tempered else 'F'}"
        if want_alpha is not None and good:
            rel = abs(v.condition1.alpha - want_alpha) / want_alpha
            good &= rel < 0.02
            msg += f" alpha={v.condition1.alpha:.4f} ({rel:.2%})"
        if not want_tempered and good:
            good &= "log" in v.condition1.diagnostic
            msg += f" diag={v.condition1.diagnostic!r}"
        ok &= good
        details.append(msg)
    elapsed = time.time() - start
    _report(3, "catalog classification", ok, "; ".join(details), elapsed, 300.0)


def test_criterion_4_theta_half_expansion():
    start = time.time()
    spec = PowerPrior(0.5)
    z_grid = np.array([1.5, 2.0, 2.5])
    model = fit_taylor(spec, z_grid, default_s_grid(0.1))
    worst = 0.0
    for iz, z in enumerate(z_grid):
        hsat = spec.h_sat(z)
        fitted = model.coeffs[iz, :3] * hsat
        expected = np.array(
            [4.0 / math.sqrt(3 * z), 5.0 / (3 * z) ** 1.5,
             9.0 * math.sqrt(3.0) / (40.0 * z**2.5)]
        )
        worst = max(worst, float(np.max(np.abs(fitted / expected - 1.0))))
    elapsed = time.time() - start
    _report(4, "theta=1/2 expansion coefficients", worst < 0.01,
            f"max relative coefficient error = {worst:.2%} at z in {{1.5, 2.0, 2.5}}", elapsed, 60.0)


def test_criterion_5_corner_decay_exponents():
    start = time.time()
    cases = [
        (TamePrior(), 2.0),
        (PowerPrior(0.5), 1.5),
        (PowerPrior(0.3), 1.3),
        (DiscretePrior(0.1, 0.5), 6.0),
    ]
    ok = True
    details = []
    for spec, want in cases:
        res = check_condition2(spec, 0.1)
        good = res.satisfied and abs(res.exponent - want) <= 0.1
        ok &= good
        details.append(f"{spec.kind}: fitted {res.exponent:.3f} vs {want}")
    elapsed = time.time() - start
    _report(5, "corner probability decay exponents", ok, "; ".join(details), elapsed, 30.0)


def test_criterion_6_moment_lemma():
    start = time.time()
    grid = geometric_grid(0.05, 500.0)
    scan = threshold_scan(UniformV(), 1.0, grid)
    step = grid[1] / grid[0]
    ok = scan.reached and 2.0 / step <= scan.t_star <= 2.0 * step
    detail = f"uniform t*={scan.t_star:.4f} (target 2 within one step {step:.4f})"

    lower = min(
        t * beta_fn(t, a + 1.0) * rising_factor(t, a)
        for t in np.geomspace(1.0, 1e4, 40)
        for a in (0.3, 1.0, 2.5)
    )
    ok &= lower >= 1.0 - 1e-12
    detail += f"; min tB(t,a+1)Q_a(t)={lower:.6f}"

    rng = np.random.default_rng(606)
    chi_grid = geometric_grid(1.0, 1e4, 12)
    worst = -math.inf
    for _ in range(20):
        n = rng.integers(1, 4)
        inner = np.sort(rng.uniform(0.05, 1.0, size=n - 1)) if n > 1 else np.array([])
        eps = (0.0, *inner, float(rng.uniform(1.05, 2.0)))
        gamma = tuple(rng.uniform(-2.0, 2.0, size=n)) + (float(rng.uniform(0.0, 2.0)),)
        rep = lemma_chi_check(TailParams(float(rng.uniform(0.3, 3.0)), eps, gamma), chi_grid)
        worst = max(worst, rep.max_violation_diff, rep.max_violation_lower)
        ok &= rep.ok
    detail += f"; max chi-bound violation = {worst:.2e}"
    elapsed = time.time() - start
    _report(6, "moment lemma", ok, detail, elapsed, 60.0)


def test_criterion_7_paradox_scan(oracle):
    start = time.time()
    ref = oracle["paradox_scan"]
    prior = UniformPrior(1.0)
    rows = paradox_scan(
        prior, 0.1, ref["epsilon"], ref["n_list"], 2000, ref["n_samples"], seed=991
    )
    ok = True
    details = []
    # (a) Wilson lower bound strictly positive at every n
    for r in rows:
        ok &= r.ci_lo > 0.0
        details.append(f"n={r.n}: delta={r.delta_hat:.4f} LB={r.ci_lo:.4f}")
    # (b) no statistically significant downward trend of log delta vs log n
    deltas = np.array([r.delta_hat for r in rows])
    ses = np.sqrt(deltas * (1 - deltas) / 2000) / deltas  # se of log delta
    x = np.log(np.array(ref["n_list"], dtype=float))
    w = 1.0 / ses**2
    xbar = np.sum(w * x) / np.sum(w)
    slope = np.sum(w * (x - xbar) * np.log(deltas)) / np.sum(w * (x - xbar) ** 2)
    se_slope = math.sqrt(1.0 / np.sum(w * (x - xbar) ** 2))
    ok &= slope + 1.96 * se_slope >= 0.0
    details.append(f"trend slope {slope:.3f} +- {se_slope:.3f}")
    # (c) agreement with the frozen 10x oracle within 3 combined sigmas
    for r, d_ref in zip(rows, ref["delta_hat"]):
        se = math.sqrt(
            r.delta_hat * (1 - r.delta_hat) / r.trials + d_ref * (1 - d_ref) / ref["trials"]
        )
        ok &= abs(r.delta_hat - d_ref) <= 3.0 * se
    elapsed = time.time() - start
    _report(7, "paradox scan stability", ok, "; ".join(details), elapsed, 1800.0)


def test_criterion_8_per_draw_identities():
    start = time.time()
    rng = np.random.default_rng(8)
    n_draws = 10**5
    te = rng.exponential(0.25, n_draws)
    ti = rng.random(n_draws)
    lp0, lp1, lp2 = log_pattern_prob_arrays(te, ti)
    t = 0.1
    worst = 0.0
    for n in (500, 10**4):
        counts = PatternCounts(*map(int, rng.multinomial(n, [0.7, 0.12, 0.1, 0.08])))
        for tree in (1, 2, 3):
            direct = kernel_log_values(counts, lp0, lp1, lp2, (tree,))[0]
            via = kernel_log_by_deltas(counts, t, lp0, lp1, lp2, tree)
            worst = max(worst, float(np.max(np.abs(direct - via) / np.abs(direct))))
        for j in (2, 3):
            direct = kernel_log_values(counts, lp0, lp1, lp2, (j,))[0]
            via = kernel_log_by_corner(counts, t, lp0, lp1, lp2, j)
            worst = max(worst, float(np.max(np.abs(direct - via) / np.abs(direct))))
    elapsed = time.time() - start
    _report(8, "per-draw kernel identities", worst < 1e-8,
            f"max relative log-scale error = {worst:.2e} on {n_draws} draws", elapsed, 10.0)


def test_criterion_9_reproducibility(tmp_path):
    start = time.time()
    args = ["scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "0.05",
            "--n-list", "100,1000", "--trials", "100", "--samples", "2048", "--seed", "17"]
    out1 = tmp_path / "one"
    r1 = subprocess.run([sys.executable, "-m", "starparadox.cli", *args, "--jobs", "1",
                         "--out", str(out1)], capture_output=True, text=True)
    assert r1.returncode == 0, r1.stderr
    out2 = tmp_path / "two"
    r2 = subprocess.run([sys.executable, "-m", "starparadox.cli", "replay",
                         "--manifest", str(out1 / "manifest.json"), "--jobs", "3",
                         "--out", str(out2)], capture_output=True, text=True)
    assert r2.returncode == 0, r2.stderr
    same = (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    same &= m1["outputs"] == m2["outputs"]
    elapsed = time.time() - start
    _report(9, "manifest reproducibility", same,
            "replayed scan.csv byte-identical under different --jobs", elapsed, 120.0)
