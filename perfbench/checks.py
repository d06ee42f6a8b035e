"""Output checks for the benchmark jobs.

Each check reads a job's output files and raises :class:`CheckFailed` when
they are wrong.  The checks test invariants any correct implementation
keeps, and compare against references only within bounds that a correct
run misses with negligible probability:

* Monte Carlo results are compared with ``tests/fixtures/oracle.json``:
  scan hit counts by an exact binomial test at p-value 1e-9 against the
  oracle rate widened by six of its own standard errors; log expected
  kernels and claim log ratios within eight combined standard errors;
* temperedness verdicts must equal the prior's declared classification,
  with the exponent alpha within 2% where one is declared;
* the moment threshold must be reached at the stored t* (rel 1e-9), and
  2 t R_t must match the stored curve (rel 1e-6, far above the
  quadrature's 1e-9 error).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from scipy.stats import binom

import workloads as wl

P_VALUE = 1e-9
ORACLE_SIGMAS = 6.0
MC_SIGMAS = 8.0
ALPHA_REL = 0.02
T_STAR_REL = 1e-9
CURVE_REL = 1e-6

_SCAN_HEADER = ["n", "epsilon", "delta_hat", "ci_lo", "ci_hi", "trials", "seed"]
_MOMENTS_HEADER = ["t", "m_t", "m_t_plus_1", "r_t", "two_t_r_t"]


class CheckFailed(Exception):
    """A job's output is missing or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path, header: list[str]) -> list[list[float]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, f"{path.name}: header {rows[:1]} != {header}")
    return [[float(v) for v in row] for row in rows[1:]]


def _check_scan(job, out: Path, oracle: dict) -> None:
    rows = _read_csv(out / "scan.csv", _SCAN_HEADER)
    trials = job.params["trials"]
    _require([int(r[0]) for r in rows] == list(wl.SCAN_N_LIST), "scan.csv: wrong n column")
    for n, eps, delta, lo, hi, tr, seed in rows:
        where = f"scan.csv n={int(n)}"
        _require(eps == wl.SCAN_EPSILON and tr == trials and seed == job.params["seed"],
                 f"{where}: epsilon/trials/seed do not echo the job")
        _require(_finite(delta, lo, hi) and 0.0 <= lo <= delta <= hi <= 1.0,
                 f"{where}: need 0 <= ci_lo <= delta_hat <= ci_hi <= 1, got {lo}, {delta}, {hi}")
        _require(lo < hi, f"{where}: empty confidence interval")
        hits = round(delta * trials)
        _require(abs(hits - delta * trials) < 1e-6, f"{where}: delta_hat is not a hit fraction")
    if job.params["spec"] != _oracle_spec(oracle):
        return
    ref = oracle["paradox_scan"]
    _require(list(ref["n_list"]) == list(wl.SCAN_N_LIST) and ref["n_samples"] == wl.SCAN_SAMPLES
             and ref["epsilon"] == wl.SCAN_EPSILON and oracle["t"] == wl.SCAN_T,
             "oracle scan settings differ from the workload")
    for row, p_ref in zip(rows, ref["delta_hat"]):
        hits = round(row[2] * trials)
        sd = math.sqrt(max(p_ref * (1.0 - p_ref), 1.0 / ref["trials"]) / ref["trials"])
        p_lo = max(0.0, p_ref - ORACLE_SIGMAS * sd)
        p_hi = min(1.0, p_ref + ORACLE_SIGMAS * sd)
        p_high = binom.sf(hits - 1, trials, p_hi)   # P(X >= hits) at the largest rate
        p_low = binom.cdf(hits, trials, p_lo)       # P(X <= hits) at the smallest rate
        _require(min(p_high, p_low) >= P_VALUE,
                 f"scan.csv n={int(row[0])}: {hits}/{trials} hits is implausible against "
                 f"the oracle rate {p_ref}")


def _oracle_spec(oracle: dict) -> str:
    prior = oracle["prior"]
    return f"{prior['kind']}:{prior['params']['theta']}" if prior["kind"] == "uniform" else ""


def _check_posterior(job, out: Path, oracle: dict) -> None:
    obj = _read_json(out / "posterior.json")
    post, log_epi, se = obj["posterior"], obj["log_expected_kernel"], obj["stderr_log"]
    _require(obj["counts"] == list(job.params["counts"]), "posterior.json: counts do not echo")
    _require(obj["n_samples"] == job.params["samples"], "posterior.json: wrong n_samples")
    _require(len(post) == len(log_epi) == len(se) == 3, "posterior.json: need three trees")
    _require(_finite(*post) and all(p >= 0.0 for p in post) and abs(sum(post) - 1.0) <= 1e-9,
             f"posterior.json: not a probability vector: {post}")
    _require(_finite(*log_epi, *se) and all(s >= 0.0 for s in se),
             "posterior.json: log expected kernels and standard errors must be finite")
    ref = oracle["posterior_753"]
    if job.params["spec"] == _oracle_spec(oracle) and tuple(ref["counts"]) == job.params["counts"]:
        for i in range(3):
            bound = MC_SIGMAS * math.hypot(se[i], ref["stderr"][i])
            _require(abs(log_epi[i] - ref["log_epi"][i]) <= bound,
                     f"posterior.json: log E[K_{i + 1}] = {log_epi[i]} is more than "
                     f"{MC_SIGMAS:g} standard errors from the oracle {ref['log_epi'][i]}")


def _check_claims(job, out: Path, oracle: dict) -> None:
    obj = _read_json(out / "claims.json")
    for j in ("2", "3"):
        r = obj["band_advantage"][j]
        _require(r["samplewise_upper_ok"] is True,
                 f"claims.json: j={j} an out-of-band draw exceeds the envelope")
        _require(r["n_in"] + r["n_out"] == job.params["samples"],
                 f"claims.json: j={j} strata do not partition the draws")
        _require(_finite(r["log_ratio"], r["se_ratio"]), f"claims.json: j={j} ratio not finite")
        dom = obj["conditional_dominance"][j]
        _require(sum(dom["band_counts"]) <= job.params["samples"]
                 and all(c > 0 for c in dom["band_counts"]),
                 f"claims.json: j={j} empty or overfull z band")
        ref = oracle["claims"]
        if (job.params["spec"] == _oracle_spec(oracle) and ref["band_counts"] == obj["counts"]
                and ref["n_samples"] == job.params["samples"]):
            ref1 = ref["claim1"][j]
            bound = MC_SIGMAS * math.hypot(r["se_ratio"], ref1["se_ratio"])
            _require(abs(r["log_ratio"] - ref1["log_ratio"]) <= bound,
                     f"claims.json: j={j} log ratio {r['log_ratio']} is more than "
                     f"{MC_SIGMAS:g} standard errors from the oracle {ref1['log_ratio']}")


def _check_prior_check(job, out: Path, oracle: dict, declared: dict) -> None:
    obj = _read_json(out / "verdict.json")
    _require(obj["tempered"] is declared["tempered"],
             f"verdict.json: {job.params['spec']} tempered={obj['tempered']}, "
             f"declared {declared['tempered']}")
    if declared["tempered"] and "alpha" in declared:
        alpha = obj["condition1"].get("alpha")
        _require(_finite(alpha) and abs(alpha - declared["alpha"]) <= ALPHA_REL * declared["alpha"],
                 f"verdict.json: {job.params['spec']} alpha={alpha}, declared {declared['alpha']}")


def _check_moments(job, out: Path, oracle: dict) -> None:
    p = job.params
    thr = _read_json(out / "threshold.json")
    _require(thr["reached"] is True, "threshold.json: threshold not reached")
    _require(_finite(thr["t_star"]) and abs(thr["t_star"] - p["t_star"]) <= T_STAR_REL * p["t_star"],
             f"threshold.json: t_star={thr['t_star']}, reference {p['t_star']}")
    rows = _read_csv(out / "moments.csv", _MOMENTS_HEADER)
    decades = math.log10(p["t_hi"] / p["t_lo"])
    _require(len(rows) == len(p["two_t_r_t"]) == int(round(decades * p["per_decade"])) + 1,
             "moments.csv: wrong row count")
    for (t, mt, mt1, rt, gap), ref in zip(rows, p["two_t_r_t"]):
        _require(_finite(t, mt, mt1, rt, gap) and 0.0 < mt1 <= mt <= 1.0,
                 f"moments.csv t={t}: need 0 < M_(t+1) <= M_t <= 1")
        _require(0.0 <= rt <= 1.0 and abs(gap - 2.0 * t * rt) <= 1e-12 * max(1.0, abs(gap)),
                 f"moments.csv t={t}: R_t or 2 t R_t inconsistent")
        _require(abs(gap - ref) <= CURVE_REL * ref,
                 f"moments.csv t={t}: 2 t R_t={gap}, reference {ref}")


def check_job(job, out: Path, oracle: dict, declared: dict) -> None:
    """Raise CheckFailed unless the job's outputs in ``out`` are correct."""
    if job.command == "scan":
        _check_scan(job, out, oracle)
    elif job.command == "posterior":
        _check_posterior(job, out, oracle)
    elif job.command == "claims":
        _check_claims(job, out, oracle)
    elif job.command == "prior-check":
        _check_prior_check(job, out, oracle, declared[job.params["spec"]])
    elif job.command == "moments":
        _check_moments(job, out, oracle)
    else:
        raise CheckFailed(f"no check for command {job.command!r}")
