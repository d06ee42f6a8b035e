"""Workload definitions: the CLI jobs of one pass, generated from the seed.

A pass is a fixed list of jobs.  Every job is one ``starparadox`` CLI call
(argv without ``--out``) plus what its output check needs.  Job seeds and
count vectors come from the benchmark's own generator, seeded by the
workload seed, so the same seed always gives the same passes.  Why each
workload exists is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CATALOG = ("tame", "uniform:1.0", "power:0.5", "logti", "tlogti", "discrete:0.1,0.5")

SCAN_T = 0.1
SCAN_EPSILON = 0.05
SCAN_N_LIST = (100, 1000, 10000)
SCAN_SAMPLES = 4096
SCAN_TRIALS = 300

POSTERIOR_SAMPLES = 1 << 20
POSTERIOR_PRIORS = ("uniform:1.0", "discrete:0.1,0.5")
FIXED_COUNTS = ((753, 130, 59, 58), (777, 68, 78, 77))
STAR_N = 10_000
CLAIMS_PRIORS = ("uniform:1.0", "tame")
CLAIMS_ARGS = {"t": 0.1, "c": 1.5, "n": 10000, "samples": 1_000_000}

CHECK_T = 0.1
MOMENTS_ARGS = {
    "spec": "uniform:1.0", "z": 2.0109601381069178, "alpha": 0.5,
    "t_lo": 0.5, "t_hi": 500.0, "per_decade": 1,
}
# References for the moments job above, computed with the seed code: 2 t R_t
# on the grid 0.5, 5, 50, 500, and the threshold t*, the grid point 5 where
# 2 t R_t first stays above alpha.  One point per decade keeps the job near
# 3 s (11-20 s at 4 per decade), so a run holds more than one pass.
MOMENTS_TWO_T_R_T = (0.35920685585904544, 0.90094016352069706,
                     1.0169340198698085, 1.0108338388841176)
MOMENTS_T_STAR = 5.0

WORKLOADS = ("scan", "posterior", "thresholds")


@dataclass(frozen=True)
class Job:
    key: str                # "<command> <inputs>", the same in every pass, e.g. "scan logti"
    command: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)


def star_counts(t: float, n: int, rng: np.random.Generator) -> tuple[int, int, int, int]:
    """Site-pattern counts of n sites on the star tree with edge length t.

    Pattern probabilities of the two-state symmetric model with all three
    pendant edges of length t: (1 + 3x)/4 for the constant pattern and
    (1 - x)/4 for each of the three splits, x = exp(-4t).
    """
    x = math.exp(-4.0 * t)
    q = [(1.0 + 3.0 * x) / 4.0] + [(1.0 - x) / 4.0] * 3
    return tuple(int(v) for v in rng.multinomial(n, q))


def _job_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _scan_pass(rng, jobs):
    offset = int(rng.integers(len(CATALOG)))
    out = []
    for k in range(len(CATALOG)):
        spec = CATALOG[(offset + k) % len(CATALOG)]
        seed = _job_seed(rng)
        argv = ("scan", "--spec", spec, "--t", str(SCAN_T), "--epsilon", str(SCAN_EPSILON),
                "--n-list", ",".join(map(str, SCAN_N_LIST)), "--samples", str(SCAN_SAMPLES),
                "--trials", str(SCAN_TRIALS), "--seed", str(seed), "--jobs", "1")
        params = {"spec": spec, "seed": seed, "trials": SCAN_TRIALS}
        out.append(Job(f"scan {spec}", "scan", argv, params))
    return out


def _posterior_pass(rng, jobs):
    count_vectors = [(",".join(map(str, c)), c) for c in FIXED_COUNTS]
    count_vectors.append(("star", star_counts(SCAN_T, STAR_N, rng)))
    out = []
    for spec in POSTERIOR_PRIORS:
        for label, counts in count_vectors:
            seed = _job_seed(rng)
            argv = ("posterior", "--spec", spec, "--counts", ",".join(map(str, counts)),
                    "--samples", str(POSTERIOR_SAMPLES), "--seed", str(seed), "--jobs", str(jobs))
            params = {"spec": spec, "counts": counts, "seed": seed, "samples": POSTERIOR_SAMPLES}
            out.append(Job(f"posterior {spec} {label}", "posterior", argv, params))
    for spec in CLAIMS_PRIORS:
        seed = _job_seed(rng)
        a = CLAIMS_ARGS
        argv = ("claims", "--spec", spec, "--t", str(a["t"]), "--c", str(a["c"]),
                "--n", str(a["n"]), "--samples", str(a["samples"]), "--seed", str(seed))
        out.append(Job(f"claims {spec}", "claims", argv, {"spec": spec, "seed": seed, **a}))
    return out


def _thresholds_pass(rng, jobs):
    order = rng.permutation(len(CATALOG) + 1)
    out = []
    for k in order:
        seed = _job_seed(rng)
        if k < len(CATALOG):
            spec = CATALOG[k]
            argv = ("prior-check", "--spec", spec, "--t", str(CHECK_T), "--seed", str(seed))
            out.append(Job(f"prior-check {spec}", "prior-check", argv, {"spec": spec}))
        else:
            m = MOMENTS_ARGS
            argv = ("moments", "--dist", "zeta", "--spec", m["spec"], "--z", repr(m["z"]),
                    "--alpha", str(m["alpha"]), "--t-lo", str(m["t_lo"]), "--t-hi", str(m["t_hi"]),
                    "--per-decade", str(m["per_decade"]), "--seed", str(seed))
            out.append(Job("moments zeta", "moments", argv,
                           {**m, "t_star": MOMENTS_T_STAR, "two_t_r_t": MOMENTS_TWO_T_R_T}))
    return out


_PASSES = {"scan": _scan_pass, "posterior": _posterior_pass, "thresholds": _thresholds_pass}

# worker processes each workload asks for, before capping at the CPU count
JOBS = {"scan": 1, "posterior": 2, "thresholds": 1}


def make_pass(workload: str, rng: np.random.Generator, jobs: int) -> list[Job]:
    """The jobs of the next pass; draws job seeds and count vectors from rng."""
    return _PASSES[workload](rng, jobs)


def scan_trials(job: Job) -> int:
    """Posterior estimates one scan job makes (trials at every sequence length)."""
    return job.params["trials"] * len(SCAN_N_LIST)
