#!/usr/bin/env python3
"""Regenerate the frozen oracle fixtures used by the regression tests.

The expensive reference quantities (high-trial paradox scan, 1e7-draw
Monte Carlo posterior, claim magnitudes, band-event enumeration,
conditional-moment thresholds) are computed once here and frozen into
tests/fixtures/oracle.json.  Rerunning this script reproduces the file
bit for bit; the tests then recheck desk-scale runs against these values
within combined Monte Carlo error.

``--scan-digests`` instead writes tests/fixtures/scan_digests.json: the
SHA-256 of ``scan.csv`` for each catalog prior at a small configuration and
``--jobs 1`` and ``2``.  The tests recompute them, so any change to the
scan's random streams or hit decisions shows up as a digest mismatch.

``--threshold-digests`` writes tests/fixtures/threshold_digests.json: the
SHA-256 of ``verdict.json`` for each catalog prior at ``--t 0.1``, and of
``moments.csv`` and ``threshold.json`` for one conditional-zeta moment scan
(the benchmark's ``moments`` job).  These outputs are deterministic, so the
tests pin them byte for byte.

``--posterior-digests`` writes tests/fixtures/posterior_digests.json: the
SHA-256 of ``posterior.json`` for each catalog prior at the benchmark's
count vectors, with the default ``--samples`` and ``--jobs``.  The
posterior rule is deterministic, so the tests pin its bytes.

``--claims-digests`` writes tests/fixtures/claims_digests.json: the SHA-256
of ``claims.json`` for each continuous catalog prior at the benchmark's
``claims`` arguments and one fixed seed.  The draws are seeded, so the tests
pin the Monte Carlo reports byte for byte.

    PYTHONPATH=src python tools/generate_fixtures.py \
        [--scan-digests | --threshold-digests | --posterior-digests | --claims-digests]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from starparadox.cli import main as cli_main
from starparadox.claims import conditional_ratio_scan, in_band_advantage
from starparadox.model import PatternCounts, counts_in_band
from starparadox.moments import ConditionalZetaV, geometric_grid, threshold_scan
from starparadox.posterior import paradox_scan
from starparadox.priors import UniformPrior
from starparadox.tempering import default_z_grid

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "tests"))
from oracles import band_event_probability, mc_log_expected_kernels  # noqa: E402

OUT = _ROOT / "tests" / "fixtures" / "oracle.json"
SCAN_DIGESTS_OUT = _ROOT / "tests" / "fixtures" / "scan_digests.json"
THRESHOLD_DIGESTS_OUT = _ROOT / "tests" / "fixtures" / "threshold_digests.json"
POSTERIOR_DIGESTS_OUT = _ROOT / "tests" / "fixtures" / "posterior_digests.json"
CLAIMS_DIGESTS_OUT = _ROOT / "tests" / "fixtures" / "claims_digests.json"

SCAN_SEED = 777001
POSTERIOR_SEED = 777002
CLAIM_SEED = 777003
SCAN_DIGEST_SEED = 777004
CLAIMS_DIGEST_SEED = 777005

CATALOG = ("tame", "uniform:1.0", "power:0.5", "logti", "tlogti", "discrete:0.1,0.5")
SCAN_DIGEST_ARGV = (
    "scan", "--t", "0.1", "--epsilon", "0.05", "--n-list", "100,1000,10000",
    "--trials", "60", "--samples", "1024", "--seed", str(SCAN_DIGEST_SEED),
)
# the benchmark's posterior count vectors: two fixed ones and its n = 10^4 star counts
POSTERIOR_COUNTS = ("753,130,59,58", "777,68,78,77", "7464,827,851,858")
# the benchmark's claims arguments; discrete:0.1,0.5 leaves a z band empty there
CLAIMS_SPECS = CATALOG[:5]
CLAIMS_ARGV = (
    "claims", "--t", "0.1", "--c", "1.5", "--n", "10000", "--samples", "1000000",
    "--seed", str(CLAIMS_DIGEST_SEED),
)

PRIOR_CHECK_ARGV = ("prior-check", "--t", "0.1")
MOMENTS_ARGV = (
    "moments", "--dist", "zeta", "--spec", "uniform:1.0", "--z", "2.0109601381069178",
    "--alpha", "0.5", "--t-lo", "0.5", "--t-hi", "500.0", "--per-decade", "1",
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(argv, out: Path) -> None:
    code = cli_main([*argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def write_scan_digests() -> None:
    """Freeze the SHA-256 of scan.csv per catalog prior and worker count."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in CATALOG:
            digests[spec] = {}
            for jobs in ("1", "2"):
                out = Path(tmp) / f"{spec}-{jobs}"
                _run([*SCAN_DIGEST_ARGV, "--spec", spec, "--jobs", jobs], out)
                digests[spec][jobs] = _sha256(out / "scan.csv")
    with open(SCAN_DIGESTS_OUT, "w", encoding="utf-8") as fh:
        json.dump({"argv": list(SCAN_DIGEST_ARGV), "sha256": digests}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {SCAN_DIGESTS_OUT}")


def write_threshold_digests() -> None:
    """Freeze the SHA-256 of the prior-check and moments outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        verdicts = {}
        for spec in CATALOG:
            out = Path(tmp) / spec
            _run([*PRIOR_CHECK_ARGV, "--spec", spec], out)
            verdicts[spec] = _sha256(out / "verdict.json")
        out = Path(tmp) / "moments"
        _run(MOMENTS_ARGV, out)
        moments = {name: _sha256(out / name) for name in ("moments.csv", "threshold.json")}
    fixture = {
        "prior_check": {"argv": list(PRIOR_CHECK_ARGV), "sha256": verdicts},
        "moments": {"argv": list(MOMENTS_ARGV), "sha256": moments},
    }
    with open(THRESHOLD_DIGESTS_OUT, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {THRESHOLD_DIGESTS_OUT}")


def write_posterior_digests() -> None:
    """Freeze the SHA-256 of posterior.json per catalog prior and count vector."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in CATALOG:
            digests[spec] = {}
            for counts in POSTERIOR_COUNTS:
                out = Path(tmp) / f"{spec}-{counts}"
                _run(["posterior", "--spec", spec, "--counts", counts], out)
                digests[spec][counts] = _sha256(out / "posterior.json")
    with open(POSTERIOR_DIGESTS_OUT, "w", encoding="utf-8") as fh:
        json.dump({"argv": ["posterior"], "sha256": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {POSTERIOR_DIGESTS_OUT}")


def write_claims_digests() -> None:
    """Freeze the SHA-256 of claims.json per continuous catalog prior."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in CLAIMS_SPECS:
            out = Path(tmp) / spec
            _run([*CLAIMS_ARGV, "--spec", spec], out)
            digests[spec] = _sha256(out / "claims.json")
    with open(CLAIMS_DIGESTS_OUT, "w", encoding="utf-8") as fh:
        json.dump({"argv": list(CLAIMS_ARGV), "sha256": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {CLAIMS_DIGESTS_OUT}")


def posterior_753(prior) -> dict:
    """log E[K_i] of the counts (753, 130, 59, 58) from 10^7 prior draws (tests/oracles.py)."""
    counts = PatternCounts(753, 130, 59, 58)
    rows = mc_log_expected_kernels(prior, counts, 10**7, POSTERIOR_SEED)
    log_epi = np.array([r.log_mean for r in rows])
    # normalised by np.sum, as when this fixture was frozen; tree_posterior now uses fsum
    log_post = np.log(np.full(3, 1.0 / 3.0)) + log_epi
    post = np.exp(log_post - log_post.max())
    return {
        "counts": counts.array.tolist(),
        "n_samples": 10**7,
        "seed": POSTERIOR_SEED,
        "log_epi": log_epi.tolist(),
        "stderr": [r.stderr for r in rows],
        "posterior": (post / post.sum()).tolist(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Regenerate the frozen test fixtures.")
    only = parser.add_mutually_exclusive_group()
    only.add_argument("--scan-digests", action="store_true",
                      help=f"write only {SCAN_DIGESTS_OUT.relative_to(_ROOT)}")
    only.add_argument("--threshold-digests", action="store_true",
                      help=f"write only {THRESHOLD_DIGESTS_OUT.relative_to(_ROOT)}")
    only.add_argument("--posterior-digests", action="store_true",
                      help=f"write only {POSTERIOR_DIGESTS_OUT.relative_to(_ROOT)}")
    only.add_argument("--claims-digests", action="store_true",
                      help=f"write only {CLAIMS_DIGESTS_OUT.relative_to(_ROOT)}")
    args = parser.parse_args(argv)
    if args.scan_digests:
        write_scan_digests()
        return
    if args.threshold_digests:
        write_threshold_digests()
        return
    if args.posterior_digests:
        write_posterior_digests()
        return
    if args.claims_digests:
        write_claims_digests()
        return
    prior = UniformPrior(1.0)
    fx: dict = {"prior": prior.to_dict(), "t": 0.1}

    # 1. paradox scan at 10x the desk trial count
    scan_cfg = {
        "epsilon": 0.05,
        "n_list": [100, 1000, 10000],
        "trials": 20000,
        "n_samples": 4096,
        "seed": SCAN_SEED,
    }
    rows = paradox_scan(prior, 0.1, scan_cfg["epsilon"], scan_cfg["n_list"],
                        scan_cfg["trials"], scan_cfg["n_samples"], SCAN_SEED)
    fx["paradox_scan"] = {
        **scan_cfg,
        "delta_hat": [r.delta_hat for r in rows],
        "ci_lo": [r.ci_lo for r in rows],
        "ci_hi": [r.ci_hi for r in rows],
    }

    # 2. high-sample Monte Carlo posterior for the reference count vector
    fx["posterior_753"] = posterior_753(prior)

    # 3. claim magnitudes on a band count vector at n = 1e4
    band = counts_in_band(10000, 0.1, 1.5)
    claim1 = {}
    for j in (2, 3):
        r = in_band_advantage(prior, 0.1, band, 1.5, j, 10**6, CLAIM_SEED)
        claim1[str(j)] = {"log_ratio": r.log_ratio, "se_ratio": r.se_ratio}
    claim2 = {}
    for c in (1.5, 3.0, 6.0):
        bc = counts_in_band(10000, 0.1, c)
        r = conditional_ratio_scan(prior, 0.1, bc, c, 2, 8, 10**6, CLAIM_SEED)
        k = int(np.argmin(r.log_ratio - 2.0 * np.log(c)))
        claim2[f"{c:g}"] = {
            "counts": bc.array.tolist(),
            "min_log_gap": float(r.log_ratio[k] - 2.0 * np.log(c)),
            "se_at_min": float(r.se_ratio[k]),
        }
    fx["claims"] = {
        "band_counts": band.array.tolist(),
        "n_samples": 10**6,
        "seed": CLAIM_SEED,
        "claim1": claim1,
        "claim2": claim2,
    }

    # 4. band-event probabilities by exact enumeration
    fx["band_event"] = {
        "spec_point": {
            "t": 0.1, "c": 1.5,
            "n": [10000, 20000, 40000],
            "prob": [band_event_probability(n, 0.1, 1.5) for n in (10000, 20000, 40000)],
        },
        "moderate_point": {
            "t": 2.0, "c": 1.05,
            "n": [10000, 20000, 40000],
            "prob": [band_event_probability(n, 2.0, 1.05) for n in (10000, 20000, 40000)],
        },
    }

    # 5. thresholds of the conditional zeta-transformed variable across z
    grid = geometric_grid(0.5, 5000.0, 32)
    tstars = []
    for z in default_z_grid(0.1, 5):
        scan = threshold_scan(ConditionalZetaV(prior, float(z)), 0.5, grid)
        tstars.append(scan.t_star)
    fx["zeta_threshold"] = {
        "alpha": 0.5,
        "z_grid": [float(z) for z in default_z_grid(0.1, 5)],
        "grid_lo": 0.5, "grid_hi": 5000.0, "per_decade": 32,
        "t_star": tstars,
    }

    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(fx, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    sys.exit(main())
