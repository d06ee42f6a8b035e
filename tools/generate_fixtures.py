#!/usr/bin/env python3
"""Regenerate the frozen fixtures used by the regression tests.

The expensive reference quantities (high-trial paradox scan, 1e7-draw
Monte Carlo posterior, claim magnitudes, band-event enumeration,
conditional-moment thresholds) are computed once here and frozen into
tests/fixtures/oracle.json.  Rerunning this script reproduces the file
bit for bit; the tests then recheck desk-scale runs against these values
within combined Monte Carlo error.

``--pins`` instead writes tests/fixtures/pinned_outputs.json, one case per
line: a CLI argv, the SHA-256 of each output as that run's manifest.json
records it, and the ``replay --jobs`` values whose replays must reproduce
them.  The cases cover every command: ``scan`` per catalog prior at a small
configuration (replayed at ``--jobs 2``), ``posterior`` per catalog prior at
the benchmark's count vectors, ``prior-check`` per catalog prior, the
benchmark's ``moments`` job, its ``claims`` arguments per continuous catalog
prior at one fixed seed, and one ``simulate`` run.  tests/test_cli.py reruns
every case; regenerate the pins only when a change to an output is intended.

    PYTHONPATH=src python tools/generate_fixtures.py [--pins]
"""

from __future__ import annotations

import argparse
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
PINS_OUT = _ROOT / "tests" / "fixtures" / "pinned_outputs.json"

SCAN_SEED = 777001
POSTERIOR_SEED = 777002
CLAIM_SEED = 777003
SCAN_PIN_SEED = 777004
CLAIMS_PIN_SEED = 777005

CATALOG = ("tame", "uniform:1.0", "power:0.5", "logti", "tlogti", "discrete:0.1,0.5")
# each pinned argv names its prior first, so that a case's name tells it apart early
SCAN_ARGS = (
    "--t", "0.1", "--epsilon", "0.05", "--n-list", "100,1000,10000",
    "--trials", "60", "--samples", "1024", "--seed", str(SCAN_PIN_SEED), "--jobs", "1",
)
# the benchmark's posterior count vectors: two fixed ones and its n = 10^4 star counts
POSTERIOR_COUNTS = ("753,130,59,58", "777,68,78,77", "7464,827,851,858")
# the benchmark's claims arguments; discrete:0.1,0.5 leaves a z band empty there
CLAIMS_ARGS = (
    "--t", "0.1", "--c", "1.5", "--n", "10000", "--samples", "1000000",
    "--seed", str(CLAIMS_PIN_SEED),
)
MOMENTS_ARGV = (
    "moments", "--dist", "zeta", "--spec", "uniform:1.0", "--z", "2.0109601381069178",
    "--alpha", "0.5", "--t-lo", "0.5", "--t-hi", "500.0", "--per-decade", "1",
)
SIMULATE_ARGV = ("simulate", "--t", "0.1", "--n", "1000", "--trials", "500", "--seed", "9")


def pinned_cases() -> list[tuple[list[str], list[int]]]:
    """Each pinned run's argv, and the ``replay --jobs`` values that must reproduce it."""
    cases = [(["scan", "--spec", spec, *SCAN_ARGS], [2]) for spec in CATALOG]
    cases += [(["posterior", "--spec", spec, "--counts", counts], [])
              for spec in CATALOG for counts in POSTERIOR_COUNTS]
    cases += [(["prior-check", "--spec", spec, "--t", "0.1"], []) for spec in CATALOG]
    cases += [(["claims", "--spec", spec, *CLAIMS_ARGS], []) for spec in CATALOG[:5]]
    return cases + [(list(MOMENTS_ARGV), []), (list(SIMULATE_ARGV), [])]


def write_pins() -> None:
    """Run every pinned case and write its argv, output digests and replay legs.

    Prints each case whose digests differ from the file it replaces (argv, then
    output: old -> new short digest) and how many cases stayed as they were.
    """
    old = {}
    if PINS_OUT.exists():
        old = {tuple(c["argv"]): c["outputs"] for c in json.loads(PINS_OUT.read_text(encoding="utf-8"))}
    lines, stayed = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, (argv, replay_jobs) in enumerate(pinned_cases()):
            out = Path(tmp) / str(k)
            code = cli_main([*argv, "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            outputs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
            case = {"argv": argv, "outputs": outputs, "replay_jobs": replay_jobs}
            lines.append(json.dumps(case, sort_keys=True))
            before = old.get(tuple(argv), {})
            if before == outputs:
                stayed += 1
                continue
            print(f"moved: {' '.join(argv)}")
            for name in sorted(set(before) | set(outputs)):
                if before.get(name) != outputs.get(name):
                    print(f"  {name}: {before.get(name, '-')[:12]} -> {outputs.get(name, '-')[:12]}")
    PINS_OUT.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"{stayed} of {len(lines)} cases unchanged; wrote {PINS_OUT}")


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
    parser.add_argument("--pins", action="store_true",
                        help=f"write only {PINS_OUT.relative_to(_ROOT)}")
    if parser.parse_args(argv).pins:
        write_pins()
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
