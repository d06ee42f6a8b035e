"""Command-line surface.

Subcommands:

    simulate     star-tree pattern counts -> counts.csv
    posterior    tree posterior for one count vector -> posterior.json
    scan         paradox scan over sequence lengths -> scan.csv
    prior-check  temperedness verdict for a prior -> verdict.json
    moments      moment curve and threshold scan -> moments.csv, threshold.json
    claims       band-advantage and conditional-dominance reports -> claims.json
    replay       rerun a command from its manifest

Priors are given either as shorthand (``uniform:1.0``, ``power:0.5``,
``discrete:0.1,0.5``, ``logti``, ``tlogti``, ``tame``) via --spec, or as a
JSON file via --spec-file, never both.  --jobs (worker processes) exists
only on posterior, scan and replay; only scan splits its work into chunks,
and posterior, which integrates deterministically, validates --samples
and --jobs but uses neither.  Every command writes a ``manifest.json`` next
to its outputs.
``replay --manifest ...`` parses the manifest's argv as a fresh run would
(a ``replay --jobs N`` last) and exits 3 naming each output whose SHA-256
differs from the recorded one.  Exit codes: 0 success, 2 invalid usage,
arguments or paths, 3 runtime failure.  The environment variable
STARPARADOX_SEED supplies the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .claims import conditional_ratio_scan, in_band_advantage
from .manifest import RunManifest, write_csv_rows
from .model import PatternCounts, counts_in_band
from .moments import (
    BetaTailV,
    ConditionalZetaV,
    PointMassOneV,
    QuadraticV,
    UniformV,
    _check_scan,
    geometric_grid,
    moment_curve,
    threshold_from_gap,
)
from .posterior import paradox_scan, simulate_counts, tree_posterior
from .priors import QuadratureError, parse_prior, prior_from_dict, prior_from_json
from .tempering import check_tempered

_ENV_SEED = "STARPARADOX_SEED"


def _seed(text: str) -> int:
    """The type of --seed; its default, $STARPARADOX_SEED, goes through it too."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an integer >= 0 (from --seed or ${_ENV_SEED}), got {text!r}")


def _load_prior(args):
    """The prior named by --spec or --spec-file, or None when neither is given."""
    if getattr(args, "spec_file", None):
        with open(args.spec_file, "r", encoding="utf-8") as fh:
            return prior_from_json(fh.read())
    if getattr(args, "spec", None):
        return parse_prior(args.spec)
    return None


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _finite(x: float):
    """JSON-safe float: None stands in for an overflowed (infinite) ratio."""
    return x if math.isfinite(x) else None


def _parse_counts(text: str) -> PatternCounts:
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValueError("counts must be four comma-separated integers")
    return PatternCounts(*parts)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the list of output files
# ---------------------------------------------------------------------------

def _cmd_simulate(args, out: Path) -> list[Path]:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 7]))
    draws = (simulate_counts(args.t, args.n, rng) for _ in range(args.trials))
    first = next(draws)  # a bad --t or --n raises here, before counts.csv is opened
    rows = ((trial, c.n0, c.n1, c.n2, c.n3)
            for trial, c in enumerate(itertools.chain([first], draws)))
    path = out / "counts.csv"
    write_csv_rows(path, ("trial", "n0", "n1", "n2", "n3"), rows)
    return [path]


def _cmd_posterior(args, out: Path) -> list[Path]:
    """posterior.json from the deterministic rule of ``tree_posterior``.

    ``--samples`` and ``--jobs`` are still validated, recorded and echoed
    (``n_samples``), but the rule draws nothing and starts no process.
    """
    counts = _parse_counts(args.counts)
    weights = tuple(float(v) for v in args.weights.split(","))
    if args.samples < 1000:
        raise ValueError(f"samples (--samples) must be >= 1000, got {args.samples!r}")
    if args.jobs < 1:
        raise ValueError(f"jobs (--jobs) must be >= 1, got {args.jobs!r}")
    print("note: posterior integrates E[K_i] deterministically; "
          "--samples and --jobs do not change its numbers", file=sys.stderr)
    est = tree_posterior(args.prior, counts, weights)
    path = out / "posterior.json"
    _write_json(
        path,
        {
            "prior": args.prior.to_dict(),
            "counts": counts.array.tolist(),
            "weights": list(weights),
            "posterior": est.posterior.tolist(),
            "log_expected_kernel": est.log_epi.tolist(),
            "stderr_log": est.error.tolist(),
            "n_samples": args.samples,
        },
    )
    return [path]


def _cmd_scan(args, out: Path) -> list[Path]:
    n_list = [int(v) for v in args.n_list.split(",")]
    results = paradox_scan(
        args.prior, args.t, args.epsilon, n_list, args.trials, args.samples, args.seed,
        jobs=args.jobs,
    )
    path = out / "scan.csv"
    rows = [
        (r.n, r.epsilon, r.delta_hat, r.ci_lo, r.ci_hi, r.trials, args.seed)
        for r in results
    ]
    write_csv_rows(path, ("n", "epsilon", "delta_hat", "ci_lo", "ci_hi", "trials", "seed"), rows)
    return [path]


def _cmd_prior_check(args, out: Path) -> list[Path]:
    verdict = check_tempered(args.prior, args.t)
    path = out / "verdict.json"
    _write_json(path, {"prior": args.prior.to_dict(), "t": args.t, **verdict.summary()})
    return [path]


_DISTS = {"uniform01": UniformV, "const1": PointMassOneV, "quadratic": QuadraticV}


def _cmd_moments(args, out: Path) -> list[Path]:
    if args.dist in _DISTS:
        dist = _DISTS[args.dist]()
    elif args.dist.startswith("beta:"):
        dist = BetaTailV(float(args.dist.split(":", 1)[1]))
    elif args.dist == "zeta":
        if args.prior is None:
            raise ValueError("--dist zeta needs a prior: pass --spec or --spec-file")
        if args.z is None:
            raise ValueError("--z is required for --dist zeta")
        dist = ConditionalZetaV(args.prior, args.z)
    else:
        raise ValueError(
            f"unknown distribution {args.dist!r}; known: "
            f"{sorted(_DISTS)} plus 'beta:<alpha>' and 'zeta'"
        )
    grid = _check_scan(args.alpha, geometric_grid(args.t_lo, args.t_hi, args.per_decade))
    try:
        curve = moment_curve(dist, grid)
    except QuadratureError as exc:  # a measured bound of the rule, reported as one
        raise ValueError(f"{exc}; the rule cannot resolve this tail on the grid") from None
    scan = threshold_from_gap(curve[:, 4], args.alpha, grid)
    curve_path = out / "moments.csv"
    write_csv_rows(curve_path, ("t", "m_t", "m_t_plus_1", "r_t", "two_t_r_t"), curve)
    thr_path = out / "threshold.json"
    _write_json(
        thr_path,
        {"alpha": args.alpha, "reached": scan.reached, "t_star": scan.t_star,
         "grid_lo": args.t_lo, "grid_hi": args.t_hi, "per_decade": args.per_decade},
    )
    return [curve_path, thr_path]


def _cmd_claims(args, out: Path) -> list[Path]:
    """Band-advantage and conditional-dominance reports for j = 2 and 3.

    Both estimators get the same prior instance, ``--samples`` and ``--seed``,
    so they read one set of prior draws, sampled and turned into pattern
    log-probabilities once (common random numbers).  They run for j = 2 only:
    the j = 3 reports are the same reports relabelled (see below).
    """
    counts = counts_in_band(args.n, args.t, args.c)
    # counts_in_band sets n_3 = n_2, and K_j reads the counts only through n0, n_j
    # and n, so K_3 = K_2 draw by draw.  Claim 2 first: it rejects a bad
    # --z-points before the draws are made.
    scan = conditional_ratio_scan(
        args.prior, args.t, counts, args.c, 2, args.z_points, args.samples, args.seed
    )
    adv = in_band_advantage(args.prior, args.t, counts, args.c, 2, args.samples, args.seed)
    r1, r2 = ({j: dataclasses.replace(r, j=j) for j in (2, 3)} for r in (adv, scan))
    def claim2_dict(r):
        d = dataclasses.asdict(r)
        for key in ("min_ratio_over_c2", "min_ratio_over_3c2", "min_ratio_over_4c2"):
            d[key] = _finite(d[key])
        return d
    path = out / "claims.json"
    _write_json(
        path,
        {
            "prior": args.prior.to_dict(),
            "t": args.t, "c": args.c, "n": args.n,
            "counts": counts.array.tolist(),
            "band_advantage": {str(j): dataclasses.asdict(r) for j, r in r1.items()},
            "conditional_dominance": {str(j): claim2_dict(r) for j, r in r2.items()},
        },
    )
    return [path]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "posterior": _cmd_posterior,
    "scan": _cmd_scan,
    "prior-check": _cmd_prior_check,
    "moments": _cmd_moments,
    "claims": _cmd_claims,
}


def _replay_argv(parser, manifest: RunManifest, replay) -> list[str]:
    """The argv of the run that ``manifest`` records, writing to ``replay.out``: each
    value as ``--flag=value`` (so a negative number is not read as a flag)."""
    if not isinstance(manifest.command, str) or manifest.command not in _COMMANDS:
        raise ValueError(f"manifest names unknown command {manifest.command!r}")
    actions = [a for a in _command_parser(parser, manifest.command)._actions
               if a.dest not in ("help", "out", "seed", "spec", "spec_file")]
    missing = sorted(a.dest for a in actions if a.dest not in manifest.params)
    if missing:
        raise ValueError(
            f"manifest {replay.manifest}: {manifest.command} params lack {', '.join(missing)}"
        )
    argv = [manifest.command]
    argv += [f"{a.option_strings[0]}={manifest.params[a.dest]}" for a in actions
             if manifest.params[a.dest] is not None]
    argv += [f"--seed={manifest.seed}", f"--out={replay.out}"]
    if manifest.prior is not None:
        prior = prior_from_dict(manifest.prior)  # params() is in constructor order
        argv.append(f"--spec={prior.kind}:{','.join(map(repr, prior.params().values()))}")
    if replay.jobs is not None:
        argv.append(f"--jobs={replay.jobs}")  # last, so it overrides the recorded value
    return argv


def _emit_manifest(command: str, args, out: Path, outputs: list[Path]) -> RunManifest:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("out", "command", "prior", "spec", "spec_file")
    }
    prior_dict = None if args.prior is None else args.prior.to_dict()
    seed = params.pop("seed")
    manifest = RunManifest(
        command=command, params=params, seed=seed, version=__version__, prior=prior_dict
    )
    for path in outputs:
        manifest.add_output(path)
    manifest.finish()
    manifest.write(out / "manifest.json")
    return manifest


def _command_parser(parser, command: str) -> argparse.ArgumentParser:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _parse_args(parser, argv):
    """Parse argv; a --seed left out is read from $STARPARADOX_SEED now, at parse
    time, so one parser serves every call of ``main`` in a process."""
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) is None:
        try:
            args.seed = _seed(os.environ.get(_ENV_SEED, "0"))
        except argparse.ArgumentTypeError as exc:
            _command_parser(parser, args.command).error(f"argument --seed: {exc}")
    return args


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones."""
    top = argparse.ArgumentParser(
        prog="starparadox",
        description="Posteriors, tempered-prior checks and moment scans for "
        "the three-taxon star paradox.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, prior=None, sampling=False, jobs=False):
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=_seed, default=None,
                       help=f"RNG seed (default: ${_ENV_SEED} or 0)")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker processes")
        if prior:
            group = p.add_mutually_exclusive_group(required=prior == "required")
            group.add_argument("--spec", help="prior shorthand, e.g. uniform:1.0")
            group.add_argument("--spec-file", help="path to a prior spec JSON file")
        if sampling:
            p.add_argument("--samples", type=int, default=8192,
                           help="prior draws per estimate")

    p = sub.add_parser("simulate", help="simulate star-tree pattern counts")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    common(p)

    p = sub.add_parser("posterior", help="posterior over the three resolved trees")
    p.add_argument("--counts", required=True, help="n0,n1,n2,n3")
    p.add_argument("--weights", default="1,1,1", help="tree prior weights w1,w2,w3")
    common(p, prior="required", sampling=True, jobs=True)

    p = sub.add_parser("scan", help="paradox scan over sequence lengths")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n-list", required=True, help="ascending lengths, e.g. 100,1000")
    p.add_argument("--trials", type=int, default=200)
    common(p, prior="required", sampling=True, jobs=True)

    p = sub.add_parser("prior-check", help="tempered-prior verdict")
    p.add_argument("--t", type=float, required=True)
    common(p, prior="required")

    p = sub.add_parser("moments", help="moment curve and 2tR_t threshold scan")
    p.add_argument("--dist", required=True,
                   help="uniform01 | const1 | quadratic | beta:<alpha> | zeta")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t-lo", type=float, default=0.05)
    p.add_argument("--t-hi", type=float, default=1000.0)
    p.add_argument("--per-decade", type=int, default=64)
    p.add_argument("--z", type=float, help="conditioning point for --dist zeta")
    common(p, prior="optional")

    p = sub.add_parser("claims", help="band-advantage / conditional-dominance checks")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--c", type=float, default=1.5)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--z-points", type=int, default=8)
    common(p, prior="required", sampling=True)

    p = sub.add_parser("replay", help="rerun a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--jobs", type=int, default=None)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse_args(parser, argv)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        recorded = {}  # output digests that a replay must reproduce
        if args.command == "replay":
            manifest = RunManifest.read(args.manifest)
            recorded = manifest.outputs
            args = _parse_args(parser, _replay_argv(parser, manifest, args))
        args.prior = _load_prior(args)
        outputs = _COMMANDS[args.command](args, out)
        written = _emit_manifest(args.command, args, out, outputs).outputs
        differ = [name for name, digest in written.items() if recorded.get(name, digest) != digest]
        if differ:
            raise RuntimeError(f"outputs differ from the manifest's digests: {', '.join(differ)}")
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
