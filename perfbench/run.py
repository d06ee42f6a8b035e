#!/usr/bin/env python3
"""Run one benchmark workload of the starparadox CLI and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  One process, one client, closed loop: each job is an
in-process ``starparadox.cli.main(argv)`` call started after the previous
one returns.  Passes of jobs (see ``workloads.py``) repeat while
another one, as long as the median pass so far, still ends within
``--seconds``; every job's output is checked after its pass,
outside the timed region.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported,
times in reference seconds (``calibrate.py``).
With ``--trace 1`` one pass runs without tracing, for the overhead figure;
then traced passes record spans around each layer (``spans.py``) and the
per-layer metrics are reported, per pass.  The last line of standard
output is one JSON object; the lines before it are a readable report.  A
record of the run, with the environment, is appended to
``perfbench/_results/runs.jsonl`` (see ``compare.py``).  README.md beside
this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "fixtures" / "oracle.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = HERE / "_work"
RESULTS = HERE / "_results"
SETUP_PROBES = 5

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


class SetupError(Exception):
    """The checkout cannot run the benchmark; nothing is measured."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=RESULTS / "runs.jsonl",
                   help="JSON-lines file the run record is appended to")
    return p.parse_args(argv)


def load_program():
    """Import the CLI from the checkout's src/ (nothing to build for Python)."""
    if not (SRC / "starparadox" / "cli.py").is_file():
        raise SetupError(f"no starparadox sources under {SRC}")
    if not ORACLE.is_file():
        raise SetupError(f"missing oracle fixture {ORACLE}")
    sys.path.insert(0, str(SRC))
    import starparadox.cli as cli
    return cli


def load_spec() -> dict:
    if not SPEC.is_file():
        raise SetupError(f"missing {SPEC}")
    with open(SPEC, "r", encoding="utf-8") as fh:
        return json.load(fh)


def setup_probe() -> float:
    """Wall time of a fresh interpreter that imports the CLI: the start-up cost of a job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import starparadox.cli"], env=env,
                          cwd=ROOT, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"importing starparadox failed:\n{proc.stderr}")
    return seconds


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, jobs: int) -> dict:
    import scipy
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                             None)
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_pass(cli, jobs: list, pass_dir: Path,
             calibrator=None) -> tuple[float, list[tuple[int, float, float]]]:
    """Run the jobs back to back.

    Returns the pass wall time and, per job, (exit code, seconds, reference
    seconds).  With a calibrator, calibration batches run before the first
    job and after each job; the pass wall time leaves them out.  Without
    one, reference seconds equal seconds.
    """
    argvs = [list(job.argv) + ["--out", str(pass_dir / str(k))] for k, job in enumerate(jobs)]
    results = []
    clock = time.perf_counter
    calibrating = 0.0
    t_pass = clock()
    if calibrator is not None:
        before = calibrator.lead()
        calibrating += sum(before)
    for argv in argvs:
        t0 = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = clock() - t0
        reference = seconds
        if calibrator is not None:
            after = calibrator.follow(seconds)
            calibrating += sum(after)
            reference = calibrate.to_reference(seconds, before, after)
            before = after
        results.append((code, seconds, reference))
    return clock() - t_pass - calibrating, results


def check_pass(jobs, results, pass_dir: Path, oracle: dict, declared: dict) -> list[str]:
    failures = []
    for k, (job, (code, _, _)) in enumerate(zip(jobs, results)):
        if code != 0:
            failures.append(f"{' '.join(job.argv)}: exit code {code}")
            continue
        try:
            checks.check_job(job, pass_dir / str(k), oracle, declared)
        except (checks.CheckFailed, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            failures.append(f"{' '.join(job.argv)}: {type(exc).__name__}: {exc}")
    return failures


def _median(values):
    return float(statistics.median(values))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def median_jobs(passes: list[dict], field: str = "job_ref_s") -> dict[str, float]:
    """Each job's median time over the run's passes, by job key."""
    return {key: _median([p[field][key] for p in passes]) for key in passes[0][field]}


def workload_metrics(passes: list[dict], typical: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-command seconds of a typical pass, scan throughput, and the plain pass times."""
    out = {}
    command_s = {}
    for key, seconds in typical.items():
        command = key.split()[0]
        command_s[command] = command_s.get(command, 0.0) + seconds
    for command, seconds in sorted(command_s.items()):
        out[command.replace("-", "_") + "_s"] = (seconds, "s")
    if "scan" in command_s:
        out["trials_per_s"] = (passes[0]["scan_trials"] / command_s["scan"], "1/s")
    walls = [p["wall_s"] for p in passes]
    q1, q3 = _quartiles(walls)
    out["pass_s_median"] = (_median(walls), "s")
    out["pass_s_q1"], out["pass_s_q3"] = (q1, "s"), (q3, "s")
    out["passes"] = (len(passes), "count")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        cli = load_program()
        from starparadox.priors import DiscretePrior, parse_prior
    except (SetupError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    with open(ORACLE, "r", encoding="utf-8") as fh:
        oracle = json.load(fh)
    declared = {s: parse_prior(s).declared_tempering() for s in wl.CATALOG}
    jobs_n = max(1, min(wl.JOBS[args.workload], len(os.sched_getaffinity(0))))
    env = environment(args, jobs_n)
    rng = np.random.default_rng(args.seed)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    passes, failures, attempted = [], [], 0
    tracer = None
    untraced_wall = None

    def one_pass(index: int) -> dict:
        nonlocal attempted
        jobs = wl.make_pass(args.workload, rng, jobs_n)
        pass_dir = run_dir / f"pass{index}"
        wall, results = run_pass(cli, jobs, pass_dir, calibrator)
        failures.extend(check_pass(jobs, results, pass_dir, oracle, declared))
        shutil.rmtree(pass_dir, ignore_errors=True)
        attempted += len(jobs)
        scan_trials = sum(wl.scan_trials(j) for j in jobs if j.command == "scan")
        return {"wall_s": wall, "scan_trials": scan_trials,
                "job_s": {job.key: r[1] for job, r in zip(jobs, results)},
                "job_ref_s": {job.key: r[2] for job, r in zip(jobs, results)}}

    calibrator = None if args.trace else calibrate.Calibrator()
    setup, setup_ref, workers_rss_mb = [], [], 0.0
    off_clock = 0.0  # set-up probes and their calibration do not count against --seconds

    def probe() -> None:
        nonlocal off_clock
        t0 = time.perf_counter()
        before = calibrator.lead()
        setup.append(setup_probe())
        after = calibrator.follow(setup[-1])
        setup_ref.append(calibrate.to_reference(setup[-1], before, after))
        off_clock += time.perf_counter() - t0

    t_start = time.perf_counter()
    try:
        if args.trace:
            untraced_wall = one_pass(0)["wall_s"]
            tracer = spans.Tracer()
            tracer.install()
        loop_s = []  # each loop turn: pass plus its checks, without set-up probes
        while True:
            t_turn = time.perf_counter()
            probed = off_clock
            passes.append(one_pass(len(passes) + 1))
            if len(passes) == 1:
                # before any set-up probe, the only children are pool workers
                workers_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if not args.trace and len(setup) < SETUP_PROBES:
                # probes between passes sample the machine at different moments
                probe()
            loop_s.append(time.perf_counter() - t_turn - (off_clock - probed))
            # start another pass only if a typical one still ends within --seconds
            if time.perf_counter() - t_start - off_clock + _median(loop_s) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not args.trace and len(setup) < SETUP_PROBES:
            probe()
    except SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(failures)
    typical = median_jobs(passes)
    extra = workload_metrics(passes, typical)
    extra["error_rate"] = (failed / attempted, "ratio")
    extra["workers_peak_rss_mb"] = (workers_rss_mb, "MB")

    if args.trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = spans.per_layer_metrics(tracer, names, [p["wall_s"] for p in passes],
                                         untraced_wall, lambda a, b: DiscretePrior(a, b).r)
    else:
        # gated times are in reference seconds (calibrate.py)
        measured = {
            "setup_s": _median(setup_ref),
            "wall_s": sum(typical.values()),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": (attempted - failed) / attempted,
        }
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: measured[name] for name in names}
        extra["wall_raw_s"] = (sum(median_jobs(passes, "job_s").values()), "s")
        extra["setup_raw_s"] = (_median(setup), "s")
        q1, q3 = _quartiles(setup_ref)
        extra["setup_s_q1"], extra["setup_s_q3"] = (q1, "s"), (q3, "s")
        extra["setup_probes"] = (len(setup), "count")
        extra["cal_factor"] = (calibrator.factor(), "ratio")
        extra["cal_pieces"] = (len(calibrator.pieces), "count")

    print(f"perfbench {args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"{attempted} jobs, trace {args.trace}")
    for name in names:
        print(f"  {name:42s} {values[name]:.6g} {units[name]}")
    print("  workload metrics (tracing " + ("on" if args.trace else "off") + "):")
    for name, (value, unit) in extra.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for message in failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    record = {
        "env": env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
        "workload_metrics": {n: {"value": v, "unit": u} for n, (v, u) in extra.items()},
        "passes": passes,
    }
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
