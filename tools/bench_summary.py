#!/usr/bin/env python3
"""Summarize benchmark runs of one commit into ``BENCH_<label>.json``.

    python3 tools/bench_summary.py --label LABEL RUNS.jsonl [MORE.jsonl ...]

Reads the run records that ``perfbench/run.py --results FILE`` appends
(one JSON object per line) and writes ``BENCH_<label>.json`` at the root
of the checkout (or under ``--out-dir``).  For each workload it gives the
median and quartiles (``statistics.quantiles(values, n=4)``, as
``perfbench/compare.py`` reports them) of the gated end-to-end metrics,
the run count, the seeds, and whether every run passed its checks.  The
environment (CPU count and model, Python, numpy and scipy versions, and
the commit) is read from each record's ``env`` and must be the same in
every record: a summary of two commits or two machines would hide which
one a number belongs to.  Traced runs (``--trace 1``) carry per-layer
metrics instead and are skipped.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("commit", "python", "numpy", "scipy", "cpu_count", "cpus_usable", "cpu_model")


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def summarize(records: list[dict], label: str) -> dict:
    records = [r for r in records if r["env"]["trace"] == 0]
    if not records:
        raise ValueError("no untraced (--trace 0) run records")
    env = {key: records[0]["env"][key] for key in ENV_KEYS}
    for rec in records:
        differ = [key for key in ENV_KEYS if rec["env"][key] != env[key]]
        if differ:
            raise ValueError(f"records disagree on {', '.join(differ)}; summarize one commit "
                             "on one machine at a time")
    workloads = {}
    for name in sorted({r["env"]["workload"] for r in records}):
        runs = [r for r in records if r["env"]["workload"] == name]
        metrics = {}
        for metric, m in runs[0]["metrics"].items():
            metrics[metric] = {"unit": m["unit"],
                               **summary([r["metrics"][metric]["value"] for r in runs])}
        workloads[name] = {"runs": len(runs), "seeds": [r["env"]["seed"] for r in runs],
                           "all_correct": all(r["correct"] for r in runs), "metrics": metrics}
    return {"label": label, **env, "workloads": workloads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    p.add_argument("results", type=Path, nargs="+", help="JSON-lines files of run records")
    args = p.parse_args(argv)
    records = []
    for path in args.results:
        with open(path, "r", encoding="utf-8") as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    try:
        bench = summarize(records, args.label)
    except ValueError as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
