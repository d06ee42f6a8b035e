#!/usr/bin/env python3
"""Compare two benchmark result files; a report, never a gate.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``run.py`` appends them (``--results``),
typically ten seeds per workload from one commit.  For every workload,
trace setting and metric the report gives each side's run count, median
and quartiles (``statistics.quantiles(values, n=4)``), and the ratio of
the new median to the base median, with the base named.  Where
BENCHMARK.json sets a bound, the last column says whether the new median
is worse than the base by more than it.  The exit code is 0 whatever the
numbers say; timing noise must not fail a build.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """{(workload, trace): {metric: (unit, [values])}} from a JSON-lines file."""
    out = defaultdict(lambda: defaultdict(lambda: [None, []]))
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            group = out[(rec["env"]["workload"], rec["env"]["trace"])]
            for section in ("metrics", "workload_metrics"):
                for name, m in rec.get(section, {}).items():
                    group[name][0] = m["unit"]
                    group[name][1].append(m["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)
    spec = json.loads(SPEC.read_text()) if SPEC.is_file() else {}
    metric_spec = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}

    print(f"base = {args.base}, new = {args.new}; ratio = new median / base median")
    header = (f"{'workload':11s} {'tr':2s} {'metric':40s} {'unit':6s} {'n':>5s} "
              f"{'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} {'ratio':>8s}  note")
    print(header)
    for key in sorted(set(base) | set(new)):
        names = list(dict.fromkeys(list(base[key]) + list(new[key])))
        for name in names:
            unit, b = base[key][name]
            unit_new, n = new[key][name]
            unit = unit or unit_new
            cells, meds = [], []
            for values in (b, n):
                if values:
                    med, q1, q3 = summary(values)
                    cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
                    meds.append(med)
                else:
                    cells.append("-")
                    meds.append(None)
            ratio = meds[1] / meds[0] if None not in meds and meds[0] else None
            note = ""
            m = metric_spec.get(name)
            if ratio is not None and m is not None and "bound" in m:
                worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
                note = f"worse by {worse:.1%} > bound {m['bound']:.0%}" if worse > m["bound"] else ""
            ratio_text = f"{ratio:.3f}" if ratio is not None else "-"
            print(f"{key[0]:11s} {key[1]:<2d} {name:40s} {unit:6s} {len(b):>2d}/{len(n):<2d} "
                  f"{cells[0]:>34s} {cells[1]:>34s} {ratio_text:>8s}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
