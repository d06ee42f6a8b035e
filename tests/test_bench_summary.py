"""``tools/bench_summary.py`` turns benchmark run records into one BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

ENV = {"commit": "abc", "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
       "cpu_count": 2, "cpus_usable": 2, "cpu_model": "cpu", "jobs": 1, "seconds": 34}


def record(workload, seed, setup_s, trace=0, correct=True, **env):
    return {"env": {**ENV, "workload": workload, "seed": seed, "trace": trace, **env},
            "correct": correct,
            "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                        "wall_s": {"value": 2.0 * setup_s, "unit": "s"}}}


def write_runs(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_medians_quartiles_and_environment(tmp_path):
    runs = [record("scan", s, v) for s, v in zip(range(1, 6), (0.5, 0.1, 0.3, 0.2, 0.4))]
    runs += [record("thresholds", 9, 1.0, correct=False), record("scan", 7, 99.0, trace=1)]
    path = write_runs(tmp_path / "runs.jsonl", runs)
    assert bench_summary.main(["--label", "x", "--out-dir", str(tmp_path), str(path)]) == 0
    bench = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert {k: bench[k] for k in ("label", "commit", "python", "numpy", "scipy", "cpu_count")} == {
        "label": "x", "commit": "abc", "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
        "cpu_count": 2}
    scan = bench["workloads"]["scan"]
    assert scan["runs"] == 5 and scan["seeds"] == [1, 2, 3, 4, 5] and scan["all_correct"]
    assert scan["metrics"]["setup_s"] == pytest.approx(
        {"unit": "s", "median": 0.3, "q1": 0.15, "q3": 0.45})
    assert scan["metrics"]["wall_s"]["median"] == pytest.approx(0.6)
    assert bench["workloads"]["thresholds"]["all_correct"] is False
    assert bench["workloads"]["thresholds"]["metrics"]["setup_s"]["q1"] == 1.0


def test_records_of_two_commits_rejected(tmp_path, capsys):
    path = write_runs(tmp_path / "runs.jsonl",
                      [record("scan", 1, 0.3), record("scan", 2, 0.3, commit="def")])
    assert bench_summary.main(["--label", "x", "--out-dir", str(tmp_path), str(path)]) == 2
    assert "disagree on commit" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_x.json").exists()
