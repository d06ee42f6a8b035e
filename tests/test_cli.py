import copy
import csv
import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def run_cli(*args, env_extra=None, cwd=None):
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "starparadox.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def run_main(*args):
    """In-process CLI call: the exit code, without a new interpreter's start-up cost."""
    from starparadox.cli import main

    return main(list(args))


def exit_code(*args):
    """main's exit code, reading an argparse rejection's ``SystemExit`` as its code."""
    try:
        return run_main(*args)
    except SystemExit as exc:
        return exc.code


def fresh_manifest(argv, out) -> dict:
    """Run a command into ``out`` and return the manifest it wrote."""
    assert run_main(*argv, "--out", str(out)) == 0
    return json.loads((out / "manifest.json").read_text())


PINS = json.loads((Path(__file__).parent / "fixtures" / "pinned_outputs.json").read_text(
    encoding="utf-8"))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_rows_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            r = run_cli("simulate", "--t", "0.1", "--n", "1000", "--trials", "10",
                        "--seed", "7", "--out", str(out))
            assert r.returncode == 0, r.stderr
        assert (a / "counts.csv").read_bytes() == (b / "counts.csv").read_bytes()
        rows = read_csv(a / "counts.csv")
        assert rows[0] == ["trial", "n0", "n1", "n2", "n3"]
        assert len(rows) == 11
        for row in rows[1:]:
            assert sum(int(v) for v in row[1:]) == 1000

    def test_zero_length_rejected_naming_flag(self, tmp_path):
        r = run_cli("simulate", "--t", "0.1", "--n", "0", "--out", str(tmp_path))
        assert r.returncode == 2
        assert "--n" in r.stderr

    def test_length_beyond_int64_rejected_naming_flag(self, tmp_path, capsys):
        # numpy's multinomial reads n as a C long: 10^20 would overflow it
        assert run_main("simulate", "--t", "0.1", "--n", str(10**20), "--out", str(tmp_path)) == 2
        assert "(--n) must lie in [1, 2**63 - 1]" in capsys.readouterr().err

    def test_manifest_digest_matches(self, tmp_path):
        r = run_cli("simulate", "--t", "0.1", "--n", "50", "--trials", "2",
                    "--seed", "3", "--out", str(tmp_path))
        assert r.returncode == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        digest = hashlib.sha256((tmp_path / "counts.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["counts.csv"] == digest
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 3

    @pytest.mark.parametrize("argv", [
        ("simulate", "--t", "0.1", "--n", "10"),
        ("prior-check", "--spec", "uniform:1.0", "--t", "0.1"),
        ("moments", "--dist", "uniform01", "--alpha", "1"),
        ("claims", "--spec", "uniform:1.0", "--t", "0.1"),
    ], ids=lambda argv: argv[0])
    def test_jobs_only_where_used(self, tmp_path, argv):
        r = run_cli(*argv, "--jobs", "2", "--out", str(tmp_path))
        assert r.returncode == 2
        assert "unrecognized arguments: --jobs" in r.stderr

    def test_env_seed_default(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            r = run_cli("simulate", "--t", "0.1", "--n", "100", "--out", str(out),
                        env_extra={"STARPARADOX_SEED": "123"})
            assert r.returncode == 0
        assert (a / "counts.csv").read_bytes() == (b / "counts.csv").read_bytes()
        assert json.loads((a / "manifest.json").read_text())["seed"] == 123


class TestSeedValidated:
    """--seed and its default from STARPARADOX_SEED go through one check on every command."""

    ARGV = {
        "simulate": ("simulate", "--t", "0.1", "--n", "10"),
        "posterior": ("posterior", "--spec", "tame", "--counts", "753,130,59,58"),
        "scan": ("scan", "--spec", "tame", "--t", "0.1", "--epsilon", "0.05", "--n-list", "100",
                 "--trials", "2", "--samples", "100"),
        "prior-check": ("prior-check", "--spec", "tame", "--t", "0.1"),
        "moments": ("moments", "--dist", "uniform01", "--alpha", "1", "--per-decade", "1"),
        "claims": ("claims", "--spec", "tame", "--t", "0.1", "--samples", "1000"),
    }

    def test_every_command_listed(self):
        from starparadox.cli import _COMMANDS

        assert set(self.ARGV) == set(_COMMANDS)

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_negative_seed(self, tmp_path, capsys, command):
        assert exit_code(*self.ARGV[command], "--seed", "-1", "--out", str(tmp_path)) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_malformed_environment_seed(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("STARPARADOX_SEED", "abc")
        assert exit_code(*self.ARGV[command], "--out", str(tmp_path)) == 2
        assert "STARPARADOX_SEED" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()
        # a seed on the command line overrides the malformed default
        assert exit_code(*self.ARGV[command], "--seed", "3", "--out", str(tmp_path)) == 0


class TestOneParser:
    """main builds its parser once per process, on its first call; $STARPARADOX_SEED is
    read at each parse."""

    ARGV = ("simulate", "--t", "0.1", "--n", "10")

    def test_env_seed_read_per_call(self, tmp_path, capsys, monkeypatch):
        from starparadox.cli import build_parser

        for seed in ("5", "6"):
            monkeypatch.setenv("STARPARADOX_SEED", seed)
            assert run_main(*self.ARGV, "--out", str(tmp_path / seed)) == 0
            assert json.loads((tmp_path / seed / "manifest.json").read_text())["seed"] == int(seed)
        monkeypatch.setenv("STARPARADOX_SEED", "-2")
        assert exit_code(*self.ARGV, "--out", str(tmp_path / "bad")) == 2
        assert "STARPARADOX_SEED" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "manifest.json").exists()
        assert build_parser() is build_parser()

    def test_not_built_at_import(self):
        r = subprocess.run([sys.executable, "-c", "import starparadox.cli as cli; "
                            "print(cli.build_parser.cache_info().currsize)"],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "0"


class TestSimulateRows:
    """simulate writes each counts.csv row as it draws it."""

    def test_memory_does_not_grow_with_trials(self, tmp_path):
        import tracemalloc

        peaks = {}
        for trials in (1000, 100_000):
            tracemalloc.start()
            assert run_main("simulate", "--t", "0.1", "--n", "50", "--trials", str(trials),
                            "--out", str(tmp_path / str(trials))) == 0
            peaks[trials] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[100_000] <= 2 * peaks[1000], peaks


class TestPosterior:
    def test_symmetric_counts(self, tmp_path):
        r = run_cli("posterior", "--spec", "uniform:1.0", "--counts", "700,100,100,100",
                    "--samples", "3000", "--seed", "5", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        d = json.loads((tmp_path / "posterior.json").read_text())
        assert d["posterior"] == [d["posterior"][0]] * 3
        assert abs(sum(d["posterior"]) - 1.0) < 1e-12

    def test_ti_mode_above_the_support(self, tmp_path):
        # tree 1's Ti mode lies above uniform:1.0's support; 0.3.0 exited 3 (DegenerateEstimate)
        assert run_main("posterior", "--spec", "uniform:1.0", "--counts", "0,2706,0,0",
                        "--out", str(tmp_path)) == 0
        d = json.loads((tmp_path / "posterior.json").read_text())
        assert all(math.isfinite(v) for v in d["log_expected_kernel"] + d["stderr_log"])

    @pytest.mark.parametrize("theta", ["2e-17", "1e-20", "1e-300"])
    def test_tiny_uniform_support(self, tmp_path, theta):
        # v at the top of the support, -expm1(-4 theta), stays above 0 here, where
        # 1 - (y_min - 1)/2 rounds to 0 (math domain error, exit 2)
        assert run_main("posterior", "--spec", f"uniform:{theta}", "--counts", "0,1,0,0",
                        "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "posterior.json").read_text())["posterior"] == [1 / 3] * 3

    @pytest.mark.parametrize("huge, unit", [("1e308,1e308,1e308", "1,1,1"),
                                            ("1e308,1e308,1e307", "10,10,1")])
    def test_huge_finite_weights(self, tmp_path, huge, unit):
        # their sum overflows; 0.3.1 exited 3 (OverflowError: intermediate overflow in fsum)
        posteriors = []
        for weights in (huge, unit):
            out = tmp_path / weights
            assert run_main("posterior", "--spec", "uniform:1.0", "--counts", "753,130,59,58",
                            "--weights", weights, "--out", str(out)) == 0
            posteriors.append(json.loads((out / "posterior.json").read_text())["posterior"])
        assert posteriors[0] == pytest.approx(posteriors[1], rel=1e-14)

    def test_malformed_spec_file(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{not json")
        r = run_cli("posterior", "--spec-file", str(bad), "--counts", "7,1,1,1",
                    "--out", str(tmp_path))
        assert r.returncode == 2

    def test_spec_and_spec_file_exclusive(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "tame", "params": {}}')
        r = run_cli("posterior", "--spec", "uniform:1.0", "--spec-file", str(spec),
                    "--counts", "7,1,1,1", "--out", str(tmp_path))
        assert r.returncode == 2
        assert "not allowed with" in r.stderr

    def test_unknown_prior_kind(self, tmp_path):
        r = run_cli("posterior", "--spec", "levy:1.0", "--counts", "7,1,1,1",
                    "--out", str(tmp_path))
        assert r.returncode == 2


class TestPosteriorDeterministic:
    """posterior integrates E[K_i] by a rule: no draw, no pool; --samples and --jobs are inert."""

    ARGV = ("posterior", "--spec", "discrete:0.1,0.5", "--counts", "7464,827,851,858")

    def test_jobs_2_starts_no_process_pool(self, tmp_path, monkeypatch, capsys):
        import concurrent.futures

        import starparadox.posterior as posterior

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was constructed")

        monkeypatch.setattr(posterior, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert run_main(*self.ARGV, "--samples", "1048576", "--jobs", "2",
                        "--out", str(tmp_path)) == 0
        d = json.loads((tmp_path / "posterior.json").read_text())
        assert [round(p, 4) for p in d["posterior"]] == [0.0423, 0.3217, 0.636]
        assert d["n_samples"] == 1048576
        assert "--samples and --jobs do not change its numbers" in capsys.readouterr().err

    def test_samples_jobs_and_seed_change_no_number(self, tmp_path):
        outs = []
        for extra in (("--samples", "1000"), ("--samples", "65536", "--jobs", "2", "--seed", "9")):
            out = tmp_path / str(len(outs))
            assert run_main(*self.ARGV, *extra, "--out", str(out)) == 0
            outs.append(json.loads((out / "posterior.json").read_text()))
        assert [o.pop("n_samples") for o in outs] == [1000, 65536]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("samples", ["999", "0"])
    def test_samples_below_1000_rejected(self, tmp_path, capsys, samples):
        assert run_main(*self.ARGV, "--samples", samples, "--out", str(tmp_path)) == 2
        assert f"--samples) must be >= 1000, got {samples}" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    FRESH = ("posterior", "--spec", "uniform:1.0", "--counts", "753,130,59,58",
             "--samples", "4096", "--seed", "3")
    # posterior.json of FRESH under 0.2.0, which averaged the kernels over 4096 prior draws
    DIGEST_0_2_0 = "a676d19eea59ed0e6ad7f58dc78d12538e1c0ea26e61e3833dd23be4623a1d21"

    def test_manifest_of_0_2_0_replays_with_exit_3(self, tmp_path, capsys):
        manifest = fresh_manifest(self.FRESH, tmp_path / "fresh")
        assert manifest["version"] == "0.3.7"
        manifest["version"] = "0.2.0"
        manifest["outputs"]["posterior.json"] = self.DIGEST_0_2_0
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_main("replay", "--manifest", str(path), "--out", str(tmp_path / "replayed")) == 3
        assert "digests: posterior.json" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fresh_manifest_replays_byte_identically(self, tmp_path, jobs):
        fresh_manifest(self.FRESH, tmp_path / "fresh")
        replayed = tmp_path / "replayed"
        assert run_main("replay", "--manifest", str(tmp_path / "fresh" / "manifest.json"),
                        "--jobs", jobs, "--out", str(replayed)) == 0
        assert ((replayed / "posterior.json").read_bytes()
                == (tmp_path / "fresh" / "posterior.json").read_bytes())


class TestPriorArgumentsValidated:
    """A prior spec with the wrong parameters exits 2 naming the kind's parameters."""

    @pytest.mark.parametrize("spec, message", [
        ("uniform", "uniform takes (theta)"),
        ("logti:1", "logti takes ()"),
        ("discrete:0.1", "discrete takes (a, b)"),
    ])
    def test_shorthand(self, tmp_path, capsys, spec, message):
        assert run_main("prior-check", "--spec", spec, "--t", "0.1", "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("obj", [{"kind": "uniform", "params": {"th": 1}}, {"kind": "uniform"}])
    def test_spec_file(self, tmp_path, capsys, obj):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert run_main("prior-check", "--spec-file", str(spec), "--t", "0.1",
                        "--out", str(tmp_path)) == 2
        assert "uniform takes (theta)" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [{"theta": [1.0]}, {"theta": None}])
    def test_spec_file_value_of_wrong_type(self, tmp_path, capsys, params):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "uniform", "params": params}))
        assert run_main("prior-check", "--spec-file", str(spec), "--t", "0.1",
                        "--out", str(tmp_path)) == 2
        assert "uniform parameters must be numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["uniform"], {"uniform": 1}, 3])
    def test_non_string_kind(self, tmp_path, capsys, kind):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": kind, "params": {}}))
        assert run_main("prior-check", "--spec-file", str(spec), "--t", "0.1",
                        "--out", str(tmp_path)) == 2
        assert "malformed prior spec" in capsys.readouterr().err

    def test_non_string_kind_in_replay(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "prior-check", "params": {"t": 0.1}, "seed": 0, "version": "0",
            "prior": {"kind": ["uniform"], "params": {"theta": 1.0}},
        }))
        out = tmp_path / "out"
        assert run_main("replay", "--manifest", str(manifest), "--out", str(out)) == 2
        assert "malformed prior spec" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestDrawCountsValidated:
    """Out-of-range sample, trial and band counts exit 2 naming the flag, before any prior draw."""

    SCAN = ("scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "0.05", "--n-list", "100")
    CLAIMS = ("claims", "--spec", "uniform:1.0", "--t", "0.1")

    @pytest.mark.parametrize("argv, named", [
        (SCAN + ("--samples", "0", "--trials", "3"), "--samples"),
        (SCAN + ("--samples", "0", "--trials", "100"), "--samples"),
        (CLAIMS + ("--samples", "0"), "--samples"),
        (SCAN + ("--trials", "100000000000000000000"), "--trials) must be in [1, 64000192]"),
        # the bands tile I_t, which at most --samples draws reach: some band would stay empty
        (CLAIMS + ("--samples", "1000", "--z-points", "2000000"),
         "--z-points) must not exceed n_samples (--samples), got 2000000 > 1000"),
    ], ids=["scan-3-trials", "scan-100-trials", "claims", "scan-trials-above-bound",
            "claims-z-points-above-samples"])
    def test_samples(self, tmp_path, capsys, monkeypatch, argv, named):
        from starparadox.priors import Prior

        def no_draw(*args, **kwargs):
            raise AssertionError("prior sampled before the check")

        monkeypatch.setattr(Prior, "sample", no_draw)
        start = time.perf_counter()
        assert run_main(*argv, "--out", str(tmp_path)) == 2
        assert time.perf_counter() - start < 1.0
        assert named in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("extra, named", [
        (("--c", "inf"), "--c"),
        (("--c", "nan"), "--c"),
        (("--c", "1e300"), "--c"),
        (("--n", "-5"), "--n"),
        (("--n", "3"), "--n"),
        (("--t", "1e-9"), "--n"),
    ], ids=["c-inf", "c-nan", "c-1e300", "n-negative", "n-3", "t-1e-9"])
    def test_band_inputs(self, tmp_path, capsys, extra, named):
        # the band counts are rounded from n and c before any draw; a negative one is
        # a band that n cannot realize, not a malformed count vector
        argv = (*self.CLAIMS, "--samples", "1000", *extra)
        assert run_main(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert named in err and len(err) < 200
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("z_points", ["0", "-1"])
    def test_z_points(self, tmp_path, capsys, z_points):
        argv = (*self.CLAIMS, "--samples", "4000", "--z-points", z_points)
        assert run_main(*argv, "--out", str(tmp_path)) == 2
        assert f"--z-points) must be >= 1, got {z_points}" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_z_points_before_any_draw(self, tmp_path, capsys, monkeypatch):
        from starparadox.priors import Prior

        def no_draw(*args, **kwargs):
            raise AssertionError("prior sampled before the check")

        monkeypatch.setattr(Prior, "sample", no_draw)
        assert run_main(*self.CLAIMS, "--z-points", "0", "--out", str(tmp_path)) == 2
        assert "--z-points" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestReplayMalformedManifest:
    @pytest.mark.parametrize("manifest, message", [
        ({"command": "scan"}, "lacks params, seed, version"),
        ({"params": {}, "seed": 1}, "lacks command, version"),
        ({"command": "scan", "params": [], "seed": 1, "version": "0"}, "params must be an object"),
    ])
    def test_rejected(self, tmp_path, capsys, manifest, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run_main("replay", "--manifest", str(path), "--out", str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("manifest, message", [
        ({"command": "scan", "params": {}, "seed": 1, "version": "0"},
         "scan params lack epsilon, jobs, n_list, samples, t, trials"),
        ({"command": "moments", "params": {"dist": "uniform01", "retired": 1}, "seed": 1,
          "version": "0"},
         "moments params lack alpha, per_decade, t_hi, t_lo, z"),
    ], ids=["scan-empty", "moments-dist-only"])
    def test_missing_params_named(self, tmp_path, capsys, manifest, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert run_main("replay", "--manifest", str(path), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_extra_params_accepted(self, tmp_path):
        # a manifest may record a parameter that a later version removed
        orig = tmp_path / "orig"
        assert run_main("prior-check", "--spec", "uniform:1.0", "--t", "0.1",
                        "--out", str(orig)) == 0
        manifest = json.loads((orig / "manifest.json").read_text())
        manifest["params"]["retired"] = 1
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        replayed = tmp_path / "replayed"
        assert run_main("replay", "--manifest", str(path), "--out", str(replayed)) == 0
        assert (replayed / "verdict.json").read_bytes() == (orig / "verdict.json").read_bytes()


class TestJobsValidated:
    POSTERIOR = ("posterior", "--spec", "uniform:1.0", "--counts", "7,1,1,1", "--samples", "1000")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        POSTERIOR,
        ("scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "0.05",
         "--n-list", "100", "--trials", "4", "--samples", "1000"),
    ], ids=lambda argv: argv[0])
    def test_below_one_rejected(self, tmp_path, argv, jobs):
        r = run_cli(*argv, "--jobs", jobs, "--out", str(tmp_path))
        assert r.returncode == 2, r.stderr
        assert "--jobs" in r.stderr and f"got {jobs}" in r.stderr
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_replay_below_one_rejected(self, tmp_path, jobs):
        orig = tmp_path / "orig"
        assert run_cli(*self.POSTERIOR, "--out", str(orig)).returncode == 0
        replayed = tmp_path / "replayed"
        r = run_cli("replay", "--manifest", str(orig / "manifest.json"),
                    "--out", str(replayed), "--jobs", jobs)
        assert r.returncode == 2, r.stderr
        assert "--jobs" in r.stderr
        assert not (replayed / "manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_replay_rejected_where_manifest_has_no_jobs(self, tmp_path, jobs):
        orig = tmp_path / "orig"
        r = run_cli("prior-check", "--spec", "uniform:1.0", "--t", "0.1", "--out", str(orig))
        assert r.returncode == 0, r.stderr
        replayed = tmp_path / "replayed"
        r = run_cli("replay", "--manifest", str(orig / "manifest.json"),
                    "--out", str(replayed), "--jobs", jobs)
        assert r.returncode == 2, r.stderr
        assert "--jobs" in r.stderr and "prior-check" in r.stderr
        assert not (replayed / "manifest.json").exists()


PRIOR_CHECK = ("prior-check", "--spec", "uniform:1.0", "--t", "0.1")
SIMULATE = ("simulate", "--t", "0.1", "--n", "10")
DELETE = object()


def edit_field(manifest: dict, path, edit) -> None:
    """Replace the field at ``path`` (a key sequence) by ``edit(old value)``; DELETE drops it."""
    *parents, key = path
    for parent in parents:
        manifest = manifest[parent]
    value = edit(manifest.get(key))
    if value is DELETE:
        manifest.pop(key, None)
    else:
        manifest[key] = value


class TestReplayHandWritten:
    """A fresh run's manifest with one field changed by hand.

    A value that its flag's type cannot read exits 2 naming the flag; one that
    it reads (``"0.1"`` for a float) replays to the typed run's bytes.
    """

    @pytest.mark.parametrize("argv, path, value, named", [
        (PRIOR_CHECK, ("prior",), DELETE, "--spec"),
        (SIMULATE, ("params", "n"), 10.5, "--n"),
        (SIMULATE, ("seed",), "x", "--seed"),
        (PRIOR_CHECK, ("params", "t"), "0.1", None),
        (("scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "0.05", "--n-list", "100",
          "--trials", "4", "--samples", "1000"), ("params", "n_list"), 100, None),
        (TestJobsValidated.POSTERIOR, ("params", "jobs"), "2", None),
    ], ids=["no-prior", "n-float", "seed-str", "t-str", "n_list-int", "jobs-str"])
    def test_replay(self, tmp_path, capsys, argv, path, value, named):
        fresh, replayed = tmp_path / "fresh", tmp_path / "replayed"
        manifest = fresh_manifest(argv, fresh)
        edit_field(manifest, path, lambda old: value)
        edited = tmp_path / "manifest.json"
        edited.write_text(json.dumps(manifest))
        code = exit_code("replay", "--manifest", str(edited), "--out", str(replayed))
        if named:
            assert code == 2
            assert named in capsys.readouterr().err
            assert list(replayed.iterdir()) == []
        else:
            assert code == 0, capsys.readouterr().err
            for name in manifest["outputs"]:
                assert (replayed / name).read_bytes() == (fresh / name).read_bytes()


_VALUES = st.one_of(
    st.text(max_size=6),
    st.integers(-3, 64),
    st.floats(-1e3, 1e3) | st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.integers(0, 3), max_size=2),
    st.none(),
)


class TestReplayFuzz:
    """Deleting, retyping or corrupting one manifest field exits 0 or 2, never 3.

    The base manifests drop ``outputs``, so that a changed but valid value is
    a new run rather than a digest mismatch, which exits 3 on purpose
    (``TestReplayDigestCheck``). Floats stay within +-1e3, plus nan and +-inf:
    a moment scan out to t = 1e10 fails to converge, a defect of the moment
    quadrature rather than of replay.
    """

    BASES = {
        "simulate": SIMULATE,
        "prior-check": PRIOR_CHECK,
        "moments": ("moments", "--dist", "uniform01", "--alpha", "1", "--per-decade", "1"),
    }

    @pytest.fixture(scope="class")
    def bases(self, tmp_path_factory):
        bases = {}
        for name, argv in self.BASES.items():
            bases[name] = fresh_manifest(argv, tmp_path_factory.mktemp(name))
            del bases[name]["outputs"]
        return bases

    @pytest.mark.parametrize("name", sorted(BASES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_never_exit_3(self, bases, name, data):
        manifest = copy.deepcopy(bases[name])
        paths = [(key,) for key in (*manifest, "outputs")]
        paths += [("params", key) for key in manifest["params"]]
        if manifest["prior"] is not None:
            paths += [("prior", "kind"), ("prior", "params")]
            paths += [("prior", "params", key) for key in manifest["prior"]["params"]]
        path = data.draw(st.sampled_from(paths))
        action = data.draw(st.sampled_from(["delete", "retype", "corrupt"]))
        if action == "delete":
            edit_field(manifest, path, lambda old: DELETE)
        elif action == "retype":
            new = data.draw(_VALUES)
            edit_field(manifest, path, lambda old: new)
        else:
            suffix = data.draw(st.text(min_size=1, max_size=2))
            edit_field(manifest, path, lambda old: str(old) + suffix)
        with tempfile.TemporaryDirectory() as tmp:
            edited = Path(tmp) / "manifest.json"
            edited.write_text(json.dumps(manifest))
            code = exit_code("replay", "--manifest", str(edited), "--out", str(Path(tmp) / "out"))
        assert code in (0, 2)


class TestReplayRoundTrip:
    """Replay under another STARPARADOX_SEED reproduces outputs, params, prior and seed."""

    @pytest.mark.parametrize("argv", [
        ("simulate", "--t", "0.1", "--n", "10", "--trials", "2"),
        ("posterior", "--spec", "tame", "--counts", "7,1,1,1", "--samples", "1000"),
        ("scan", "--spec", "discrete:0.1,0.5", "--t", "0.1", "--epsilon", "0.05",
         "--n-list", "100,400", "--trials", "4", "--samples", "1000"),
        ("prior-check", "--spec", "power:0.5", "--t", "0.1"),
        ("moments", "--dist", "uniform01", "--alpha", "1", "--per-decade", "1"),
        ("moments", "--dist", "zeta", "--spec", "uniform:1.0", "--z", "2.0", "--alpha", "0.5",
         "--t-lo", "1", "--t-hi", "1500", "--per-decade", "1"),
        ("claims", "--spec", "logti", "--t", "0.1", "--samples", "4000", "--z-points", "2"),
    ], ids=["simulate", "posterior", "scan", "prior-check", "moments", "moments-prior", "claims"])
    def test_identical(self, tmp_path, monkeypatch, argv):
        fresh, replayed = tmp_path / "fresh", tmp_path / "replayed"
        monkeypatch.setenv("STARPARADOX_SEED", "11")
        m1 = fresh_manifest(argv, fresh)
        monkeypatch.setenv("STARPARADOX_SEED", "12")
        assert run_main("replay", "--manifest", str(fresh / "manifest.json"),
                        "--out", str(replayed)) == 0
        m2 = json.loads((replayed / "manifest.json").read_text())
        assert m1["seed"] == 11
        for key in ("outputs", "params", "prior", "seed"):
            assert m2[key] == m1[key]
        for name in m1["outputs"]:
            assert (replayed / name).read_bytes() == (fresh / name).read_bytes()


class TestReplayDigestCheck:
    """Replay compares its outputs' SHA-256 with the manifest's ``outputs``."""

    def _replay(self, tmp_path, edit):
        manifest = fresh_manifest(SIMULATE, tmp_path / "fresh")
        edit(manifest["outputs"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return run_main("replay", "--manifest", str(path), "--out", str(tmp_path / "replayed"))

    def test_changed_digest_exits_3_naming_file(self, tmp_path, capsys):
        assert self._replay(tmp_path, lambda outputs: outputs.update({"counts.csv": "0" * 64})) == 3
        assert "digests: counts.csv" in capsys.readouterr().err
        # the outputs and the new manifest are written before the check
        assert (tmp_path / "replayed" / "manifest.json").exists()

    def test_unrecorded_names_not_checked(self, tmp_path):
        assert self._replay(tmp_path, lambda outputs: outputs.clear()) == 0


class TestPathArguments:
    """A directory where a file is expected, or a file where a directory is, exits 2."""

    @pytest.mark.parametrize("argv, error", [
        (("replay", "--manifest", "{dir}", "--out", "{dir}/out"), "Is a directory"),
        (("replay", "--manifest", "{file}/manifest.json", "--out", "{dir}/out"), "Not a directory"),
        (("prior-check", "--spec-file", "{dir}", "--t", "0.1", "--out", "{dir}/out"),
         "Is a directory"),
        (("simulate", "--t", "0.1", "--n", "10", "--out", "{file}"), "File exists"),
    ], ids=["manifest-is-dir", "manifest-under-file", "spec-file-is-dir", "out-is-file"])
    def test_exit_2(self, tmp_path, capsys, argv, error):
        file = tmp_path / "file"
        file.write_text("x")
        assert run_main(*(a.format(dir=tmp_path, file=file) for a in argv)) == 2
        assert error in capsys.readouterr().err


class TestScan:
    def test_schema_and_jobs_invariance(self, tmp_path):
        common = ["scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "0.05",
                  "--n-list", "100,400", "--trials", "80", "--samples", "2048",
                  "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        ra = run_cli(*common, "--jobs", "1", "--out", str(a))
        rb = run_cli(*common, "--jobs", "2", "--out", str(b))
        assert ra.returncode == 0 and rb.returncode == 0, ra.stderr + rb.stderr
        assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
        rows = read_csv(a / "scan.csv")
        assert rows[0] == ["n", "epsilon", "delta_hat", "ci_lo", "ci_hi", "trials", "seed"]
        assert [row[0] for row in rows[1:]] == ["100", "400"]

    def test_epsilon_validated(self, tmp_path):
        r = run_cli("scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "1.5",
                    "--n-list", "100", "--out", str(tmp_path))
        assert r.returncode == 2

    def test_length_beyond_int64_rejected_naming_flag(self, tmp_path, capsys):
        assert run_main("scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "0.05",
                        "--n-list", f"100,{10**20}", "--out", str(tmp_path)) == 2
        assert "n_list (--n-list) must be ascending integers in [1, 2**63 - 1]" in (
            capsys.readouterr().err)

    def test_replay_is_byte_identical(self, tmp_path):
        out = tmp_path / "orig"
        r = run_cli("scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "0.05",
                    "--n-list", "100", "--trials", "60", "--samples", "2048",
                    "--seed", "4", "--out", str(out))
        assert r.returncode == 0, r.stderr
        replayed = tmp_path / "replayed"
        r2 = run_cli("replay", "--manifest", str(out / "manifest.json"),
                     "--out", str(replayed), "--jobs", "2")
        assert r2.returncode == 0, r2.stderr
        assert (out / "scan.csv").read_bytes() == (replayed / "scan.csv").read_bytes()
        m1 = json.loads((out / "manifest.json").read_text())
        m2 = json.loads((replayed / "manifest.json").read_text())
        assert m1["outputs"]["scan.csv"] == m2["outputs"]["scan.csv"]
        assert m2["prior"] == m1["prior"] == {"kind": "uniform", "params": {"theta": 1.0}}
        # the stored prior is passed straight through: nothing else lands in --out
        assert sorted(p.name for p in replayed.iterdir()) == ["manifest.json", "scan.csv"]

    # scan.csv of the pinned uniform:1.0 scan under 0.1.0, whose scan drew every
    # trial's prior sample from the chunk's count stream
    DIGEST_0_1_0 = "758bd0afb411ab728497615680b625cb63644ab3ad6137d767693db9da6ee8a0"

    def test_manifest_of_0_1_0_replays_to_new_bytes(self, tmp_path, capsys):
        argv = next(c["argv"] for c in PINS if c["argv"][:3] == ["scan", "--spec", "uniform:1.0"])
        manifest = fresh_manifest(argv, tmp_path / "fresh")
        manifest["version"] = "0.1.0"
        manifest["outputs"]["scan.csv"] = self.DIGEST_0_1_0
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_main("replay", "--manifest", str(path), "--out", str(tmp_path / "replayed")) == 3
        assert "digests: scan.csv" in capsys.readouterr().err


class TestPinnedOutputs:
    """Each case of tests/fixtures/pinned_outputs.json writes the outputs it pins.

    A case is a CLI argv, the SHA-256 of each output as its manifest records
    it, and the ``replay --jobs`` values whose replays must reproduce those
    digests (replay itself exits 3 on a mismatch).  Regenerate the file with
    ``tools/generate_fixtures.py --pins`` only when a change to an output is
    intended.
    """

    @pytest.mark.parametrize("case", PINS, ids=lambda case: " ".join(case["argv"]))
    def test_run(self, tmp_path, case):
        assert fresh_manifest(case["argv"], tmp_path / "fresh")["outputs"] == case["outputs"]
        for jobs in case["replay_jobs"]:
            assert run_main("replay", "--manifest", str(tmp_path / "fresh" / "manifest.json"),
                            "--jobs", str(jobs), "--out", str(tmp_path / f"replay-{jobs}")) == 0

    def test_commands(self):
        from starparadox.cli import _COMMANDS

        assert {case["argv"][0] for case in PINS} == set(_COMMANDS)
        assert all(case["outputs"] for case in PINS)


class TestSmallADiscrete:
    """Valid discrete priors with small a, where p = (b + j)/a in the tail series passes 171."""

    @pytest.mark.parametrize("spec", ["discrete:0.01,0.04", "discrete:0.005,0.02"])
    def test_prior_check(self, tmp_path, spec):
        assert run_main("prior-check", "--spec", spec, "--t", "0.1", "--out", str(tmp_path)) == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["tempered"] is True
        assert verdict["condition1"]["alpha"] == pytest.approx(4.0, rel=1e-6)

    def test_posterior_and_scan(self, tmp_path):
        assert run_main("posterior", "--spec", "discrete:0.01,0.04", "--counts", "753,130,59,58",
                        "--samples", "4096", "--out", str(tmp_path / "post")) == 0
        post = json.loads((tmp_path / "post" / "posterior.json").read_text())["posterior"]
        assert sum(post) == pytest.approx(1.0) and post[0] > 0.99
        assert run_main("scan", "--spec", "discrete:0.01,0.04", "--t", "0.1", "--epsilon", "0.05",
                        "--n-list", "100,1000", "--trials", "20", "--samples", "1024",
                        "--out", str(tmp_path / "scan")) == 0


class TestPriorBounds:
    """Priors the constructor accepts run on the G path and the posterior, or exit 2 up front."""

    POSTERIOR = ("posterior", "--counts", "753,130,59,58")

    @pytest.mark.parametrize("spec", ["discrete:0.1,inf", "discrete:0.1,50", "discrete:0.1,500",
                                      "discrete:1e-9,0.5", "discrete:nan,0.5"])
    @pytest.mark.parametrize("command", ["prior-check", "posterior"])
    def test_discrete_rejected_naming_a_and_b(self, tmp_path, capsys, spec, command):
        argv = ("prior-check", "--t", "0.1") if command == "prior-check" else self.POSTERIOR
        assert run_main(*argv, "--spec", spec, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "got a=" in err and ", b=" in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("spec", ["discrete:0.1,5", "discrete:0.005,0.016", "discrete:0.3333,1",
                                      "discrete:0.001,0.004", "discrete:1e-9,4e-9"])
    def test_discrete_at_the_bounds_runs(self, tmp_path, spec):
        assert run_main("prior-check", "--spec", spec, "--t", "0.1",
                        "--out", str(tmp_path / "check")) == 0
        assert run_main(*self.POSTERIOR, "--spec", spec, "--out", str(tmp_path / "post")) == 0

    @pytest.mark.parametrize("theta", ["3e-3", "1e-3", "1e-9"])
    def test_small_theta_power_prior_check(self, tmp_path, theta):
        # the leading term (4/3) k^theta / theta below 1e-16 z carries most of H
        assert run_main("prior-check", "--spec", f"power:{theta}", "--t", "0.1",
                        "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("spec, t", [("discrete:0.1,5", "0.01"), ("discrete:0.1,5", "0.5"),
                                         ("discrete:0.1,5", "2"), ("discrete:0.1,5", "10"),
                                         ("discrete:0.1,0.5", "1e-6")])
    def test_discrete_g_in_log_scale(self, tmp_path, capsys, spec, t):
        # G ~ s^(b/a) is formed as exp(-b (log n - log n_sat)): where it is representable
        # the fit reads its exponent; where it lies below the float range, exit 2 names that
        code = run_main("prior-check", "--spec", spec, "--t", t, "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert "vanished" not in err and "underflows to 0" not in err
        if code == 2:
            assert "smallest normal float" in err
            return
        assert code == 0
        a, b = map(float, spec.split(":")[1].split(","))
        cond1 = json.loads((tmp_path / "verdict.json").read_text())["condition1"]
        exponent = cond1.get("alpha", cond1.get("leading_exponent"))
        assert exponent == pytest.approx(b / a, rel=0.02)

    def test_underflow_names_z_as_a_float(self, tmp_path, capsys):
        # a fast Te and a slow Ti put H(z, s_sat) below the float range at the top z
        assert run_main("prior-check", "--spec", "tame:1000,0.001", "--t", "30",
                        "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "H(z, s_sat) underflows to 0 at z=9.2011776884664e-54 for" in err
        assert "np.float64" not in err

    def test_small_theta_power_moments_fail_the_d_t_gate(self, tmp_path, capsys):
        # D_t = 5.5e-10 at t = 0.5 while M_t is near 1: D_t's error estimate passes the
        # 1e-9·M_t gate but is 2.7e-6 of D_t, so R_t would be reported below its accuracy
        assert run_main("moments", "--dist", "zeta", "--spec", "power:1e-9", "--z", "2",
                        "--alpha", "0.5", "--t-lo", "0.5", "--t-hi", "500", "--per-decade", "1",
                        "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "did not converge for D_t at t=0.5" in err and "the gate 1e-9·D_t" in err
        assert not (tmp_path / "moments.csv").exists()

    def test_small_theta_power_posterior(self, tmp_path):
        assert run_main(*self.POSTERIOR, "--spec", "power:1e-9", "--out", str(tmp_path)) == 0

    def test_power_0_01_stays_tempered(self, tmp_path):
        assert run_main("prior-check", "--spec", "power:0.01", "--t", "0.1",
                        "--out", str(tmp_path)) == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["tempered"] is True
        assert verdict["condition1"]["alpha"] == pytest.approx(0.01, rel=0.02)

    @settings(max_examples=24, deadline=None)
    @given(data=st.data())
    def test_never_exit_3(self, data):
        kind = data.draw(st.sampled_from(["power", "discrete"]))
        if kind == "power":
            spec = f"power:{data.draw(st.floats(1e-9, 1.0, exclude_max=True))!r}"
        else:
            a = data.draw(st.floats(1e-9, 1.0 / 3.0, exclude_max=True))
            # half the draws near the accepted b/a <= 50, the rest anywhere up to 1e3
            near = st.floats(3.0, 60.0, exclude_min=True).map(lambda ratio: ratio * a)
            b = data.draw((near | st.floats(3.0 * a, 1e3, exclude_min=True))
                          .filter(lambda b: 3.0 * a < b <= 1e3))
            spec = f"discrete:{a!r},{b!r}"
        with tempfile.TemporaryDirectory() as tmp:
            for argv in (("prior-check", "--t", "0.1"), self.POSTERIOR):
                code = exit_code(*argv, "--spec", spec, "--out", tmp)
                assert code in (0, 2), (spec, argv[0])


class TestPriorCheckExtremeT:
    """Every catalog prior at extreme t: a verdict or exit 2, never exit 3."""

    @pytest.mark.parametrize("t", ["1e-9", "10", "86", "87", "88", "92"])
    @pytest.mark.parametrize("spec", ["tame", "uniform:1.0", "power:0.5", "logti", "tlogti",
                                      "discrete:0.1,0.5"])
    def test_never_exit_3(self, tmp_path, spec, t):
        assert run_main("prior-check", "--spec", spec, "--t", t, "--out", str(tmp_path)) in (0, 2)

    @pytest.mark.parametrize("spec", ["power:0.5", "logti"])
    def test_limit_named_up_front(self, tmp_path, capsys, spec):
        # both run at t = 85; above it the s-grid nears the subnormal range
        assert run_main("prior-check", "--spec", spec, "--t", "85", "--out", str(tmp_path)) == 0
        assert run_main("prior-check", "--spec", spec, "--t", "85.01", "--out", str(tmp_path)) == 2
        assert "t (--t) must lie in (0, 85]" in capsys.readouterr().err


class TestPriorCheck:
    def test_uniform_tempered(self, tmp_path):
        r = run_cli("prior-check", "--spec", "uniform:1.0", "--t", "0.1",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        d = json.loads((tmp_path / "verdict.json").read_text())
        assert d["tempered"] is True

    def test_large_t_rejected_naming_t(self, tmp_path):
        # rejected up front above t = 85; from about 93 the band interval itself is unusable
        r = run_cli("prior-check", "--spec", "uniform:1.0", "--t", "100", "--out", str(tmp_path))
        assert r.returncode == 2, r.stderr
        assert "t=100.0" in r.stderr

    def test_uniform_large_theta_tempered(self, tmp_path):
        # y_min = 1 + 2 exp(-80) rounds to 1: the saturated H must not cancel
        assert run_main("prior-check", "--spec", "uniform:20", "--t", "0.5",
                        "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "verdict.json").read_text())["tempered"] is True

    def test_logti_not_tempered(self, tmp_path):
        r = run_cli("prior-check", "--spec", "logti", "--t", "0.1", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        d = json.loads((tmp_path / "verdict.json").read_text())
        assert d["tempered"] is False
        assert "log" in d["condition1"]["diagnostic"]


class TestMoments:
    def test_uniform_threshold(self, tmp_path):
        r = run_cli("moments", "--dist", "uniform01", "--alpha", "1",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        d = json.loads((tmp_path / "threshold.json").read_text())
        assert d["reached"] is True
        step = 10 ** (1 / d["per_decade"])
        assert 2.0 / step <= d["t_star"] <= 2.0 * step
        rows = read_csv(tmp_path / "moments.csv")
        assert rows[0] == ["t", "m_t", "m_t_plus_1", "r_t", "two_t_r_t"]

    def test_unknown_dist(self, tmp_path):
        r = run_cli("moments", "--dist", "gauss", "--alpha", "1", "--out", str(tmp_path))
        assert r.returncode == 2


    @pytest.mark.parametrize("flags,named", [
        (("--alpha", "1", "--t-lo", "0"), "lo=0.0"),
        (("--alpha", "1", "--t-hi", "inf"), "hi=inf"),
        (("--alpha", "1", "--t-lo", "-1"), "lo=-1.0"),
        (("--alpha", "1", "--t-lo", "10", "--t-hi", "1"), "lo=10.0, hi=1.0"),
        (("--alpha", "nan"), "alpha must be finite and > 0, got nan"),
    ], ids=["t-lo-zero", "t-hi-inf", "t-lo-negative", "t-lo-above-t-hi", "alpha-nan"])
    def test_bad_grid_or_alpha_rejected(self, tmp_path, flags, named):
        r = run_cli("moments", "--dist", "uniform01", *flags, "--out", str(tmp_path))
        assert r.returncode == 2, r.stderr
        assert named in r.stderr
        assert not (tmp_path / "threshold.json").exists()

    def test_one_moment_pass(self, tmp_path, monkeypatch):
        # the whole curve takes one array evaluation of the tail
        from starparadox import cli, moments

        real = moments.QuadraticV.tail
        sizes = []

        def counting(self, y):
            sizes.append(len(y))
            return real(self, y)

        monkeypatch.setattr(moments.QuadraticV, "tail", counting)
        argv = ["moments", "--dist", "quadratic", "--alpha", "1", "--t-lo", "0.5",
                "--t-hi", "500", "--per-decade", "4", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        grid = moments.geometric_grid(0.5, 500.0, 4)
        assert len(sizes) == 1 and sizes[0] > 1000 * len(grid)
        d = json.loads((tmp_path / "threshold.json").read_text())
        assert d["t_star"] == moments.threshold_scan(moments.QuadraticV(), 1.0, grid).t_star


    @pytest.mark.parametrize("flags,named", [
        (("--alpha", "0.5", "--t-lo", "1", "--t-hi", "10"), "three decades"),
        (("--alpha", "-1"), "alpha must be finite and > 0, got -1.0"),
    ], ids=["short-span", "alpha-negative"])
    def test_short_span_or_negative_alpha_rejected(self, tmp_path, capsys, flags, named):
        # both are checked before the curve is computed
        from starparadox import cli

        assert cli.main(["moments", "--dist", "quadratic", *flags, "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "threshold.json").exists()

    @pytest.mark.parametrize("alpha", ["inf", "1e300", "1e10", "nan"])
    def test_beta_alpha_outside_range_rejected(self, tmp_path, capsys, alpha):
        argv = ["moments", "--dist", f"beta:{alpha}", "--alpha", "1", "--t-lo", "0.1",
                "--t-hi", "100", "--per-decade", "1", "--out", str(tmp_path)]
        assert run_main(*argv) == 2
        assert "beta alpha must be finite and in [0.01, 5]" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    @pytest.mark.parametrize("t_hi", ["1e6", "1e10"])
    def test_t_above_cap_rejected_naming_t_hi(self, tmp_path, capsys, t_hi):
        argv = ["moments", "--dist", "uniform01", "--alpha", "1", "--t-lo", "1",
                "--t-hi", t_hi, "--per-decade", "1", "--out", str(tmp_path)]
        assert run_main(*argv) == 2
        assert "--t-hi" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    @pytest.mark.parametrize("dist,exact", [
        ("uniform01", lambda t: 2.0 * t / (t + 2.0)),
        ("quadratic", lambda t: 2.0 * t / (t + 3.0)),
    ])
    def test_t_up_to_cap_accurate(self, tmp_path, dist, exact):
        argv = ["moments", "--dist", dist, "--alpha", "1", "--t-lo", "1", "--t-hi", "1e5",
                "--per-decade", "1", "--out", str(tmp_path)]
        assert run_main(*argv) == 0
        rows = read_csv(tmp_path / "moments.csv")[1:]
        assert float(rows[-1][0]) == 1e5
        for row in rows:
            t, gap = float(row[0]), float(row[4])
            assert gap == pytest.approx(exact(t), rel=1e-7)


class TestNoScipyAtStartUp:
    """Importing the CLI loads no scipy, nor does any command here, a failing ladder's log-model
    contest included.

    Run in a fresh interpreter: pytest's own process has scipy loaded already.
    """

    SCRIPT = """
import sys
from starparadox.cli import main

out = sys.argv[1]
runs = [
    ["simulate", "--t", "0.1", "--n", "1000", "--trials", "3"],
    ["scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "0.05", "--n-list", "100",
     "--trials", "20", "--samples", "256", "--jobs", "1"],
    ["posterior", "--spec", "uniform:1.0", "--counts", "753,130,59,58", "--samples", "4096",
     "--jobs", "2"],
    ["claims", "--spec", "uniform:1.0", "--t", "0.1", "--samples", "20000", "--z-points", "2"],
    ["prior-check", "--spec", "uniform:1.0", "--t", "0.1"],
    ["prior-check", "--spec", "logti", "--t", "0.1"],
]
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print("import", loaded)
for i, argv in enumerate(runs):
    code = main([*argv, "--out", f"{out}/{i}"])
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    print(argv[0], code, loaded)
"""

    def test_fresh_interpreter(self, tmp_path):
        r = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == [
            "import []", "simulate 0 []", "scan 0 []", "posterior 0 []", "claims 0 []",
            "prior-check 0 []", "prior-check 0 []",
        ], r.stdout + r.stderr


class TestClaims:
    def test_report_written(self, tmp_path):
        r = run_cli("claims", "--spec", "uniform:1.0", "--t", "0.1", "--c", "1.5",
                    "--n", "10000", "--samples", "20000", "--seed", "2",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        d = json.loads((tmp_path / "claims.json").read_text())
        for j in ("2", "3"):
            assert d["band_advantage"][j]["log_ratio"] > 0
            assert d["band_advantage"][j]["samplewise_upper_ok"] is True
            assert d["conditional_dominance"][j]["min_log_gap"] > 0


    def test_huge_n(self, tmp_path):
        # (n - n0) / 3 rounds at n = 10^17: the band counts' d1 + d2 + d3 must still vanish
        assert run_main("claims", "--spec", "uniform:1.0", "--t", "0.1",
                        "--n", "100000000000000000", "--samples", "1000", "--z-points", "2",
                        "--out", str(tmp_path)) == 0


class TestRuntimeFailures:
    def test_empty_stratum_exits_2(self, tmp_path, capsys):
        # far too few draws for 48 conditioning bands: a band stays empty
        r = run_cli("claims", "--spec", "uniform:1.0", "--t", "0.1", "--c", "1.5",
                    "--n", "10000", "--samples", "60", "--z-points", "48",
                    "--seed", "1", "--out", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.startswith("error: z band ") and "--samples" in r.stderr
        # at t = 50, I_t lies below 1e-86: no draw of 1000 falls in it (ROADMAP item 8a)
        assert run_main("claims", "--spec", "uniform:1.0", "--t", "50", "--samples", "1000",
                        "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "error: z band 0 around 5.19e-88 is empty: 0 of 1000 draws fall in I_t" in err
        assert "--z-points" in err and "--samples" in err
        # Z = Se Si >= Se bounds P(Z in I_t) by (sup I_t)^(rate_e/4): no --samples can do
        assert ("P(4P0 - 1 in I_t) <= 8.3e-87, so --samples would have to exceed 1.2e+86, "
                "or --t must be lower") in err

    @pytest.mark.parametrize("seed,band,inside", [(1, 6, 1910), (2, 7, 1963)])
    def test_empty_stratum_names_remedy(self, tmp_path, capsys, seed, band, inside):
        # discrete:0.1,0.5 puts about 0.2% of its draws in I_t, too few for 8 bands
        assert run_main("claims", "--spec", "discrete:0.1,0.5", "--t", "0.1", "--c", "1.5",
                        "--n", "10000", "--samples", "1000000", "--seed", str(seed),
                        "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"error: z band {band} around" in err
        assert f"{inside} of 1000000 draws fall in I_t" in err
        assert "--z-points" in err and "--samples" in err


class TestMomentsZetaDist:
    def test_conditional_zeta_threshold(self, tmp_path):
        r = run_cli("moments", "--dist", "zeta", "--spec", "uniform:1.0", "--z", "2.0",
                    "--alpha", "0.5", "--t-lo", "1", "--t-hi", "1500",
                    "--per-decade", "8", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        d = json.loads((tmp_path / "threshold.json").read_text())
        assert d["reached"] is True and d["t_star"] < 10.0

    def test_discrete_runs_without_warnings(self, tmp_path):
        # the benchmark's moments arguments with a step-function G
        import warnings

        argv = ["moments", "--dist", "zeta", "--spec", "discrete:0.1,0.5",
                "--z", "2.0109601381069178", "--alpha", "0.5", "--t-lo", "0.5",
                "--t-hi", "500.0", "--per-decade", "1", "--out", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_main(*argv) == 0
        assert [str(w.message) for w in caught] == []
        rows = read_csv(tmp_path / "moments.csv")[1:]
        assert len(rows) == 4 and all(0.0 < float(r[2]) < float(r[1]) for r in rows)

    @pytest.mark.parametrize("z, estimate", [("1.9", 3.8e-10), ("1.5", 3.0e-8), ("0.7", 5.1e-4)])
    def test_discrete_beyond_the_gate_exits_2(self, tmp_path, capsys, z, estimate):
        # the rule's smooth panels straddle G's steps: at t = 0.5 its error estimate
        # misses the 1e-9 M_t gate, a bound of the rule, not a fault of the run
        argv = ["moments", "--dist", "zeta", "--spec", "discrete:0.1,0.5", "--z", z,
                "--alpha", "0.5", "--t-lo", "0.5", "--t-hi", "500", "--per-decade", "1",
                "--out", str(tmp_path)]
        assert run_main(*argv) == 2
        err = capsys.readouterr().err
        assert "moment rule did not converge for M_t at t=0.5" in err
        assert "exceeds the gate 1e-9·M_t" in err
        named = float(re.search(r"error estimate=([0-9.e+-]+)\)", err).group(1))
        assert named == pytest.approx(estimate, rel=0.05)
        assert not (tmp_path / "moments.csv").exists()

    def test_alpha_checked_before_the_curve(self, tmp_path, capsys):
        # at z = 1.9 the curve itself misses its gate (above): a bad --alpha is named first
        argv = ["moments", "--dist", "zeta", "--spec", "discrete:0.1,0.5", "--z", "1.9",
                "--alpha", "nan", "--t-lo", "0.5", "--t-hi", "500", "--per-decade", "1",
                "--out", str(tmp_path)]
        assert run_main(*argv) == 2
        err = capsys.readouterr().err
        assert "alpha must be finite and > 0, got nan" in err and "gate" not in err

    def test_zeta_requires_z(self, tmp_path):
        r = run_cli("moments", "--dist", "zeta", "--spec", "uniform:1.0",
                    "--alpha", "0.5", "--out", str(tmp_path))
        assert r.returncode == 2
