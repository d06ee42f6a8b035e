import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest


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


class TestPosterior:
    def test_symmetric_counts(self, tmp_path):
        r = run_cli("posterior", "--spec", "uniform:1.0", "--counts", "700,100,100,100",
                    "--samples", "3000", "--seed", "5", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        d = json.loads((tmp_path / "posterior.json").read_text())
        assert d["posterior"] == [d["posterior"][0]] * 3
        assert abs(sum(d["posterior"]) - 1.0) < 1e-12

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
    """Non-positive sample and band counts exit 2 naming the flag, before any prior draw."""

    SCAN = ("scan", "--spec", "uniform:1.0", "--t", "0.1", "--epsilon", "0.05", "--n-list", "100")
    CLAIMS = ("claims", "--spec", "uniform:1.0", "--t", "0.1")

    @pytest.mark.parametrize("argv, named", [
        (SCAN + ("--samples", "0", "--trials", "3"), "--samples"),
        (SCAN + ("--samples", "0", "--trials", "100"), "--samples"),
        (CLAIMS + ("--samples", "0"), "--samples"),
    ], ids=["scan-3-trials", "scan-100-trials", "claims"])
    def test_samples(self, tmp_path, capsys, monkeypatch, argv, named):
        from starparadox.priors import Prior

        def no_draw(*args, **kwargs):
            raise AssertionError("prior sampled before the check")

        monkeypatch.setattr(Prior, "sample", no_draw)
        assert run_main(*argv, "--out", str(tmp_path)) == 2
        assert named in capsys.readouterr().err
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


class TestScanDigests:
    """scan.csv of every catalog prior matches its frozen SHA-256, at --jobs 1 and 2.

    Regenerate with ``tools/generate_fixtures.py --scan-digests`` only when a
    change to the scan's random streams or hit decisions is intended.
    """

    FIXTURE = json.loads(
        (Path(__file__).parent / "fixtures" / "scan_digests.json").read_text(encoding="utf-8")
    )

    @pytest.mark.parametrize("spec", sorted(FIXTURE["sha256"]))
    def test_digests(self, tmp_path, spec):
        for jobs, digest in sorted(self.FIXTURE["sha256"][spec].items()):
            out = tmp_path / jobs
            assert run_main(*self.FIXTURE["argv"], "--spec", spec, "--jobs", jobs,
                            "--out", str(out)) == 0
            assert hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest() == digest


class TestThresholdDigests:
    """verdict.json of every catalog prior, and the moments scan outputs, match their SHA-256.

    Regenerate with ``tools/generate_fixtures.py --threshold-digests`` only when a
    change to the tempered-prior check or the moment quadrature is intended.
    """

    FIXTURE = json.loads(
        (Path(__file__).parent / "fixtures" / "threshold_digests.json").read_text(encoding="utf-8")
    )

    @pytest.mark.parametrize("spec", sorted(FIXTURE["prior_check"]["sha256"]))
    def test_verdict(self, tmp_path, spec):
        case = self.FIXTURE["prior_check"]
        assert run_main(*case["argv"], "--spec", spec, "--out", str(tmp_path)) == 0
        digest = hashlib.sha256((tmp_path / "verdict.json").read_bytes()).hexdigest()
        assert digest == case["sha256"][spec]

    def test_moments(self, tmp_path):
        case = self.FIXTURE["moments"]
        assert run_main(*case["argv"], "--out", str(tmp_path)) == 0
        for name, digest in sorted(case["sha256"].items()):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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


class TestPriorCheck:
    def test_uniform_tempered(self, tmp_path):
        r = run_cli("prior-check", "--spec", "uniform:1.0", "--t", "0.1",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        d = json.loads((tmp_path / "verdict.json").read_text())
        assert d["tempered"] is True

    def test_large_t_rejected_naming_t(self, tmp_path):
        # 3 exp(-8t) underflows for t above about 93: the band interval is unusable
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
        from starparadox import cli, moments

        real = moments.moment_mt
        calls = []

        def counting(dist, t, *args, **kwargs):
            calls.append(t)
            return real(dist, t, *args, **kwargs)

        monkeypatch.setattr(moments, "moment_mt", counting)
        argv = ["moments", "--dist", "quadratic", "--alpha", "1", "--t-lo", "0.5",
                "--t-hi", "500", "--per-decade", "4", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        grid = moments.geometric_grid(0.5, 500.0, 4)
        assert len(calls) == 2 * len(grid)
        d = json.loads((tmp_path / "threshold.json").read_text())
        assert d["t_star"] == moments.threshold_scan(moments.QuadraticV(), 1.0, grid).t_star


    @pytest.mark.parametrize("flags,named", [
        (("--alpha", "0.5", "--t-lo", "1", "--t-hi", "10"), "three decades"),
        (("--alpha", "-1"), "alpha must be finite and > 0, got -1.0"),
    ], ids=["short-span", "alpha-negative"])
    def test_checked_before_curve(self, tmp_path, monkeypatch, capsys, flags, named):
        from starparadox import cli

        def fail(*args, **kwargs):
            raise AssertionError("moment_curve ran before the input checks")

        monkeypatch.setattr(cli, "moment_curve", fail)
        assert cli.main(["moments", "--dist", "quadratic", *flags, "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err


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


class TestRuntimeFailures:
    def test_empty_stratum_exits_3(self, tmp_path):
        # far too few draws for 48 conditioning bands: a band stays empty
        r = run_cli("claims", "--spec", "uniform:1.0", "--t", "0.1", "--c", "1.5",
                    "--n", "10000", "--samples", "60", "--z-points", "48",
                    "--seed", "1", "--out", str(tmp_path))
        assert r.returncode == 3
        assert "EmptyStratum" in r.stderr


class TestMomentsZetaDist:
    def test_conditional_zeta_threshold(self, tmp_path):
        r = run_cli("moments", "--dist", "zeta", "--spec", "uniform:1.0", "--z", "2.0",
                    "--alpha", "0.5", "--t-lo", "1", "--t-hi", "1500",
                    "--per-decade", "8", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        d = json.loads((tmp_path / "threshold.json").read_text())
        assert d["reached"] is True and d["t_star"] < 10.0

    def test_zeta_requires_z(self, tmp_path):
        r = run_cli("moments", "--dist", "zeta", "--spec", "uniform:1.0",
                    "--alpha", "0.5", "--out", str(tmp_path))
        assert r.returncode == 2
