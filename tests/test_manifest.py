import json

from starparadox.manifest import RunManifest


def _manifest(tmp_path) -> RunManifest:
    output = tmp_path / "scan.csv"
    output.write_text("n,delta_hat\n100,0.5\n", encoding="utf-8")
    m = RunManifest(command="scan", params={"t": 0.1, "n_list": "100", "jobs": 1}, seed=3,
                    version="0.1.0", prior={"kind": "uniform", "params": {"theta": 1.0}})
    m.add_output(output)
    m.finish()
    return m


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        m = _manifest(tmp_path)
        path = tmp_path / "manifest.json"
        m.write(path)
        assert RunManifest.read(path) == m
        assert sorted(json.loads(path.read_text())) == [
            "command", "finished", "outputs", "params", "prior", "seed", "started", "version",
        ]

    def test_unknown_key_still_reads(self, tmp_path):
        m = _manifest(tmp_path)
        path = tmp_path / "manifest.json"
        m.write(path)
        obj = json.loads(path.read_text())
        obj["diagnostics"] = {"min_ess": 1.0}
        path.write_text(json.dumps(obj))
        assert RunManifest.read(path) == m
