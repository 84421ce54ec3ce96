import json
import math
import subprocess
import sys

import numpy as np
import pytest

from klwishart import inference
from klwishart.cli import main, read_csv


def run_cli(args, env=None):
    cmd = [sys.executable, "-m", "klwishart"] + args
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def write_csv(path, data, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for row in data:
            fh.write(",".join(str(v) for v in row) + "\n")


@pytest.fixture
def data_2d(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.multivariate_normal([1.0, -1.0], [[2.0, 0.5], [0.5, 1.0]], size=100)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    return path, data


class TestReadCsv:
    def test_comma(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, [[1.0, 2.0], [3.0, 4.0]])
        assert read_csv(str(p)).shape == (2, 2)

    def test_whitespace(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0 2.0\n3.0 4.0\n")
        assert np.allclose(read_csv(str(p)), [[1, 2], [3, 4]])

    def test_header_autodetect(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, [[1.0, 2.0]], header="x,y")
        assert read_csv(str(p)).shape == (1, 2)

    def test_ragged(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ValueError):
            read_csv(str(p))


class TestFit:
    def test_unknown_mean_alpha_one(self, data_2d):
        path, _ = data_2d
        res = run_cli(["fit", "--data", str(path), "--alpha", "1"])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["posterior"]["kl"]["alpha*"] == 101.0
        assert report["stats"]["n"] == 100

    def test_alpha_zero_equals_ml(self, data_2d):
        path, data = data_2d
        res = run_cli(["fit", "--data", str(path), "--alpha", "0"])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        stats = inference.suff_stats(data)
        _, ml_cov = inference.ml_estimate(stats)
        assert np.array_equal(np.asarray(report["map"]["cov"]), ml_cov)
        assert "maximum-likelihood" in report["note"]

    def test_known_mean(self, data_2d):
        path, data = data_2d
        res = run_cli(
            ["fit", "--data", str(path), "--mean-mode", "known",
             "--known-mu", "1,-1", "--alpha", "2"]
        )
        assert res.returncode == 0
        report = json.loads(res.stdout)
        # shape = n + alpha + d + 1
        assert report["posterior"]["classical"]["shape"] == 105.0

    def test_collinear_exit_2(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [[1.0, 1.0], [2.0, 2.0]])
        res = run_cli(
            ["fit", "--data", str(p), "--mean-mode", "known",
             "--known-mu", "0,0", "--alpha", "0"]
        )
        assert res.returncode == 2

    def test_missing_file_exit_1(self):
        res = run_cli(["fit", "--data", "/nonexistent.csv", "--alpha", "1"])
        assert res.returncode == 1

    def test_bad_mode_cov_exit_3(self, data_2d, tmp_path):
        path, _ = data_2d
        bad = tmp_path / "cov.json"
        bad.write_text('{"cov": [[1.0, 2.0], [2.0, 1.0]]}')
        res = run_cli(
            ["fit", "--data", str(path), "--alpha", "1", "--mode-cov", str(bad)]
        )
        assert res.returncode == 3

    def test_mode_cov_warned_at_alpha_zero(self, data_2d, tmp_path):
        path, _ = data_2d
        cov = tmp_path / "cov.json"
        cov.write_text('{"cov": [[1.0, 0.0], [0.0, 1.0]]}')
        res = run_cli(
            ["fit", "--data", str(path), "--alpha", "0", "--mode-cov", str(cov)]
        )
        assert res.returncode == 0
        assert "ignored" in res.stderr

    def test_roundtrip_stability(self, data_2d, tmp_path):
        path, _ = data_2d
        out = tmp_path / "report.json"
        res = run_cli(
            ["fit", "--data", str(path), "--alpha", "1", "--output", str(out)]
        )
        assert res.returncode == 0
        text = out.read_text()
        reparsed = json.dumps(json.loads(text), indent=2) + "\n"
        assert reparsed == text


class TestKL:
    def g(self, tmp_path, name, mean, cov):
        p = tmp_path / name
        p.write_text(json.dumps({"mean": mean, "cov": cov}))
        return str(p)

    def test_identical_zero(self, tmp_path):
        a = self.g(tmp_path, "p.json", [0.0], [[1.0]])
        res = run_cli(["kl", a, a])
        assert res.returncode == 0
        assert float(res.stdout) == 0.0
        assert res.stdout.strip() == "0.000000000000"

    def test_scalar_value(self, tmp_path):
        p = self.g(tmp_path, "p.json", [0.0], [[1.0]])
        q = self.g(tmp_path, "q.json", [0.0], [[2.0]])
        res = run_cli(["kl", p, q])
        value = float(res.stdout)
        assert value == pytest.approx(0.5 * (0.5 - 1 + math.log(2)), abs=1e-11)
        assert len(res.stdout.strip().replace(".", "").lstrip("0")) >= 10

    def test_asymmetry(self, tmp_path):
        p = self.g(tmp_path, "p.json", [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        q = self.g(tmp_path, "q.json", [1.0, 0.0], [[3.0, 0.0], [0.0, 1.0]])
        fwd = float(run_cli(["kl", p, q]).stdout)
        bwd = float(run_cli(["kl", q, p]).stdout)
        assert fwd != bwd

    def test_not_pd_exit_3(self, tmp_path):
        p = self.g(tmp_path, "p.json", [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        res = run_cli(["kl", p, p])
        assert res.returncode == 3

    def test_parse_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli(["kl", str(bad), str(bad)])
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ([0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
            ([0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        ],
        ids=["dim_mismatch", "not_square"],
    )
    def test_bad_shape_exit_3(self, tmp_path, mean, cov):
        p = self.g(tmp_path, "p.json", mean, cov)
        res = run_cli(["kl", p, p])
        assert res.returncode == 3
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1


class TestSample:
    def dist(self, tmp_path, scatter, shape):
        p = tmp_path / "dist.json"
        p.write_text(json.dumps({"family": "wishart", "scatter": scatter, "shape": shape}))
        return str(p)

    def test_scalar_moments(self, tmp_path):
        d = self.dist(tmp_path, [[1.0]], 4.0)
        res = run_cli(["sample", d, "-n", "100000", "--seed", "7"])
        assert res.returncode == 0
        vals = np.array([float(x) for x in res.stdout.split()])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 4.0) < 3 * se

    def test_determinism(self, tmp_path):
        d = self.dist(tmp_path, [[2.0, 0.3], [0.3, 1.0]], 5.5)
        a = run_cli(["sample", d, "-n", "10", "--seed", "3"]).stdout
        b = run_cli(["sample", d, "-n", "10", "--seed", "3"]).stdout
        assert a == b

    def test_env_seed(self, tmp_path):
        import os

        d = self.dist(tmp_path, [[1.0]], 3.0)
        env = dict(os.environ, KLW_SEED="11")
        a = run_cli(["sample", d, "-n", "5"], env=env).stdout
        b = run_cli(["sample", d, "-n", "5", "--seed", "11"]).stdout
        assert a == b

    def test_invalid_shape_exit_3(self, tmp_path):
        d = self.dist(tmp_path, [[1.0, 0.0], [0.0, 1.0]], 1.0)  # nu = d - 1
        res = run_cli(["sample", d, "-n", "1"])
        assert res.returncode == 3

    def test_negative_n_exit_1(self, tmp_path):
        d = self.dist(tmp_path, [[1.0]], 3.0)
        res = run_cli(["sample", d, "-n", "-1"])
        assert res.returncode == 1
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1
        assert res.stdout == ""

    def test_row_shape(self, tmp_path):
        d = self.dist(tmp_path, [[1.0, 0.0], [0.0, 1.0]], 5.0)
        res = run_cli(["sample", d, "-n", "3", "--seed", "1"])
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 3
        assert all(len(ln.split(",")) == 4 for ln in lines)


class TestCheck:
    def test_single_suite(self):
        res = run_cli(["check", "rank_deficiency", "--seed", "2"])
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "rank_deficiency"

    def test_unknown_suite(self):
        res = run_cli(["check", "nonsense"])
        assert res.returncode == 1
        assert "unknown suite" in res.stderr

    def test_all_fast_subset(self):
        # moments is the slow one; exercise the rest through `check all`
        # in test_acceptance; here run two cheap ones individually
        for name in ("proportionality", "map_gradient"):
            res = run_cli(["check", name, "--seed", "1"])
            assert res.returncode == 0, res.stderr


def test_main_in_process(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"mean": [0.0], "cov": [[1.0]]}))
    assert main(["kl", str(p), str(p)]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "0.000000000000"
