import hashlib
import json
import marshal
import math
import os
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

import klwishart
from klwishart import cli, inference, klpriors, pdcore, wishart
from klwishart.cli import main, read_csv


def run_cli(args, env=None):
    cmd = [sys.executable, "-m", "klwishart"] + args
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


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


def read_both(path, monkeypatch):
    """read_csv(path) on the serial path and with every text split; the two
    must give the same array, bit for bit, or the same ValueError, which is
    raised again."""
    results = []
    for chars in (math.inf, 0):
        monkeypatch.setattr(cli, "_READ_SPLIT_CHARS", chars)
        try:
            results.append(read_csv(str(path)))
        except ValueError as exc:
            results.append(str(exc))
    serial, split = results
    if isinstance(serial, str):
        assert isinstance(split, str) and split == serial
        raise ValueError(serial)
    assert split.dtype == serial.dtype and split.shape == serial.shape
    assert split.tobytes() == serial.tobytes()
    return serial


def cap_marshal(monkeypatch, cap):
    """Make the children's marshal refuse a str or bytes-like value of more
    than cap bytes, as CPython's refuses one of 2**31 bytes or more, and set
    the piece size to cap, so a test reaches the limit with small data."""

    def dump(value, file):
        items = [value]
        while items:
            item = items.pop()
            if isinstance(item, (tuple, list)):
                items.extend(item)
            elif isinstance(item, (str, bytes, memoryview)):
                size = len(item.encode()) if isinstance(item, str) else memoryview(item).nbytes
                if size > cap:
                    raise ValueError("unmarshallable object")
        marshal.dump(value, file)

    monkeypatch.setattr(cli, "marshal", types.SimpleNamespace(dump=dump, load=marshal.load))
    monkeypatch.setattr(cli, "_PIECE_BYTES", cap)


def cut_before(first, second):
    """first + second, first's last line indented so that read_csv cuts the
    text at first's final newline."""
    start = first[:-1].rfind("\n") + 1
    text = first[:start] + " " * (len(first) + len(second)) + first[start:] + second
    assert text.find("\n", len(text) // 2) == len(text) - len(second) - 1
    return text


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

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1,2\n\n   \n3,4\n\n", [[1, 2], [3, 4]]),
            ("1, 2\n3 4\n5,\t6\n7 ,8,\n", [[1, 2], [3, 4], [5, 6], [7, 8]]),
            ("\n\nx y\n-1.5e3 +.25\n", [[-1500.0, 0.25]]),
            ("1\n2\n", [[1], [2]]),
            ("1,2,3", [[1, 2, 3]]),
            ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
            ("\ufeff1,2\n3,4\n", [[1, 2], [3, 4]]),
        ],
        ids=[
            "blank_lines", "mixed_separators", "header", "one_column", "no_newline",
            "crlf", "bom",
        ],
    )
    def test_grammar(self, tmp_path, monkeypatch, text, expected):
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode())
        got = read_both(p, monkeypatch)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.asarray(expected, dtype=float))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("\n \n,\n", "empty file"),
            ("x,y\n", "no data rows"),
            ("1,2\n3\n", "inconsistent column counts"),
            ("x,y\n1,2\n3,a\n", "could not convert"),
            ("1,2\n3,#4\n", "could not convert"),
            ("x,y\n1,2\n\n3,nan\n", "non-finite value in data row 2"),
            ("1,2\n3,4\n-inf,5\n", "non-finite value in data row 3"),
            ("1,1e400\n", "non-finite value in data row 1"),
        ],
        ids=[
            "empty", "separators_only", "header_only", "ragged", "bad_token",
            "comment", "nan", "inf", "overflow",
        ],
    )
    def test_rejects(self, tmp_path, monkeypatch, text, message):
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            read_both(p, monkeypatch)
        assert str(info.value).startswith(f"{p}: ")
        assert message in str(info.value)

    def test_matches_per_row_parse(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((500, 3)) * 10.0 ** rng.integers(-8, 8, (500, 3))
        seps = [",", " ", ", ", "\t", " ,"]
        rows = data.tolist()
        lines = [seps[k % 5].join(repr(v) for v in row) for k, row in enumerate(rows)]
        p = tmp_path / "a.csv"
        p.write_text("a b c\n" + "\n".join(lines) + "\n")
        ref = [[float(f) for f in ln.replace(",", " ").split()] for ln in lines]
        assert np.array_equal(read_both(p, monkeypatch), np.asarray(ref))
        assert np.array_equal(read_csv(str(p)), data)

    @pytest.mark.parametrize(
        "text, expected, joined",
        [
            (cut_before("1,2\n3,4\n", "5,nan\n7,8\n"), "non-finite value in data row 3", True),
            (cut_before("x,y\n1,2\n\n", "\n3,-inf\n"), "non-finite value in data row 2", True),
            (cut_before("1,2\n3,4\n", "5\n7,8\n"), "inconsistent column counts", False),
            (cut_before("1,2\n3,4\n", "5,6,7\n"), "inconsistent column counts", False),
            (cut_before("1,2\n3,4\n", "5,a\n"), "could not convert string 'a' to float64 at row 2, column 2", False),
            (cut_before("x,y\n", "1,b\n"), "could not convert string 'b' to float64 at row 0, column 2", False),
            (cut_before("1,2\n", "a,b\n3,4\n"), "could not convert string 'a' to float64 at row 1, column 1", False),
            (cut_before("1,2\n\n  \n", "\n,\n3,4\n\n"), [[1, 2], [3, 4]], True),
            (cut_before("1,2\r\n3,4\r\n", "5,6\r\n"), [[1, 2], [3, 4], [5, 6]], True),
            (cut_before("x,y\n", "1,2\n3,4\n"), [[1, 2], [3, 4]], False),
            (cut_before("\n\n", "x,y\n1,2\n"), [[1, 2]], False),
            (cut_before("1,2\n3,4\n", ""), [[1, 2], [3, 4]], False),
            ("1,2\n3," + " " * 20 + "4", [[1, 2], [3, 4]], None),
            ("1," + " " * 20 + "2", [[1, 2]], None),
        ],
        ids=[
            "nan_after_cut", "inf_after_cut_with_header", "ragged_after_cut",
            "halves_differ_in_columns", "bad_token_after_cut", "header_then_bad_token",
            "text_line_after_cut",
            "blank_lines_across_cut", "crlf_across_cut", "header_only_first_half",
            "blank_first_half", "nothing_after_cut", "no_newline_after_middle", "no_newline",
        ],
    )
    def test_fault_after_the_cut(self, tmp_path, monkeypatch, text, expected, joined):
        # joined: whether the split joined both halves (True), fell back to
        # the serial parse (False) or found no newline to cut at (None).
        outcomes, parse_halves = [], cli._parse_halves
        monkeypatch.setattr(cli, "_parse_halves", lambda *a: outcomes.append(parse_halves(*a)) or outcomes[-1])
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                read_both(p, monkeypatch)
            assert str(info.value).startswith(f"{p}: ") and expected in str(info.value)
        else:
            assert np.array_equal(read_both(p, monkeypatch), np.asarray(expected, dtype=float))
        assert [o is not None for o in outcomes] == ([] if joined is None else [joined])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("extra, split", [(0, False), (1, True)])
    def test_split_above_the_size_constant(self, tmp_path, monkeypatch, extra, split):
        calls, parse_halves = [], cli._parse_halves
        monkeypatch.setattr(cli, "_parse_halves", lambda *a: calls.append(a) or parse_halves(*a))
        row = "1.5,-2.25\n"
        n, rest = divmod(cli._READ_SPLIT_CHARS + extra, len(row))
        p = tmp_path / "a.csv"
        p.write_text(row * n + " " * rest)
        assert np.array_equal(read_csv(str(p)), np.tile([1.5, -2.25], (n, 1)))
        assert len(calls) == split

    def test_parser_child_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        pid, lines = os.getpid(), cli._lines

        def fail_in_child(*args):
            if os.getpid() != pid:
                raise RuntimeError("parser failed")
            return lines(*args)

        monkeypatch.setattr(cli, "_lines", fail_in_child)
        monkeypatch.setattr(cli, "_READ_SPLIT_CHARS", 0)
        p = tmp_path / "a.csv"
        write_csv(p, np.arange(12.0).reshape(6, 2))
        code = main(["fit", "--data", str(p), "--alpha", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {p}: the parser process ended early\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_half_sent_in_pieces_under_the_marshal_cap(self, tmp_path, monkeypatch):
        # The child's 12 000 bytes of rows go as 1000-byte pieces, cut inside
        # a float; the joined array is the serial one, bit for bit.
        p = tmp_path / "a.csv"
        write_csv(p, np.random.default_rng(4).standard_normal((1000, 3)))
        outcomes, parse_halves = [], cli._parse_halves
        monkeypatch.setattr(cli, "_parse_halves", lambda *a: outcomes.append(parse_halves(*a)) or outcomes[-1])
        cap_marshal(monkeypatch, 1000)
        read_both(p, monkeypatch)
        assert len(outcomes) == 1 and outcomes[0] is not None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_reads_in_one_process(self, tmp_path, monkeypatch):
        # Where os.fork does not exist (Windows) every text is parsed here.
        p = tmp_path / "a.csv"
        write_csv(p, np.random.default_rng(3).standard_normal((500, 3)))
        monkeypatch.setattr(cli, "_READ_SPLIT_CHARS", math.inf)
        serial = read_csv(str(p))
        calls, parse_halves = [], cli._parse_halves
        monkeypatch.setattr(cli, "_parse_halves", lambda *a: calls.append(a) or parse_halves(*a))
        monkeypatch.setattr(cli, "_READ_SPLIT_CHARS", 0)
        monkeypatch.delattr(os, "fork")
        data = read_csv(str(p))
        assert data.shape == serial.shape and data.tobytes() == serial.tobytes()
        assert calls == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestFit:
    def test_unknown_mean_alpha_one(self, data_2d):
        path, _ = data_2d
        res = run_cli(["fit", "--data", str(path), "--alpha", "1"])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["posterior"]["kl"]["alpha*"] == 101.0
        assert report["stats"]["n"] == 100

    def test_mode_cov_file_as_cov_object_or_bare_matrix(self, data_2d, tmp_path):
        path, data = data_2d
        cov = tmp_path / "cov.json"
        outputs = []
        for text in ('{"cov": [[2, 0.5], [0.5, 1]]}', "[[2, 0.5], [0.5, 1]]"):
            cov.write_text(text)
            res = run_cli(["fit", "--data", str(path), "--alpha", "1", "--mode-cov", str(cov)])
            assert res.returncode == 0, res.stderr
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1]
        prior = klpriors.KLNormalWishartPrior(
            prior_mean=np.zeros(2), mode_cov=pdcore.make_pd([[2, 0.5], [0.5, 1]]), pseudocount=1.0
        )
        post = inference.posterior_unknown(prior, inference.suff_stats(data))
        _, mode_cov = inference.map_unknown(post)
        assert json.loads(outputs[0])["map"]["cov"] == mode_cov.entries.tolist()

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

    def test_known_mu_equals_form_with_negative_entry(self, data_2d):
        path, data = data_2d
        res = run_cli(
            ["fit", "--data", str(path), "--mean-mode", "known",
             "--known-mu=-0.5,1", "--alpha", "0"]
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        delta = data - [-0.5, 1.0]
        expected = delta.T @ delta / len(data)
        assert np.allclose(report["map"]["cov"], expected, rtol=1e-12)

    @pytest.mark.parametrize("mu", ["inf,0", "0,nan"])
    def test_known_mu_not_finite_exit_1(self, data_2d, mu):
        path, _ = data_2d
        res = run_cli(
            ["fit", "--data", str(path), "--mean-mode", "known",
             f"--known-mu={mu}", "--alpha", "1"]
        )
        assert res.returncode == 1
        assert res.stderr == "error: --known-mu must be finite\n"

    def test_known_mu_unparsable_names_the_flag(self, data_2d):
        path, _ = data_2d
        res = run_cli(
            ["fit", "--data", str(path), "--mean-mode", "known",
             "--known-mu=1,,2", "--alpha", "1"]
        )
        assert res.returncode == 1
        assert res.stderr == "error: --known-mu: could not convert string to float: ''\n"

    def test_known_mean_alpha_star_is_n_plus_alpha(self, tmp_path):
        # n + alpha = 1 + 0.1 = 1.1 exactly; recovered from the shape it
        # was 1.0999999999999996.
        p = tmp_path / "one.csv"
        p.write_text("0.5,1\n")
        res = run_cli(
            ["fit", "--data", str(p), "--mean-mode", "known",
             "--known-mu=0,0", "--alpha", "0.1"]
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["posterior"]["kl"]["alpha*"] == 1.1
        # (0.1 + 1 * 1) / 1.1
        assert report["map"]["cov"][1][1] == 1.0

    @pytest.mark.parametrize("alpha", ["1", "0"])
    def test_non_finite_data_exit_1(self, tmp_path, alpha):
        p = tmp_path / "nan.csv"
        p.write_text("x,y\n1,2\n3,1\n2,nan\n0,1\n")
        res = run_cli(["fit", "--data", str(p), "--alpha", alpha])
        assert res.returncode == 1
        assert res.stderr == f"error: {p}: non-finite value in data row 3\n"
        assert res.stdout == ""

    @pytest.mark.parametrize("alpha", ["inf", "nan", "-inf", "-1"])
    def test_alpha_not_finite_non_negative_exit_1(self, data_2d, alpha):
        path, _ = data_2d
        res = run_cli(["fit", "--data", str(path), f"--alpha={alpha}"])
        assert res.returncode == 1
        assert res.stderr == "error: --alpha must be a finite number >= 0\n"
        assert res.stdout == ""

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

    def test_self_kl_not_negative(self, tmp_path):
        # A covariance whose closed-form self-KL rounds below zero.
        p = self.g(tmp_path, "p.json", [0.5, -1.0], [[2.0, 0.2], [0.2, 1.0]])
        res = run_cli(["kl", p, p])
        assert res.returncode == 0, res.stderr
        assert not res.stdout.startswith("-")
        assert float(res.stdout) == 0.0

    def test_scalar_value(self, tmp_path):
        p = self.g(tmp_path, "p.json", [0.0], [[1.0]])
        q = self.g(tmp_path, "q.json", [0.0], [[2.0]])
        res = run_cli(["kl", p, q])
        value = float(res.stdout)
        assert value == pytest.approx(0.5 * (0.5 - 1 + math.log(2)), abs=1e-11)
        assert len(res.stdout.strip().replace(".", "").lstrip("0")) >= 10

    @pytest.mark.parametrize(
        "q_mean, q_var, expect",
        [
            # 0.5 (1/2 - 1 + log 2) = 0.09657359027997...: the rounded digits
            # end in zeros, which are kept.
            (0.0, 2.0, "0.0965735902800"),
            # 0.5 (1 + 3^2 - 1) = 4.5
            (3.0, 1.0, "4.50000000000"),
            # 0.5 (1e12 - 1 - log 1e12) = 499999999985.68...: twelve digits
            # before the point and none after, so no point is printed.
            (0.0, 1e-12, "499999999986"),
            # 0.5 (1e13 - 1 - log 1e13) = 4999999999984.5...: the thirteenth
            # digit is a rounded-off zero.
            (0.0, 1e-13, "4999999999980"),
        ],
        ids=["below_one", "above_one", "at_least_1e11", "at_least_1e12"],
    )
    def test_twelve_significant_digits(self, tmp_path, q_mean, q_var, expect):
        p = self.g(tmp_path, "p.json", [0.0], [[1.0]])
        q = self.g(tmp_path, "q.json", [q_mean], [[q_var]])
        res = run_cli(["kl", p, q])
        assert res.returncode == 0, res.stderr
        assert res.stdout == expect + "\n"

    # Two fixed Gaussian pairs and the bytes `kl` prints for them, each way.
    PAIRS = {
        3: (
            ([0.5, -1.0, 2.0], [[2.0, 0.3, -0.4], [0.3, 1.5, 0.2], [-0.4, 0.2, 0.8]]),
            ([-0.25, 0.75, 1.5], [[1.2, -0.1, 0.05], [-0.1, 0.9, 0.3], [0.05, 0.3, 2.5]]),
            "2.59492874756", "2.91102488646",
        ),
        5: (
            (
                [1.0, 0.0, -0.5, 0.25, 2.0],
                [[1.5, 0.2, 0.0, -0.1, 0.3], [0.2, 2.0, 0.4, 0.0, -0.2], [0.0, 0.4, 0.9, 0.1, 0.0],
                 [-0.1, 0.0, 0.1, 1.1, 0.25], [0.3, -0.2, 0.0, 0.25, 1.8]],
            ),
            (
                [0.5, -0.75, 0.0, 1.0, 1.25],
                [[0.8, -0.1, 0.2, 0.0, 0.0], [-0.1, 1.3, 0.0, 0.3, 0.1], [0.2, 0.0, 2.2, -0.4, 0.2],
                 [0.0, 0.3, -0.4, 1.6, 0.0], [0.0, 0.1, 0.2, 0.0, 0.7]],
            ),
            "2.26531553065", "1.80439459592",
        ),
    }

    @pytest.mark.parametrize("d", [3, 5])
    def test_bytes_pinned_both_ways(self, tmp_path, d):
        p_args, q_args, forward, backward = self.PAIRS[d]
        p = self.g(tmp_path, "p.json", *p_args)
        q = self.g(tmp_path, "q.json", *q_args)
        for a, b, expect in [(p, q, forward), (q, p, backward)]:
            res = run_cli(["kl", a, b])
            assert res.returncode == 0, res.stderr
            assert res.stdout == expect + "\n"

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
        "text",
        ['[0.0, [[1.0]]]', '"gaussian"', '{"mean": [0.0], "cov": {"a": 1}}'],
        ids=["top_level_list", "top_level_string", "cov_object"],
    )
    def test_malformed_json_exit_1(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        good = self.g(tmp_path, "q.json", [0.0], [[1.0]])
        res = run_cli(["kl", str(bad), good])
        assert res.returncode == 1
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1

    def test_pair_dim_mismatch_exit_3(self, tmp_path):
        p = self.g(tmp_path, "p.json", [0.0], [[1.0]])
        q = self.g(tmp_path, "q.json", [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        res = run_cli(["kl", p, q])
        assert res.returncode == 3
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1

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

    @pytest.mark.parametrize(
        "text",
        [
            '[[1.0]]',
            '{"scatter": [[1.0]], "shape": null}',
            '{"scatter": {"a": 1}, "shape": 3}',
        ],
        ids=["top_level_list", "shape_null", "scatter_object"],
    )
    def test_malformed_json_exit_1(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        res = run_cli(["sample", str(bad), "-n", "1"])
        assert res.returncode == 1
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1
        assert res.stdout == ""

    def test_bytes_match_per_element_repr(self, tmp_path):
        scatter, shape = [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]], 5.5
        n = 2 * cli._WRITE_BLOCK_ROWS + 3
        out = tmp_path / "draws.csv"
        assert main(["sample", self.dist(tmp_path, scatter, shape), "-n", str(n),
                     "--seed", "7", "--output", str(out)]) == 0
        w = wishart.WishartParams(scale_inv=pdcore.make_pd(scatter), shape=shape)
        draws = wishart.sample_wishart_batch(w, n, np.random.default_rng(7))
        expected = "".join(
            ",".join(repr(float(v)) for v in draws[k].ravel()) + "\n" for k in range(n)
        )
        # Digests keep a failure quick: pytest's diff of megabytes of text is not.
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == hashlib.sha256(expected.encode()).hexdigest()

    def test_seed_7_bytes_pinned(self, tmp_path):
        # The reference output quoted in README and ROADMAP: these bytes
        # change only with the sampler's documented stream.
        scatter, shape = [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]], 5.5
        out = tmp_path / "draws.csv"
        assert main(["sample", self.dist(tmp_path, scatter, shape), "-n", "100000",
                     "--seed", "7", "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "6cca4bea1a4c90e06444045af41c4aef96d07e70251cf190873930ee77464fdd"

    def test_no_fork_writes_in_one_process(self, tmp_path, monkeypatch):
        # Where os.fork does not exist (Windows) this process formats every block.
        scatter, shape = [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]], 5.5
        n = 2 * cli._WRITE_BLOCK_ROWS + 3
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "draws.csv"
        assert main(["sample", self.dist(tmp_path, scatter, shape), "-n", str(n),
                     "--seed", "7", "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.per_element_sha256(scatter, shape, n, 7)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_odd_blocks_sent_in_pieces_under_the_marshal_cap(self, tmp_path, monkeypatch):
        # Each odd block's 1.5 MB of text goes as 100 000-byte pieces.
        scatter, shape = [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]], 5.5
        n = 2 * cli._WRITE_BLOCK_ROWS + 3
        cap_marshal(monkeypatch, 100_000)
        out = tmp_path / "draws.csv"
        assert main(["sample", self.dist(tmp_path, scatter, shape), "-n", str(n),
                     "--seed", "7", "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.per_element_sha256(scatter, shape, n, 7)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def per_element_sha256(self, scatter, shape, n, seed):
        # The writer before one repr per distinct value: the reference bytes.
        d = len(scatter)
        w = wishart.WishartParams(scale_inv=pdcore.make_pd(scatter), shape=shape)
        draws = wishart.sample_wishart_batch(w, n, np.random.default_rng(seed))
        text = "".join(",".join(map(repr, row)) + "\n" for row in draws.reshape(n, d * d).tolist())
        # Digests keep a failure quick: pytest's diff of megabytes of text is not.
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize(
        "n", [0, 1, cli._WRITE_BLOCK_ROWS, cli._WRITE_BLOCK_ROWS + 1, 3 * cli._WRITE_BLOCK_ROWS + 5]
    )
    def test_bytes_match_per_element_writer(self, tmp_path, d, n):
        # No child (n <= one block), two blocks, and an odd block count.
        scatter = (np.eye(d) + 0.2 * np.ones((d, d))).tolist()
        out = tmp_path / "draws.csv"
        assert main(["sample", self.dist(tmp_path, scatter, d + 2.5), "-n", str(n),
                     "--seed", "5", "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.per_element_sha256(scatter, d + 2.5, n, 5)

    def test_stdout_bytes_match_per_element_writer(self, tmp_path):
        scatter, n = [[2.0, 0.3], [0.3, 1.0]], cli._WRITE_BLOCK_ROWS + 1
        res = run_cli(["sample", self.dist(tmp_path, scatter, 4.5), "-n", str(n),
                       "--seed", "9", "--output", "-"])
        assert res.returncode == 0 and res.stderr == ""
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == self.per_element_sha256(scatter, 4.5, n, 9)

    def test_formatter_child_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        pid, csv_lines = os.getpid(), cli._csv_lines

        def fail_in_child(block):
            if os.getpid() != pid:
                raise RuntimeError("formatter failed")
            return csv_lines(block)

        monkeypatch.setattr(cli, "_csv_lines", fail_in_child)
        out = tmp_path / "draws.csv"
        code = main(["sample", self.dist(tmp_path, [[1.0]], 3.0), "-n",
                     str(2 * cli._WRITE_BLOCK_ROWS), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: sample: ") and len(err.splitlines()) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_closed_stdout_exits_1_without_hanging(self, tmp_path):
        # `sample ... | head -c 100`: the reader goes away mid-write.
        d = self.dist(tmp_path, [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]], 5.5)
        proc = subprocess.Popen(
            [sys.executable, "-m", "klwishart", "sample", d, "-n", "100000", "--seed", "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.stderr.close()
        assert err.startswith("error: ") and len(err.splitlines()) == 1

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


def test_version_prints_one_json_line():
    # A narrow terminal, where argparse would wrap a version text.
    res = run_cli(["--version"], env={**os.environ, "COLUMNS": "30"})
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout.count("\n") == 1 and res.stdout.endswith("\n")
    versions = json.loads(res.stdout)
    assert list(versions) == ["klwishart", "numpy", "python", "blas"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert versions == {
        "klwishart": klwishart.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": f"{blas['name']} {blas['version']}",
    }


def test_main_in_process(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"mean": [0.0], "cov": [[1.0]]}))
    assert main(["kl", str(p), str(p)]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "0.000000000000"


# Malformed inputs, one per row: (files written to the test directory,
# argv with "{}" standing for that directory, extra environment, exit code).
_DATA_2D = "1,0\n0,1\n2,3\n-1,2\n"
_DATA_HUGE = "1e200,2e200\n-3e200,1e200\n2e200,-1e200\n-1e200,-2e200\n"
_MALFORMED = {
    "sample_shape_infinity": (
        {"d.json": '{"scatter": [[1.0]], "shape": Infinity}'},
        ["sample", "{}/d.json", "-n", "2"], {}, 1,
    ),
    "sample_shape_nan": (
        {"d.json": '{"scatter": [[1.0]], "shape": NaN}'},
        ["sample", "{}/d.json", "-n", "2"], {}, 1,
    ),
    "sample_scatter_overflow": (
        {"d.json": '{"scatter": [[1e400]], "shape": 3}'},
        ["sample", "{}/d.json", "-n", "2"], {}, 1,
    ),
    "sample_shape_string": (
        {"d.json": '{"scatter": [[1.0]], "shape": "inf"}'},
        ["sample", "{}/d.json", "-n", "2"], {}, 1,
    ),
    "sample_scatter_empty_row": (
        {"d.json": '{"scatter": [[]], "shape": 3}'},
        ["sample", "{}/d.json", "-n", "2"], {}, 3,
    ),
    "sample_negative_seed": (
        {"d.json": '{"scatter": [[1.0]], "shape": 3}'},
        ["sample", "{}/d.json", "-n", "2", "--seed", "-3"], {}, 1,
    ),
    "sample_env_seed_not_integer": (
        {"d.json": '{"scatter": [[1.0]], "shape": 3}'},
        ["sample", "{}/d.json", "-n", "2"], {"KLW_SEED": "abc"}, 1,
    ),
    "sample_output_unwritable": (
        {"d.json": '{"scatter": [[1.0]], "shape": 3}'},
        ["sample", "{}/d.json", "-n", "2", "--output", "{}/no/such/dir"], {}, 1,
    ),
    # 8e15 bytes of output exceed any 48-bit address space: the allocation
    # fails at once, and nothing is allocated.
    "sample_n_beyond_memory": (
        {"d.json": '{"scatter": [[1.0]], "shape": 3}'},
        ["sample", "{}/d.json", "-n", "1000000000000000"], {}, 1,
    ),
    "kl_mean_nested_too_deep": (
        {"p.json": '{"mean": ' + "[" * 100_000 + "]" * 100_000 + ', "cov": [[1]]}'},
        ["kl", "{}/p.json", "{}/p.json"], {}, 1,
    ),
    "kl_mean_nan": (
        {"p.json": '{"mean": [NaN], "cov": [[1.0]]}', "q.json": '{"mean": [0], "cov": [[1]]}'},
        ["kl", "{}/p.json", "{}/q.json"], {}, 1,
    ),
    "kl_cov_minus_infinity": (
        {"p.json": '{"mean": [0], "cov": [[-Infinity]]}'},
        ["kl", "{}/p.json", "{}/p.json"], {}, 1,
    ),
    "kl_mean_string": (
        {"p.json": '{"mean": ["nan"], "cov": [[1]]}'},
        ["kl", "{}/p.json", "{}/p.json"], {}, 1,
    ),
    "kl_missing_key": (
        {"p.json": '{"mean": [0]}'},
        ["kl", "{}/p.json", "{}/p.json"], {}, 1,
    ),
    "fit_mode_cov_without_cov_key": (
        {"x.csv": _DATA_2D, "c.json": '{"covariance": [[1, 0], [0, 1]]}'},
        ["fit", "--data", "{}/x.csv", "--alpha", "1", "--mode-cov", "{}/c.json"], {}, 1,
    ),
    "fit_mode_cov_nan": (
        {"x.csv": _DATA_2D, "c.json": '{"cov": [[NaN, 0], [0, 1]]}'},
        ["fit", "--data", "{}/x.csv", "--alpha", "1", "--mode-cov", "{}/c.json"], {}, 1,
    ),
    "fit_mode_cov_not_square": (
        {"x.csv": _DATA_2D, "c.json": '{"cov": [[1, 0, 0], [0, 1, 0]]}'},
        ["fit", "--data", "{}/x.csv", "--alpha", "1", "--mode-cov", "{}/c.json"], {}, 3,
    ),
    "fit_mode_cov_wrong_dimension": (
        {"x.csv": _DATA_2D, "c.json": "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"},
        ["fit", "--data", "{}/x.csv", "--alpha", "1", "--mode-cov", "{}/c.json"], {}, 3,
    ),
    # A stack of matrices is a bad shape, not a matrix.
    "fit_mode_cov_stack": (
        {"x.csv": _DATA_2D, "c.json": "[[[1, 0], [0, 1]]]"},
        ["fit", "--data", "{}/x.csv", "--alpha", "1", "--mode-cov", "{}/c.json"], {}, 3,
    ),
    "fit_mode_cov_stack_as_cov_object": (
        {"x.csv": _DATA_2D, "c.json": '{"cov": [[[1, 0], [0, 1]]]}'},
        ["fit", "--data", "{}/x.csv", "--mean-mode", "known", "--known-mu=0,0", "--alpha", "1",
         "--mode-cov", "{}/c.json"],
        {}, 3,
    ),
    "kl_cov_stack": (
        {"p.json": '{"mean": [[0, 0]], "cov": [[[1, 0], [0, 1]]]}', "q.json": '{"mean": [0, 0], "cov": [[1, 0], [0, 1]]}'},
        ["kl", "{}/p.json", "{}/q.json"], {}, 3,
    ),
    "kl_cov_stack_vector_mean": (
        {"p.json": '{"mean": [0, 0], "cov": [[[1, 0], [0, 1]]]}'},
        ["kl", "{}/p.json", "{}/p.json"], {}, 3,
    ),
    "sample_scatter_stack": (
        {"d.json": '{"scatter": [[[1.0]]], "shape": 3}'},
        ["sample", "{}/d.json", "-n", "2"], {}, 3,
    ),
    "fit_known_mu_wrong_length": (
        {"x.csv": _DATA_2D},
        ["fit", "--data", "{}/x.csv", "--mean-mode", "known", "--known-mu=0,0,0", "--alpha", "1"],
        {}, 3,
    ),
    "fit_output_unwritable": (
        {"x.csv": _DATA_2D},
        ["fit", "--data", "{}/x.csv", "--alpha", "1", "--output", "{}/no/such/dir"], {}, 1,
    ),
    "fit_degenerate_posterior_unknown_mean": (
        {"x.csv": "1,2\n2,4\n3,6\n"},
        ["fit", "--data", "{}/x.csv", "--alpha", "1e-300"], {}, 3,
    ),
    # Finite inputs whose arithmetic overflows.
    "kl_overflow": (
        {"p.json": '{"mean": [0], "cov": [[1e300]]}', "q.json": '{"mean": [0], "cov": [[1e-300]]}'},
        ["kl", "{}/p.json", "{}/q.json"], {}, 3,
    ),
    "kl_overflow_in_solve": (
        {"p.json": '{"mean": [1e300], "cov": [[1]]}', "q.json": '{"mean": [0], "cov": [[1e-300]]}'},
        ["kl", "{}/p.json", "{}/q.json"], {}, 3,
    ),
    "sample_overflow": (
        {"d.json": '{"scatter": [[1e-300]], "shape": 1e300}'},
        ["sample", "{}/d.json", "-n", "2"], {}, 3,
    ),
    "fit_overflow_alpha_one": (
        {"x.csv": _DATA_HUGE},
        ["fit", "--data", "{}/x.csv", "--alpha", "1"], {}, 3,
    ),
    "fit_overflow_alpha_zero": (
        {"x.csv": _DATA_HUGE},
        ["fit", "--data", "{}/x.csv", "--alpha", "0"], {}, 3,
    ),
    "check_negative_seed": ({}, ["check", "all", "--seed", "-1"], {}, 1),
    "check_env_seed_not_integer": ({}, ["check", "all"], {"KLW_SEED": "abc"}, 1),
}


@pytest.mark.parametrize("files, argv, env, code", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_input_exits_with_one_error_line(tmp_path, files, argv, env, code):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    res = run_cli([a.replace("{}", str(tmp_path)) for a in argv], env=dict(os.environ, **env))
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ")
    assert len(res.stderr.splitlines()) == 1
    assert res.stdout == ""


def test_overflow_while_loading_names_the_file(tmp_path):
    p = tmp_path / "p.json"
    p.write_text('{"mean": [0], "cov": [[1.7e308]]}')
    res = run_cli(["kl", str(p), str(p)])
    assert res.returncode == 3
    assert res.stderr == f"error: out of range: {p}: overflow encountered in add\n"


def test_mode_cov_not_read_at_alpha_zero(tmp_path):
    data = tmp_path / "x.csv"
    data.write_text(_DATA_2D)
    cov = tmp_path / "c.json"
    cov.write_text("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
    res = run_cli(["fit", "--data", str(data), "--alpha", "0", "--mode-cov", str(cov)])
    assert res.returncode == 0, res.stderr
    assert res.stderr == "warning: --mode-cov is ignored at alpha=0\n"
    assert "maximum-likelihood" in json.loads(res.stdout)["note"]


def _skeleton(value):
    """Key order and JSON types of a decoded report; a list shows the
    skeleton shared by all its items (numbers or lists, never objects)."""
    if isinstance(value, dict):
        return [(key, _skeleton(item)) for key, item in value.items()]
    if isinstance(value, list):
        (item,) = {_skeleton(item) for item in value}
        return f"list[{item}]"
    return type(value).__name__


_VEC = "list[float]"
_MAT = "list[list[float]]"


@pytest.mark.parametrize("alpha", ["0", "1"])
@pytest.mark.parametrize("known", [False, True], ids=["unknown_mean", "known_mean"])
def test_fit_report_shape(tmp_path, capsys, alpha, known):
    data = tmp_path / "x.csv"
    data.write_text(_DATA_2D)
    argv = ["fit", "--data", str(data), "--alpha", alpha]
    if known:
        argv += ["--mean-mode", "known", "--known-mu=0,1"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    if known:
        kl = [("alpha*", "float"), ("sigma*", _MAT)]
        map_estimate = [("cov", _MAT)]
    else:
        kl = [("alpha*", "float"), ("m*", _VEC), ("sigma*", _MAT)]
        map_estimate = [("mean", _VEC), ("cov", _MAT)]
    expected = [
        ("stats", [("n", "int"), ("mean", _VEC), ("centered_scatter", _MAT)]),
        ("posterior", [("kl", kl), ("classical", [("shape", "float"), ("scatter", _MAT)])]),
        ("map", map_estimate),
    ]
    if alpha == "0":
        expected.append(("note", "str"))
    assert _skeleton(report) == expected
