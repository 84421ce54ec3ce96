"""The benchmark's three workloads.

Each workload generates its inputs from the seed before timing, then runs
closed-loop cycles of operations with one client.  Every operation is timed
on its own and its output is checked against `reference`; an operation whose
check fails, or which raises, counts as failed.

A cycle is a fixed mix of operation kinds (`cycle`: kind -> operations per
cycle).  `cycle_s` is the sum over kinds of count times the fastest wall
time of that kind in the run, so a change to one kind moves it by that
kind's share of the cycle.  The fastest sample, not the median, because on
a shared host other tenants slow every instruction by up to a third in
phases of seconds to minutes (CPU time grows with wall time, so this is not
descheduling).  On a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) the median
cycle of lib-draws spread by 24 % of its value across five seeds, the
fastest by 4 %.  Medians and tails are reported beside it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref

CALL_TIMEOUT_S = 60.0


class Recorder:
    """Wall times, items and failures of the operations of one phase."""

    def __init__(self):
        self.times: dict[str, list[float]] = defaultdict(list)
        self.rss_mb: dict[str, list[float]] = defaultdict(list)
        self.items: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, kind: str, seconds: float, problems: list[str], items: int = 1, rss_mb: float | None = None):
        self.attempted += 1
        self.times[kind].append(seconds)
        self.items[kind] = items
        if rss_mb is not None:
            self.rss_mb[kind].append(rss_mb)
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{kind}: {'; '.join(problems)}")

    def error(self, label: str, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")

    def median(self, kind: str) -> float:
        return statistics.median(self.times[kind])


def cycle_s(workload, rec: Recorder) -> float:
    return sum(count * min(rec.times[kind]) for kind, count in workload.cycle.items())


def run_cycles(workload, rec: Recorder, seconds: float, whole_cycles: bool) -> int:
    """Run cycles until `seconds` have passed, at least one whole cycle.
    With whole_cycles the last cycle is finished; returns the cycles begun.
    An operation that raises counts as failed and the loop goes on."""
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        cycles += 1
        for part in workload.parts:
            try:
                part(rec)
            except Exception as exc:
                rec.error(getattr(part, "func", part).__name__, exc)
            if not whole_cycles and cycles > 1 and time.perf_counter() >= deadline:
                return cycles
        if time.perf_counter() >= deadline:
            return cycles


def child_env(src: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports klwishart from `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _close(actual, expected, what: str, rtol: float, out: list[str]) -> None:
    err = ref.rel_err(actual, expected)
    if not err <= rtol:
        out.append(f"{what} off by {err:.3e}")


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for the child and return (exit code, rusage); kill it on timeout.
    Polls every millisecond: Popen.wait(timeout) sleeps up to 50 ms between
    polls, which would quantise the measured wall time."""
    deadline = time.perf_counter() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.perf_counter() > deadline:
                raise TimeoutError(f"call exceeded {timeout:.0f} s")
            time.sleep(0.001)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


class CliIO:
    """`klwishart` subprocess calls (`python -m klwishart`, the console
    script's entry point) on generated files; in-process `cli.main(argv)`
    when traced."""

    name = "cli-io"
    D = 3
    FIT_ROWS = 200_000
    SAMPLE_N = 100_000
    NU = D + 2.5
    cycle = {"fit.unknown": 1, "fit.known": 1, "fit.alpha0": 1, "sample": 1, "kl": 1}

    def __init__(self, seed: int, workdir: Path, root: Path, env: dict[str, str]):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.env = env
        self.cli = None  # set to klwishart.cli to run in-process
        self.sample_calls = 0

        rng = np.random.default_rng([seed, 1])
        d = self.D
        self.x = ref.gaussian_rows(self.FIT_ROWS, rng.normal(0.0, 2.0, d), ref.random_spd(d, rng), rng)
        self.data = workdir / "data.csv"
        np.savetxt(self.data, self.x, delimiter=",", fmt="%.17g")  # %.17g round-trips every double
        self.known_mu = rng.normal(0.0, 1.0, d)

        scatter = ref.random_spd(d, rng)
        self.dist = workdir / "dist.json"
        self.dist.write_text(json.dumps({"family": "wishart", "scatter": scatter.tolist(), "shape": self.NU}))
        self.expected_draw_mean = self.NU * np.linalg.inv(scatter)

        gauss = []
        for label in ("p", "q"):
            mean, cov = rng.normal(0.0, 1.0, d), ref.random_spd(d, rng)
            path = workdir / f"{label}.json"
            path.write_text(json.dumps({"mean": mean.tolist(), "cov": cov.tolist()}))
            gauss.append((path, mean, cov))
        (self.p, pm, pc), (self.q, qm, qc) = gauss
        self.kl_expected = ref.gaussian_kl(pm, pc, qm, qc)

        eye = np.eye(d)
        self.expect_unknown = ref.nw_posterior(self.x, np.zeros(d), eye, 1.0)
        self.expect_known_cov = ref.known_mean_scatter(self.x, self.known_mu, eye, 1.0) / (self.FIT_ROWS + 1.0)
        self.expect_ml = ref.ml(self.x)

        self.parts = [self.fit_unknown, self.fit_known, self.fit_alpha0, self.sample, self.kl]

    def _call(self, argv: list[str], stdout_name: str):
        """Run one CLI call; returns (seconds, exit code, peak RSS in MB or None)."""
        out_path = self.workdir / stdout_name
        if self.cli is not None:
            with open(out_path, "w") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = self.cli.main(argv)
                seconds = time.perf_counter() - start
            return seconds, code, None
        with open(out_path, "w") as out, open(self.workdir / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "klwishart", *argv], stdout=out, stderr=err, env=self.env, cwd=self.root
            )
            code, usage = reap(proc, CALL_TIMEOUT_S)
            seconds = time.perf_counter() - start
        return seconds, code, usage.ru_maxrss / 1024.0

    def _fit(self, rec: Recorder, kind: str, extra: list[str], check) -> None:
        out = self.workdir / "fit.json"
        out.unlink(missing_ok=True)
        argv = ["fit", "--data", str(self.data), *extra, "--output", str(out)]
        problems: list[str] = []
        seconds, code, rss = self._call(argv, "fit.stdout")
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            report = json.loads(out.read_text())
            if report["stats"]["n"] != self.FIT_ROWS:
                problems.append(f"n = {report['stats']['n']}")
            check(report, problems)
        rec.op(kind, seconds, problems, items=self.FIT_ROWS, rss_mb=rss)

    def fit_unknown(self, rec: Recorder) -> None:
        a_post, m_post, s_post = self.expect_unknown

        def check(report, problems):
            if report["posterior"]["kl"]["alpha*"] != a_post:
                problems.append("alpha* differs from alpha + n")
            _close(report["map"]["mean"], m_post, "MAP mean", 1e-9, problems)
            _close(report["map"]["cov"], s_post, "MAP cov", 1e-9, problems)

        self._fit(rec, "fit.unknown", ["--alpha", "1"], check)

    def fit_known(self, rec: Recorder) -> None:
        mu = ",".join(repr(float(v)) for v in self.known_mu)

        def check(report, problems):
            _close(report["map"]["cov"], self.expect_known_cov, "known-mean MAP cov", 1e-9, problems)

        # The "=" form: a value starting with "-" would otherwise parse as an option.
        self._fit(rec, "fit.known", ["--mean-mode", "known", f"--known-mu={mu}", "--alpha", "1"], check)

    def fit_alpha0(self, rec: Recorder) -> None:
        mean, cov = self.expect_ml

        def check(report, problems):
            _close(report["map"]["mean"], mean, "alpha=0 MAP mean vs ML", 1e-9, problems)
            _close(report["map"]["cov"], cov, "alpha=0 MAP cov vs ML", 1e-9, problems)

        self._fit(rec, "fit.alpha0", ["--alpha", "0"], check)

    def sample(self, rec: Recorder) -> None:
        n = self.SAMPLE_N
        out = self.workdir / "draws.csv"
        out.unlink(missing_ok=True)
        self.sample_calls += 1
        argv = ["sample", str(self.dist), "-n", str(n), "--seed", str(self.seed * 1000 + self.sample_calls), "--output", str(out)]
        seconds, code, rss = self._call(argv, "sample.stdout")
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            values = np.loadtxt(out, delimiter=",", ndmin=2)
            if values.shape != (n, self.D * self.D):
                problems = [f"read back {values.shape} values"]
            else:
                problems = ref.wishart_draw_problems(values.reshape(n, self.D, self.D), n, self.expected_draw_mean)
        rec.op("sample", seconds, problems, items=n * self.D * self.D, rss_mb=rss)

    def kl(self, rec: Recorder) -> None:
        seconds, code, rss = self._call(["kl", str(self.p), str(self.q)], "kl.stdout")
        problems: list[str] = []
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            value = float((self.workdir / "kl.stdout").read_text().strip())
            if not abs(value - self.kl_expected) <= 1e-10 * max(1.0, abs(self.kl_expected)):
                problems.append(f"kl {value!r} vs closed form {self.kl_expected!r}")
        rec.op("kl", seconds, problems, rss_mb=rss)


class LibOnline:
    """In-process sequential Bayesian updating with 16-row batches."""

    name = "lib-online"
    DIMS = (2, 3, 5)
    STEPS = 64
    BATCH = 16
    POOL = 4
    ALPHA = 2.0
    # Suite seeds cycle through this fixed set, each of which passed every
    # check when the benchmark was written: the moments check is a z-test,
    # and a fresh seed per call would let its false alarms fail runs.
    SUITE_SEEDS = tuple(range(16))
    cycle = {"step.d2": STEPS, "step.d3": STEPS, "step.d5": STEPS, "suite": 1}

    def __init__(self, seed: int, kw):
        self.kw = kw
        self.seed = seed
        self.setups = {}
        for d in self.DIMS:
            rng = np.random.default_rng([seed, 2, d])
            mean, cov = rng.normal(0.0, 1.0, d), ref.random_spd(d, rng)
            episodes = [ref.gaussian_rows(self.STEPS * self.BATCH, mean, cov, rng) for _ in range(self.POOL)]
            m0, sigma0 = rng.normal(0.0, 1.0, d), ref.random_spd(d, rng)
            sigma0_pd = kw.pdcore.make_pd(sigma0)
            self.setups[d] = {
                "episodes": episodes,
                "known_mu": mean,
                "m0": m0,
                "sigma0": sigma0_pd.entries,
                "prior": kw.klpriors.KLNormalWishartPrior(m0, sigma0_pd, self.ALPHA),
                "known_prior": kw.klpriors.KLWishartPrior(sigma0_pd, self.ALPHA, mean),
                "start": kw.gaussian.Gaussian(m0, sigma0_pd),
            }
        self.episodes_run = defaultdict(int)
        self.suite_calls = 0
        self.parts = [functools.partial(self.episode, d) for d in self.DIMS] + [self.suite]

    def episode(self, d: int, rec: Recorder) -> None:
        kw = self.kw
        inference, klpriors, pdcore, gaussian, wishart = kw.inference, kw.klpriors, kw.pdcore, kw.gaussian, kw.wishart
        setup = self.setups[d]
        x = setup["episodes"][self.episodes_run[d] % self.POOL]
        self.episodes_run[d] += 1
        mu = setup["known_mu"]
        prior, known_prior, prev = setup["prior"], setup["known_prior"], setup["start"]
        acc = None
        kind = f"step.d{d}"
        for s in range(self.STEPS):
            batch = x[s * self.BATCH : (s + 1) * self.BATCH]
            start = time.perf_counter()
            stats = inference.suff_stats(batch)
            acc = stats if acc is None else inference.merge_stats(acc, stats)
            post = inference.posterior_unknown(prior, stats)
            prior = post.as_prior()
            known_post = inference.posterior_known_mean(known_prior, batch)
            known_prior = klpriors.KLWishartPrior(
                pdcore.make_pd(inference.map_known_mean_cov(known_post)), known_post.pseudo_total, mu
            )
            mu_hat, cov_hat = inference.map_unknown(post)
            p_known = inference.map_known_mean(known_post)
            ml_post = inference.noninformative_posterior(acc)
            g = gaussian.Gaussian(mu_hat, cov_hat)
            loglik = sum(gaussian.logpdf(g, row) for row in batch)
            kl = gaussian.kl(prev, g)
            p_hat = pdcore.inverse(cov_hat)
            lp_prior = klpriors.log_density_nw_prior(prior, mu_hat, p_hat)
            lp_known = wishart.wishart_log_pdf(known_post.wishart, p_known)
            seconds = time.perf_counter() - start

            problems: list[str] = []
            cov = cov_hat.entries
            for what, got, want in (
                ("logpdf", loglik, ref.gaussian_logpdf_sum(batch, mu_hat, cov)),
                ("kl", kl, ref.gaussian_kl(prev.mean, prev.cov.entries, mu_hat, cov)),
                ("nw prior", lp_prior, ref.nw_log_prior(mu_hat, p_hat.entries, prior.prior_mean, prior.mode_cov.entries, prior.pseudocount)),
                ("wishart", lp_known, ref.wishart_logpdf(p_known.entries, known_post.wishart.scale_inv.entries, known_post.wishart.shape)),
            ):
                if not abs(got - want) <= 1e-8 * max(1.0, abs(want)):
                    problems.append(f"{what} {got!r} vs {want!r}")
            if s == self.STEPS - 1:
                self._check_episode(x, setup, acc, prior, known_prior, ml_post, problems)
            rec.op(kind, seconds, problems)
            prev = g

    def _check_episode(self, x, setup, acc, prior, known_prior, ml_post, problems) -> None:
        """Sequential results against one batch over the concatenated rows."""
        n = x.shape[0]
        mean, cov = ref.ml(x)
        if acc.count != n:
            problems.append(f"merged count {acc.count} != {n}")
        _close(acc.sample_mean, mean, "merged mean", 1e-9, problems)
        _close(acc.centered_scatter, n * cov, "merged scatter", 1e-9, problems)
        a_post, m_post, s_post = ref.nw_posterior(x, setup["m0"], setup["sigma0"], self.ALPHA)
        if abs(prior.pseudocount - a_post) > 1e-9 * a_post:
            problems.append("sequential alpha*")
        _close(prior.prior_mean, m_post, "sequential m*", 1e-9, problems)
        _close(prior.mode_cov.entries, s_post, "sequential Sigma*", 1e-9, problems)
        scatter = ref.known_mean_scatter(x, setup["known_mu"], setup["sigma0"], self.ALPHA)
        _close(known_prior.pseudocount * known_prior.mode_cov.entries, scatter, "sequential known scatter", 1e-9, problems)
        _close(ml_post.mean_post, mean, "alpha=0 mean vs ML", 1e-9, problems)
        _close(ml_post.mode_cov_post.entries, cov, "alpha=0 cov vs ML", 1e-9, problems)

    def suite(self, rec: Recorder) -> None:
        verify = self.kw.verify
        seed = self.SUITE_SEEDS[(self.seed + self.suite_calls) % len(self.SUITE_SEEDS)]
        self.suite_calls += 1
        start = time.perf_counter()
        reports = verify.run_suite(verify.DEFAULT_SUITE, seed)
        seconds = time.perf_counter() - start
        problems = [f"{r.name} failed: {r.detail}" for r in reports if not r.passed]
        if [r.name for r in reports] != list(verify.DEFAULT_SUITE):
            problems.append("suite did not report every check")
        rec.op("suite", seconds, problems)


class LibDraws:
    """In-process Bartlett sampling, n = 1e5 draws per call, nu = d + 2.5."""

    name = "lib-draws"
    N = 100_000
    # (d, calls per cycle): at the parent commit each size takes about half
    # of a cycle, so a change on either side of a crossover in d shows.
    PLAN = ((3, 5), (10, 1))
    cycle = {f"draws.d{d}": calls for d, calls in PLAN}

    def __init__(self, seed: int, kw):
        self.kw = kw
        self.seed = seed
        self.targets = {}
        for d, _ in self.PLAN:
            rng = np.random.default_rng([seed, 3, d])
            nu = d + 2.5
            w = kw.wishart.WishartParams(kw.pdcore.make_pd(np.linalg.inv(ref.random_spd(d, rng))), nu)
            self.targets[d] = (w, nu * np.linalg.inv(w.scale_inv.entries))
        self.calls = defaultdict(int)
        self.parts = [functools.partial(self.draw, d) for d, calls in self.PLAN for _ in range(calls)]

    def draw(self, d: int, rec: Recorder) -> None:
        w, expected_mean = self.targets[d]
        rng = np.random.default_rng([self.seed, 4, d, self.calls[d]])
        self.calls[d] += 1
        start = time.perf_counter()
        draws = self.kw.wishart.sample_wishart_batch(w, self.N, rng)
        seconds = time.perf_counter() - start
        rec.op(f"draws.d{d}", seconds, ref.wishart_draw_problems(draws, self.N, expected_mean), items=self.N)


def kernel_sweep(kernels, seed: int, rec: Recorder, n: int = 100_000, repeats: int = 5) -> dict[int, float]:
    """Median time of the Bartlett kernel alone on pre-drawn randoms, per d."""
    medians = {}
    for d in (2, 3, 5, 10):
        rng = np.random.default_rng([seed, 5, d])
        nu = d + 2.5
        factor = np.linalg.cholesky(ref.random_spd(d, rng))
        tdiag = np.sqrt(rng.gamma(shape=(nu - np.arange(d)) / 2.0, scale=2.0, size=(n, d)))
        offd = rng.standard_normal((n, d * (d - 1) // 2))
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            out = kernels.batch_bartlett(factor, tdiag, offd)
            times.append(time.perf_counter() - start)
            problems: list[str] = []
            for k in (0, n // 2, n - 1):
                _close(out[k], ref.bartlett(factor, tdiag[k], offd[k]), f"kernel draw {k}", 1e-12, problems)
            rec.op(f"kernel.d{d}", times[-1], problems, items=n)
        medians[d] = statistics.median(times)
    return medians


WORKLOADS = {w.name: w for w in (CliIO, LibOnline, LibDraws)}
