import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as sp_gamma, invgamma as sp_invgamma

from klwishart import pdcore, wishart
from klwishart._kernels import _BLOCK, batch_bartlett
from klwishart.errors import DimensionMismatch, InvalidShape
from klwishart.wishart import WishartParams

C = wishart._CHUNK


def random_pd(d, rng, spread=1.0):
    a = rng.standard_normal((d, d)) * spread
    return pdcore.make_pd(a @ a.T + d * np.eye(d))


def serial_randoms(w, n, rng):
    """The documented streams, drawn here in one pass: 4 integers from `rng`
    seed a SeedSequence, and its k-th child, on `rng`'s bit generator type,
    draws chunk k of C draws: the d gamma columns in turn, then the chunk's
    normals one entry of T's strict lower triangle at a time.  Returns the
    kernel's (n, d) diagonal and (n, d(d-1)/2) off-diagonal inputs."""
    d = w.dim
    tdiag, offd = np.empty((n, d)), np.empty((n, d * (d - 1) // 2))
    starts = range(0, n, C)
    children = np.random.SeedSequence(rng.integers(2**63, size=4).tolist()).spawn(len(starts))
    for start, child in zip(starts, children):
        chunk = np.random.Generator(type(rng.bit_generator)(child))
        b = min(C, n - start)
        for i in range(d):
            tdiag[start : start + b, i] = np.sqrt(2.0 * chunk.standard_gamma((w.shape - i) / 2.0, size=b))
        offd[start : start + b] = chunk.standard_normal((offd.shape[1], b)).T
    return tdiag, offd


def wp(v_entries, nu):
    """Construct from the scale matrix V."""
    v = pdcore.make_pd(v_entries)
    return WishartParams(scale_inv=pdcore.inverse(v), shape=nu)


class TestValidateShape:
    def test_ok(self):
        wishart.validate_shape(3.5, 3)

    def test_rank_deficient_regime(self):
        with pytest.raises(InvalidShape):
            wishart.validate_shape(2.0, 3)

    def test_boundary_excluded(self):
        with pytest.raises(InvalidShape):
            wishart.validate_shape(0.0, 1)

    def test_params_validate(self):
        with pytest.raises(InvalidShape):
            WishartParams(scale_inv=pdcore.make_pd(np.eye(3)), shape=1.9)
        with pytest.raises(InvalidShape):
            WishartParams(scale_inv=pdcore.make_pd(np.eye(3)), shape=2.0)


class TestLogPdf:
    def test_scalar_gamma_oracle(self):
        # d=1: W(v, nu) is Gamma(shape nu/2, scale 2v)
        w = wp([[1.0]], 2.0)
        p = pdcore.make_pd([[1.0]])
        oracle = sp_gamma.logpdf(1.0, a=1.0, scale=2.0)
        assert oracle == pytest.approx(math.log(0.5 * math.exp(-0.5)), abs=1e-12)
        assert wishart.wishart_log_pdf(w, p) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("nu", [1.2, 2.0, 3.0, 5.0])
    def test_normalization_1d(self, nu):
        w = wp([[1.0]], nu)
        total, _ = quad(
            lambda x: math.exp(wishart.wishart_log_pdf(w, pdcore.make_pd([[x]]))),
            1e-12,
            200.0,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mode_maximizes(self):
        rng = np.random.default_rng(31)
        v = random_pd(3, rng)
        w = WishartParams(scale_inv=pdcore.inverse(v), shape=7.3)
        mode = wishart.wishart_mode(w)
        at_mode = wishart.wishart_log_pdf(w, mode)
        for _ in range(50):
            noise = rng.standard_normal((3, 3)) * 0.1
            pert = pdcore.make_pd(mode.entries + noise @ noise.T + 0.05 * np.eye(3))
            assert wishart.wishart_log_pdf(w, pert) < at_mode

    def test_dim_mismatch(self):
        w = wp(np.eye(2), 5.0)
        with pytest.raises(DimensionMismatch):
            wishart.wishart_log_pdf(w, pdcore.make_pd(np.eye(3)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_log_normaliser_cached_and_bitwise_the_formula(self, d):
        rng = np.random.default_rng(d + 80)
        w = WishartParams(scale_inv=random_pd(d, rng), shape=d + 1.7)
        first = w.log_normaliser
        # log Z = (nu d / 2) log 2 - (nu/2) log|S| + (d(d-1)/4) log pi
        #         + sum_j log Gamma(nu/2 + (1-j)/2), in numpy float64.
        nu, a = w.shape, w.shape / 2.0
        lgammas = sum((math.lgamma(a + (1 - j) / 2.0) for j in range(1, d + 1)), np.float64(0.0))
        formula = (
            nu * d / 2.0 * math.log(2.0)
            - nu / 2.0 * w.scale_inv.logdet
            + (d * (d - 1) / 4.0 * math.log(math.pi) + lgammas)
        )
        assert first.tobytes() == formula.tobytes()
        assert w.log_normaliser is first

    # lgamma: log Gamma(nu / 2) overflows; log_det: (nu / 2) log|S| does,
    # in numpy arithmetic, so a direct read relies on the normaliser's own
    # raise_fp_errors.
    @pytest.mark.parametrize("scatter", [1.0, 1e300], ids=["lgamma", "log_det"])
    def test_overflowing_log_normaliser_raises_on_every_call(self, scatter):
        # The failure must not be cached.
        w = WishartParams(pdcore.make_pd([[scatter]]), 1e306)
        for _ in range(2):
            with pytest.raises(FloatingPointError):
                wishart.wishart_log_pdf(w, pdcore.make_pd([[1.0]]))
            with pytest.raises(FloatingPointError):
                w.log_normaliser
        assert w._log_normaliser is None

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scaling_equivariance(self, d):
        # P ~ W(V, nu) implies A P A' ~ W(A V A', nu): change-of-variables
        # residual (d+1) log|det A|.
        rng = np.random.default_rng(d + 60)
        v = random_pd(d, rng)
        nu = d + 2.7
        w1 = WishartParams(scale_inv=pdcore.inverse(v), shape=nu)
        a = rng.standard_normal((d, d)) + 2 * np.eye(d)
        v2 = pdcore.make_pd(a @ v.entries @ a.T)
        w2 = WishartParams(scale_inv=pdcore.inverse(v2), shape=nu)
        for _ in range(10):
            p = random_pd(d, rng)
            p2 = pdcore.make_pd(a @ p.entries @ a.T)
            resid = (
                wishart.wishart_log_pdf(w1, p)
                - wishart.wishart_log_pdf(w2, p2)
                - (d + 1) * math.log(abs(np.linalg.det(a)))
            )
            assert abs(resid) < 1e-9


class TestMoments:
    def test_mean_identity_scale(self):
        d = 3
        w = wp(np.eye(d), float(d + 2))
        assert np.allclose(wishart.wishart_mean(w).entries, (d + 2) * np.eye(d))

    def test_mean_diag(self):
        w = wp(np.diag([1.0, 2.0]), 5.0)
        assert np.allclose(wishart.wishart_mean(w).entries, np.diag([5.0, 10.0]))

    def test_mean_inverse_scalar(self):
        w = WishartParams(scale_inv=pdcore.make_pd([[2.0]]), shape=4.0)
        assert wishart.wishart_mean_inverse(w).entries[0, 0] == pytest.approx(1.0)

    def test_mean_inverse_identity(self):
        w = WishartParams(scale_inv=pdcore.make_pd(np.eye(2)), shape=5.0)
        assert np.allclose(wishart.wishart_mean_inverse(w).entries, 0.5 * np.eye(2))

    def test_mean_inverse_shape_too_small(self):
        w = wp(np.eye(2), 2.5)
        with pytest.raises(InvalidShape):
            wishart.wishart_mean_inverse(w)

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(37)
        v = random_pd(2, rng)
        w = WishartParams(scale_inv=pdcore.inverse(v), shape=5.0)
        draws = wishart.sample_wishart_batch(w, 100_000, rng)
        exact = wishart.wishart_mean(w).entries
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 3 * se)

    def test_monte_carlo_mean_inverse(self):
        rng = np.random.default_rng(41)
        w = WishartParams(scale_inv=pdcore.make_pd(np.eye(2)), shape=8.0)
        draws = wishart.sample_wishart_batch(w, 100_000, rng)
        inv = np.linalg.inv(draws)
        exact = wishart.wishart_mean_inverse(w).entries
        se = inv.std(axis=0, ddof=1) / math.sqrt(inv.shape[0])
        assert np.all(np.abs(inv.mean(axis=0) - exact) < 3 * se)


class TestMode:
    def test_identity_scale(self):
        w = wp(np.eye(2), 6.0)
        assert np.allclose(wishart.wishart_mode(w).entries, 3.0 * np.eye(2))

    def test_boundary_rejected(self):
        w = wp(np.eye(2), 3.0)  # nu = d + 1
        with pytest.raises(InvalidShape):
            wishart.wishart_mode(w)

    def test_local_optimality_rays(self):
        rng = np.random.default_rng(43)
        v = random_pd(2, rng)
        w = WishartParams(scale_inv=pdcore.inverse(v), shape=6.4)
        mode = wishart.wishart_mode(w)
        at_mode = wishart.wishart_log_pdf(w, mode)
        for _ in range(20):
            scale = 1.0 + rng.choice([-0.01, 0.01])
            pert = pdcore.make_pd(scale * mode.entries)
            assert wishart.wishart_log_pdf(w, pert) <= at_mode


class TestSampling:
    def test_scalar_monte_carlo(self):
        rng = np.random.default_rng(47)
        w = wp([[1.0]], 4.0)
        draws = wishart.sample_wishart_batch(w, 100_000, rng)[:, 0, 0]
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 4.0) < 3 * se

    def test_draw_is_pd(self):
        rng = np.random.default_rng(53)
        w = wp(np.eye(3), 2.5)  # nu < d + 1: still valid for sampling
        for _ in range(20):
            s = pdcore.make_pd(wishart.sample_wishart_batch(w, 1, rng)[0])
            assert isinstance(s, pdcore.PDMatrix)

    def test_seed_determinism(self):
        w = wp(np.eye(2), 4.2)
        a = pdcore.make_pd(wishart.sample_wishart_batch(w, 1, np.random.default_rng(99))[0]).entries
        b = pdcore.make_pd(wishart.sample_wishart_batch(w, 1, np.random.default_rng(99))[0]).entries
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_batch_equals_kernel_on_cholesky_of_scale(self, d):
        rng = np.random.default_rng(d + 80)
        w = WishartParams(scale_inv=random_pd(d, rng), shape=d + 2.5)
        draws = wishart.sample_wishart_batch(w, 500, np.random.default_rng(5))
        tdiag, offd = serial_randoms(w, 500, np.random.default_rng(5))
        L = np.linalg.cholesky(w.scale().entries)
        assert np.array_equal(draws, batch_bartlett(L, tdiag, offd))

    # n = 8191, 8192, 8193 and 24581 lie around the second chunk edge and
    # past the sixth.
    @pytest.mark.parametrize("n", [0, 1, 100, 2 * C - 1, 2 * C, 2 * C + 1, 6 * C + 5, 30_000])
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_stream_equals_serial_draws(self, d, n):
        # Two threads draw the chunks; the samples are those of drawing every
        # chunk's stream in its documented order, then running the kernel
        # once, and the caller's generator has drawn just the 4 integers.
        w = WishartParams(scale_inv=random_pd(d, np.random.default_rng(d)), shape=d + 0.5)
        rng = np.random.default_rng(n + 7)
        draws = wishart.sample_wishart_batch(w, n, rng)
        same = np.random.default_rng(n + 7)
        tdiag, offd = serial_randoms(w, n, same)
        assert draws.tobytes() == batch_bartlett(w.scale().factor, tdiag, offd).tobytes()
        four = np.random.default_rng(n + 7)
        four.integers(2**63, size=4)
        assert rng.bit_generator.state == four.bit_generator.state

    @pytest.mark.parametrize("delayed", ["helper", "caller", "neither"])
    def test_bytes_do_not_depend_on_which_thread_draws(self, delayed, monkeypatch):
        # With the helper held back the caller draws most chunks; with the
        # caller's draws slowed the helper does; with neither, thread
        # switches are forced often.  The bytes are those of the serial
        # reference every time.
        w = WishartParams(scale_inv=random_pd(3, np.random.default_rng(9)), shape=4.5)
        n, chunks = 6 * C + 5, 7
        tdiag, offd = serial_randoms(w, n, np.random.default_rng(11))
        expected = batch_bartlett(w.scale().factor, tdiag, offd)
        caller, on_caller, held = threading.get_ident(), {}, []
        step = wishart._Draws.step

        def recording_step(self, k=None):
            on_this = threading.get_ident() == caller
            if delayed == "helper" and not on_this and not held:
                held.append(True)
                time.sleep(0.2)
            if delayed == "caller" and on_this and on_caller:
                time.sleep(0.02)
            k = step(self, k)
            if k is not None:
                on_caller[k] = on_this
            return k

        monkeypatch.setattr(wishart._Draws, "step", recording_step)
        interval = sys.getswitchinterval()
        if delayed == "neither":
            sys.setswitchinterval(1e-6)
        try:
            draws = wishart.sample_wishart_batch(w, n, np.random.default_rng(11))
        finally:
            sys.setswitchinterval(interval)
        assert draws.tobytes() == expected.tobytes()
        assert sorted(on_caller) == list(range(chunks)) and on_caller[0]
        by_caller = sum(on_caller.values())
        if delayed == "helper":
            assert by_caller > chunks // 2, on_caller
        if delayed == "caller":
            assert by_caller <= chunks // 2, on_caller

    def test_helper_thread_only_beyond_one_chunk(self, monkeypatch):
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(wishart.threading, "Thread", Recording)
        w = WishartParams(scale_inv=random_pd(3, np.random.default_rng(4)), shape=4.5)
        for n, threads in [(0, 0), (1, 0), (100, 0), (C, 0), (C + 1, 1), (3 * C + 5, 1)]:
            started.clear()
            wishart.sample_wishart_batch(w, n, np.random.default_rng(n))
            assert len(started) == threads, n

    def test_kernel_runs_on_calling_thread_under_the_guard(self, monkeypatch):
        # Called through the module's global name, as a tracer rebinds it,
        # on this thread and under raise_fp_errors.
        seen = []

        def kernel(*args, **kwargs):
            seen.append((threading.get_ident(), np.geterr()["over"]))
            return batch_bartlett(*args, **kwargs)

        monkeypatch.setattr(wishart, "batch_bartlett", kernel)
        w = WishartParams(scale_inv=random_pd(3, np.random.default_rng(1)), shape=4.0)
        wishart.sample_wishart_batch(w, 2 * C + 1, np.random.default_rng(2))
        assert seen == [(threading.get_ident(), "raise")] * 3

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_kernel_reads_randoms_in_its_layout(self, d, monkeypatch):
        # Each chunk is drawn into the layout the kernel reads: the
        # transposes of tdiag and offd are C-contiguous, so the kernel's
        # ascontiguousarray copies nothing.
        seen = []

        def kernel(L, tdiag, offd, **kwargs):
            seen.append((len(tdiag), tdiag.T.flags.c_contiguous, offd.T.flags.c_contiguous))
            return batch_bartlett(L, tdiag, offd, **kwargs)

        monkeypatch.setattr(wishart, "batch_bartlett", kernel)
        w = WishartParams(scale_inv=random_pd(d, np.random.default_rng(6)), shape=d + 0.5)
        wishart.sample_wishart_batch(w, 2 * C + 1, np.random.default_rng(7))
        assert seen == [(C, True, True), (C, True, True), (1, True, True)]

    def test_concurrent_callers_under_short_switch_interval(self):
        # Four callers on two cores, each with its own generator and so its
        # own helper thread, with thread switches forced often.
        w = WishartParams(scale_inv=random_pd(3, np.random.default_rng(3)), shape=4.5)
        n = 3 * C + 5
        expected = [wishart.sample_wishart_batch(w, n, np.random.default_rng(s)) for s in range(4)]
        got = [None] * 4

        def run(s):
            got[s] = wishart.sample_wishart_batch(w, n, np.random.default_rng(s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(s,), daemon=True) for s in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for s in range(4):
            assert got[s] is not None and got[s].tobytes() == expected[s].tobytes(), s

    def test_peak_memory_close_to_output_randoms_and_scratch(self):
        # A call holds its (n, d, d) output, its n x d gammas and
        # n x d(d-1)/2 normals, and the kernel's scratch: three (d, d, _BLOCK)
        # buffers.  The kernel reads the randoms in place, without a copy.
        d, n = 10, 100_000
        w = WishartParams(scale_inv=random_pd(d, np.random.default_rng(8)), shape=d + 2.5)
        randoms = n * (d + d * (d - 1) // 2) * 8
        scratch = 3 * d * d * _BLOCK * 8
        tracemalloc.start()
        try:
            out = wishart.sample_wishart_batch(w, n, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * (out.nbytes + randoms + scratch), (peak, out.nbytes)

    @pytest.mark.parametrize("d,nu", [(1, 1.5), (2, 3.5), (3, 4.2)])
    def test_sampler_moments(self, d, nu):
        rng = np.random.default_rng(d * 10 + 1)
        v = random_pd(d, rng)
        w = WishartParams(scale_inv=pdcore.inverse(v), shape=nu)
        draws = wishart.sample_wishart_batch(w, 100_000, rng)
        exact = nu * w.scale().entries
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 3 * se)


def _draw_fails_on(thread):
    """A call of three chunks in which every draw after chunk 0 made on
    `thread` ("helper" or "caller") raises.  Each draw on the helper thread
    is slowed by 0.2 s: a failing helper raises while the caller waits for
    its chunk, and a working one leaves the caller to claim a chunk of its
    own."""
    caller = threading.get_ident()
    init = wishart._Draws.__init__

    class Stream:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_gamma(self, shape, out):
            on_helper = threading.get_ident() != caller
            if on_helper:
                time.sleep(0.2)
            if on_helper == (thread == "helper"):
                raise RuntimeError(f"{thread} draw failed")
            self.rng.standard_gamma(shape, out=out)

    def failing_after_chunk_0(self, *args):
        init(self, *args)
        self.streams[1:] = map(Stream, self.streams[1:])

    with mock.patch.object(wishart._Draws, "__init__", failing_after_chunk_0):
        wishart.sample_wishart_batch(
            WishartParams(pdcore.make_pd(np.eye(3)), 4.0), 3 * C, np.random.default_rng(0)
        )


# Failure -> (a call that fails after its first chunk, the error it raises).
_FAILURES = {
    "helper_draw": (lambda: _draw_fails_on("helper"), RuntimeError),
    "caller_draw": (lambda: _draw_fails_on("caller"), RuntimeError),
    # Seed 1 keeps every draw of the first chunk finite; the draws of the
    # eight chunks whose entries overflow are rows 19483 and 20722, in the
    # fifth and sixth.
    "kernel_overflow": (
        lambda: wishart.sample_wishart_batch(
            WishartParams(pdcore.make_pd(np.eye(2) / 7.25e306), 3.0), 8 * C, np.random.default_rng(1)
        ),
        FloatingPointError,
    ),
}


@pytest.mark.parametrize("call, error", _FAILURES.values(), ids=_FAILURES)
def test_failure_after_first_chunk_raises_and_leaves_no_thread(call, error):
    threads = threading.active_count()
    caught = []

    def run():
        try:
            call()
        except Exception as exc:
            caught.append(exc)

    # A daemon, so a caller left waiting on a chunk cannot hold up the run.
    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "sample_wishart_batch did not return"
    assert len(caught) == 1 and isinstance(caught[0], error), caught
    assert threading.active_count() == threads


def test_overflow_case_is_finite_in_its_first_chunk():
    w = WishartParams(pdcore.make_pd(np.eye(2) / 7.25e306), 3.0)
    assert np.isfinite(wishart.sample_wishart_batch(w, C, np.random.default_rng(1))).all()


class TestInverseWishart:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_jacobian_relation(self, d):
        rng = np.random.default_rng(d + 70)
        for _ in range(25):
            s = random_pd(d, rng)
            nu = d - 1 + 0.5 + 5 * rng.random()
            c = random_pd(d, rng)
            # C ~ IW(S, nu) iff C^{-1} ~ W(S^{-1}, nu): scatter-side parameter S
            w = WishartParams(scale_inv=s, shape=nu)
            lhs = wishart.iw_log_pdf(w, c)
            rhs = wishart.wishart_log_pdf(w, pdcore.inverse(c)) - (d + 1) * c.logdet
            assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_matches_density_through_inverse(self, d):
        # The factor-based evaluation against the formula that inverts C.
        rng = np.random.default_rng(d + 90)
        for _ in range(40):
            s = random_pd(d, rng, spread=3.0)
            c = random_pd(d, rng, spread=0.5)
            nu = d - 1 + 0.5 + 8 * rng.random()
            w = WishartParams(scale_inv=s, shape=nu)
            expect = wishart.wishart_log_pdf(w, pdcore.inverse(c)) - (d + 1) * c.logdet
            assert wishart.iw_log_pdf(w, c) == pytest.approx(expect, rel=1e-12)

    def test_scalar_invgamma_oracle(self):
        # d=1: IW(s, nu) is InvGamma(a = nu/2, scale = s/2)
        s, nu, x = 3.0, 4.5, 0.8
        w = WishartParams(scale_inv=pdcore.make_pd([[s]]), shape=nu)
        oracle = sp_invgamma.logpdf(x, a=nu / 2.0, scale=s / 2.0)
        assert wishart.iw_log_pdf(w, pdcore.make_pd([[x]])) == pytest.approx(
            oracle, abs=1e-10
        )

    def test_iw_mode_maximizes(self):
        rng = np.random.default_rng(83)
        s = random_pd(2, rng)
        w = WishartParams(scale_inv=s, shape=6.0)
        mode = wishart.iw_mode(w)
        assert np.allclose(mode.entries, s.entries / (6.0 + 2 + 1))
        at_mode = wishart.iw_log_pdf(w, mode)
        for _ in range(50):
            noise = rng.standard_normal((2, 2)) * 0.05
            pert = pdcore.make_pd(mode.entries + noise @ noise.T + 0.01 * np.eye(2))
            assert wishart.iw_log_pdf(w, pert) < at_mode


def test_multivariate_log_gamma_matches_scipy():
    from scipy.special import multigammaln

    for d in (1, 2, 3, 5):
        for a in (d / 2.0 + 0.3, 4.0, 10.5):
            assert wishart.multivariate_log_gamma(a, d) == pytest.approx(
                float(multigammaln(a, d)), abs=1e-10
            )
