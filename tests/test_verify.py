import json

import numpy as np
import pytest

from klwishart import gaussian, inference, klpriors, pdcore, verify, wishart


def rng(seed=0):
    return np.random.default_rng(seed)


class TestProportionality:
    def test_passes_multivariate(self):
        rep = verify.check_proportionality(d=3, alpha=0.7, trials=200, rng=rng(1))
        assert rep.passed
        assert rep.statistic < 1e-9

    def test_passes_scalar(self):
        rep = verify.check_proportionality(d=1, alpha=1.0, trials=200, rng=rng(2))
        assert rep.passed

    def test_corrupted_shape_detected(self, monkeypatch):
        # The known-mean prior given the unknown-mean shape nu = alpha + d.
        def wrong_shape(p):
            s = p.pseudocount * p.mode_cov.entries
            return klpriors._classical(s, p.pseudocount, known_mean=False)

        monkeypatch.setattr(klpriors, "to_wishart", wrong_shape)
        rep = verify.check_proportionality(d=3, alpha=0.7, trials=50, rng=rng(3))
        assert not rep.passed


class TestConjugacy:
    def test_passes(self):
        rep = verify.check_conjugacy(d=2, n=10, alpha=1.0, trials=100, rng=rng(4))
        assert rep.passed

    def test_passes_n_less_than_d(self):
        # n < d is fine with alpha > 0
        rep = verify.check_conjugacy(d=5, n=3, alpha=0.2, trials=50, rng=rng(5))
        assert rep.passed

    def test_corrupted_mean_detected(self, monkeypatch):
        # The posterior mean m* replaced by the unweighted average.
        posterior_unknown = inference.posterior_unknown

        def unweighted_mean(prior, stats):
            post = posterior_unknown(prior, stats)
            return inference.PosteriorNormalWishart(
                pseudocount_post=post.pseudocount_post,
                mean_post=0.5 * (prior.prior_mean + stats.sample_mean),
                mode_cov_post=post.mode_cov_post,
            )

        monkeypatch.setattr(inference, "posterior_unknown", unweighted_mean)
        rep = verify.check_conjugacy(d=2, n=10, alpha=1.0, trials=50, rng=rng(6))
        assert not rep.passed


    def test_merge_without_outer_product_detected(self, monkeypatch):
        # posterior_unknown merges the prior's pseudo-observations with
        # merge_stats; dropping the (n_a n_b / n) delta delta' term must show.
        def no_outer(a, b):
            n = a.count + b.count
            mean = (a.count * a.sample_mean + b.count * b.sample_mean) / n
            return inference.SufficientStats(n, mean, a.centered_scatter + b.centered_scatter)

        monkeypatch.setattr(inference, "merge_stats", no_outer)
        rep = verify.check_conjugacy(d=2, n=10, alpha=1.0, trials=50, rng=rng(6))
        assert not rep.passed


class TestStackedEvaluation:
    """Negative controls that reach the stack functions the proportionality
    and conjugacy checks call: each wrong term varies with the trial, so it
    cannot cancel."""

    def test_kl_without_q_logdet_fails_proportionality(self, monkeypatch):
        kl_stack = gaussian.kl_stack
        monkeypatch.setattr(gaussian, "kl_stack", lambda p, q: kl_stack(p, q) - 0.5 * q.cov.logdet)
        rep = verify.check_proportionality(d=3, alpha=0.7, trials=200, rng=rng(17))
        assert not rep.passed

    def test_logpdf_without_logdet_fails_conjugacy(self, monkeypatch):
        logpdf_stack = gaussian.logpdf_stack
        monkeypatch.setattr(
            gaussian, "logpdf_stack", lambda g, x: logpdf_stack(g, x) + 0.5 * g.cov.logdet[:, None]
        )
        rep = verify.check_conjugacy(d=2, n=10, alpha=1.0, trials=100, rng=rng(18))
        assert not rep.passed

    def test_scaled_quad_form_fails_both(self, monkeypatch):
        quad_form_stack = pdcore.quad_form_stack
        monkeypatch.setattr(pdcore, "quad_form_stack", lambda v, a: 1.01 * quad_form_stack(v, a))
        assert not verify.check_proportionality(d=3, alpha=0.7, trials=200, rng=rng(19)).passed
        assert not verify.check_conjugacy(d=2, n=10, alpha=1.0, trials=100, rng=rng(20)).passed

    @pytest.mark.parametrize(
        "check, density",
        [
            (lambda t: verify.check_proportionality(d=3, alpha=0.7, trials=t, rng=rng(21)), "kl"),
            (lambda t: verify.check_conjugacy(d=2, n=10, alpha=1.0, trials=t, rng=rng(22)), "logpdf"),
        ],
        ids=["proportionality", "conjugacy"],
    )
    def test_one_call_per_density_for_all_trials(self, monkeypatch, check, density):
        # A return to per-trial calls, of the single-matrix functions or of
        # the stack ones, fails here without a timing test.
        calls = []
        for module, name in [
            (klpriors, "log_density_nw_prior"),
            (klpriors, "log_density_nw_prior_stack"),
            (gaussian, density),
            (gaussian, f"{density}_stack"),
        ]:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        counts = []
        for trials in (2, 200):
            calls.clear()
            assert check(trials).passed
            counts.append(sorted(calls))
        assert counts[0] == counts[1] and 0 < len(counts[1]) <= 4


def _single_and_stacked(density):
    """`density` of three (mu, P) pairs, one call per pair and one stacked
    call: `wishart_log_pdf` or `log_density_nw_prior`."""
    r = rng(30)
    P = pdcore.make_pd_stack([verify.random_pd(2, r).entries for _ in range(3)])
    members = [pdcore.make_pd(m) for m in P.entries]
    mu = r.standard_normal((3, 2))
    if density == "wishart_log_pdf":
        w = wishart.WishartParams(verify.random_pd(2, r), 4.5)
        return [wishart.wishart_log_pdf(w, m) for m in members], wishart.wishart_log_pdf_stack(w, P)
    prior = klpriors.KLNormalWishartPrior(r.standard_normal(2), verify.random_pd(2, r), 0.7)
    return (
        [klpriors.log_density_nw_prior(prior, x, m) for x, m in zip(mu, members)],
        klpriors.log_density_nw_prior_stack(prior, mu, P),
    )


def _iw_log_pdf():
    """`iw_log_pdf` of three covariances, which reaches `wishart._log_pdf`."""
    r = rng(32)
    w = wishart.WishartParams(verify.random_pd(2, r), 4.5)
    return [wishart.iw_log_pdf(w, verify.random_pd(2, r)) for _ in range(3)]


class TestOneCopyOfEachPriorFormula:
    """Negative controls on the one copy of each prior formula: a wrong term
    in it moves the single function and its stack version alike, and the
    default suite reports a failure."""

    @pytest.mark.parametrize(
        "module, name, wrong, density, also",
        [
            (
                wishart,
                "_log_pdf",
                lambda f: lambda w, logdet, trace: f(w, logdet, 1.01 * trace),
                "wishart_log_pdf",
                [_iw_log_pdf],
            ),
            (
                klpriors,
                "_log_conditional",
                lambda f: lambda p, P, quad: f(p, P, quad) + 0.5 * P.logdet,
                "log_density_nw_prior",
                [],
            ),
        ],
        ids=["wishart_scaled_trace", "conditional_without_logdet"],
    )
    def test_wrong_term_moves_both_and_fails_the_suite(
        self, monkeypatch, module, name, wrong, density, also
    ):
        single, stacked = _single_and_stacked(density)
        others = [caller() for caller in also]
        monkeypatch.setattr(module, name, wrong(getattr(module, name)))
        wrong_single, wrong_stacked = _single_and_stacked(density)
        assert not np.isclose(wrong_single, single).any()
        assert not np.isclose(wrong_stacked, stacked).any()
        np.testing.assert_allclose(wrong_stacked, wrong_single, rtol=1e-13)
        for caller, before in zip(also, others):
            assert not np.isclose(caller(), before).any()
        reports = verify.run_suite(verify.DEFAULT_SUITE, seed=0)
        assert not all(r.passed for r in reports)


def _owner_callers():
    """Every caller of `gaussian._log_density`, `gaussian._kl` and
    `wishart.wishart_mode` on fixed inputs.  Pairs that must agree come as
    (single, stacked) or, for the mode, (`wishart_mode`, `map_known_mean`)."""
    r = rng(31)
    cov = pdcore.make_pd_stack([verify.random_pd(3, r).entries for _ in range(3)])
    mean = r.standard_normal((3, 3))
    members = [gaussian.Gaussian(m, pdcore.make_pd(c)) for m, c in zip(mean, cov.entries)]
    p = gaussian.Gaussian(r.standard_normal(3), verify.random_pd(3, r))
    x = r.standard_normal((4, 3))
    stack = gaussian.GaussianStack(mean, cov)
    prior = klpriors.KLWishartPrior(verify.random_pd(3, r), 0.7, r.standard_normal(3))
    post = inference.posterior_known_mean(prior, x)
    return {
        "logpdf": ([gaussian.logpdf(g, x) for g in members], gaussian.logpdf_stack(stack, x)),
        "kl": ([gaussian.kl(p, g) for g in members], gaussian.kl_stack(p, stack)),
        "log_density_nw_prior": _single_and_stacked("log_density_nw_prior"),
        "mode": (
            wishart.wishart_mode(post.wishart).entries,
            inference.map_known_mean(post).entries,
        ),
        "expected_loglik": gaussian.expected_loglik(p, mean[0], members[0].cov),
        "entropy": gaussian.entropy(p),
    }


class TestOneOwnerOfEachFormula:
    """Negative controls on the owners of the Gaussian log-density, the
    Gaussian KL and the Wishart mode: a wrong term in the owner moves every
    caller it applies to, the single function and its stack version alike,
    leaves the other callers bitwise unchanged, and fails the default suite."""

    @pytest.mark.parametrize(
        "module, name, wrong, pairs, derived",
        [
            (
                gaussian,
                "_log_density",
                lambda f: lambda d, logdet, maha: f(d, logdet, maha) + 0.5 * logdet,
                ["logpdf", "log_density_nw_prior"],
                ["expected_loglik", "entropy"],
            ),
            (
                gaussian,
                "_kl",
                lambda f: lambda p, q, trace, maha: f(p, q, trace, maha) + 0.01 * q.cov.logdet,
                ["kl"],
                [],
            ),
            (
                wishart,
                "wishart_mode",
                lambda f: lambda w: pdcore.make_pd(1.01 * f(w).entries),
                ["mode"],
                [],
            ),
        ],
        ids=["log_density_without_logdet", "kl_with_q_logdet", "scaled_mode"],
    )
    def test_wrong_owner_moves_every_caller_and_fails_the_suite(
        self, monkeypatch, module, name, wrong, pairs, derived
    ):
        before = _owner_callers()
        monkeypatch.setattr(module, name, wrong(getattr(module, name)))
        after = _owner_callers()
        for caller in pairs:
            (single, stacked), (wrong_single, wrong_stacked) = before[caller], after[caller]
            assert not np.isclose(wrong_single, single).any(), caller
            assert not np.isclose(wrong_stacked, stacked).any(), caller
            np.testing.assert_allclose(wrong_stacked, wrong_single, rtol=1e-13)
        for caller in derived:
            assert not np.isclose(after[caller], before[caller]), caller
        for caller in before.keys() - {*pairs, *derived}:
            np.testing.assert_array_equal(after[caller], before[caller])
        reports = verify.run_suite(verify.DEFAULT_SUITE, seed=0)
        assert not all(r.passed for r in reports)


class TestMoments:
    def test_passes_with_inverse(self):
        rep = verify.check_moments(d=2, nu=5.0, samples=100_000, rng=rng(7))
        assert rep.passed

    def test_passes_mean_only(self):
        rep = verify.check_moments(d=1, nu=1.5, samples=100_000, rng=rng(8))
        assert rep.passed
        assert "mean-only" in rep.detail

    @pytest.mark.parametrize("seed", range(16))
    def test_statistic_bitwise_mean_and_std_of_the_stack(self, seed):
        # The reference, written out: the stack's mean and std(ddof=1) over
        # the draws, as (d, d) arrays.
        def max_z(stack, exact):
            emp = stack.mean(axis=0)
            se = stack.std(axis=0, ddof=1) / np.sqrt(len(stack))
            return float(np.max(np.abs(emp - exact) / se))

        r = rng(seed)
        w = wishart.WishartParams(scale_inv=verify.random_pd(2, r), shape=5.0)
        draws = wishart.sample_wishart_batch(w, 100_000, r)
        expected = max(
            max_z(draws, wishart.wishart_mean(w).entries),
            max_z(verify._batch_inverse(draws), wishart.wishart_mean_inverse(w).entries),
        )
        rep = verify.check_moments(d=2, nu=5.0, samples=100_000, rng=rng(seed))
        assert np.float64(rep.statistic).tobytes() == np.float64(expected).tobytes()

    def test_inverse_mean_factor_diagonal(self):
        # E[P]^-1 and E[P^-1] differ by the exact factor nu/(nu-d-1)
        d, nu = 2, 7.0
        w = wishart.WishartParams(
            scale_inv=pdcore.make_pd(np.diag([2.0, 5.0])), shape=nu
        )
        mean_inv = pdcore.inverse(wishart.wishart_mean(w)).entries
        inv_mean = wishart.wishart_mean_inverse(w).entries
        assert np.allclose(inv_mean, nu / (nu - d - 1) * mean_inv, rtol=1e-12)


    def test_sampler_with_wrong_shape_detected(self, monkeypatch):
        # Draws from nu + 1 instead of nu must fail the moment identities.
        sample = wishart.sample_wishart_batch

        def wrong_shape(w, n, rng):
            return sample(wishart.WishartParams(w.scale_inv, w.shape + 1.0), n, rng)

        monkeypatch.setattr(wishart, "sample_wishart_batch", wrong_shape)
        rep = verify.check_moments(d=2, nu=5.0, samples=100_000, rng=rng(7))
        assert not rep.passed


    @pytest.mark.parametrize("name", ["wishart_mean", "wishart_mean_inverse"])
    def test_wrong_exact_moment_detected(self, monkeypatch, name):
        # The check takes E[P] and E[P^-1] from the library; a 5 % error in
        # either must fail it.
        exact = getattr(wishart, name)
        monkeypatch.setattr(wishart, name, lambda w: pdcore.make_pd(1.05 * exact(w).entries))
        rep = verify.check_moments(d=2, nu=5.0, samples=100_000, rng=rng(7))
        assert not rep.passed


class TestBatchInverse:
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_matches_linalg_inv(self, d, n):
        # Block edges of _BLOCK = 4096; Wishart draws as the moments check uses.
        w = wishart.WishartParams(verify.random_pd(d, rng(d)), shape=d + 2.5)
        mats = wishart.sample_wishart_batch(w, n, rng(n))
        before = mats.copy()
        got = verify._batch_inverse(mats)
        want = np.linalg.inv(mats)
        err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert err.max() <= 1e-10
        assert np.array_equal(mats, before)


class TestRankDeficiency:
    def test_rank_deficient(self):
        rep = verify.check_rank_deficiency(d=3, nu_int=2, rng=rng(9))
        assert rep.passed
        assert "rank=2" in rep.detail
        assert "accepted=False" in rep.detail

    def test_zero_shape(self):
        rep = verify.check_rank_deficiency(d=3, nu_int=0, rng=rng(10))
        assert rep.passed

    def test_zero_shape_takes_general_path(self):
        rep = verify.check_rank_deficiency(d=3, nu_int=0, rng=rng(10))
        assert rep.detail == "d=3 nu=0 rank=0 accepted=False"

    def test_full_rank_accepted(self):
        rep = verify.check_rank_deficiency(d=3, nu_int=3, rng=rng(11))
        assert rep.passed
        assert "accepted=True" in rep.detail


class TestMapGradient:
    def test_passes_known_and_joint(self):
        rep = verify.check_map_gradient(d=2, n=20, alpha=1.0, rng=rng(12))
        assert rep.passed

    def test_larger_case(self):
        rep = verify.check_map_gradient(d=3, n=30, alpha=0.5, rng=rng(13))
        assert rep.passed

    def test_negative_control(self, move_map_off):
        move_map_off()
        rep = verify.check_map_gradient(d=2, n=20, alpha=1.0, rng=rng(14))
        assert not rep.passed
        assert rep.statistic > 1e-3


class TestRandomPDPair:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_first_is_random_pd_and_product_is_identity(self, d):
        # The stacked trials against a loop of random_pd, each followed by
        # the trial's mean: member by member bitwise, the stream left alike.
        for seed in range(10):
            gen, same = rng(seed), rng(seed)
            p, cov, mean = verify._random_trials(d, 3, gen)
            for k in range(3):
                ref = verify.random_pd(d, same)
                assert p.entries[k].tobytes() == ref.entries.tobytes()
                assert p.factor[k].tobytes() == ref.factor.tobytes()
                assert mean[k].tobytes() == same.standard_normal(d).tobytes()
                assert np.abs(p.entries[k] @ cov.entries[k] - np.eye(d)).max() <= 1e-12
            assert gen.bit_generator.state == same.bit_generator.state


class TestReports:
    def test_json_lines(self):
        rep = verify.check_rank_deficiency(d=3, nu_int=2, rng=rng(15))
        obj = json.loads(rep.to_json())
        assert set(obj) == {"name", "passed", "statistic", "threshold", "detail"}
        assert obj["passed"] is True

    def test_passed_iff_threshold(self):
        rep = verify.CheckReport(
            name="x", passed=True, statistic=0.5, threshold=1.0
        )
        assert rep.passed == (rep.statistic <= rep.threshold)

    def test_determinism(self):
        a = verify.check_proportionality(d=2, alpha=1.0, trials=50, rng=rng(16))
        b = verify.check_proportionality(d=2, alpha=1.0, trials=50, rng=rng(16))
        assert a.statistic == b.statistic

    def test_run_suite_all(self):
        reports = verify.run_suite(verify.DEFAULT_SUITE, seed=1)
        assert [r.name for r in reports] == list(verify.DEFAULT_SUITE)
        assert all(r.passed for r in reports)

    def test_run_suite_passes_every_benchmark_seed(self):
        # Seeds 0-15 are the ones the lib-online benchmark cycles through.
        failed = [
            (seed, r.name, r.detail)
            for seed in range(16)
            for r in verify.run_suite(verify.DEFAULT_SUITE, seed)
            if not r.passed
        ]
        assert failed == []

    def test_run_suite_unknown(self):
        with pytest.raises(ValueError):
            verify.run_suite(["nonsense"], seed=1)

    def test_run_suite_unknown_names_choices_before_running(self, monkeypatch):
        monkeypatch.setattr(verify, "check_rank_deficiency", None)
        with pytest.raises(ValueError) as exc:
            verify.run_suite(["rank_deficiency", "x"], seed=1)
        choices = "all|proportionality|conjugacy|moments|rank_deficiency|map_gradient"
        assert str(exc.value) == f"unknown suite 'x'; choose from {choices}"

    def test_run_suite_calls_checks_by_module_name(self, monkeypatch):
        # A wrapper installed on the module attribute must see the call.
        seen = []
        original = verify.check_rank_deficiency

        def spy(**kwargs):
            seen.append(kwargs)
            return original(**kwargs)

        monkeypatch.setattr(verify, "check_rank_deficiency", spy)
        (report,) = verify.run_suite(["rank_deficiency"], seed=2)
        assert report.passed
        assert [sorted(k) for k in seen] == [["d", "nu_int", "rng"]]

    def test_json_key_order(self):
        rep = verify.check_rank_deficiency(d=3, nu_int=2, rng=rng(15))
        keys = list(json.loads(rep.to_json()))
        assert keys == ["name", "passed", "statistic", "threshold", "detail"]
