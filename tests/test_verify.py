import json

import numpy as np
import pytest

from klwishart import inference, klpriors, pdcore, verify, wishart


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


class TestMoments:
    def test_passes_with_inverse(self):
        rep = verify.check_moments(d=2, nu=5.0, samples=100_000, rng=rng(7))
        assert rep.passed

    def test_passes_mean_only(self):
        rep = verify.check_moments(d=1, nu=1.5, samples=100_000, rng=rng(8))
        assert rep.passed
        assert "mean-only" in rep.detail

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
        for seed in range(10):
            gen, same = rng(seed), rng(seed)
            p, cov = verify._random_pd_pair(d, gen)
            ref = verify.random_pd(d, same)
            assert p.entries.tobytes() == ref.entries.tobytes()
            assert p.factor.tobytes() == ref.factor.tobytes()
            assert gen.bit_generator.state == same.bit_generator.state
            assert np.abs(p.entries @ cov.entries - np.eye(d)).max() <= 1e-12


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
