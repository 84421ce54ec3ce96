"""The error vocabulary, the exit code each class maps to, and one check of
every operand-dimension condition."""

import inspect

import numpy as np
import pytest

import klwishart
from klwishart import cli, errors, gaussian, inference, klpriors, pdcore, wishart
from klwishart.errors import DimensionMismatch
from klwishart.gaussian import Gaussian
from klwishart.klpriors import KLNormalWishartPrior, KLWishartPrior
from klwishart.wishart import WishartParams

# Exit codes as the README's table states them.
README_EXIT_CODES = {
    "KLWishartError": 1,
    "InsufficientData": 2,
    "NotPositiveDefinite": 3,
    "DimensionMismatch": 3,
    "InvalidShape": 3,
}


def _classes():
    return {
        name: cls
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    }


def test_errors_defines_exactly_the_five_classes():
    assert set(_classes()) == set(README_EXIT_CODES)


@pytest.mark.parametrize("name", sorted(README_EXIT_CODES))
def test_error_class_exported_and_mapped_to_its_exit_code(name):
    cls = _classes()[name]
    assert getattr(klwishart, name) is cls
    code = next(code for types, code, _ in cli._EXIT_TABLE if issubclass(cls, types))
    assert code == README_EXIT_CODES[name]


D = 2


def _pd(d):
    return pdcore.make_pd(np.eye(d))


def _wishart(d):
    return WishartParams(_pd(d), d + 2.0)


def _stats(d):
    return inference.suff_stats(np.random.default_rng(0).standard_normal((d + 3, d)))


# Each case pits an operand of dimension D against one of dimension D + 1.
_MISMATCHED = {
    "log_density_wishart_prior": lambda: klpriors.log_density_wishart_prior(
        KLWishartPrior(_pd(D), 1.0, np.zeros(D)), _pd(D + 1)
    ),
    "log_density_nw_prior": lambda: klpriors.log_density_nw_prior(
        KLNormalWishartPrior(np.zeros(D), _pd(D), 1.0), np.zeros(D), _pd(D + 1)
    ),
    "expected_loglik": lambda: gaussian.expected_loglik(
        Gaussian(np.zeros(D), _pd(D)), np.zeros(D), _pd(D + 1)
    ),
    "wishart_log_pdf": lambda: wishart.wishart_log_pdf(_wishart(D), _pd(D + 1)),
    "iw_log_pdf": lambda: wishart.iw_log_pdf(_wishart(D), _pd(D + 1)),
    "kl": lambda: gaussian.kl(
        Gaussian(np.zeros(D), _pd(D)), Gaussian(np.zeros(D + 1), _pd(D + 1))
    ),
    "trace_product": lambda: pdcore.trace_product(_pd(D), _pd(D + 1)),
    "quad_form": lambda: pdcore.quad_form(np.zeros(D), _pd(D + 1)),
    "posterior_unknown": lambda: inference.posterior_unknown(
        KLNormalWishartPrior(np.zeros(D), _pd(D), 1.0), _stats(D + 1)
    ),
    "merge_stats": lambda: inference.merge_stats(_stats(D), _stats(D + 1)),
}


@pytest.mark.parametrize("case", list(_MISMATCHED))
def test_dimension_mismatch_raises(case):
    with pytest.raises(DimensionMismatch):
        _MISMATCHED[case]()
