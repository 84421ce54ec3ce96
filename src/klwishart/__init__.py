"""Mode-and-pseudocount Wishart / normal-Wishart conjugate priors for the
multivariate Gaussian, with exact posterior updates, MAP estimators,
Bartlett sampling and a numerical verification suite."""

from ._kernels import BACKEND
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidShape,
    KLWishartError,
    NotPositiveDefinite,
)
from .gaussian import Gaussian, entropy, expected_loglik, kl, logpdf
from .inference import (
    PosteriorKnownMean,
    PosteriorNormalWishart,
    SufficientStats,
    map_known_mean,
    map_known_mean_cov,
    map_unknown,
    merge_stats,
    ml_estimate,
    noninformative_posterior,
    posterior_known_mean,
    posterior_unknown,
    suff_stats,
)
from .klpriors import (
    KLNormalWishartPrior,
    KLWishartPrior,
    log_density_nw_prior,
    log_density_wishart_prior,
    to_normal_wishart,
    to_wishart,
)
from .pdcore import PDMatrix, make_pd
from .wishart import (
    WishartParams,
    iw_log_pdf,
    iw_mode,
    sample_wishart_batch,
    validate_shape,
    wishart_log_pdf,
    wishart_mean,
    wishart_mean_inverse,
    wishart_mode,
)

__version__ = "0.1.0"
