import pytest
from hypothesis import settings

from klwishart import inference, pdcore

# Derandomized and without a deadline or example database, so every run of
# the suite draws the same examples and timing noise cannot fail a test.
settings.register_profile("klwishart", derandomize=True, deadline=None, database=None)
settings.load_profile("klwishart")


@pytest.fixture
def move_map_off(monkeypatch):
    """A call that, for the rest of the test, moves `inference.map_known_mean`
    and `inference.map_unknown` off the MAP: each precision scaled by 1.05
    and the unknown mean shifted by 0.05.  The negative control of the
    MAP-gradient check."""
    map_known, map_unknown = inference.map_known_mean, inference.map_unknown

    def moved_known(post):
        return pdcore.make_pd(1.05 * map_known(post).entries)

    def moved_unknown(post):
        mu_hat, cov_hat = map_unknown(post)
        return mu_hat + 0.05, pdcore.make_pd(cov_hat.entries / 1.05)

    def install():
        monkeypatch.setattr(inference, "map_known_mean", moved_known)
        monkeypatch.setattr(inference, "map_unknown", moved_unknown)

    return install
