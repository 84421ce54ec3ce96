import re
from pathlib import Path

import numpy as np

import klwishart as kw

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # The README's library example, run as written.
    text = README.read_text()
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert np.array_equal(scope["mu_hat"], scope["post"].mean_post)
    assert scope["cov_hat"] is scope["post"].mode_cov_post
    mu0, cov0 = kw.map_unknown(scope["post0"])
    ml_mu, ml_cov = kw.ml_estimate(kw.suff_stats(scope["data"]))
    assert np.array_equal(mu0, ml_mu)
    assert np.array_equal(cov0.entries, ml_cov)
