"""What `perfbench/run.py` uses of the package still exists, so a change
that drops a traced name fails here instead of in `run.py --trace 1`."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import klwishart
from klwishart import inference, klpriors, pdcore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # run.py imports its siblings by bare name; load it without writing
    # bytecode into perfbench/.
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag


def test_traced_functions_resolve(bench):
    assert bench.TRACED_FUNCTIONS
    for module, attr, _ in bench.TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"klwishart.{module}"), attr)), (module, attr)


def test_backend_constant_exists():
    assert isinstance(klwishart.BACKEND, str)


def test_posterior_known_mean_takes_raw_rows(bench):
    rows = np.random.default_rng(0).standard_normal((16, 3))
    prior = klpriors.KLWishartPrior(pdcore.make_pd(np.eye(3)), 2.0, np.zeros(3))
    post = inference.posterior_known_mean(prior, rows)
    assert isinstance(post, inference.PosteriorKnownMean)
    counter = bench.ITEM_COUNTERS["inference.posterior_known_mean"]
    assert counter((prior, rows), {}, post) == {"rows": 16}


def test_lib_online_episode_has_no_failed_operations(bench):
    # One d = 2 episode of the lib-online workload, with its own reference
    # checks: it reads attributes the tracer does not wrap (pseudo_total,
    # wishart, as_prior, mean_post, map_known_mean_cov).
    names = ("gaussian", "inference", "klpriors", "pdcore", "verify", "wishart")
    kw = SimpleNamespace(**{name: importlib.import_module(f"klwishart.{name}") for name in names})
    workload = bench.wl.LibOnline(1, kw)
    rec = bench.wl.Recorder()
    workload.episode(2, rec)
    assert rec.attempted == workload.STEPS
    assert rec.failed == 0, rec.failures
