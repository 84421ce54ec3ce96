"""Random JSON documents through `kl` and `sample`, in process: every run
ends in exit 0 with finite output, or in exit 1 or 3 with one `error:` line."""

import contextlib
import io
import json
import math

from hypothesis import given, settings, strategies as st

from klwishart.cli import main

# JSON numbers: small integers and eighths, plus the non-finite constants
# that Python's json module writes as NaN, Infinity and -Infinity.
finite = st.integers(-4, 4) | st.integers(-64, 64).map(lambda k: k / 8)
numbers = finite | st.sampled_from([math.nan, math.inf, -math.inf])
values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
vectors = st.lists(numbers, min_size=1, max_size=3)
matrices = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(numbers, min_size=d, max_size=d), min_size=d, max_size=d)
)
fields = vectors | matrices | values


def diagonal(d):
    return st.lists(st.integers(1, 9), min_size=d, max_size=d).map(
        lambda v: [[v[i] if i == j else 0 for j in range(d)] for i in range(d)]
    )


def gaussian(d):
    return st.fixed_dictionaries(
        {"mean": st.lists(finite, min_size=d, max_size=d), "cov": diagonal(d)}
    )


# Each strategy mixes well-formed documents with arbitrary ones, so that a
# fair share of the runs reaches exit 0.
any_gaussian = st.fixed_dictionaries({"mean": vectors | values, "cov": fields}) | values
gaussian_pairs = st.one_of(
    st.integers(1, 3).flatmap(lambda d: st.tuples(gaussian(d), gaussian(d))),
    st.tuples(any_gaussian, any_gaussian),
)
wisharts = st.one_of(
    st.integers(1, 3).flatmap(
        lambda d: st.fixed_dictionaries(
            {"scatter": diagonal(d), "shape": finite},
            optional={"family": st.just("wishart")},
        )
    ),
    st.fixed_dictionaries(
        {"scatter": fields, "shape": numbers | values},
        optional={"family": st.sampled_from(["wishart", "gaussian"]) | values},
    ),
    values,
)


def run(tmp_path_factory, docs, argv):
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = []
    for k, doc in enumerate(docs):
        path = tmp / f"{k}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(*paths) for a in argv])
    assert code in (0, 1, 3)
    if code != 0:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
        assert out.getvalue() == ""
        return None
    assert err.getvalue() == ""
    return out.getvalue()


@settings(max_examples=150)
@given(pair=gaussian_pairs)
def test_kl_random_documents(tmp_path_factory, pair):
    out = run(tmp_path_factory, pair, ["kl", "{0}", "{1}"])
    if out is not None:
        assert math.isfinite(float(out))


@settings(max_examples=150)
@given(dist=wisharts)
def test_sample_random_documents(tmp_path_factory, dist):
    out = run(tmp_path_factory, [dist], ["sample", "{0}", "-n", "3", "--seed", "1"])
    if out is not None:
        rows = out.splitlines()
        assert len(rows) == 3
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
