"""Command-line front end: fit, kl, sample, check.

CSV in, JSON out.  All randomness flows through an explicit seed; the
KLW_SEED environment variable applies when --seed is absent.  Subcommands
raise; `main` turns the exception into one `error:` line and the exit code
given by `_EXIT_TABLE` (1 file/parse errors, 2 insufficient data, 3 invalid
matrix/shape inputs or arithmetic overflow).  A failed verification check
exits 4.

The CLI parses, validates and formats but does no float arithmetic of its
own: overflow is the library's to detect (`pdcore.raise_fp_errors`), and it
reaches `main` as FloatingPointError.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from decimal import Decimal

import numpy as np

from . import inference, klpriors, pdcore, verify, wishart
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidShape,
    KLWishartError,
    NotPositiveDefinite,
)
from .gaussian import Gaussian, kl as gaussian_kl

EXIT_PARSE = 1
EXIT_INSUFFICIENT = 2
EXIT_BAD_MATRIX = 3
EXIT_CHECK_FAILED = 4

# (exception classes, exit code, message prefix); the first matching row
# wins, and an exception that matches no row is a bug and keeps its traceback.
_EXIT_TABLE = (
    (InsufficientData, EXIT_INSUFFICIENT, "insufficient data: "),
    (NotPositiveDefinite, EXIT_BAD_MATRIX, "not positive definite: "),
    (FloatingPointError, EXIT_BAD_MATRIX, "out of range: "),
    ((DimensionMismatch, InvalidShape), EXIT_BAD_MATRIX, "invalid shape: "),
    ((OSError, ValueError, KLWishartError), EXIT_PARSE, ""),
)

_WRITE_BLOCK_ROWS = 8192


def _resolve_seed(seed) -> int:
    """--seed, else KLW_SEED, else 0; must be a non-negative integer."""
    if seed is None:
        seed = os.environ.get("KLW_SEED", "0")
    try:
        if int(seed) >= 0:
            return int(seed)
    except ValueError:
        pass
    raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def read_csv(path: str) -> np.ndarray:
    """Read an (n, d) float array from a text file.

    Grammar: one observation per line; fields are separated by commas,
    whitespace or both (``1,2``, ``1 2`` and ``1, 2`` are the same row);
    lines that hold nothing but separators are skipped.  If the first such
    line does not parse as numbers it is a header and is skipped.  Every
    data row must have the same number of fields.  Fields are decimal
    floats as numpy.loadtxt reads them; no comment syntax.  The file is
    UTF-8 and may start with a byte-order mark.  NaN and
    infinite values, including overflowing literals such as 1e400, are
    rejected with the 1-based index of the data row (header and skipped
    lines not counted).  All failures raise ValueError.
    """
    with open(path, encoding="utf-8-sig") as fh:
        lines = [ln for ln in fh.read().replace(",", " ").split("\n") if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    try:
        list(map(float, lines[0].split()))
    except ValueError:
        del lines[0]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    try:
        data = np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError as exc:
        if len({len(ln.split()) for ln in lines}) > 1:
            raise ValueError(f"{path}: inconsistent column counts") from None
        raise ValueError(f"{path}: {exc}") from None
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = np.flatnonzero(~finite)[0] + 1
        raise ValueError(f"{path}: non-finite value in data row {row}")
    return data


def _finite(text: str) -> float:
    # Also the parse_constant hook: float() reads NaN, Infinity, -Infinity.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _load_json(path: str, build):
    """build(document) for the JSON file at path.  Every JSON number is read
    as a finite float; NaN, Infinity and overflowing literals are rejected.
    A KeyError, TypeError or ValueError while decoding or building becomes
    one ValueError naming the path; library errors and overflow get the path
    prepended and keep their class."""
    hooks = dict(parse_float=_finite, parse_int=_finite, parse_constant=_finite)
    with open(path) as fh:
        try:
            return build(json.load(fh, **hooks))
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        except (KLWishartError, FloatingPointError) as exc:
            raise type(exc)(f"{path}: {exc}") from None


def _object(obj) -> dict:
    if not isinstance(obj, dict):
        raise ValueError("top level must be a JSON object")
    return obj


def _numbers(value, name: str) -> np.ndarray:
    """A JSON number or (nested) list of numbers as a float array; strings,
    booleans and nulls are rejected rather than coerced."""
    a = np.asarray(value)
    if a.dtype != np.float64:
        raise TypeError(f"{name} must be a number or nested lists of numbers")
    return a


def _gaussian(obj) -> Gaussian:
    obj = _object(obj)
    mean = _numbers(obj["mean"], "mean")
    return Gaussian(mean, pdcore.make_pd(_numbers(obj["cov"], "cov")))


def _mode_cov(obj) -> pdcore.PDMatrix:
    return pdcore.make_pd(_numbers(obj["cov"] if isinstance(obj, dict) else obj, "cov"))


def _load_mode_cov(source: str, d: int) -> pdcore.PDMatrix:
    if source == "identity":
        return pdcore.make_pd(np.eye(d))
    cov = _load_json(source, _mode_cov)
    if cov.dim != d:
        raise DimensionMismatch(f"{source}: {cov.dim}x{cov.dim} matrix, {d} data columns")
    return cov


def _fit_report(args, data: np.ndarray) -> dict:
    stats = inference.suff_stats(data)
    d = stats.dim
    mu = None
    if args.mean_mode == "known":
        if args.known_mu is None:
            raise ValueError("--known-mu is required with --mean-mode known")
        mu = pdcore.finite_vector([float(x) for x in args.known_mu.split(",")], d, "--known-mu")
    elif args.known_mu is not None:
        raise ValueError("--known-mu only applies with --mean-mode known")

    if args.alpha == 0.0:
        if args.mode_cov != "identity":
            print("warning: --mode-cov is ignored at alpha=0", file=sys.stderr)
        post = inference.noninformative_posterior(stats, known_mu=mu)
    elif mu is not None:
        prior = klpriors.KLWishartPrior(
            mode_cov=_load_mode_cov(args.mode_cov, d), pseudocount=args.alpha, known_mean=mu
        )
        post = inference.posterior_known_mean(prior, data)
    else:
        prior = klpriors.KLNormalWishartPrior(
            prior_mean=np.zeros(d), mode_cov=_load_mode_cov(args.mode_cov, d),
            pseudocount=args.alpha,
        )
        post = inference.posterior_unknown(prior, stats)

    # tolist() turns float64 entries into Python floats for json.
    if mu is not None:
        sigma = inference.map_known_mean_cov(post).tolist()
        kl = {"alpha*": float(post.pseudo_total), "sigma*": sigma}
        w = post.wishart
        map_estimate = {"cov": sigma}
    else:
        mean, mode_cov = inference.map_unknown(post)
        sigma = mode_cov.entries.tolist()
        kl = {"alpha*": float(post.pseudocount_post), "m*": mean.tolist(), "sigma*": sigma}
        w, _, _ = klpriors.to_normal_wishart(post.as_prior())
        map_estimate = {"mean": mean.tolist(), "cov": sigma}
    classical = {"shape": float(w.shape), "scatter": w.scale_inv.entries.tolist()}
    report = {
        "stats": {
            "n": stats.count,
            "mean": stats.sample_mean.tolist(),
            "centered_scatter": stats.centered_scatter.tolist(),
        },
        "posterior": {"kl": kl, "classical": classical},
        "map": map_estimate,
    }
    if args.alpha == 0.0:
        report["note"] = "alpha=0: MAP equals the maximum-likelihood estimate"
    return report


def cmd_fit(args) -> int:
    if not (math.isfinite(args.alpha) and args.alpha >= 0):
        raise ValueError("--alpha must be a finite number >= 0")
    # Insertion key order and shortest round-trip floats: stable bytes.
    text = json.dumps(_fit_report(args, read_csv(args.data)), indent=2)
    with _output(args.output) as out:
        out.write(text + "\n")
    return 0


def _output(path: str):
    """A context manager for --output: stdout, left open, for '-'; else the file."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w")


def format_12sig(v: float) -> str:
    """12 significant digits, plain positional notation: v is rounded once,
    by the `.11e` format, and Decimal writes those digits out in full."""
    if v == 0.0:
        return "0.000000000000"
    return format(Decimal(f"{v:.11e}"), "f")


def cmd_kl(args) -> int:
    p = _load_json(args.p, _gaussian)
    q = _load_json(args.q, _gaussian)
    print(format_12sig(gaussian_kl(p, q)))
    return 0


def _wishart(obj) -> wishart.WishartParams:
    obj = _object(obj)
    family = obj.get("family", "wishart")
    if family != "wishart":
        raise ValueError(f"sampling not supported for family: {family}")
    scatter = pdcore.make_pd(_numbers(obj["scatter"], "scatter"))
    if not isinstance(obj["shape"], float):
        raise TypeError("shape must be a number")
    return wishart.WishartParams(scale_inv=scatter, shape=obj["shape"])


def cmd_sample(args) -> int:
    if args.n < 0:
        raise ValueError(f"-n must be >= 0, got {args.n}")
    w = _load_json(args.dist, _wishart)
    rng = np.random.default_rng(_resolve_seed(args.seed))
    draws = wishart.sample_wishart_batch(w, args.n, rng)
    rows = draws.reshape(args.n, w.dim * w.dim)
    with _output(args.output) as out:
        # tolist() yields Python floats, whose repr is the shortest string
        # that round-trips; converting in blocks bounds the memory it holds.
        for start in range(0, args.n, _WRITE_BLOCK_ROWS):
            block = rows[start : start + _WRITE_BLOCK_ROWS].tolist()
            out.writelines(",".join(map(repr, row)) + "\n" for row in block)
    return 0


def cmd_check(args) -> int:
    names = verify.DEFAULT_SUITE if args.suite == "all" else (args.suite,)
    reports = verify.run_suite(names, seed=_resolve_seed(args.seed))
    for rep in reports:
        print(rep.to_json())
    return 0 if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klwishart",
        description="Mode-and-pseudocount Wishart / normal-Wishart conjugate priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a posterior to CSV data")
    p_fit.add_argument("--data", required=True, help="CSV file, one observation per row")
    p_fit.add_argument("--mean-mode", choices=("known", "unknown"), default="unknown")
    p_fit.add_argument(
        "--known-mu",
        help="comma-separated known mean; write --known-mu=-0.5,1 when the "
        "first entry is negative, or it is read as an option",
    )
    p_fit.add_argument(
        "--alpha", type=float, default=None, required=True,
        help="pseudocount; 0 selects the non-informative limit",
    )
    p_fit.add_argument(
        "--mode-cov", default="identity",
        help="JSON file with the prior mode covariance, or 'identity'",
    )
    p_fit.add_argument("--output", default="-", help="output path or - for stdout")
    p_fit.set_defaults(func=cmd_fit)

    p_kl = sub.add_parser("kl", help="KL divergence between two Gaussian JSON files")
    p_kl.add_argument("p")
    p_kl.add_argument("q")
    p_kl.set_defaults(func=cmd_kl)

    p_sample = sub.add_parser("sample", help="draw Wishart samples to CSV")
    p_sample.add_argument("dist", help="JSON distribution file")
    p_sample.add_argument("-n", type=int, required=True, help="number of samples")
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--output", default="-")
    p_sample.set_defaults(func=cmd_sample)

    p_check = sub.add_parser("check", help="run the numerical verification suite")
    p_check.add_argument("suite", nargs="?", default="all")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for classes, code, prefix in _EXIT_TABLE:
            if isinstance(exc, classes):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
