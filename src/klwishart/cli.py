"""Command-line front end: fit, kl, sample, check.

CSV in, JSON out.  All randomness flows through an explicit seed; the
KLW_SEED environment variable applies when --seed is absent.  Exit codes:
1 file/parse errors, 2 insufficient data, 3 invalid matrix/shape inputs,
4 failed verification checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import inference, klpriors, pdcore, verify, wishart
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidShape,
    KLWishartError,
    NotPositiveDefinite,
    NotSquare,
)
from .gaussian import Gaussian, kl as gaussian_kl

EXIT_PARSE = 1
EXIT_INSUFFICIENT = 2
EXIT_BAD_MATRIX = 3
EXIT_CHECK_FAILED = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_seed(seed) -> int:
    if seed is not None:
        return int(seed)
    env = os.environ.get("KLW_SEED")
    if env is not None:
        return int(env)
    return 0


def read_csv(path: str) -> np.ndarray:
    """Rows of numeric columns; comma or whitespace delimited; a
    non-numeric first row is treated as a header and skipped."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")

    def parse_row(line: str):
        parts = [p for p in line.replace(",", " ").split() if p]
        return [float(p) for p in parts]

    start = 0
    try:
        parse_row(lines[0])
    except ValueError:
        start = 1
    rows = [parse_row(ln) for ln in lines[start:]]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: inconsistent column counts")
    return np.asarray(rows, dtype=float)


def _canonical_json(obj) -> str:
    # Fixed key order (insertion), shortest round-trip floats: stable for
    # golden files and byte-identical under reparse/reserialize.
    return json.dumps(obj, indent=2)


def _mat(m: np.ndarray):
    return [list(map(float, row)) for row in np.asarray(m)]


def _vec(v: np.ndarray):
    return list(map(float, np.asarray(v)))


def _load_gaussian(path: str) -> Gaussian:
    with open(path) as fh:
        obj = json.load(fh)
    return Gaussian(np.asarray(obj["mean"], dtype=float), pdcore.make_pd(obj["cov"]))


def _load_mode_cov(source: str, d: int) -> pdcore.PDMatrix:
    if source == "identity":
        return pdcore.make_pd(np.eye(d))
    with open(source) as fh:
        obj = json.load(fh)
    raw = obj["cov"] if isinstance(obj, dict) else obj
    return pdcore.make_pd(raw)


def _fit_report(args, data: np.ndarray) -> dict:
    stats = inference.suff_stats(data)
    d = stats.dim
    known = args.mean_mode == "known"
    if known:
        if args.known_mu is None:
            raise ValueError("--known-mu is required with --mean-mode known")
        mu = np.asarray([float(x) for x in args.known_mu.split(",")])
        if mu.shape != (d,):
            raise ValueError(f"--known-mu has {mu.shape[0]} entries, data has {d} columns")
    elif args.known_mu is not None:
        raise ValueError("--known-mu only applies with --mean-mode known")

    report: dict = {
        "stats": {
            "n": stats.count,
            "mean": _vec(stats.sample_mean),
            "centered_scatter": _mat(stats.centered_scatter),
        }
    }

    if args.alpha == 0.0:
        direction = None
        if args.mode_cov != "identity":
            print(
                "warning: --mode-cov is ignored at alpha=0 (limit direction only)",
                file=sys.stderr,
            )
            direction = _load_mode_cov(args.mode_cov, d)
        if known:
            post = inference.noninformative_posterior(
                stats, known_mu=mu, sigma_direction=direction
            )
            cov_hat = inference.map_known_mean_cov(post)
            report["posterior"] = _known_posterior_json(post)
            report["map"] = {"cov": _mat(cov_hat)}
        else:
            post = inference.noninformative_posterior(stats, sigma_direction=direction)
            mu_hat, cov_hat = inference.map_unknown(post)
            report["posterior"] = _nw_posterior_json(post)
            report["map"] = {"mean": _vec(mu_hat), "cov": _mat(cov_hat.entries)}
        report["note"] = "alpha=0: MAP equals the maximum-likelihood estimate"
        return report

    mode_cov = _load_mode_cov(args.mode_cov, d)
    if known:
        prior = klpriors.KLWishartPrior(
            mode_cov=mode_cov, pseudocount=args.alpha, known_mean=mu
        )
        post = inference.posterior_known_mean(prior, data)
        report["posterior"] = _known_posterior_json(post)
        report["map"] = {"cov": _mat(inference.map_known_mean_cov(post))}
    else:
        prior = klpriors.KLNormalWishartPrior(
            prior_mean=np.zeros(d), mode_cov=mode_cov, pseudocount=args.alpha
        )
        post = inference.posterior_unknown(prior, stats)
        mu_hat, cov_hat = inference.map_unknown(post)
        report["posterior"] = _nw_posterior_json(post)
        report["map"] = {"mean": _vec(mu_hat), "cov": _mat(cov_hat.entries)}
    return report


def _known_posterior_json(post: inference.PosteriorKnownMean) -> dict:
    w = post.wishart
    return {
        "kl": {
            "alpha*": float(post.pseudo_total),
            "sigma*": _mat(inference.map_known_mean_cov(post)),
        },
        "classical": {"shape": float(w.shape), "scatter": _mat(w.scale_inv.entries)},
    }


def _nw_posterior_json(post: inference.PosteriorNormalWishart) -> dict:
    alpha = post.pseudocount_post
    d = post.mode_cov_post.dim
    return {
        "kl": {
            "alpha*": float(alpha),
            "m*": _vec(post.mean_post),
            "sigma*": _mat(post.mode_cov_post.entries),
        },
        "classical": {
            "shape": float(alpha + d),
            "scatter": _mat(alpha * post.mode_cov_post.entries),
        },
    }


def cmd_fit(args) -> int:
    try:
        data = read_csv(args.data)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    try:
        report = _fit_report(args, data)
    except InsufficientData as exc:
        return _fail(EXIT_INSUFFICIENT, f"insufficient data: {exc}")
    except (NotPositiveDefinite, InvalidShape) as exc:
        return _fail(EXIT_BAD_MATRIX, f"invalid matrix input: {exc}")
    except (ValueError, OSError, KLWishartError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    text = _canonical_json(report)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0


def format_12sig(v: float) -> str:
    """12 significant digits, plain positional notation."""
    if v == 0.0:
        return "0.000000000000"
    return np.format_float_positional(
        v, precision=12, unique=False, fractional=False, trim="k"
    )


def cmd_kl(args) -> int:
    try:
        p = _load_gaussian(args.p)
        q = _load_gaussian(args.q)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    except NotPositiveDefinite as exc:
        return _fail(EXIT_BAD_MATRIX, f"covariance not positive definite: {exc}")
    except (NotSquare, DimensionMismatch) as exc:
        return _fail(EXIT_BAD_MATRIX, f"invalid Gaussian: {exc}")
    try:
        value = gaussian_kl(p, q)
    except KLWishartError as exc:
        return _fail(EXIT_PARSE, str(exc))
    print(format_12sig(value))
    return 0


def cmd_sample(args) -> int:
    if args.n < 0:
        return _fail(EXIT_PARSE, f"-n must be >= 0, got {args.n}")
    try:
        with open(args.dist) as fh:
            obj = json.load(fh)
        family = obj.get("family", "wishart")
        if family != "wishart":
            return _fail(EXIT_PARSE, f"sampling not supported for family: {family}")
        scatter = pdcore.make_pd(obj["scatter"])
        w = wishart.WishartParams(scale_inv=scatter, shape=float(obj["shape"]))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    except (NotPositiveDefinite, InvalidShape) as exc:
        return _fail(EXIT_BAD_MATRIX, str(exc))
    rng = np.random.default_rng(_resolve_seed(args.seed))
    draws = wishart.sample_wishart_batch(w, args.n, rng)
    out = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        for k in range(draws.shape[0]):
            out.write(",".join(repr(float(v)) for v in draws[k].ravel()) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_check(args) -> int:
    if args.suite == "all":
        names = verify.DEFAULT_SUITE
    elif args.suite in verify.DEFAULT_SUITE:
        names = (args.suite,)
    else:
        print(
            f"error: unknown suite '{args.suite}'; choose from "
            f"{'|'.join(('all',) + verify.DEFAULT_SUITE)}",
            file=sys.stderr,
        )
        return EXIT_PARSE
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
    p_fit.add_argument("--known-mu", help="comma-separated known mean")
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
    if getattr(args, "alpha", None) is not None and args.alpha < 0:
        return _fail(EXIT_PARSE, "--alpha must be >= 0")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
