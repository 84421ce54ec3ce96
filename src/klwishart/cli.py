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
import marshal
import math
import operator
import os
import platform
import sys
from decimal import Decimal

import numpy as np

from . import __version__, inference, klpriors, pdcore, wishart
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
    ((OSError, ValueError, KLWishartError, MemoryError), EXIT_PARSE, ""),
)

_WRITE_BLOCK_ROWS = 8192
_READ_SPLIT_CHARS = 1 << 20
_PIECE_BYTES = 1 << 30  # marshal refuses one str or bytes of 2**31 bytes


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
    lines not counted).  All failures raise ValueError.  Where os.fork
    exists, a text longer than _READ_SPLIT_CHARS is cut at the first newline
    after its middle and parsed in two halves (`_parse_halves`).
    """
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read().replace(",", " ")
    cut = text.find("\n", len(text) // 2) if len(text) > _READ_SPLIT_CHARS else -1
    data = _parse_halves(path, text, cut) if cut >= 0 and hasattr(os, "fork") else None
    if data is None:
        lines, text = text.split("\n"), None  # free the text before the filter
        data = _parse(path, _lines(lines))
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = np.flatnonzero(~finite)[0] + 1
        raise ValueError(f"{path}: non-finite value in data row {row}")
    return data


def _lines(parts: list) -> list:
    """The lines among parts, a text split at newlines, that hold more than
    whitespace."""
    return [ln for ln in parts if ln.strip()]


def _parse(path: str, lines: list) -> np.ndarray:
    """The rows of read_csv's non-blank lines, after a header if there is one."""
    if not lines:
        raise ValueError(f"{path}: empty file")
    try:
        list(map(float, lines[0].split()))
    except ValueError:
        del lines[0]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    try:
        return np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError as exc:
        if len({len(ln.split()) for ln in lines}) > 1:
            raise ValueError(f"{path}: inconsistent column counts") from None
        raise ValueError(f"{path}: {exc}") from None


def _parse_halves(path: str, text: str, cut: int) -> np.ndarray | None:
    """text[:cut] parsed here while a forked child parses text[cut + 1:],
    joined: lines parse one by one, so bit for bit the serial array.  None,
    for the caller to parse the whole text and raise the serial message,
    where either half fails, the first has no data line or columns differ."""
    with _child_frames(_second_half(text, cut), f"{path}: the parser process") as next_value:
        try:
            first = _parse(path, _lines(text[:cut].split("\n")))
        except ValueError:
            first = None
        second = next_value()
    if first is None or second is None or second[0] != first.shape[1]:
        return None
    cols, pieces = second
    return np.concatenate([first, np.frombuffer(b"".join(pieces)).reshape(-1, cols)])


def _second_half(text: str, cut: int):
    """The child's one value: the column count and float64 `_pieces` of
    text[cut + 1:]'s rows, or None where it holds no line or fails to parse."""
    lines, value = _lines(text[cut + 1 :].split("\n")), None
    with contextlib.suppress(ValueError):
        if lines:
            data = np.loadtxt(lines, ndmin=2, comments=None)
            value = data.shape[1], _pieces(memoryview(data).cast("B"))
    yield value


def _finite(text: str) -> float:
    # Also the parse_constant hook: float() reads NaN, Infinity, -Infinity.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _load_json(path: str, build):
    """build(document) for the JSON file at path.  Every JSON number is read
    as a finite float; NaN, Infinity and overflowing literals are rejected.
    A KeyError, TypeError, ValueError or RecursionError (nesting too deep)
    while decoding or building becomes one ValueError naming the path;
    library errors and overflow get the path prepended and keep their
    class."""
    hooks = dict(parse_float=_finite, parse_int=_finite, parse_constant=_finite)
    with open(path) as fh:
        try:
            return build(json.load(fh, **hooks))
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from None
        except (TypeError, ValueError, RecursionError) as exc:
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
        try:
            mu = [float(x) for x in args.known_mu.split(",")]
        except ValueError as exc:
            raise ValueError(f"--known-mu: {exc}") from None
        mu = pdcore.finite_vector(mu, (d,), "--known-mu")
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
    with _output(args.output) as out:
        _write_draws(out, draws)
    return 0


def _csv_lines(block: np.ndarray):
    """The CSV lines of a (b, d, d) block of draws, the d*d entries of each
    draw in row-major order.  tolist() yields Python floats, whose repr is
    the shortest string that round-trips.  Each draw is symmetric bit for
    bit, so repr runs once per lower-triangle value, and one itemgetter
    lays out each row's d*d fields from those strings."""
    d = block.shape[1]
    rows, cols = np.tril_indices(d)
    slot = np.empty((d, d), dtype=np.intp)
    slot[rows, cols] = slot[cols, rows] = np.arange(len(rows))
    layout = operator.itemgetter(*slot.ravel().tolist())
    # At d = 1 layout returns the bare string, which % takes as its one field.
    line = ",".join(["%s"] * (d * d)) + "\n"
    return (line % layout(list(map(repr, values))) for values in block[:, rows, cols].tolist())


def _write_draws(out, draws: np.ndarray) -> None:
    """Write the draws to out as CSV, in blocks of _WRITE_BLOCK_ROWS.

    With two or more blocks, and where os.fork exists, a forked child
    (`_child_frames`) formats the odd-numbered blocks and this process the
    even ones, then writes every block in order, so the bytes do not depend
    on the child.  Block by block bounds the memory either process holds.
    """
    blocks = [draws[s : s + _WRITE_BLOCK_ROWS] for s in range(0, len(draws), _WRITE_BLOCK_ROWS)]
    forked = len(blocks) > 1 and hasattr(os, "fork")
    odd = (_pieces("".join(_csv_lines(block))) for block in blocks[1::2])
    child = _child_frames(odd, "sample: the formatter process")
    with child if forked else contextlib.nullcontext() as next_value:
        for k, block in enumerate(blocks):
            if forked and k % 2:
                out.writelines(next_value())
            else:
                out.writelines(_csv_lines(block))


def _pieces(seq) -> list:
    """seq, an ASCII str or a memoryview of bytes, in slices of at most
    _PIECE_BYTES bytes; a single slice is seq itself or a view of it."""
    return [seq[i : i + _PIECE_BYTES] for i in range(0, len(seq), _PIECE_BYTES)]


@contextlib.contextmanager
def _child_frames(values, what: str):
    """Fork one child that iterates values (computed without BLAS) and
    sends each through a pipe with marshal.  Yields a function that reads
    the next one; a pipe that ends early raises OSError named by `what`.
    On leaving, the pipe is closed before the child is reaped, so a child
    blocked on a full pipe gets EPIPE and exits; a failed child then raises
    OSError.  The child leaves by os._exit (status 1 on any exception),
    never returning into the caller or flushing a file."""
    fd_read, fd_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(fd_read)
            with open(fd_write, "wb") as pipe:
                for value in values:
                    marshal.dump(value, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(fd_write)
    reader = open(fd_read, "rb")
    def next_value():
        try:
            return marshal.load(reader)
        except (EOFError, ValueError):
            raise OSError(f"{what} ended early") from None
    try:
        yield next_value
    finally:
        reader.close()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise OSError(f"{what} exited with status {status}")


def cmd_check(args) -> int:
    # Imported here, so fit, kl and sample do not load the check suite.
    from . import verify

    names = verify.DEFAULT_SUITE if args.suite == "all" else (args.suite,)
    reports = verify.run_suite(names, seed=_resolve_seed(args.seed))
    for rep in reports:
        print(rep.to_json())
    return 0 if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    # The raw formatter leaves the one-line JSON of --version unwrapped.
    parser = argparse.ArgumentParser(
        prog="klwishart",
        description="Mode-and-pseudocount Wishart / normal-Wishart conjugate priors",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = {"klwishart": __version__, "numpy": np.__version__, "python": platform.python_version(),
                "blas": f"{blas['name']} {blas['version']}"}
    parser.add_argument(
        "--version", action="version", version=json.dumps(versions),
        help="print the versions as JSON and exit",
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
