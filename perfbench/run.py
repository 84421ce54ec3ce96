"""klwishart benchmark: three closed-loop workloads, one client.

Run from the repository root:

    python3 perfbench/run.py --workload cli-io --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the current directory; the run
fails (exit 2) when that tree is missing.  Inputs are generated from the
seed before timing.  Every operation's output is checked against an
independent numpy reference (`reference.py`); checks that fail count in
`failed`.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it hold the
environment record, the per-operation timings and the named end-to-end
figures (median, highest percentile with at least ten samples beyond it,
sample count).

Workloads (why each exists: see BENCHMARK.json):
  cli-io      subprocess CLI calls: fit on 2e5 x 3 rows (unknown mean,
              --mean-mode known, --alpha 0), sample d=3 n=1e5 to CSV, kl.
  lib-online  in-process sequential updating with 16-row batches at
              d = 2, 3, 5, plus verify.run_suite once per cycle.
  lib-draws   in-process sample_wishart_batch, n = 1e5, nu = d + 2.5, at
              d = 3 (five calls per cycle) and d = 10 (one call).

--trace 0 (end-to-end, tracing off):
  setup_s      median of seven cold `import klwishart` in fresh interpreters.
  cycle_s      one workload cycle: sum over operation kinds of count times
               the kind's fastest wall time in the run (workloads.cycle_s).
  peak_rss_mb  peak RSS: the CLI children (largest per-kind median) on
               cli-io, the benchmark process on lib-*.

--trace 1 (per module): the workload runs in-process (cli-io through
cli.main(argv)) for half the time untraced, then for half traced with span
wrappers installed from tracer.py.  `<module>.<function>.<stat>` values are
per workload cycle: calls, self_s (span time minus child spans) and item
counts (rows, draws, computed kernel flops and bytes, make_pd rejections).
import.* are self times from `python -X importtime -c "import klwishart"`
(median of three).  kernels.batch_bartlett.d<d>.median_s times the kernel
alone on pre-drawn randoms, n = 1e5, nu = d + 2.5.  trace.overhead_s is the
traced cycle minus the untraced in-process cycle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent

import workloads as wl  # noqa: E402
from tracer import Tracer, install, uninstall  # noqa: E402

END_TO_END = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB"}
VERIFY_CHECKS = ("proportionality", "conjugacy", "moments", "rank_deficiency", "map_gradient")
SWEEP_DIMS = (2, 3, 5, 10)

TRACED_FUNCTIONS = [
    # (module, attribute, span name)
    ("cli", "read_csv", "cli.read_csv"),
    ("cli", "cmd_fit", "cli.cmd_fit"),
    ("cli", "cmd_sample", "cli.cmd_sample"),
    ("cli", "cmd_kl", "cli.cmd_kl"),
    ("inference", "suff_stats", "inference.suff_stats"),
    ("inference", "merge_stats", "inference.merge_stats"),
    ("inference", "posterior_unknown", "inference.posterior_unknown"),
    ("inference", "posterior_known_mean", "inference.posterior_known_mean"),
    ("inference", "noninformative_posterior", "inference.noninformative_posterior"),
    ("pdcore", "make_pd", "pdcore.make_pd"),
    ("pdcore", "inverse", "pdcore.inverse"),
    ("pdcore", "solve", "pdcore.solve"),
    ("gaussian", "logpdf", "gaussian.logpdf"),
    ("gaussian", "kl", "gaussian.kl"),
    ("klpriors", "log_density_nw_prior", "klpriors.log_density_nw_prior"),
    ("klpriors", "log_density_wishart_prior", "klpriors.log_density_wishart_prior"),
    ("wishart", "wishart_log_pdf", "wishart.wishart_log_pdf"),
    ("wishart", "sample_wishart_batch", "wishart.sample_wishart_batch"),
    ("_kernels", "batch_bartlett", "kernels.batch_bartlett"),
] + [("verify", f"check_{c}", f"verify.{c}") for c in VERIFY_CHECKS]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bartlett_counts(args, kwargs, out):
    """Computed, not measured: the dense construction A = L T, A A' costs
    4 n d^3 flops; the factor and randoms are read once, the draws written once."""
    n, d = _arg(args, kwargs, 1, "tdiag").shape
    return {"draws": n, "flops": 4 * n * d**3, "bytes": 8 * (d * d + n * d * (d + 1) // 2 + n * d * d)}


ITEM_COUNTERS = {
    "cli.read_csv": lambda a, k, out: {"rows": out.shape[0]},
    "inference.suff_stats": lambda a, k, out: {"rows": out.count},
    "inference.posterior_known_mean": lambda a, k, out: {"rows": len(_arg(a, k, 1, "data"))},
    "wishart.sample_wishart_batch": lambda a, k, out: {"draws": _arg(a, k, 1, "n")},
    "kernels.batch_bartlett": _bartlett_counts,
    **{f"verify.{c}": (lambda a, k, out: {"failed": 0 if out.passed else 1}) for c in VERIFY_CHECKS},
}

PER_LAYER = (
    [("import.numpy_s", "s"), ("import.scipy_s", "s"), ("import.klwishart_s", "s")]
    + [("cli.read_csv.self_s", "s"), ("cli.read_csv.rows", "count"), ("cli.cmd_fit.self_s", "s"), ("cli.cmd_sample.self_s", "s")]
    + [(f"inference.{f}.{s}", u) for f in ("suff_stats", "posterior_known_mean") for s, u in (("self_s", "s"), ("rows", "count"))]
    + [(f"inference.{f}.{s}", u) for f in ("merge_stats", "posterior_unknown", "noninformative_posterior") for s, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"pdcore.{f}.{s}", u) for f in ("make_pd", "inverse", "solve") for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("pdcore.make_pd.rejected", "count")]
    + [
        (f"{f}.{s}", u)
        for f in ("gaussian.logpdf", "gaussian.kl", "klpriors.log_density_nw_prior", "klpriors.log_density_wishart_prior", "wishart.wishart_log_pdf")
        for s, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [(f"{f}.{s}", u) for f in ("wishart.sample_wishart_batch", "kernels.batch_bartlett") for s, u in (("calls", "count"), ("draws", "count"), ("self_s", "s"))]
    + [("kernels.batch_bartlett.flops", "flop"), ("kernels.batch_bartlett.bytes", "byte")]
    + [(f"kernels.batch_bartlett.d{d}.median_s", "s") for d in SWEEP_DIMS]
    + [(f"verify.{c}.self_s", "s") for c in VERIFY_CHECKS]
    + [("verify.failed", "count"), ("trace.cycle_s", "s"), ("trace.overhead_s", "s")]
)


def tail(values: list[float]):
    """(label, value) of the highest of p50/p90/p99/p99.9 that has at least
    ten samples above it, or None when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = (f"p{p:g}", ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)])
    return best


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_name = text[5:]
    loose = root / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return None


def environment(root: Path, kw) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "klwishart_backend": kw.klwishart.BACKEND,
        "KLW_PURE_PYTHON": os.environ.get("KLW_PURE_PYTHON"),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        },
        "git_commit": git_commit(root),
    }


def cold_imports(env: dict, root: Path, repeats: int) -> list[float]:
    """Wall times of `import klwishart` in fresh interpreters, after one
    untimed import that writes the bytecode caches of a new checkout."""
    cmd = [sys.executable, "-c", "import klwishart"]
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=120)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        code, _ = wl.reap(subprocess.Popen(cmd, env=env, cwd=root), 120.0)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"import klwishart exited with {code}")
    return times


def import_breakdown(env: dict, root: Path, repeats: int = 3) -> dict[str, float]:
    """Median self time in seconds per top-level package from -X importtime."""
    runs = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import klwishart"],
            env=env, cwd=root, check=True, timeout=120, capture_output=True, text=True,
        )
        totals = defaultdict(float)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            package = name.strip().split(".")[0]
            totals[package if package in ("numpy", "scipy", "klwishart") else "other"] += int(self_us) * 1e-6
        for package in ("numpy", "scipy", "klwishart", "other"):
            runs[package].append(totals[package])
    return {package: statistics.median(values) for package, values in runs.items()}


def make_workload(name: str, seed: int, workdir: Path, root: Path, env: dict, kw, in_process: bool):
    if name == "cli-io":
        workload = wl.CliIO(seed, workdir, root, env)
        if in_process:
            workload.cli = kw.cli
        return workload
    return wl.WORKLOADS[name](seed, kw)


def kind_table(rec: wl.Recorder) -> dict:
    table = {}
    for kind, values in sorted(rec.times.items()):
        t = tail(values)
        table[kind] = {
            "min_s": min(values), "median_s": statistics.median(values),
            "tail": t[0] if t else None, "tail_s": t[1] if t else None, "n": len(values),
        }
    return table


def named_figures(workload, rec: wl.Recorder, setup: list[float]) -> list[tuple[str, float, str, str]]:
    """The figures each workload exists to measure: (name, value, unit, basis)."""
    med, n = rec.median, (lambda kind: len(rec.times[kind]))
    out = [("setup_s", statistics.median(setup), "s", f"median, n={len(setup)}")]
    if workload.name == "cli-io":
        fits = ("fit.unknown", "fit.known", "fit.alpha0")
        rows = workload.FIT_ROWS
        out.append(("fit_rows_per_s", len(fits) * rows / sum(med(k) for k in fits), "rows/s", f"over the three modes' medians, n={sum(n(k) for k in fits)}"))
        out += [(f"fit_rows_per_s.{k[4:]}", rows / med(k), "rows/s", f"median, n={n(k)}") for k in fits]
        fit_rss = [v for k in fits for v in rec.rss_mb.get(k, [])]
        if fit_rss:
            out.append(("fit_peak_rss_mb", statistics.median(fit_rss), "MB", f"median of wait4 ru_maxrss, n={len(fit_rss)}"))
        out.append(("sample_values_per_s", rec.items["sample"] / med("sample"), "values/s", f"median, n={n('sample')}"))
        out.append(("kl_call_s", med("kl"), "s", f"median, n={n('kl')}"))
    elif workload.name == "lib-online":
        steps = [f"step.d{d}" for d in workload.DIMS]
        out.append(("online_steps_per_s", len(steps) / sum(med(k) for k in steps), "steps/s", f"over the per-d medians, n={sum(n(k) for k in steps)}"))
        out += [(f"online_steps_per_s.{k[5:]}", 1.0 / med(k), "steps/s", f"median, n={n(k)}") for k in steps]
        out.append(("check_suite_s", med("suite"), "s", f"median, n={n('suite')}"))
    else:
        out += [(f"draws_per_s.{k[6:]}", rec.items[k] / med(k), "draws/s", f"median, n={n(k)}") for k in workload.cycle]
    out.append(("failed_ops_ratio", rec.failed / rec.attempted, "ratio", f"{rec.failed} of {rec.attempted}"))
    return out


def untraced(args, root: Path, env: dict, workdir: Path, kw):
    setup = cold_imports(env, root, repeats=7)
    workload = make_workload(args.workload, args.seed, workdir, root, env, kw, in_process=False)
    rec = wl.Recorder()
    wl.run_cycles(workload, rec, args.seconds, whole_cycles=False)
    if args.workload == "cli-io":
        peak = max(statistics.median(v) for v in rec.rss_mb.values())
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(setup), "cycle_s": wl.cycle_s(workload, rec), "peak_rss_mb": peak}
    detail = {"operations": kind_table(rec), "figures": named_figures(workload, rec, setup)}
    return rec, metrics, detail


def traced(args, root: Path, env: dict, workdir: Path, kw):
    imports = import_breakdown(env, root)
    workload = make_workload(args.workload, args.seed, workdir, root, env, kw, in_process=True)
    plain = wl.Recorder()
    wl.run_cycles(workload, plain, args.seconds / 2.0, whole_cycles=True)

    tracer = Tracer()
    targets = [(getattr(kw, m), attr, name, ITEM_COUNTERS.get(name)) for m, attr, name in TRACED_FUNCTIONS]
    undo = install(tracer, targets)
    rec = wl.Recorder()
    try:
        cycles = wl.run_cycles(workload, rec, args.seconds / 2.0, whole_cycles=True)
    finally:
        uninstall(undo)
    sweep = wl.kernel_sweep(kw._kernels, args.seed, rec)

    values = {f"import.{p}_s": imports[p] for p in ("numpy", "scipy", "klwishart")}
    for _, _, name in TRACED_FUNCTIONS:
        values[f"{name}.calls"] = tracer.calls[name] / cycles
        values[f"{name}.self_s"] = tracer.self_s[name] / cycles
    for key, total in tracer.items.items():
        values[key] = total / cycles
    values["pdcore.make_pd.rejected"] = tracer.errors["pdcore.make_pd.NotPositiveDefinite"] / cycles
    values["verify.failed"] = sum(tracer.items[f"verify.{c}.failed"] for c in VERIFY_CHECKS)
    for d in SWEEP_DIMS:
        values[f"kernels.batch_bartlett.d{d}.median_s"] = sweep[d]
    traced_cycle, plain_cycle = wl.cycle_s(workload, rec), wl.cycle_s(workload, plain)
    values["trace.cycle_s"] = traced_cycle
    values["trace.overhead_s"] = traced_cycle - plain_cycle
    metrics = {name: values.get(name, 0.0) for name, _ in PER_LAYER}

    traced_wall = sum(sum(rec.times[kind]) for kind in workload.cycle) / cycles
    covered = sorted(((tracer.self_s[n] / cycles, n) for n in tracer.self_s), reverse=True)
    # Untraced cli-io calls are subprocesses: each also pays interpreter start-up and import.
    startup = sum(workload.cycle.values()) * sum(imports.values()) if args.workload == "cli-io" else 0.0
    detail = {
        "startup_per_cycle_s": startup,
        "import_other_s": imports["other"],
        "cycles": cycles,
        "untraced_cycle_s": plain_cycle,
        "traced_cycle_s": traced_cycle,
        "traced_wall_per_cycle_s": traced_wall,
        "self_share_of_traced_wall": {n: s / traced_wall for s, n in covered},
        "spans_kept": len(tracer.spans),
        "spans": tracer.spans,
    }
    combined = wl.Recorder()
    for part in (plain, rec):
        combined.attempted += part.attempted
        combined.failed += part.failed
        combined.failures += part.failures
    return combined, metrics, detail


def print_detail(args, detail: dict) -> None:
    if not args.trace:
        print("operations (wall time per operation):")
        for kind, row in detail["operations"].items():
            tail_text = f"{row['tail']} {row['tail_s']:.6g} s" if row["tail"] else "tail n/a (<20 samples)"
            print(f"  {kind:<14} min {row['min_s']:.6g} s  median {row['median_s']:.6g} s  {tail_text}  n={row['n']}")
        print("figures:")
        for name, value, unit, basis in detail["figures"]:
            print(f"  {name:<26} {value:.6g} {unit}  ({basis})")
        return
    traced_cycle, plain_cycle = detail["traced_cycle_s"], detail["untraced_cycle_s"]
    print(f"traced cycle {traced_cycle:.6g} s, untraced in-process cycle {plain_cycle:.6g} s: tracing overhead "
          f"{traced_cycle - plain_cycle:.4g} s ({100 * (traced_cycle / plain_cycle - 1):.1f} %) over {detail['cycles']} traced cycles; "
          f"import of other packages {detail['import_other_s']:.4g} s")
    print(f"self time share of the traced wall time ({detail['traced_wall_per_cycle_s']:.6g} s a cycle):")
    for name, share in list(detail["self_share_of_traced_wall"].items())[:12]:
        print(f"  {name:<40} {100 * share:6.2f} %")
    if detail["startup_per_cycle_s"]:
        shares, cycle, startup = detail["self_share_of_traced_wall"], detail["traced_wall_per_cycle_s"], detail["startup_per_cycle_s"]
        io = sum(shares.get(n, 0.0) for n in ("cli.read_csv", "cli.cmd_sample")) * cycle
        print(f"with start-up of the subprocess calls ({startup:.4g} s a cycle from import.*), cli.read_csv + "
              f"cli.cmd_sample + import.* cover {100 * (io + startup) / (cycle + startup):.1f} % of the cycle")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "klwishart" / "__init__.py").is_file():
        print(f"error: {src / 'klwishart'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import klwishart
    from klwishart import _kernels, cli, gaussian, inference, klpriors, pdcore, verify, wishart

    if not Path(klwishart.__file__).resolve().is_relative_to(src):
        print(f"error: klwishart imported from {klwishart.__file__}, not from {src}", file=sys.stderr)
        return 2
    kw = SimpleNamespace(
        klwishart=klwishart, _kernels=_kernels, cli=cli, gaussian=gaussian, inference=inference,
        klpriors=klpriors, pdcore=pdcore, verify=verify, wishart=wishart,
    )
    env = wl.child_env(src)
    record = {"environment": environment(root, kw), "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({"environment": record["environment"]}))

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rec, metrics, detail = (traced if args.trace else untraced)(args, root, env, workdir, kw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_detail(args, detail)
    for failure in rec.failures:
        print(f"failed: {failure}")
    units = dict(PER_LAYER) if args.trace else END_TO_END
    result = {
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(detail=detail, failures=rec.failures, result=result)
    (HERE / ".work" / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
