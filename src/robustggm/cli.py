"""Command-line interface of the `rggm` tool: flags, reading and writing.

`simulate` writes a benchmark dataset, `fit` one estimator's fit or
path, `evaluate` a fit's scores against a truth or another fit, and
`bench` the replicated study; the estimators and the study itself live
in :mod:`robustggm.study`.

Every command is deterministic given its flags and seed, and every
output carries a config echo sufficient to reproduce it.  Exit codes:
0 success, 1 input/config error (flags are checked before anything is
written), 2 soft estimation failure (results are still written).  The
environment variable ``RGGM_THREADS`` caps the worker processes `bench`
fans replicates across.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import baselines, fileio, metrics, simgen, study
from .errors import InputError, RobustGgmError
from .gamma_mm import FitResult, fit_status
from .objective import RobustConfig


def _progress(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _parse_grid(text: str) -> tuple[int, float]:
    if text == "default":
        return 10, 0.2
    try:
        k_str, d_str = text.split(",")
        k, d = int(k_str), float(d_str)
    except ValueError:
        raise InputError(f"bad --lambda-grid {text!r}; use 'default' or 'K,DELTA'")
    if k < 2 or not 0.0 < d < 1.0:
        raise InputError("grid needs K >= 2 and 0 < DELTA < 1")
    return k, d


def _parse_delta_n(text: str) -> float | str:
    try:
        return text if text == "auto" else float(text)
    except ValueError:
        raise InputError(f"bad --delta-n {text!r}; use 'auto' or a number")


def _sim_spec(args, seed: int) -> simgen.SimSpec:
    return simgen.SimSpec(
        p=args.p, n=args.n, model=args.model, epsilon=args.epsilon,
        eta=args.eta, ba_m=args.m, seed=seed,
    )


def _check_flags(args) -> None:
    """Build every config the command's flags describe before any work,
    so that an out-of-range value exits 1 with the config's own message
    and nothing is written."""
    if args.command == "evaluate" and not (args.truth or args.fit_b):
        raise InputError("provide --truth and/or --fit-b")
    try:
        if args.command in ("simulate", "bench"):
            _sim_spec(args, args.seed)
        if args.command in ("fit", "bench"):
            lam = getattr(args, "lam", None) or 0.0
            RobustConfig(gamma=args.gamma, lam=lam)
            baselines.TlassoConfig(nu=args.nu, lam=lam)
            baselines.NpnConfig(delta_n=_parse_delta_n(getattr(args, "delta_n", "auto")))
            if not args.tol > 0 or args.max_iter < 1:
                raise ValueError("need --tol > 0 and --max-iter >= 1")
    except ValueError as exc:
        raise InputError(str(exc)) from None


# --- artifact serialization ------------------------------------------------

def _fit_record(lam, res: FitResult | None, status: str) -> dict:
    rec = {"lambda": float(lam), "status": status}
    if res is None:
        return rec
    est = metrics.edge_set(res.theta.omega)
    rec.update(
        {
            "mu": res.theta.mu,
            "omega": res.theta.omega,
            "edges": [list(e) for e in sorted(est.edges)],
            "nnz": 2 * len(est),
            "weights": res.weights,
            "objective_trace": list(res.objective_trace),
            "converged": bool(res.converged),
            "mm_iterations": int(res.mm_iterations),
        }
    )
    return rec


def _write_fit_artifacts(outdir: Path, config: dict, lambdas, fits, statuses, grid: bool):
    records = [_fit_record(*point) for point in zip(lambdas, fits, statuses)]
    final = next((r for r in reversed(records) if "omega" in r), None)
    doc = {"config": config, "fits": records}
    if final is not None:
        for key in ("mu", "omega", "edges", "weights", "objective_trace", "converged"):
            doc[key] = final[key]
    fileio.write_json(outdir / "fit.json", doc)
    if grid:
        rows = [
            (
                rec["lambda"],
                rec.get("nnz", -1),
                rec["objective_trace"][-1] if "objective_trace" in rec else 0.0,
                fileio.edge_hash(rec.get("edges", [])),
            )
            for rec in records
        ]
        fileio.write_tsv(
            outdir / "path.tsv", ["lambda", "nnz", "objective", "edge_hash"], rows
        )


# --- subcommands -----------------------------------------------------------

def run_simulate(args) -> int:
    spec = _sim_spec(args, args.seed)
    X, labels, truth = simgen.generate(spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fileio.write_csv(outdir / "data.csv", X)
    fileio.write_json(
        outdir / "truth.json",
        {
            "config": {
                "command": "simulate", "p": spec.p, "n": spec.n,
                "model": spec.model, "epsilon": spec.epsilon, "eta": spec.eta,
                "m": spec.ba_m, "seed": spec.seed,
            },
            "p": spec.p,
            "omega": truth.omega,
            "edges": [list(e) for e in sorted(truth.adjacency.edges)],
            "labels": [bool(b) for b in labels],
        },
    )
    _progress(args, f"wrote {outdir / 'data.csv'} and {outdir / 'truth.json'}")
    return 0


def _exit_code(statuses) -> int:
    """The exit rule of `fit` and `bench`: 2 when any status is not "ok"
    (a whole path that failed counts as one "error: ..." point), else 0."""
    return 0 if all(s == "ok" for s in statuses) else 2


def run_fit(args) -> int:
    X = fileio.read_csv(args.input)
    if args.normalize != "none":
        X = metrics.normalize(X, args.normalize)
    grid = args.lambda_grid is not None
    if grid:
        K, delta = _parse_grid(args.lambda_grid)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    config = {
        "command": "fit", "estimator": args.estimator, "input": str(args.input),
        "normalize": args.normalize, "gamma": args.gamma, "nu": args.nu,
        "delta_n": args.delta_n, "tol": args.tol, "max_iter": args.max_iter,
    }
    kw = dict(
        gamma=args.gamma, nu=args.nu, delta_n=_parse_delta_n(args.delta_n),
        tol=args.tol, max_iter=args.max_iter,
    )
    if grid:
        config["lambda_grid"] = {"K": K, "delta": delta}
        path = study.fit_path(args.estimator, X, K=K, delta=delta, **kw)
        lambdas, fits, statuses = path.lambdas, path.fits, path.statuses
        config["lambdas"] = [float(v) for v in lambdas]
    else:
        config["lambda"] = args.lam
        res, status = fit_status(study.fit_single, args.estimator, X, lam=args.lam, **kw)
        lambdas, fits, statuses = [args.lam], [res], [status]
    _write_fit_artifacts(outdir, config, lambdas, fits, statuses, grid)
    _progress(args, f"wrote {outdir / 'fit.json'}")
    return _exit_code(statuses)


def _without_weights(pairs: list) -> dict:
    """A JSON object less its per-row ``weights``, which no evaluation
    reads: on a tall fit they are most of ``fit.json``'s numbers, and
    dropping each record's as it is parsed keeps them out of memory."""
    return {k: v for k, v in pairs if k != "weights"}


def _load_fit(path, keys) -> dict:
    """Read a JSON artifact (less any ``weights``) and check that it has
    every key in ``keys``."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"fit artifact not found: {path}")
    import json

    try:
        doc = json.loads(path.read_text(), object_pairs_hook=_without_weights)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: bad JSON ({exc})")
    missing = [k for k in keys if not isinstance(doc, dict) or k not in doc]
    if missing:
        raise InputError(f"{path} lacks {', '.join(missing)}; is it the right artifact?")
    return doc


def _edges_from_lists(p: int, pairs) -> metrics.EdgeSet:
    return metrics.EdgeSet(p=p, edges=frozenset((int(i), int(j)) for i, j in pairs))


def run_evaluate(args) -> int:
    doc = _load_fit(args.fit, ("fits",))
    report = {"config": {"command": "evaluate", "fit": str(args.fit)}}
    if args.truth:
        truth_doc = _load_fit(args.truth, ("p", "omega", "edges"))
        report["config"]["truth"] = str(args.truth)
        p = int(truth_doc["p"])
        truth_omega = np.asarray(truth_doc["omega"], dtype=float)
        truth_edges = _edges_from_lists(p, truth_doc["edges"])
        per_lambda = []
        for rec in doc["fits"]:
            if "omega" not in rec:
                continue
            omega = np.asarray(rec["omega"], dtype=float)
            if omega.shape != truth_omega.shape:
                raise InputError(
                    f"fit p={omega.shape[0]} does not match truth p={p}"
                )
            est = _edges_from_lists(p, rec["edges"])
            per_lambda.append(
                {"lambda": rec["lambda"], **metrics.score_point(est, omega, truth_edges, truth_omega)}
            )
        report["per_lambda"] = per_lambda
    if args.fit_b:
        doc_b = _load_fit(args.fit_b, ("fits",))
        report["config"]["fit_b"] = str(args.fit_b)
        if "edges" not in doc or "edges" not in doc_b:
            raise InputError("both fits need a final estimate to compare")
        p_a = len(doc["mu"])
        p_b = len(doc_b["mu"])
        if p_a != p_b:
            raise InputError(f"fit p={p_a} does not match fit-b p={p_b}")
        a = _edges_from_lists(p_a, doc["edges"])
        b = _edges_from_lists(p_b, doc_b["edges"])
        report["total_agreement"] = metrics.total_agreement(a, b)
        report["common_edges"] = metrics.common_edges(a, b)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fileio.write_json(outdir / "metrics.json", report)
    _progress(args, f"wrote {outdir / 'metrics.json'}")
    return 0


# --- bench -----------------------------------------------------------------

def _bench_workers() -> int:
    """Worker processes for `bench` from ``RGGM_THREADS``: a positive
    integer caps them; 0, empty or unset means one per CPU."""
    text = os.environ.get("RGGM_THREADS", "").strip()
    try:
        workers = int(text or "0")
    except ValueError:
        workers = None
    if workers is None or workers < 0:
        raise InputError(f"RGGM_THREADS must be an integer >= 0, got {text!r}")
    return workers or (os.cpu_count() or 1)


def run_bench(args) -> int:
    workers = _bench_workers()
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    for est in estimators:
        if est not in study.ESTIMATORS:
            raise InputError(f"unknown estimator {est!r}")
    if args.replicates < 1:
        raise InputError("need at least one replicate")
    K, delta = _parse_grid(args.lambda_grid)
    one_replicate = functools.partial(
        study.bench_replicate, estimators=estimators, gamma=args.gamma, nu=args.nu,
        K=K, delta=delta, tol=args.tol, max_iter=args.max_iter, normalize=args.normalize,
    )
    replicates = range(args.replicates)
    specs = [_sim_spec(args, simgen.replicate_seed(args.seed, r)) for r in replicates]
    workers = min(workers, args.replicates)
    results = []
    # both maps yield in replicate order, as each replicate is done
    with (ProcessPoolExecutor(workers) if workers > 1 else nullcontext()) as pool:
        for rep in (pool.map if pool else map)(one_replicate, replicates, specs):
            results.append(rep)
            _progress(args, f"replicate {len(results)}/{args.replicates} done")

    grid, means = study.step_mean_curves(results, estimators)
    mse_rows = study.min_mse_table(results, estimators)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    config = {
        "command": "bench", "p": args.p, "n": args.n, "model": args.model,
        "epsilon": args.epsilon, "eta": args.eta, "m": args.m,
        "gamma": args.gamma, "nu": args.nu, "replicates": args.replicates,
        "seed": args.seed, "estimators": estimators,
        "lambda_grid": {"K": K, "delta": delta}, "normalize": args.normalize,
        "tol": args.tol, "max_iter": args.max_iter,
    }
    fileio.write_json(
        outdir / "bench.json",
        {
            "config": config,
            "metadata": {
                "roc_interpolation": (
                    "per replicate: sort points by nnz, keep max tpr per nnz, "
                    "carry forward onto the union nnz grid, 0 before the first "
                    "point; mean over replicates per grid value"
                ),
                "seed_rule": "replicate r uses SeedSequence([seed, r]); "
                "streams per purpose: graph=0, precision=1, samples=2",
            },
            "replicates": results,
            "roc_grid": grid,
            "roc_mean": means,
        },
    )
    fileio.write_tsv(
        outdir / "roc_mean.tsv",
        ["nnz"] + estimators,
        [
            [g] + [float(means[e][i]) for e in estimators]
            for i, g in enumerate(grid)
        ],
    )
    fileio.write_tsv(outdir / "mse_summary.tsv", ["replicate"] + estimators, mse_rows)
    _progress(args, f"wrote {outdir / 'bench.json'}")
    return _exit_code(
        status
        for rep in results
        for path in rep["estimators"].values()
        for status in ([f"error: {path['error']}"] if "error" in path else [pt["status"] for pt in path["points"]])
    )


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The `rggm` parser.  Flags two subcommands share are declared once,
    in a parent parser.  Parents share their Action objects, so a flag
    whose default differs between subcommands (``--gamma``,
    ``--lambda-grid``) is declared in each: a ``set_defaults`` on one
    subparser would rewrite a shared flag's default in every other."""
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", required=True)
    io.add_argument("--quiet", action="store_true")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--p", type=int, required=True)
    data.add_argument("--n", type=int, required=True)
    data.add_argument("--model", choices=("i", "ii", "iii"), required=True)
    data.add_argument("--epsilon", type=float, default=0.0)
    data.add_argument("--eta", type=float, default=0.0)
    data.add_argument("--m", type=int, default=1, help="edges per new node")
    data.add_argument("--seed", type=int, default=0)

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--nu", type=float, default=1.0)
    solver.add_argument("--normalize", choices=("none", "sd", "mad"), default="none")
    solver.add_argument("--tol", type=float, default=1e-7)
    solver.add_argument("--max-iter", type=int, default=200)

    parser = argparse.ArgumentParser(
        prog="rggm",
        description="Robust sparse Gaussian graphical modeling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[data, io], help="generate a benchmark dataset")
    sim.set_defaults(func=run_simulate)

    fit = sub.add_parser("fit", parents=[solver, io], help="fit one estimator to a CSV dataset")
    fit.add_argument("--estimator", choices=study.ESTIMATORS, required=True)
    fit.add_argument("--input", required=True)
    fit.add_argument("--gamma", type=float, default=0.1)
    lam = fit.add_mutually_exclusive_group(required=True)
    lam.add_argument("--lambda", dest="lam", type=float)
    lam.add_argument("--lambda-grid", help="'default' or 'K,DELTA'")
    fit.add_argument("--delta-n", default="auto")
    fit.set_defaults(func=run_fit)

    ev = sub.add_parser("evaluate", parents=[io], help="score fit artifacts against a truth")
    ev.add_argument("--fit", required=True)
    ev.add_argument("--truth", default=None)
    ev.add_argument("--fit-b", default=None)
    ev.set_defaults(func=run_evaluate)

    bench = sub.add_parser(
        "bench", parents=[data, solver, io], help="replicated simulate/fit/evaluate"
    )
    bench.add_argument("--gamma", type=float, default=0.05)
    bench.add_argument("--replicates", type=int, default=20)
    bench.add_argument(
        "--estimators", default="gamma,glasso,tlasso,npn",
        help="comma-separated subset of gamma,glasso,tlasso,npn",
    )
    bench.add_argument("--lambda-grid", default="default")
    bench.set_defaults(func=run_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse errors are input errors
        return 1 if exc.code not in (0, None) else 0
    try:
        _check_flags(args)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RobustGgmError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
