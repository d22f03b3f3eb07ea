"""The simulation study: fit every estimator on the same data and score
each point of its regularization path against the truth.

:data:`ESTIMATORS` names the four estimators, and :func:`fit_single` /
:func:`fit_path` dispatch on those names: gamma to :mod:`robustggm.gamma_mm`,
glasso to its gamma = 0 case, npn to that case on the data
:func:`robustggm.baselines.npn_transform` returns, and tlasso to
:mod:`robustggm.baselines`.  :func:`bench_replicate` is one replicate of the study
(simulate, fit every path, score every point with
:func:`robustggm.metrics.score_point`); :func:`step_mean_curves` and
:func:`min_mse_table` aggregate replicates into the mean ROC curves and
the per-replicate minimum MSE.
"""

from __future__ import annotations

import numpy as np

from . import baselines, gamma_mm, metrics, simgen
from .errors import RobustGgmError
from .gamma_mm import FitResult, SolutionPath
from .objective import RobustConfig

ESTIMATORS = ("gamma", "glasso", "tlasso", "npn")


def fit_single(estimator, X, *, gamma, lam, nu, delta_n, tol, max_iter) -> FitResult:
    """One fit at penalty ``lam``; ``estimator`` is one of :data:`ESTIMATORS`."""
    if estimator == "tlasso":
        return baselines.fit_tlasso(X, baselines.TlassoConfig(nu=nu, lam=lam, max_iter=max_iter))
    if estimator == "npn":
        return baselines.fit_nonparanormal(X, baselines.NpnConfig(delta_n=delta_n, lam=lam))
    g = gamma if estimator == "gamma" else 0.0
    return gamma_mm.fit(X, RobustConfig(gamma=g, lam=lam), tol=tol, max_iter=max_iter)


def fit_path(estimator, X, *, gamma, nu, delta_n, K, delta, tol, max_iter) -> SolutionPath:
    """Warm-started decreasing-penalty path for any estimator, on the
    geometric grid below the estimator's own lam1 (each path function
    documents its anchor); npn's is the glasso path of the transformed data."""
    if estimator == "tlasso":
        return baselines.tlasso_path(X, nu, K=K, delta=delta, max_iter=max_iter)
    if estimator == "npn":
        X = baselines.npn_transform(X, baselines.NpnConfig(delta_n=delta_n))
    g = gamma if estimator == "gamma" else 0.0
    return gamma_mm.solution_path(X, g, K=K, delta=delta, tol=tol, max_iter=max_iter)


def bench_replicate(
    replicate, spec, *, estimators, gamma, nu, K, delta, tol, max_iter, normalize
) -> dict:
    """One replicate: simulate ``spec`` (a :class:`~robustggm.simgen.SimSpec`),
    fit every estimator's path on the same data, score every point against
    the truth.  A pure function of its arguments; an estimator whose whole
    path fails records its error."""
    X, _, truth = simgen.generate(spec)
    if normalize != "none":
        X = metrics.normalize(X, normalize)
    out = {"replicate": replicate, "seed": spec.seed, "estimators": {}}
    for est in estimators:
        try:
            path = fit_path(
                est, X, gamma=gamma, nu=nu, delta_n="auto", K=K, delta=delta,
                tol=tol, max_iter=max_iter,
            )
        except RobustGgmError as exc:
            out["estimators"][est] = {"error": str(exc), "points": []}
            continue
        points = []
        for lam, res, status in zip(path.lambdas, path.fits, path.statuses):
            point = {"lambda": float(lam), "status": status}
            if res is not None:
                omega = res.theta.omega
                point.update(metrics.score_point(metrics.edge_set(omega), omega, truth.adjacency, truth.omega))
            points.append(point)
        out["estimators"][est] = {"points": points}
    return out


def step_mean_curves(results: list, estimators: list) -> tuple[list, dict]:
    """Carry-forward interpolation of per-replicate (nnz, tpr) curves
    onto the union grid of observed nnz values, then the mean over
    replicates per estimator.  Returns (grid, {estimator: mean tprs})."""
    grid = sorted(
        {
            pt["nnz"]
            for rep in results
            for est in estimators
            for pt in rep["estimators"][est]["points"]
            if "nnz" in pt
        }
    )
    means = {}
    for est in estimators:
        curves = []
        for rep in results:
            best = {}
            for pt in rep["estimators"][est]["points"]:
                if "nnz" in pt:
                    best[pt["nnz"]] = max(best.get(pt["nnz"], 0.0), pt["tpr"])
            xs = sorted(best)
            # 0 below the curve's first nnz, else the level of its largest nnz <= each grid value
            levels = np.array([0.0] + [best[x] for x in xs])
            curves.append(levels[np.searchsorted(xs, grid, side="right")])
        means[est] = (
            np.mean(np.asarray(curves), axis=0).tolist() if curves else []
        )
    return grid, means


def min_mse_table(results: list, estimators: list) -> list:
    """Per replicate, each estimator's smallest off-diagonal MSE over
    its path; ``"NA"`` where the estimator fitted no point."""
    rows = []
    for rep in results:
        row = [rep["replicate"]]
        for est in estimators:
            vals = [
                pt["mse_offdiag"]
                for pt in rep["estimators"][est]["points"]
                if "mse_offdiag" in pt
            ]
            row.append(min(vals) if vals else "NA")
        rows.append(row)
    return rows
