"""The simulation study: fit every estimator on the same data and score
each point of its regularization path against the truth.

:data:`ESTIMATORS` names the four estimators, and :func:`estimator`
builds each as a :class:`robustggm.gamma_mm.Estimator` (the only place
that dispatches on a name): gamma, glasso as its gamma = 0 case, npn as
that case on the data :func:`robustggm.baselines.npn_transform` returns,
and tlasso from :mod:`robustggm.baselines`.  :func:`bench_replicate` is
one replicate of the study (simulate, fit every estimator's
:func:`robustggm.gamma_mm.solution_path`, score every point with
:func:`robustggm.metrics.score_point`); :func:`step_mean_curves` and
:func:`min_mse_table` aggregate replicates into the mean ROC curves and
the per-replicate minimum MSE.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import baselines, gamma_mm, metrics, simgen
from .errors import RobustGgmError
from .objective import RobustConfig

ESTIMATORS = ("gamma", "glasso", "tlasso", "npn")


def estimator(name, *, gamma=0.1, nu=1.0, delta_n="auto", tol=1e-7) -> gamma_mm.Estimator:
    """The estimator ``name`` of :data:`ESTIMATORS`.  Every value is checked
    here, whichever estimator reads it:

    - gamma reads ``gamma`` (>= 0; rows weighted by f^gamma) and ``tol``
      (> 0; its MM loop stops on that relative objective change);
    - glasso is gamma = 0, whose loop stops after one step;
    - tlasso reads ``nu`` (> 0); its EM stops once no entry of (mu, omega)
      moves by :data:`~robustggm.baselines.TLASSO_TOL`;
    - npn is glasso on the rank transform truncated at ``delta_n``
      ("auto" or in (0, 0.5)).

    The ``max_iter`` a fit is given caps gamma's and tlasso's steps.
    """
    if name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}")
    if not gamma >= 0:
        raise ValueError("gamma must be >= 0")
    if not nu > 0:
        raise ValueError("nu must be > 0")
    if delta_n != "auto" and (isinstance(delta_n, str) or not 0.0 < delta_n < 0.5):
        raise ValueError("delta_n must be 'auto' or lie in (0, 0.5)")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if name == "tlasso":
        return gamma_mm.Estimator(
            partial(baselines.tlasso_diagonal_start, nu=nu), partial(baselines.fit_tlasso, nu=nu)
        )
    g = gamma if name == "gamma" else 0.0

    def fit(X, lam, init=None, max_iter=200, init_score=None):
        rule = gamma_mm.GammaRule(RobustConfig(gamma=g, lam=lam), tol)
        return gamma_mm.fit(X, rule, init, max_iter, init_score=init_score)

    transform = partial(baselines.npn_transform, delta_n=delta_n) if name == "npn" else None
    return gamma_mm.Estimator(partial(gamma_mm.diagonal_start, gamma=g), fit, transform)


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
    for name in estimators:
        est = estimator(name, gamma=gamma, nu=nu, tol=tol)
        try:
            path = gamma_mm.solution_path(X, est, K, delta, max_iter)
        except RobustGgmError as exc:
            out["estimators"][name] = {"error": str(exc), "points": []}
            continue
        points = []
        for lam, res, status in zip(path.lambdas, path.fits, path.statuses):
            point = {"lambda": float(lam), "status": status}
            if res is not None:
                omega = res.theta.omega
                point.update(metrics.score_point(metrics.edge_set(omega), omega, truth.adjacency, truth.omega))
            points.append(point)
        out["estimators"][name] = {"points": points}
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
