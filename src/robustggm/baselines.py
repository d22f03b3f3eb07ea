"""Comparison estimators: multivariate-t EM (tlasso) and the
nonparanormal rank transform followed by a graphical lasso.

The standard graphical lasso itself is the gamma = 0 branch of
:mod:`robustggm.gamma_mm` and needs no separate code path.  The paths
here reuse its grid, warm-started path loop, diagonal fixed point and
weighted scatter; only the weight rule and the inner loop differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtri
from scipy.stats import rankdata

from . import glasso
from .errors import DegenerateColumn, EmptyDataset
from .gamma_mm import (
    FitResult, SolutionPath, diagonal_fixed_point, geometric_grid, offdiag_absmax,
    robust_init, warm_path, weighted_scatter,
)
from .matcore import quad_form, spd_factorize
from .objective import ModelParams, l1_offdiag

TLASSO_TOL = 1e-6  # EM stops once no entry of (mu, omega) moves by this much


@dataclass(frozen=True)
class TlassoConfig:
    """Degrees of freedom, penalty weight, and EM step budget for the
    penalized multivariate-t EM."""

    nu: float
    lam: float
    max_iter: int = 200

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


@dataclass(frozen=True)
class NpnConfig:
    """Truncation level for the empirical CDF ("auto" uses the
    rate-matched default) and the penalty weight of the downstream
    graphical lasso."""

    delta_n: float | str = "auto"
    lam: float = 0.0
    use_correlation: bool = False

    def __post_init__(self):
        if isinstance(self.delta_n, str):
            if self.delta_n != "auto":
                raise ValueError("delta_n must be a float or 'auto'")
        elif not 0.0 < self.delta_n < 0.5:
            raise ValueError("explicit delta_n must lie in (0, 0.5)")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


def _mahalanobis(X: np.ndarray, theta: ModelParams) -> tuple[np.ndarray, float]:
    """q_i = (x_i - mu)' omega (x_i - mu) and log|omega|, from one factorization."""
    f = spd_factorize(theta.omega)
    return quad_form(f, np.atleast_2d(X) - theta.mu), f.logdet


def _t_objective(q: np.ndarray, logdet: float, omega: np.ndarray, cfg: TlassoConfig) -> float:
    """Mean penalized negative log-likelihood of the multivariate t with
    shape matrix omega^{-1}, from an iterate's Mahalanobis distances and
    log|omega|.  Monitored only: the normalized-weight EM below is not
    guaranteed to decrease it."""
    p, nu = omega.shape[0], cfg.nu
    const = (
        gammaln((nu + p) / 2.0)
        - gammaln(nu / 2.0)
        - (p / 2.0) * (math.log(nu) + math.log(math.pi))
        + 0.5 * logdet
    )
    log_t = const - ((nu + p) / 2.0) * np.log1p(q / nu)
    return float(-np.mean(log_t) + 0.5 * cfg.lam * l1_offdiag(omega))


def _t_weights(q: np.ndarray, p: int, nu: float) -> np.ndarray:
    raw = (nu + p) / (nu + q)
    return raw / raw.sum()


def tlasso_weights(X: np.ndarray, theta: ModelParams, nu: float) -> np.ndarray:
    """Normalized EM weights u_i = u~_i / sum_j u~_j with
    u~_i = (nu + p) / (nu + (x_i - mu)' omega (x_i - mu))."""
    return _t_weights(_mahalanobis(X, theta)[0], theta.p, nu)


def fit_tlasso(
    X: np.ndarray, cfg: TlassoConfig, init: ModelParams | None = None
) -> FitResult:
    """Penalized multivariate-t estimate via EM with a graphical-lasso
    M-step on the weighted scatter of the normalized weights.

    Stops when the max-abs change of (mu, omega) drops below
    :data:`TLASSO_TOL`; hitting ``cfg.max_iter`` is a soft failure
    (``converged=False``).  The returned weights are the normalized EM
    weights at the estimate.  Each iterate is factorized once; its
    objective and its weights share the Mahalanobis distances.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 2:
        raise EmptyDataset("need at least two observations")
    theta = init if init is not None else robust_init(X)
    q, logdet = _mahalanobis(X, theta)
    trace = [_t_objective(q, logdet, theta.omega, cfg)]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        u = _t_weights(q, theta.p, cfg.nu)
        mu_next = u @ X
        s_u = weighted_scatter(X, mu_next, u)
        sol = glasso.solve(
            glasso.GlassoProblem(s=s_u, lam=cfg.lam), init=theta.omega
        )
        change = max(
            np.max(np.abs(mu_next - theta.mu)),
            np.max(np.abs(sol.omega - theta.omega)),
        )
        theta = ModelParams(mu=mu_next, omega=sol.omega)
        q, logdet = _mahalanobis(X, theta)
        trace.append(_t_objective(q, logdet, theta.omega, cfg))
        iterations += 1
        if change < TLASSO_TOL:
            converged = True
            break
    return FitResult(
        theta=theta,
        weights=_t_weights(q, theta.p, cfg.nu),
        objective_trace=tuple(trace),
        converged=converged,
        mm_iterations=iterations,
    )


def tlasso_diagonal_start(X: np.ndarray, nu: float) -> tuple[ModelParams, np.ndarray, float]:
    """tlasso's :func:`~robustggm.gamma_mm.diagonal_fixed_point`: normalized
    t weights, variance scale 1.  Its lam1, the largest off-diagonal of the
    scatter fit_tlasso's M-step solves there, anchors the tlasso path.
    Returns (theta, S_u, lam1)."""
    return diagonal_fixed_point(X, lambda q, sig: _t_weights(q, sig.shape[0], nu), 1.0)


def tlasso_path(
    X: np.ndarray, nu: float, K: int = 10, delta: float = 0.2, max_iter: int = 200
) -> SolutionPath:
    """Warm-started tlasso fits on the geometric grid below tlasso's own
    lambda_max.  The first point is its diagonal EM fixed point, with no
    EM step (see :func:`~robustggm.gamma_mm.warm_path`)."""
    theta0, _, lam1 = tlasso_diagonal_start(X, nu)
    return warm_path(
        geometric_grid(lam1, K, delta),
        fit_tlasso(X, TlassoConfig(nu=nu, lam=lam1, max_iter=0), init=theta0),
        lambda lam, last: fit_tlasso(
            X, TlassoConfig(nu=nu, lam=lam, max_iter=max_iter), init=last.theta
        ),
    )


def npn_delta(n: int) -> float:
    """Truncation level 1 / (4 n^{1/4} sqrt(pi log n)) matched to the
    high-dimensional convergence rate of the transform estimator."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 1.0 / (4.0 * n**0.25 * math.sqrt(math.pi * math.log(n)))


def npn_transform(X: np.ndarray, cfg: NpnConfig) -> np.ndarray:
    """Columnwise Gaussianizing transform.

    Each column is mapped through
    ``mean_j + sd_j * Phi^{-1}(F~_j(x))`` where F~_j is the empirical
    CDF (ties averaged, rank / (n + 1)) truncated to
    [delta_n, 1 - delta_n]; mean and (biased) standard deviation are the
    column sample moments.  Monotone in each column, so within-column
    rank order is preserved.  A constant column, or one whose variance
    overflows float64, raises DegenerateColumn naming it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, p = X.shape
    if n < 2:
        raise EmptyDataset("need at least two observations")
    delta = npn_delta(n) if cfg.delta_n == "auto" else float(cfg.delta_n)
    out = np.empty_like(X)
    for j in range(p):
        col = X[:, j]
        if col.max() == col.min():
            raise DegenerateColumn(f"column {j} has fewer than 2 distinct values")
        with np.errstate(over="ignore"):  # an overflowed spread is refused below
            var = col.var()
        if not np.isfinite(var):
            raise DegenerateColumn(f"column {j} spreads too wide: its variance overflows float64")
        cdf = rankdata(col, method="average") / (n + 1.0)
        cdf = np.clip(cdf, delta, 1.0 - delta)
        out[:, j] = col.mean() + np.sqrt(var) * ndtri(cdf)
    return out


def _npn_scatter(Z: np.ndarray, use_correlation: bool) -> tuple[np.ndarray, np.ndarray]:
    """Column means and the biased sample covariance (or correlation)."""
    mu = Z.mean(axis=0)
    d = Z - mu
    s = d.T @ d / Z.shape[0]
    s = (s + s.T) / 2.0
    if use_correlation:
        scale = np.sqrt(np.diag(s))
        s = s / np.outer(scale, scale)
        s = (s + s.T) / 2.0
    return mu, s


def _npn_solve(mu, s, n: int, lam: float, start: ModelParams | None = None) -> FitResult:
    """Graphical lasso on ``s``, cold or warm from ``start``; uniform
    weights.  One solve, so ``mm_iterations`` is 1, as for glasso."""
    problem = glasso.GlassoProblem(s=s, lam=lam)
    sol = glasso.solve(problem, init=None if start is None else start.omega)
    return _npn_result(mu, sol.omega, problem, n, 1)


def _npn_result(mu, omega, problem: glasso.GlassoProblem, n: int, solves: int) -> FitResult:
    return FitResult(
        theta=ModelParams(mu=mu, omega=omega), weights=np.full(n, 1.0 / n),
        objective_trace=(glasso.glasso_objective(omega, problem),), converged=True,
        mm_iterations=solves,
    )


def fit_nonparanormal(X: np.ndarray, cfg: NpnConfig) -> FitResult:
    """Graphical lasso on the biased sample covariance (or correlation)
    of the transformed data; weights are reported as uniform."""
    Z = npn_transform(X, cfg)
    return _npn_solve(*_npn_scatter(Z, cfg.use_correlation), Z.shape[0], cfg.lam)


def npn_path(X: np.ndarray, cfg: NpnConfig, K: int = 10, delta: float = 0.2) -> SolutionPath:
    """Graphical lasso path on the data transformed and reduced to its
    scatter once, below that scatter's largest off-diagonal entry lam1
    (where the support empties).  The first point is diag(1 / s_jj), the
    solution at lam1, with no solve; the rest are solved warm, one solve
    per point.  ``cfg.lam`` is unused."""
    Z = npn_transform(X, cfg)
    mu, s = _npn_scatter(Z, cfg.use_correlation)
    n, lam1 = Z.shape[0], offdiag_absmax(s)
    first = _npn_result(mu, np.diag(1.0 / np.diag(s)), glasso.GlassoProblem(s=s, lam=lam1), n, 0)
    return warm_path(
        geometric_grid(lam1, K, delta), first, lambda lam, last: _npn_solve(mu, s, n, lam, last.theta)
    )
