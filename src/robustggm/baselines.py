"""Comparison estimators: the penalized multivariate-t EM (tlasso) and
the nonparanormal (npn) rank transform.

Neither has a loop or a path of its own.  A tlasso EM step is an MM step
with kappa = 1 (gamma = 0) and the t weights, so :func:`fit_tlasso` runs
:class:`TRule` through :func:`robustggm.gamma_mm.fit`, from the diagonal
fixed point :func:`tlasso_diagonal_start`.  npn is the graphical lasso
(gamma = 0) on the data :func:`npn_transform` returns.
:func:`robustggm.study.estimator` makes each an
:class:`~robustggm.gamma_mm.Estimator`, whose path is
:func:`robustggm.gamma_mm.solution_path`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtri
from scipy.stats import rankdata

from . import gamma_mm
from .errors import DegenerateColumn, EmptyDataset
from .gamma_mm import FitResult, diagonal_fixed_point
from .matcore import quad_form, spd_factorize
from .objective import ModelParams, RobustConfig, l1_offdiag

TLASSO_TOL = 1e-6  # EM stops once no entry of (mu, omega) moves by this much


def _t_weights(q: np.ndarray, p: int, nu: float) -> np.ndarray:
    """Normalized EM weights u~_i / sum_j u~_j, u~_i = (nu + p) / (nu + q_i)."""
    raw = (nu + p) / (nu + q)
    return raw / raw.sum()


@dataclass(frozen=True)
class TRule:
    """tlasso's weight rule for :func:`robustggm.gamma_mm.fit`: score
    (q, log|omega|), q_i = (x_i - mu)' omega (x_i - mu), from one
    factorization; the normalized t weights of q; gamma = 0 in ``cfg``, so
    kappa = 1.  It stops once no entry of (mu, omega) moves by
    :data:`TLASSO_TOL`."""

    cfg: RobustConfig
    nu: float
    p: int

    def score(self, X: np.ndarray, theta: ModelParams, centered: np.ndarray) -> tuple[np.ndarray, float]:
        f = spd_factorize(theta.omega)
        return quad_form(f, centered), f.logdet

    def weights(self, score: tuple[np.ndarray, float]) -> np.ndarray:
        return _t_weights(score[0], self.p, self.nu)

    def objective(self, score: tuple[np.ndarray, float], omega: np.ndarray) -> float:
        """Mean penalized negative log-likelihood of the multivariate t with
        shape matrix omega^{-1}.  Monitored only: the normalized-weight EM
        is not guaranteed to decrease it."""
        (q, logdet), p, nu = score, self.p, self.nu
        const = (
            gammaln((nu + p) / 2.0)
            - gammaln(nu / 2.0)
            - (p / 2.0) * (math.log(nu) + math.log(math.pi))
            + 0.5 * logdet
        )
        log_t = const - ((nu + p) / 2.0) * np.log1p(q / nu)
        return float(-np.mean(log_t) + 0.5 * self.cfg.lam * l1_offdiag(omega))

    def stop(self, theta: ModelParams, new: ModelParams, obj: float, new_obj: float) -> bool:
        return max(np.max(np.abs(new.mu - theta.mu)), np.max(np.abs(new.omega - theta.omega))) < TLASSO_TOL


def fit_tlasso(
    X: np.ndarray, lam: float, init: ModelParams | None = None, max_iter: int = 200,
    init_score=None, *, nu: float,
) -> FitResult:
    """Penalized multivariate-t estimate at ``lam`` by EM,
    :func:`robustggm.gamma_mm.fit` under :class:`TRule`: each M-step is the
    graphical lasso on the scatter of the normalized weights.
    ``init_score`` is the score of ``init``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rule = TRule(RobustConfig(gamma=0.0, lam=lam), nu, X.shape[1])
    return gamma_mm.fit(X, rule, init, max_iter, init_score=init_score)


def tlasso_diagonal_start(X: np.ndarray, nu: float) -> tuple[ModelParams, np.ndarray, float]:
    """tlasso's :func:`~robustggm.gamma_mm.diagonal_fixed_point`: normalized
    t weights, variance scale 1.  Its lam1, the largest off-diagonal of the
    scatter fit_tlasso's M-step solves there, anchors the tlasso path.
    Returns (theta, S_u, lam1)."""
    return diagonal_fixed_point(X, lambda q, sig: _t_weights(q, sig.shape[0], nu), 1.0)


def npn_delta(n: int) -> float:
    """Truncation level 1 / (4 n^{1/4} sqrt(pi log n)) matched to the
    high-dimensional convergence rate of the transform estimator."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 1.0 / (4.0 * n**0.25 * math.sqrt(math.pi * math.log(n)))


def npn_transform(X: np.ndarray, delta_n: float | str = "auto") -> np.ndarray:
    """Columnwise Gaussianizing transform.

    Each column is mapped through
    ``mean_j + sd_j * Phi^{-1}(F~_j(x))`` where F~_j is the empirical
    CDF (ties averaged, rank / (n + 1)) truncated to [delta_n, 1 - delta_n]
    (:func:`npn_delta` for "auto"); mean and (biased) standard deviation
    are the column sample moments.  Monotone in each column, so
    within-column rank order is preserved.  A constant column, or one whose variance
    overflows float64, raises DegenerateColumn naming it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, p = X.shape
    if n < 2:
        raise EmptyDataset("need at least two observations")
    delta = npn_delta(n) if delta_n == "auto" else float(delta_n)
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


def fit_nonparanormal(X: np.ndarray, lam: float, delta_n: float | str = "auto") -> FitResult:
    """The graphical lasso (gamma = 0) at ``lam`` on the transformed
    data; its weights are uniform."""
    rule = gamma_mm.GammaRule(RobustConfig(gamma=0.0, lam=lam))
    return gamma_mm.fit(npn_transform(X, delta_n), rule)
