"""Comparison estimators: the penalized multivariate-t EM (tlasso) and
the nonparanormal (npn) rank transform.

Neither has a loop of its own.  A tlasso EM step is an MM step with
kappa = 1 (gamma = 0) and the t weights, so :func:`fit_tlasso` runs
:class:`TRule` through :func:`robustggm.gamma_mm.mm_loop`, and
:func:`tlasso_path` shares gamma's grid, warm-started path loop and
diagonal fixed point.  npn is the graphical lasso (gamma = 0) on the
data :func:`npn_transform` returns: :func:`fit_nonparanormal` is
:func:`robustggm.gamma_mm.fit` on that data, and its path is gamma = 0's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtri
from scipy.stats import rankdata

from . import gamma_mm
from .errors import DegenerateColumn, EmptyDataset
from .gamma_mm import FitResult, SolutionPath, diagonal_fixed_point, geometric_grid, mm_loop, warm_path
from .matcore import quad_form, spd_factorize
from .objective import ModelParams, RobustConfig, l1_offdiag

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

    def __post_init__(self):
        if isinstance(self.delta_n, str):
            if self.delta_n != "auto":
                raise ValueError("delta_n must be a float or 'auto'")
        elif not 0.0 < self.delta_n < 0.5:
            raise ValueError("explicit delta_n must lie in (0, 0.5)")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


def _t_weights(q: np.ndarray, p: int, nu: float) -> np.ndarray:
    """Normalized EM weights u~_i / sum_j u~_j, u~_i = (nu + p) / (nu + q_i)."""
    raw = (nu + p) / (nu + q)
    return raw / raw.sum()


@dataclass(frozen=True)
class TRule:
    """tlasso's weight rule for :func:`~robustggm.gamma_mm.mm_loop`: score
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
    X: np.ndarray, cfg: TlassoConfig, init: ModelParams | None = None, init_score=None
) -> FitResult:
    """Penalized multivariate-t estimate by EM, :func:`~robustggm.gamma_mm.mm_loop`
    under :class:`TRule`: each M-step is the graphical lasso on the scatter
    of the normalized weights.  ``init_score`` is the score of ``init``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rule = TRule(RobustConfig(gamma=0.0, lam=cfg.lam), cfg.nu, X.shape[1])
    return mm_loop(X, rule, init, cfg.max_iter, init_score=init_score)


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
    lam1.  The first point is its diagonal EM fixed point, with no EM
    step (see :func:`~robustggm.gamma_mm.warm_path`); each later point
    starts from its predecessor's estimate and score."""
    theta0, _, lam1 = tlasso_diagonal_start(X, nu)
    return warm_path(
        geometric_grid(lam1, K, delta),
        fit_tlasso(X, TlassoConfig(nu=nu, lam=lam1, max_iter=0), init=theta0),
        lambda lam, last: fit_tlasso(
            X, TlassoConfig(nu=nu, lam=lam, max_iter=max_iter), init=last.theta,
            init_score=last.logf,
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


def fit_nonparanormal(X: np.ndarray, cfg: NpnConfig) -> FitResult:
    """The graphical lasso (gamma = 0) at ``cfg.lam`` on the transformed
    data; its weights are uniform."""
    return gamma_mm.fit(npn_transform(X, cfg), RobustConfig(gamma=0.0, lam=cfg.lam))
