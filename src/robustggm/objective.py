"""Gaussian log-densities, the (penalized) negative gamma-likelihood,
the density-power objective, and estimating-equation kernels.

All likelihood sums run in the log domain with max-subtraction; the
gamma-th power of a density is only ever formed as ``exp(gamma * logf)``
so that an outlier's vanishing influence underflows gracefully to zero
instead of producing NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionMismatch, EmptyDataset
from .matcore import quad_form, require_symmetric, spd_factorize

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ModelParams:
    """Location vector plus symmetric positive-definite precision matrix."""

    mu: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        omega = require_symmetric(np.asarray(self.omega, dtype=float), "omega")
        if mu.ndim != 1 or mu.shape[0] != omega.shape[0]:
            raise DimensionMismatch(
                f"mu has length {mu.shape}, omega is {omega.shape}"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "omega", omega)

    @property
    def p(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class RobustConfig:
    """Estimator knobs: gamma trades efficiency for robustness, lam is
    the weight of the off-diagonal L1 penalty."""

    gamma: float
    lam: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


@dataclass(frozen=True)
class KernelInput:
    """Penalty subgradient (entries in [-1, 1]) and config for kernel
    diagnostics.  The subgradient is an input because off the optimum it
    is not determined; see :func:`default_subgradient`."""

    subgrad_u: np.ndarray
    config: RobustConfig

    def __post_init__(self):
        u = np.asarray(self.subgrad_u, dtype=float)
        if np.any(np.abs(u) > 1.0):
            raise ValueError("subgradient entries must lie in [-1, 1]")
        object.__setattr__(self, "subgrad_u", u)


def l1_offdiag(omega: np.ndarray) -> float:
    """Sum of |omega_jk| over j != k (both triangles)."""
    a = np.abs(np.asarray(omega, dtype=float))
    return float(a.sum() - np.trace(a))


def log_density(
    x: np.ndarray, theta: ModelParams, centered: np.ndarray | None = None
) -> float | np.ndarray:
    """Gaussian log-density log f(x; mu, omega).

    ``x`` may be a single length-p vector or an (n, p) matrix of row
    observations; returns a scalar or a length-n array accordingly.
    ``centered``, when given, must be x - mu (a caller that holds it
    saves a copy of x).
    """
    f = spd_factorize(theta.omega)
    d = np.asarray(x, dtype=float) - theta.mu if centered is None else centered
    q = quad_form(f, d)
    return -0.5 * theta.p * LOG_2PI + 0.5 * f.logdet - 0.5 * q


def ell2_closed_form(omega: np.ndarray, gamma: float) -> float:
    """Closed form of (1/(1+gamma)) * log int f(x)^(1+gamma) dx for the
    Gaussian density with precision ``omega`` (any mean).

    Equals (1/(1+g)) * { -(g p/2) ln 2pi + (g/2) log|omega|
    - (p/2) ln(1+g) }; zero at gamma = 0.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    f = spd_factorize(omega)
    p = f.dim
    return (
        -(gamma * p / 2.0) * LOG_2PI
        + (gamma / 2.0) * f.logdet
        - (p / 2.0) * np.log1p(gamma)
    ) / (1.0 + gamma)


def _data_log_density(X: np.ndarray, theta: ModelParams) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise EmptyDataset("need at least one observation")
    return log_density(X, theta)


def _neg_gamma_loglik_logf(logf: np.ndarray, omega: np.ndarray, gamma: float) -> float:
    """:func:`neg_gamma_loglik` from ``logf = log_density(X, theta)`` and
    the precision ``theta.omega``, so that a caller holding log f at an
    iterate does not evaluate it again."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return float(-np.mean(logf))
    n = logf.shape[0]
    ell1 = -(logsumexp(gamma * logf) - np.log(n)) / gamma
    return float(ell1 + ell2_closed_form(omega, gamma))


def neg_gamma_loglik(X: np.ndarray, theta: ModelParams, gamma: float) -> float:
    """Negative gamma-likelihood of the data under ``theta``.

    For gamma > 0 this is
    ``-(1/gamma) log{ (1/n) sum_i f(x_i)^gamma } + ell2_closed_form``;
    the first term is evaluated by log-sum-exp on gamma * log f_i.
    gamma = 0 is an exact branch returning the mean negative
    log-likelihood (the removable-singularity limit), not a small-gamma
    evaluation.
    """
    return _neg_gamma_loglik_logf(_data_log_density(X, theta), theta.omega, gamma)


def penalized_gamma_objective_logf(
    logf: np.ndarray, omega: np.ndarray, cfg: RobustConfig
) -> float:
    """:func:`penalized_gamma_objective` from ``logf = log_density(X, theta)``."""
    return _neg_gamma_loglik_logf(logf, omega, cfg.gamma) + 0.5 * cfg.lam * l1_offdiag(omega)


def penalized_gamma_objective(
    X: np.ndarray, theta: ModelParams, cfg: RobustConfig
) -> float:
    """neg_gamma_loglik plus (lam/2) * sum_{j != k} |omega_jk|."""
    return penalized_gamma_objective_logf(_data_log_density(X, theta), theta.omega, cfg)


def dp_bconst(omega: np.ndarray, beta: float) -> float:
    """|omega|^(beta/2) / ((1+beta)^(1+p/2) (2 pi)^(p beta/2)); this is
    the integral term (1/(1+beta)) int f^(1+beta) dx in closed form."""
    f = spd_factorize(omega)
    p = f.dim
    return float(
        np.exp(
            (beta / 2.0) * f.logdet
            - (1.0 + p / 2.0) * np.log1p(beta)
            - (p * beta / 2.0) * LOG_2PI
        )
    )


def dp_objective(
    X: np.ndarray, theta: ModelParams, beta: float, lam: float
) -> float:
    """Penalized density-power objective (diagnostic only; no solver).

    ``-(1/(n beta)) sum_i f(x_i)^beta + b_beta(theta)
    + (lam/2) * sum_{j != k} |omega_jk|``.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise EmptyDataset("need at least one observation")
    n = X.shape[0]
    logf = log_density(X, theta)
    term1 = -np.exp(logsumexp(beta * logf) - np.log(n)) / beta
    return float(term1 + dp_bconst(theta.omega, beta) + 0.5 * lam * l1_offdiag(theta.omega))


# --- scores and estimating-equation kernels -------------------------------

def _vech_indices(p: int):
    """Row/column indices of the (j, k), j <= k entries in row-wise order."""
    rows, cols = np.triu_indices(p)
    return rows, cols


def score(x: np.ndarray, theta: ModelParams) -> np.ndarray:
    """Gradient of log f(x; theta) in theta = (mu, vech(omega)).

    The off-diagonal omega entries are tied symmetrically, so their
    quadratic-form and log-determinant derivatives carry a factor 2.
    Returns a vector of length p + p(p+1)/2: mu block first, then the
    (j, k), j <= k omega entries row-wise.
    """
    x = np.asarray(x, dtype=float)
    f = spd_factorize(theta.omega)
    sigma = f.inverse()
    d = x - theta.mu
    g_mu = theta.omega @ d
    rows, cols = _vech_indices(theta.p)
    tie = np.where(rows == cols, 1.0, 2.0)
    g_om = 0.5 * tie * (sigma[rows, cols] - d[rows] * d[cols])
    return np.concatenate([g_mu, g_om])


def _logdet_gradient_vech(sigma: np.ndarray) -> np.ndarray:
    p = sigma.shape[0]
    rows, cols = _vech_indices(p)
    tie = np.where(rows == cols, 1.0, 2.0)
    return tie * sigma[rows, cols]


def ell2_gradient(theta: ModelParams, gamma: float) -> np.ndarray:
    """Gradient of ell2_closed_form in theta = (mu, vech(omega))."""
    sigma = spd_factorize(theta.omega).inverse()
    g_om = (gamma / (2.0 * (1.0 + gamma))) * _logdet_gradient_vech(sigma)
    return np.concatenate([np.zeros(theta.p), g_om])


def dp_bconst_gradient(theta: ModelParams, beta: float) -> np.ndarray:
    """Gradient of dp_bconst in theta = (mu, vech(omega))."""
    sigma = spd_factorize(theta.omega).inverse()
    b = dp_bconst(theta.omega, beta)
    g_om = b * (beta / 2.0) * _logdet_gradient_vech(sigma)
    return np.concatenate([np.zeros(theta.p), g_om])


def default_subgradient(omega: np.ndarray) -> np.ndarray:
    """Penalty subgradient in theta layout: sign(omega_jk) on the
    off-diagonal vech slots, zero for mu and diagonal slots."""
    omega = np.asarray(omega, dtype=float)
    p = omega.shape[0]
    rows, cols = _vech_indices(p)
    u_om = np.where(rows == cols, 0.0, np.sign(omega[rows, cols]))
    return np.concatenate([np.zeros(p), u_om])


def kernel_norm(
    x: np.ndarray, theta: ModelParams, k: KernelInput, method: str = "gamma"
) -> float:
    """Euclidean norm of the estimating-equation kernel at ``x``.

    method="gamma": every term (score, integral-term gradient, penalty
    subgradient) is damped by f(x)^gamma, so the norm redescends to zero
    for remote points.  method="dp": only the score term is damped by
    f(x)^beta; the integral-term gradient and the penalty subgradient
    are not, which keeps the norm bounded away from zero.  The exponent
    (gamma resp. beta) is taken from ``k.config.gamma``.
    """
    g = k.config.gamma
    lam = k.config.lam
    u = k.subgrad_u
    s = score(x, theta)
    if u.shape != s.shape:
        raise DimensionMismatch(
            f"subgradient length {u.shape[0]} != theta length {s.shape[0]}"
        )
    fpow = float(np.exp(g * log_density(x, theta)))  # underflows gracefully
    if method == "gamma":
        psi = fpow * (s - ell2_gradient(theta, g) - 0.5 * lam * u)
    elif method == "dp":
        psi = -fpow * s + dp_bconst_gradient(theta, g) + 0.5 * lam * u
    else:
        raise ValueError(f"unknown kernel method {method!r}")
    return float(np.linalg.norm(psi))
