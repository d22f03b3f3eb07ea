"""Gamma-divergence estimation of sparse Gaussian graphical models.

The penalized negative gamma-likelihood is minimized by a
majorize-minimize loop: at each step the current iterate induces
per-observation weights proportional to f(x_i)^gamma, the surrogate is
the weighted negative log-likelihood plus an iterate-only constant, and
minimizing it reduces to a weighted mean update followed by a rescaled
graphical lasso.  The surrogate touches the objective at the current
iterate, so the penalized objective is non-increasing along the run.

:func:`mm_loop` is every estimator's loop; :class:`GammaRule` is gamma's
weight rule, and tlasso's EM runs the t rule of :mod:`robustggm.baselines`.

The off-diagonal support empties exactly at the penalty level lam1 of
:func:`diagonal_start`; the regularization path is fit on a geometric
grid downward from there with warm starts.

One fit is single-threaded (warm-start chains are sequential), but all
functions here are pure given their inputs, so independent fits across
datasets, gamma values, or replicates can run concurrently with the
data shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import glasso
from .errors import (
    DegenerateSample, DegenerateScatter, DimensionMismatch, EmptyDataset, RobustGgmError,
)
from .objective import (
    ModelParams,
    RobustConfig,
    log_density,
    penalized_gamma_objective_logf,
)

MAD_CONSTANT = 1.4826  # normal-consistent scaling of the median absolute deviation
DIAGONAL_TOL = 1e-13  # the diagonal fixed point stops once no entry moves by this, relatively
DIAGONAL_MAX_PASSES = 2000


@dataclass(frozen=True)
class FitResult:
    """One converged (or iteration-capped) estimate of :func:`mm_loop`.

    ``weights`` (nonnegative, summing to one) and ``logf`` are the weight
    rule's weights and score at the returned parameters: log f(x_i) for
    gamma, glasso and npn, (q, log|omega|) for tlasso.  ``objective_trace``
    holds the rule's objective from the initial point onward, for gamma
    non-increasing up to roundoff.
    """

    theta: ModelParams
    weights: np.ndarray
    objective_trace: tuple
    converged: bool
    mm_iterations: int
    iterates: tuple | None = None
    logf: np.ndarray | tuple | None = None


@dataclass(frozen=True)
class SolutionPath:
    """Warm-started fits over a decreasing geometric penalty grid.

    ``statuses[k]`` is "ok", "max_iter", or "error: ..." per grid point;
    failed points hold None in ``fits``.
    """

    lambdas: np.ndarray
    fits: tuple
    statuses: tuple


def compute_weights(X: np.ndarray, theta: ModelParams, gamma: float) -> np.ndarray:
    """Per-observation weights w_i = f(x_i)^gamma / sum_j f(x_j)^gamma,
    computed entirely in the log domain."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise EmptyDataset("need at least one observation")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return exp_weights(log_density(X, theta), gamma)


def exp_weights(a: np.ndarray, c: float) -> np.ndarray:
    """w_i = exp(c a_i) / sum_j exp(c a_j), uniform at c = 0:
    f^gamma for a = log f, c = gamma, or for a = -2 log f + const, c = -gamma/2.

    One exponential of the logits shifted by their largest, so the
    largest term is exp(0) = 1 and the sum is in [1, n]: no overflow,
    and a remote row's weight underflows to exactly 0, never NaN."""
    if c == 0.0:
        return np.full(a.shape[0], 1.0 / a.shape[0])
    w = c * a
    w -= w.max()
    np.exp(w, out=w)
    w /= w.sum()
    return w


def weighted_scatter(
    X: np.ndarray, mu: np.ndarray, w: np.ndarray, centered: np.ndarray | None = None
) -> np.ndarray:
    """sum_i w_i (x_i - mu)(x_i - mu)^T, exactly symmetric.  ``centered``,
    when given, must be X - mu (a caller that holds it saves a copy of X)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mu = np.asarray(mu, dtype=float)
    w = np.asarray(w, dtype=float)
    if mu.shape[0] != X.shape[1] or w.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"X {X.shape}, mu {mu.shape}, w {w.shape} do not agree"
        )
    d = X - mu if centered is None else centered
    s = (d * w[:, None]).T @ d
    return (s + s.T) / 2.0


def _check_scatter(s: np.ndarray) -> np.ndarray:
    d = np.diag(s)
    top = d.max() if d.size else 0.0
    if top <= 0.0 or np.any(d < 1e-15 * top):
        j = int(np.argmin(d))
        raise DegenerateScatter(
            f"weighted scatter has a vanishing diagonal entry (index {j}); "
            "weights collapsed onto too few observations"
        )
    return s


def robust_init(X: np.ndarray) -> ModelParams:
    """Coordinatewise median location and diagonal precision from the
    adjusted MAD (sample-deviation fallback for zero-MAD columns).
    Raises DegenerateSample, naming the column, for a constant column or
    one whose variance overflows float64."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mu = np.median(X, axis=0)
    with np.errstate(over="ignore"):  # an overflowed spread is refused below, by column
        scale = MAD_CONSTANT * np.median(np.abs(X - mu), axis=0)
        fallback = X.std(axis=0)
        scale = np.where(scale > 0, scale, fallback)
        var = scale**2
    # a constant column's std can round above 0, so its span decides too
    flat = (scale <= 0) | (X.max(axis=0) == X.min(axis=0))
    if np.any(flat):
        raise DegenerateSample(f"column {int(np.argmax(flat))} is constant")
    if not np.all(np.isfinite(var)):
        j = int(np.argmin(np.isfinite(var)))
        raise DegenerateSample(f"column {j} spreads too wide: its variance overflows float64")
    return ModelParams(mu=mu, omega=np.diag(1.0 / var))


def mm_step(
    X: np.ndarray,
    theta_t: ModelParams,
    cfg: RobustConfig,
    weights: np.ndarray,
    centered: np.ndarray | None = None,
) -> ModelParams:
    """One majorize-minimize step from ``theta_t``.

    ``weights`` are the weight rule's weights at theta_t (for gamma,
    :func:`compute_weights`; :func:`mm_loop` passes them from the score it
    already holds); the location update is their weighted mean; the
    precision update solves the graphical lasso on the weighted scatter
    with log-determinant coefficient k = 1/(1+gamma), warm-started at the
    current precision, to :func:`glasso.solve`'s default tolerance.
    Dividing that objective by k gives the standard problem with S_w / k
    and lam / k, which is the one solved.
    ``centered``, when given, is an array shaped like X that receives the
    rows the scatter is formed from, X - mu_{t+1}: :func:`mm_loop` scores
    the new iterate on them.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mu_next = weights @ X
    d = np.subtract(X, mu_next, out=centered)
    s_w = _check_scatter(weighted_scatter(X, mu_next, weights, centered=d))
    k = 1.0 / (1.0 + cfg.gamma)
    problem = glasso.GlassoProblem(s=s_w / k, lam=cfg.lam / k)
    sol = glasso.solve(problem, init=theta_t.omega)
    return ModelParams(mu=mu_next, omega=sol.omega)


@dataclass(frozen=True)
class GammaRule:
    """gamma's weight rule for :func:`mm_loop`: score log f(x_i), weights
    f^gamma, the penalized negative gamma-likelihood as objective; it stops
    once that changes by at most ``tol`` relatively, and at gamma = 0 after
    one step."""

    cfg: RobustConfig
    tol: float = 1e-7

    def score(self, X: np.ndarray, theta: ModelParams, centered: np.ndarray) -> np.ndarray:
        return log_density(X, theta, centered=centered)

    def weights(self, logf: np.ndarray) -> np.ndarray:
        return exp_weights(logf, self.cfg.gamma)

    def objective(self, logf: np.ndarray, omega: np.ndarray) -> float:
        return penalized_gamma_objective_logf(logf, omega, self.cfg)

    def stop(self, theta: ModelParams, new: ModelParams, obj: float, new_obj: float) -> bool:
        # at gamma = 0 the weights are uniform whatever theta is, so the
        # surrogate is the objective itself and the step's solve minimized it
        return self.cfg.gamma == 0.0 or abs(new_obj - obj) <= self.tol * max(1.0, abs(obj))


def mm_loop(
    X: np.ndarray,
    rule,
    init: ModelParams | None = None,
    max_iter: int = 200,
    keep_iterates: bool = False,
    init_score=None,
) -> FitResult:
    """Iterate :func:`mm_step` under a weight rule from ``init`` (default
    :func:`robust_init`).

    The rule supplies ``score(X, theta, centered)`` of an iterate, from
    its rows centered at its mu and independent of lam; ``weights(score)``;
    the traced ``objective(score, omega)``; ``cfg``, whose gamma gives
    the step's kappa = 1/(1+gamma) and lam its penalty; and
    ``stop(theta, new, obj, new_obj)``.  Exceeding ``max_iter`` returns
    ``converged=False`` (``max_iter=0`` evaluates ``init``).  Each iterate
    is scored once, on the rows its step centered; ``init_score``, when
    given, must be the score of ``init`` (a path hands each point's last
    score to the next point).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 2:
        raise EmptyDataset("need at least two observations")
    theta = init if init is not None else robust_init(X)
    centered = np.empty_like(X)  # X - mu of the latest iterate, refilled by each step
    score = (
        rule.score(X, theta, np.subtract(X, theta.mu, out=centered))
        if init_score is None else init_score
    )
    obj = rule.objective(score, theta.omega)
    trace = [obj]
    iterates = [theta] if keep_iterates else None
    converged = False
    iterations = 0
    for _ in range(max_iter):
        new = mm_step(X, theta, rule.cfg, rule.weights(score), centered=centered)
        iterations += 1
        score = rule.score(X, new, centered)
        new_obj = rule.objective(score, new.omega)
        trace.append(new_obj)
        if keep_iterates:
            iterates.append(new)
        converged = rule.stop(theta, new, obj, new_obj)
        theta, obj = new, new_obj
        if converged:
            break
    return FitResult(
        theta=theta,
        weights=rule.weights(score),
        objective_trace=tuple(trace),
        converged=converged,
        mm_iterations=iterations,
        iterates=tuple(iterates) if keep_iterates else None,
        logf=score,
    )


def fit(
    X: np.ndarray,
    cfg: RobustConfig,
    init: ModelParams | None = None,
    tol: float = 1e-7,
    max_iter: int = 200,
    keep_iterates: bool = False,
    init_logf: np.ndarray | None = None,
) -> FitResult:
    """Minimize the penalized negative gamma-likelihood by :func:`mm_loop`
    under :class:`GammaRule`; ``init_logf`` is the score of ``init``."""
    return mm_loop(X, GammaRule(cfg, tol), init, max_iter, keep_iterates, init_logf)


def offdiag_absmax(s: np.ndarray) -> float:
    """max_{j != k} |s[j, k]|: the least penalty with an empty glasso support on ``s``.
    Every path anchors its grid here, so here a one-variable problem is refused."""
    if s.shape[0] < 2:
        raise DimensionMismatch("need at least two variables")
    return float(np.max(np.abs(s[~np.eye(s.shape[0], dtype=bool)])))


def diagonal_fixed_point(X: np.ndarray, weigh, scale: float) -> tuple[ModelParams, np.ndarray, float]:
    """Fixed point of a weighted estimator held to diagonal precision.

    From the seed (mu, sig) of :func:`robust_init` (median and adjusted
    MAD) it iterates the weights ``weigh(q, sig)`` of
    q_i = sum_j (x_ij - mu_j)^2 / sig_j, their weighted mean, and the
    weighted variances times ``scale`` (the estimator's 1/kappa), until
    no entry of (mu, sig) moves by more than :data:`DIAGONAL_TOL` of the
    largest (or of 1), within :data:`DIAGONAL_MAX_PASSES` passes or it
    raises.  Returns (theta, S_w, lam1).  The estimator's precision step
    solves the graphical lasso on S_w, the weighted scatter there, so for
    lam >= lam1 = max_{j != k} |S_w[j, k]| it is stationary at theta.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 2:
        raise EmptyDataset("need at least two observations")
    seed = robust_init(X)
    mu, sig = seed.mu, 1.0 / np.diag(seed.omega)
    # dev2, the one (n, p) work array: (X - mu)^2 at the current mu, divided
    # by sig in place for the weights, then refilled at the new mu
    dev2 = (X - mu) ** 2
    for _ in range(DIAGONAL_MAX_PASSES):
        w = weigh(np.sum(np.divide(dev2, sig, out=dev2), axis=1), sig)
        mu_new = w @ X
        np.square(np.subtract(X, mu_new, out=dev2), out=dev2)
        sig_new = scale * (w @ dev2)
        if np.any(sig_new <= 0):
            raise DegenerateScatter("weights collapsed in the diagonal fit")
        done = max(
            np.max(np.abs(mu_new - mu)), np.max(np.abs(sig_new - sig))
        ) <= DIAGONAL_TOL * max(1.0, np.max(np.abs(mu)), np.max(sig))
        mu, sig = mu_new, sig_new
        if done:
            break
    else:
        raise RobustGgmError(f"the diagonal start did not settle in {DIAGONAL_MAX_PASSES} passes")
    s_w = weighted_scatter(X, mu, weigh(np.sum(np.divide(dev2, sig, out=dev2), axis=1), sig))
    theta = ModelParams(mu=mu, omega=np.diag(1.0 / (scale * np.diag(s_w))))
    return theta, s_w, offdiag_absmax(s_w)


def diagonal_start(X: np.ndarray, gamma: float) -> tuple[ModelParams, np.ndarray, float]:
    """The gamma estimator's :func:`diagonal_fixed_point`: weights f^gamma
    of the diagonal normal, variance scale 1 + gamma.  Its lam1 anchors
    the gamma and glasso paths.  Returns (theta, S_w, lam1)."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return diagonal_fixed_point(
        X, lambda q, sig: exp_weights(q + np.log(sig).sum(), -0.5 * gamma), 1.0 + gamma
    )


def geometric_grid(lam1: float, K: int, delta: float) -> np.ndarray:
    """lam_k = lam1 * delta^((k-1)/(K-1)), k = 1..K, down to delta * lam1."""
    if K < 2 or not 0.0 < delta < 1.0:
        raise ValueError("the grid needs K >= 2 and delta in (0, 1)")
    return lam1 * delta ** (np.arange(K) / (K - 1))


def warm_path(lambdas: np.ndarray, first: FitResult, fit_at) -> SolutionPath:
    """The first point is ``first``, the path's diagonal start at lambdas[0]
    with no step taken: the step would return it, so it is converged.  Then
    ``fit_at(lam, last)`` runs down lambdas[1:], ``last`` the latest
    successful fit; a RobustGgmError at a point makes its status "error: ..."
    and its fit None, and the path goes on (other statuses: "ok", "max_iter")."""
    last = replace(first, converged=True)
    fits, statuses = [last], ["ok"]
    for lam in lambdas[1:]:
        try:
            res = fit_at(float(lam), last)
        except RobustGgmError as exc:
            fits.append(None)
            statuses.append(f"error: {exc}")
            continue
        fits.append(res)
        statuses.append("ok" if res.converged else "max_iter")
        last = res
    return SolutionPath(lambdas=lambdas, fits=tuple(fits), statuses=tuple(statuses))


def solution_path(
    X: np.ndarray,
    gamma: float,
    K: int = 10,
    delta: float = 0.2,
    tol: float = 1e-7,
    max_iter: int = 200,
) -> SolutionPath:
    """Fit a warm-started path over lam_k = lam1 * delta^((k-1)/(K-1)).

    lam1 and the first point, with no MM step, come from
    :func:`diagonal_start`, the diagonal fixed point run from the median
    and adjusted MAD; each later point starts from its predecessor's
    estimate, and from the log-density its predecessor ended with there.
    Estimation errors are recorded per point (see :func:`warm_path`).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    theta0, _, lam1 = diagonal_start(X, gamma)
    return warm_path(
        geometric_grid(lam1, K, delta),
        fit(X, RobustConfig(gamma=gamma, lam=lam1), init=theta0, max_iter=0),
        lambda lam, last: fit(
            X, RobustConfig(gamma=gamma, lam=lam), init=last.theta, tol=tol,
            max_iter=max_iter, init_logf=last.logf,
        ),
    )
