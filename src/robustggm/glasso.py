"""Weighted graphical-lasso solver.

Minimizes  -log|Omega| + tr(Omega S) + lam * sum_{j!=k} |omega_jk|
over positive-definite Omega by a primal active-set method (Osborne,
Presnell & Turlach, IMA J. Numer. Anal. 2000) whose steps are the
restricted Newton steps of QUIC (Hsieh, Sustik, Dhillon & Ravikumar,
JMLR 2014).

The solver keeps a signed pattern: the diagonal plus a set E of
off-diagonal entries, each with a sign, and Omega is zero off the
pattern.  On the orthant those signs define, the objective is the
smooth -log|Omega| + tr(Omega T) with T = S + lam sign on E and S on
the diagonal: covariance selection with a shifted S (Dempster,
Biometrics 1972).  Each step is a Newton step for it over the
pattern's entries.  The direction comes from conjugate gradients on the
Hessian-vector product mask * (Sigma D Sigma), so no Hessian is ever
formed, and an Armijo search accepts only trial points that factorize.
With E empty the pattern's minimizer diag(1 / s_jj) is taken in one
step instead.

The pattern changes in three ways:

- A step is cut where an entry of E would cross zero against its sign;
  the entries it brings to zero leave E.
- An entry of E at zero whose KKT bound holds on its side (gradient
  times sign >= 0) leaves E.  A direction component that would push
  an entry still at zero across it is set to 0 before the step; that
  component only ascends, so the slope stays negative.
- At a stationary point of the pattern (largest gradient entry at most
  1e-2 kkt_tol), the zero entries whose KKT bound |s_jk - sigma_jk| <=
  lam fails by kkt_tol enter E at zero, with the descending sign
  -sign(s_jk - sigma_jk).

The solve returns at a stationary point whose full KKT residual is
below kkt_tol, so a warm start at the solution takes no step, and one
near it, as along an MM path or a penalty path, takes a few.  Every step
lowers the objective and every iterate is positive definite, so
recorded objective traces are monotone.  When the step budget runs out,
MaxSweepsExceeded carries the last iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateScatter,
    DimensionMismatch,
    MaxSweepsExceeded,
    NonPositiveDiagonal,
    NotPositiveDefinite,
)
from .matcore import inv_spd, require_symmetric, spd_factorize


@dataclass(frozen=True)
class GlassoProblem:
    """Input matrix and penalty weight."""

    s: np.ndarray
    lam: float

    def __post_init__(self):
        s = require_symmetric(np.asarray(self.s, dtype=float), "s")
        if np.any(np.diag(s) <= 0):
            j = int(np.argmin(np.diag(s)))
            raise NonPositiveDiagonal(f"s[{j},{j}] = {s[j, j]:g} <= 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        object.__setattr__(self, "s", s)

    @property
    def dim(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True)
class GlassoSolution:
    """A solve's precision matrix and its work: ``iterations`` counts
    Newton steps, the closed-form step to diag(1 / s_jj) included, and
    is 0 when the start already was the solution.  A recorded objective
    trace holds the objective after each step."""

    omega: np.ndarray
    iterations: int
    kkt_residual: float
    objective_trace: tuple | None = None


def glasso_objective(omega: np.ndarray, p: GlassoProblem) -> float:
    """-log|Omega| + tr(Omega S) + lam * ||Omega - diag Omega||_1."""
    return _objective(omega, spd_factorize(omega).logdet, p)


def _objective(omega, logdet, p):
    """:func:`glasso_objective` with log|Omega| given."""
    a = np.abs(omega)
    pen = p.lam * float(a.sum() - np.trace(a))
    return float(-logdet + np.sum(p.s * omega) + pen)


def kkt_residual(omega: np.ndarray, p: GlassoProblem) -> float:
    """Max violation of the stationarity conditions.

    With sigma = omega^{-1}: |s_jk - sigma_jk + lam sign(omega_jk)| on
    nonzero off-diagonals, max(0, |s_jk - sigma_jk| - lam) on zero
    off-diagonals, |s_jj - sigma_jj| on the diagonal.
    """
    omega = require_symmetric(np.asarray(omega, dtype=float), "omega")
    return _kkt_max(omega, p.s - _inverse(omega), p.lam)


def _inverse(x, f=None):
    """x^{-1}, from x's factorization f when given.  A diagonal x is
    inverted elementwise, which is exact."""
    d = np.diag(x)
    if np.count_nonzero(x - np.diag(d)) == 0:
        if np.any(d <= 0):
            raise NotPositiveDefinite(pivot=int(np.argmin(d)))
        return np.diag(1.0 / d)
    return inv_spd(x) if f is None else f.inverse()


def _kkt_max(omega, diff, lam):
    """:func:`kkt_residual` with diff = s - sigma given."""
    n = omega.shape[0]
    off = ~np.eye(n, dtype=bool)
    nonzero = off & (omega != 0.0)
    zero = off & (omega == 0.0)
    res = np.abs(np.diag(diff)).max() if n > 0 else 0.0
    if nonzero.any():
        res = max(res, np.abs(diff[nonzero] + lam * np.sign(omega[nonzero])).max())
    if zero.any():
        res = max(res, max(0.0, (np.abs(diff[zero]) - lam).max()))
    return float(res)


def _pattern(signs, S, lam, sigma):
    """The signed pattern's unknowns, its upper triangle with the
    diagonal packed into a vector: (rows, columns, off-diagonal mask,
    T = S + lam * signs on them, gradient T - sigma on them).  The
    off-diagonal entries count twice in every inner product."""
    iu, ju = np.nonzero(np.triu(signs))
    offd = iu != ju
    t = S[iu, ju]
    t[offd] += lam * signs[iu[offd], ju[offd]]
    return iu, ju, offd, t, t - sigma[iu, ju]


def _newton_step(x, f, signs, iu, ju, offd, t, g, sigma):
    """One Newton step on the pattern from x, whose factorization is f.

    The direction from :func:`_newton_direction` loses the components
    that would push an entry at zero across zero against its sign.  The
    step is cut at the first entry of E that would cross zero, and
    Armijo backtracking on the pattern's objective starts there.
    Returns (X, its factorization, mask of the packed entries X sets to
    zero: those the cut reaches, and any that rounding pushes across).
    X is exactly symmetric and zero off the pattern.
    """
    w = np.where(offd, 2.0, 1.0)
    g = w * g
    d = _newton_direction(sigma, iu, ju, w, g)
    xk, sk = x[iu, ju], signs[iu, ju]
    d[(xk == 0.0) & (sk * d < 0.0)] = 0.0
    slope = float(g @ d)
    cross = offd & (sk * d < 0.0)
    ratio = np.full(xk.shape, np.inf)
    ratio[cross] = -xk[cross] / d[cross]
    alpha = min(1.0, float(ratio.min()))
    fx = w @ (t * xk) - f.logdet
    while True:
        v = xk + alpha * d
        hit = offd & ((ratio <= alpha) | (sk * v < 0.0))
        v[hit] = 0.0
        trial = x.copy()
        trial[iu, ju] = v
        trial[ju, iu] = v
        try:
            ft = spd_factorize(trial)
        except NotPositiveDefinite:
            ft = None
        if ft is not None:
            f_trial = w @ (t * v) - ft.logdet
            # the second test accepts steps too small for the
            # objective's rounding to resolve
            if (f_trial <= fx + 1e-4 * alpha * slope
                    or -alpha * slope <= 1e-14 * max(1.0, abs(fx))):
                return trial, ft, hit
        alpha *= 0.5


def _newton_direction(sigma, iu, ju, w, g, rtol=1e-2, max_iter=200):
    """Approximately solve H d = -g by Jacobi-preconditioned conjugate
    gradients, for the packed Hessian H of -log|X| at X = sigma^{-1}:
    (H v)_k = w_k (Sigma V Sigma)_k with V the symmetric unpacking of v,
    two p x p matrix products per iteration.  Stops once the residual
    norm falls to ``rtol`` times |g|."""
    dg = np.diag(sigma)
    h = np.where(iu != ju, 2.0 * (dg[iu] * dg[ju] + sigma[iu, ju] ** 2), dg[iu] ** 2)
    d = np.zeros_like(g)
    r = -g
    z = r / h
    v = z.copy()
    rz = float(r @ z)
    stop = rtol * float(np.sqrt(g @ g))
    V = np.zeros_like(sigma)
    for _ in range(max_iter):
        V[iu, ju] = v
        V[ju, iu] = v
        hv = w * (sigma @ V @ sigma)[iu, ju]
        curv = float(v @ hv)
        if curv <= 0.0:
            break
        a = rz / curv
        d += a * v
        r -= a * hv
        if np.sqrt(r @ r) <= stop:
            break
        z = r / h
        rz, rz_old = float(r @ z), rz
        v = z + (rz / rz_old) * v
    return d


def solve(
    p: GlassoProblem,
    init: np.ndarray | None = None,
    max_steps: int = 500,
    kkt_tol: float = 1e-6,
    record_trace: bool = False,
) -> GlassoSolution:
    """Solve the graphical-lasso problem by the active-set Newton method
    of the module docstring.

    Parameters
    ----------
    p : GlassoProblem
    init : ndarray, optional
        Warm-start precision matrix; validated to be PD before use.  Its
        signed off-diagonal support is the first pattern.  Defaults to
        diag(1 / (s_jj + lam)), whose pattern is empty.
    max_steps : int
        Newton-step budget; exceeding it raises MaxSweepsExceeded.
    kkt_tol : float
        Required KKT residual on return.
    record_trace : bool
        Record the objective after every step.

    Returns
    -------
    GlassoSolution
        ``iterations`` counts Newton steps (0 when the start already was
        the solution).

    Raises
    ------
    MaxSweepsExceeded
        Carries the last iterate, its KKT residual and the step count.
    NonPositiveDiagonal
        If s has a non-positive diagonal entry.
    DegenerateScatter
        If lam = 0 and s is singular: the problem then has no minimizer.
    """
    S, lam = p.s, p.lam
    n = p.dim
    if lam == 0.0:
        # unpenalized, a minimizer exists only for positive-definite S; a
        # Cholesky pivot at rounding level relative to its s_kk counts as 0
        try:
            low = spd_factorize(S).lower
            small = np.flatnonzero(np.diag(low) ** 2 <= n * np.finfo(float).eps * np.diag(S))
            pivot = int(small[0]) if small.size else None
        except NotPositiveDefinite as exc:
            pivot = exc.pivot
        if pivot is not None:
            raise DegenerateScatter(
                f"lambda = 0 needs a positive-definite scatter, and this one is "
                f"singular (Cholesky pivot {pivot}); use lambda > 0"
            )

    if init is not None:
        init = require_symmetric(np.asarray(init, dtype=float), "init")
        if init.shape != S.shape:
            raise DimensionMismatch("warm start has wrong shape")
        x = init.copy()
    else:
        x = np.diag(1.0 / (np.diag(S) + lam))
    f = spd_factorize(x)  # validates a warm start as PD
    sigma = _inverse(x, f)
    signs = np.sign(x)
    gtol = 1e-2 * kkt_tol
    trace = [] if record_trace else None
    steps = 0
    while True:
        iu, ju, offd, t, g = _pattern(signs, S, lam, sigma)
        leave = (x[iu, ju] == 0.0) & (g * signs[iu, ju] >= 0.0)
        if leave.any():
            signs[iu[leave], ju[leave]] = signs[ju[leave], iu[leave]] = 0.0
            iu, ju, offd, t, g = _pattern(signs, S, lam, sigma)
        if np.abs(g).max() <= gtol:
            diff = S - sigma
            res = _kkt_max(x, diff, lam)
            if res < kkt_tol:
                return GlassoSolution(x, steps, res, tuple(trace) if record_trace else None)
            enter = (signs == 0.0) & (np.abs(diff) - lam >= kkt_tol)
            if enter.any():
                signs[enter] = -np.sign(diff[enter])
                iu, ju, offd, t, g = _pattern(signs, S, lam, sigma)
        if steps == max_steps:
            raise MaxSweepsExceeded(omega=x, residual=_kkt_max(x, S - sigma, lam), steps=steps)
        if offd.any():
            x, f, hit = _newton_step(x, f, signs, iu, ju, offd, t, g, sigma)
            signs[iu[hit], ju[hit]] = signs[ju[hit], iu[hit]] = 0.0
        else:  # the empty pattern's minimizer is closed-form
            x = np.diag(1.0 / np.diag(S))
            f = spd_factorize(x)
        sigma = _inverse(x, f)
        steps += 1
        if record_trace:
            trace.append(_objective(x, f.logdet, p))
