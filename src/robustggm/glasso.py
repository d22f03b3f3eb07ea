"""Weighted graphical-lasso solver.

Minimizes  -log|Omega| + tr(Omega S) + lam * sum_{j!=k} |omega_jk|
over positive-definite Omega by blockwise coordinate descent: each
column of Omega is updated in fixed ascending order by an inner cyclic
coordinate-descent lasso whose Gram matrix is the corresponding block
inverse, recovered in O(p^2) from the maintained (Omega, Sigma) pair.
The inner lasso first tries the exact solution on the signed support
of its warm start, the column as it stands (one positive-definite
linear solve), and keeps it only if it satisfies the lasso's KKT
conditions, which makes it the subproblem's global minimizer (the
active-set finish of Osborne, Presnell & Turlach, IMA J. Numer. Anal.
2000).  Only when that fails does it run a coordinate-descent pass, and
it tries again on that pass's signed support.  Near a solution of the
outer problem the columns' supports settle, so most column updates are
one linear solve and no pass.

The sweep loop has the same kind of finish.  Let E be the signed
off-diagonal support of Omega.  The finish minimizes the smooth problem
-log|Omega| + tr(Omega T) with T = S + lam sign(Omega) on E, over Omega
supported on E and the diagonal: covariance selection with a shifted S
(Dempster, Biometrics 1972), solved by Newton's method restricted to
that fixed active set (the QUIC direction of Hsieh, Sustik, Dhillon &
Ravikumar, JMLR 2014).  Each direction comes from conjugate gradients
on the Hessian-vector product mask * (Sigma D Sigma), so no Hessian is
ever formed, and every Armijo trial point must factorize.  The result
is accepted only if (1) it keeps every sign on E, with no zeros, (2)
its full KKT residual is below the tolerance and (3) its objective is
no higher than the point the finish started from.  The acceptance
tests reuse the Newton's last factorization.  A result that fails only
(1) is repaired by dropping the entries that flipped or vanished from
E; one that passes (1) and fails (2) only at zero off-diagonal entries
is repaired by adding those entries to E, with the sign that descends,
-sign(s_jk - sigma_jk).  At most two repairs follow the first Newton
solve, each under the same three tests.

The finish is tried first on the starting point, before any sweep.
Near a solution, as along an MM path or a warm-started penalty path,
the start's signed support, or one a repair away from it, is often the
answer, and the solve then ends with no sweep.  From a diagonal start
the first pattern is empty, its minimizer diag(1/s_jj) is closed-form,
and a repair adds the entries whose KKT bound that point violates.  If
the finish is not accepted, sweeps run, and the finish is tried again
after every sweep that leaves E unchanged without meeting the stop
rule; a finish that is not accepted leaves the sweep iterate as it was.

Every column update decreases the objective, since it never ends at a
higher subproblem objective than the column it starts from, and every
iterate is positive definite by construction (any column update
keeps the Schur complement at 1/s_jj > 0), so recorded objective traces
are monotone.
A solution is only returned once the KKT residual clears the requested
tolerance; otherwise MaxSweepsExceeded carries the last iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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
    """A solve's precision matrix and work: sweeps (``iterations``) and
    the Newton steps of the accepted exact finish, repairs included
    (``newton_steps``).  ``iterations`` is 0 when the finish on the
    starting point, repairs included, was accepted before any sweep; the
    objective trace then holds only the finish's objective, or nothing
    if the start already was the solution."""

    omega: np.ndarray
    iterations: int
    kkt_residual: float
    objective_trace: tuple | None = None
    newton_steps: int = 0


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
    d = np.diag(omega)
    if np.count_nonzero(omega - np.diag(d)) == 0:
        if np.any(d <= 0):
            raise NotPositiveDefinite(pivot=int(np.argmin(d)))
        sigma = np.diag(1.0 / d)  # elementwise inverse is exact here
    else:
        sigma = inv_spd(omega)
    return _kkt_max(omega, p.s - sigma, p.lam)


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


def _lasso_cd(A, w12, c, t, inner_tol, max_passes=250):
    """Minimize 0.5 w'Aw + c'w + t ||w||_1 over w, for A positive
    definite, warm-started at w12 (updated in place).  Returns
    r = A @ w12 at exit.

    The exact minimizer on the warm start's signed support is tried
    first (:func:`_signed_support_solution`), before any pass of cyclic
    coordinate descent and before the pass's running residual is
    formed; then the same try follows every pass that changes some
    coordinate by more than ``inner_tol`` (a pass that does not ends
    the loop).  A try ends the loop only if it passes the subproblem's
    KKT conditions, and is then the unique global minimizer, so the
    result never has a higher subproblem objective than the warm start
    or any coordinate-descent iterate.
    """
    exact = _signed_support_solution(A, w12, c, t)
    if exact is not None:
        w12[:] = exact
        return A @ w12
    r = A @ w12
    m = w12.shape[0]
    adiag = np.diag(A).copy()
    for _ in range(max_passes):
        delta_max = 0.0
        for k in range(m):
            old = w12[k]
            val = -(c[k] + r[k] - adiag[k] * old)
            if val > t:
                new = (val - t) / adiag[k]
            elif val < -t:
                new = (val + t) / adiag[k]
            else:
                new = 0.0
            if new != old:
                d = new - old
                w12[k] = new
                r += A[:, k] * d
                delta_max = max(delta_max, abs(d))
        if delta_max <= inner_tol:
            break
        exact = _signed_support_solution(A, w12, c, t)
        if exact is not None:
            w12[:] = exact
            break
    return A @ w12  # recompute exactly; incremental r accumulates dust


def _signed_support_solution(A, w, c, t):
    """The lasso minimizer if w's signed support is the optimal one.

    With support S and signs s = sign(w_S), the stationarity condition
    on S is the linear system A_SS x_S = -(c_S + t s), with x = 0 off S.
    x is returned only if it satisfies every KKT condition as computed:
    sign(x_S) = s with no zeros on S, and |c_k + (A x)_k| <= t off S.
    Otherwise (or if A_SS fails to factor) returns None.
    """
    s = np.sign(w)
    on = np.flatnonzero(s)
    x = np.zeros_like(w)
    if on.size:
        _, x_on, info = lapack.dposv(A[on[:, None], on], -(c[on] + t * s[on]))
        if info != 0 or np.any(np.sign(x_on) != s[on]):
            return None
        x[on] = x_on
    g = c + A @ x
    g[on] = 0.0
    if np.abs(g).max() > t:
        return None
    return x


def _support_newton(x, signs, S, lam, gtol, max_steps=20):
    """Minimize -log|X| + tr(X T) over X on a sign pattern, from x.

    The pattern is the off-diagonal support E of ``signs`` plus the
    diagonal; T = S + lam * signs on E and S on the diagonal.  The start
    x must be zero off the pattern.  The unknowns are the pattern's
    upper triangle, packed into a vector whose off-diagonal entries
    count twice in every inner product.  Newton steps (directions from
    :func:`_newton_direction`) with Armijo backtracking run until the
    largest gradient entry is at most ``gtol``.  Returns (X, steps,
    X^{-1}, log|X|), the last two from X's own factorization, or None if
    x is not positive definite, the line search fails or ``max_steps``
    do not converge.  X is exactly symmetric and zero off the pattern;
    its signs on E are not checked here.  With E empty, X is the
    minimizer diag(1 / s_jj) itself, which counts as one step unless x
    is that already, and X^{-1} is inverted elementwise, as
    :func:`kkt_residual` inverts a diagonal matrix.
    """
    iu, ju = np.nonzero(np.triu(signs))
    offd = iu != ju
    if not offd.any():
        xd = np.diag(1.0 / np.diag(S))
        f = spd_factorize(xd)
        return xd, int(not np.array_equal(xd, x)), np.diag(1.0 / np.diag(xd)), f.logdet
    t = S[iu, ju]
    t[offd] += lam * signs[iu[offd], ju[offd]]
    w = np.where(offd, 2.0, 1.0)
    try:
        f = spd_factorize(x)
    except NotPositiveDefinite:
        return None
    fx = w @ (t * x[iu, ju]) - f.logdet
    steps = 0
    while True:
        sigma = f.inverse()
        g = t - sigma[iu, ju]
        if np.abs(g).max() <= gtol:
            return x, steps, sigma, f.logdet
        if steps == max_steps:
            return None
        g *= w
        d = _newton_direction(sigma, iu, ju, w, g)
        slope = float(g @ d)
        D = np.zeros_like(x)
        D[iu, ju] = d
        D[ju, iu] = d
        alpha = 1.0
        while True:
            trial = x + alpha * D
            try:
                ft = spd_factorize(trial)
            except NotPositiveDefinite:
                ft = None
            if ft is not None:
                f_trial = w @ (t * trial[iu, ju]) - ft.logdet
                # the second test accepts steps too small for the
                # objective's rounding to resolve
                if (f_trial <= fx + 1e-4 * alpha * slope
                        or -alpha * slope <= 1e-14 * max(1.0, abs(fx))):
                    break
            alpha *= 0.5
            if alpha < 1e-10:
                return None
        x, f, fx = trial, ft, f_trial
        steps += 1


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


def _finish(omega, p, kkt_tol, omega_logdet=None):
    """The exact Newton finish on omega's signed support, or None.

    Returns (Omega, Newton steps, KKT residual, objective) for
    a point that (1) keeps every sign of its pattern with no zeros, (2)
    has a full KKT residual below ``kkt_tol`` and (3) has an objective
    no higher than omega's, for which log|omega| is ``omega_logdet``
    when given (else omega is factorized).  The first pattern is
    sign(omega).  Up to two times, a point that fails only (1) is solved
    again with the flipped or vanished entries dropped from the pattern
    (and set to 0 in the new start), and one that fails only (2), at
    zero off-diagonal entries, is solved again with those entries added,
    each with sign -sign(s_jk - sigma_jk).
    """
    S, lam = p.s, p.lam
    signs = np.sign(omega)
    x, steps = omega, 0
    for _ in range(3):  # the first solve and at most two repairs
        found = _support_newton(x, signs, S, lam, 1e-2 * kkt_tol)
        if found is None:
            return None
        x, k, sigma, logdet = found
        steps += k
        missed = np.sign(x) != signs
        if missed.any():
            signs = np.where(missed, 0.0, signs)
            x = np.where(missed, 0.0, x)
            continue
        diff = S - sigma
        res = _kkt_max(x, diff, lam)
        if res >= kkt_tol:
            enter = (signs == 0.0) & (np.abs(diff) - lam >= kkt_tol)
            if not enter.any():
                return None
            signs = np.where(enter, -np.sign(diff), signs)
            continue
        obj = _objective(x, logdet, p)
        if omega_logdet is None:
            before = glasso_objective(omega, p)
        else:
            before = _objective(omega, omega_logdet, p)
        if obj > before:
            return None
        return x, steps, res, obj
    return None


def solve(
    p: GlassoProblem,
    init: np.ndarray | None = None,
    tol: float = 1e-6,
    max_sweeps: int = 500,
    kkt_tol: float | None = None,
    record_trace: bool = False,
) -> GlassoSolution:
    """Solve the graphical-lasso problem.

    First the exact Newton finish on the starting point's signed
    support (:func:`_finish`) is tried.  If it is not accepted, sweeps of
    blockwise coordinate descent run until a sweep changes Omega by at
    most the ``tol`` threshold and the KKT residual is below
    ``kkt_tol``.  After a sweep that does not meet that stop rule but
    leaves Omega's signed off-diagonal support unchanged, the finish is
    tried again.  A finish's point is returned only if it keeps every
    sign of its pattern with no zeros, its full KKT residual is below
    ``kkt_tol`` and its objective is no higher than the point it started
    from; a point that misses only by sign flips, or only by KKT
    violations at zero entries, is repaired at most twice by changing
    the pattern (see :func:`_finish`).  Otherwise sweeping goes on from
    the sweep iterate.

    Parameters
    ----------
    p : GlassoProblem
    init : ndarray, optional
        Warm-start precision matrix; validated to be PD before use.
        Defaults to diag(1 / (s_jj + lam)).
    tol : float
        Sweep-convergence threshold: mean absolute change of Omega
        entries per sweep below tol * mean |off-diagonal of s|.
    max_sweeps : int
        Sweep budget; exceeding it raises MaxSweepsExceeded.
    kkt_tol : float, optional
        Required KKT residual on return (defaults to ``tol``).  The
        solver keeps sweeping past the change criterion until met.
    record_trace : bool
        Record the objective after each sweep, and after an accepted
        finish that took a Newton step.

    Returns
    -------
    GlassoSolution
        ``iterations`` counts sweeps (0 when the finish on the start was
        accepted); ``newton_steps`` counts the Newton steps of an
        accepted finish, repairs included (0 when the stop rule ended
        the solve, or when the point the finish started from already
        solved its pattern's equations).

    Raises
    ------
    MaxSweepsExceeded
        Carries the last iterate and its KKT residual.
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
    if kkt_tol is None:
        kkt_tol = tol

    if init is not None:
        init = require_symmetric(np.asarray(init, dtype=float), "init")
        if init.shape != S.shape:
            raise DimensionMismatch("warm start has wrong shape")
        omega = init.copy()
    else:
        omega = np.diag(1.0 / (np.diag(S) + lam))
    start = spd_factorize(omega)  # validates a warm start as PD

    if n == 1:
        omega = np.array([[1.0 / S[0, 0]]])
        trace = (glasso_objective(omega, p),) if record_trace else None
        return GlassoSolution(omega, 1, 0.0, trace)

    off = ~np.eye(n, dtype=bool)
    thr = tol * float(np.mean(np.abs(S[off])))
    inner_tol = 0.1 * thr
    trace = [] if record_trace else None
    sdiag = np.diag(S)
    idx_all = [np.concatenate([np.arange(j), np.arange(j + 1, n)]) for j in range(n)]

    sweeps = 0
    stable = True  # the finish is tried on the start first
    while True:
        if stable:
            done = _finish(omega, p, kkt_tol, start.logdet if sweeps == 0 else None)
            if done is not None:
                omega, steps, res, obj = done
                if record_trace and steps:  # with no step, omega is unchanged
                    trace.append(obj)
                return GlassoSolution(
                    omega=omega,
                    iterations=sweeps,
                    kkt_residual=res,
                    objective_trace=tuple(trace) if record_trace else None,
                    newton_steps=steps,
                )
        if sweeps == max_sweeps:
            res = kkt_residual(omega, p)
            raise MaxSweepsExceeded(omega=omega, residual=res, sweeps=max_sweeps)
        sigma = np.ascontiguousarray(inv_spd(omega))  # O(p^3): each sweep starts exact
        sweeps += 1
        sigma_flat = sigma.reshape(-1)  # a view, as sigma is C-contiguous
        prev = omega.copy()
        for j in range(n):
            idx = idx_all[j]
            # flat positions of the (idx, idx) block: one gather and one
            # scatter through the flat view, built per column (O(p^2))
            grid = idx[:, None] * n + idx
            s12 = sigma[idx, j]
            # Sigma and Omega stay exactly symmetric with no symmetrizing
            # step: inv_spd returns Sigma symmetric, (a, b) and (b, a) of
            # the outer products below are the same IEEE products, and
            # the update writes Omega's and Sigma's row j and column j
            # from the same vectors.
            A = sigma_flat[grid] - s12[:, None] * s12 / sigma[j, j]
            w12 = omega[idx, j].copy()
            c = S[idx, j] / sdiag[j]
            t = lam / sdiag[j]
            r = _lasso_cd(A, w12, c, t, inner_tol)
            omega[idx, j] = w12
            omega[j, idx] = w12
            omega[j, j] = float(w12 @ r) + 1.0 / sdiag[j]
            v = r  # = A @ w12
            sigma_flat[grid] = A + sdiag[j] * (v[:, None] * v)
            sigma[idx, j] = -sdiag[j] * v
            sigma[j, idx] = sigma[idx, j]
            sigma[j, j] = sdiag[j]
        if record_trace:
            trace.append(glasso_objective(omega, p))
        change = float(np.mean(np.abs(omega - prev)))
        if change <= thr:
            res = kkt_residual(omega, p)
            if res < kkt_tol:
                return GlassoSolution(
                    omega=omega,
                    iterations=sweeps,
                    kkt_residual=res,
                    objective_trace=tuple(trace) if record_trace else None,
                )
        stable = np.array_equal(np.sign(omega), np.sign(prev))
