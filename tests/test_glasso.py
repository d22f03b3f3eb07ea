import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustggm import (
    DegenerateScatter,
    GlassoProblem,
    glasso,
    simgen,
    study,
    MaxSweepsExceeded,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    glasso_objective,
    kkt_residual,
    solve,
)
from robustggm.glasso import _lasso_cd, _signed_support_solution, _support_newton
from robustggm.matcore import require_symmetric
from conftest import random_spd


def random_problem(rng, p, lam_scale=0.3):
    s = random_spd(rng, p, scale=0.5)
    off = ~np.eye(p, dtype=bool)
    lam = lam_scale * float(np.abs(s[off]).max()) if p > 1 else 0.1
    return GlassoProblem(s=s, lam=lam)


# --- solve -------------------------------------------------------------------

def test_diagonal_s_any_lambda():
    s = np.diag([2.0, 0.5, 1.5])
    for lam in (0.0, 0.1, 10.0):
        sol = solve(GlassoProblem(s=s, lam=lam))
        np.testing.assert_allclose(sol.omega, np.diag(1 / np.diag(s)), atol=1e-12)
        assert sol.kkt_residual == 0.0


def test_unpenalized_is_inverse():
    rng = np.random.default_rng(12)
    s = random_spd(rng, 3)
    sol = solve(GlassoProblem(s=s, lam=0.0), tol=1e-10)
    assert np.max(np.abs(sol.omega - np.linalg.inv(s))) < 1e-7


def test_2x2_grid_kkt_oracle():
    """On the 2x2 family the solution has sigma_jj = s_jj and a single
    free off-diagonal; scan it densely, keep the candidates passing the
    subgradient check, and compare the best against solve()."""
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    lam = 0.1
    best, best_obj = None, np.inf
    prob = GlassoProblem(s=s, lam=lam)
    for sig12 in np.linspace(-0.89, 0.89, 40001):
        sigma = np.array([[1.0, sig12], [sig12, 1.0]])
        omega = np.linalg.inv(sigma)
        omega = (omega + omega.T) / 2
        # subgradient condition on the off-diagonal
        w = omega[0, 1]
        viol = abs(s[0, 1] - sig12 + lam * np.sign(w)) if abs(w) > 1e-12 else max(
            0.0, abs(s[0, 1] - sig12) - lam
        )
        if viol < 5e-5:
            obj = glasso_objective(omega, prob)
            if obj < best_obj:
                best, best_obj = omega, obj
    sol = solve(prob, tol=1e-9)
    assert np.max(np.abs(sol.omega - best)) < 1e-4
    assert glasso_objective(sol.omega, prob) <= best_obj + 1e-10


def test_solution_invariants():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = int(rng.integers(2, 5))
        prob = random_problem(rng, p)
        sol = solve(prob)
        assert sol.kkt_residual < 1e-6
        assert np.array_equal(sol.omega, sol.omega.T)


def test_objective_trace_monotone():
    rng = np.random.default_rng(14)
    for _ in range(25):
        p = int(rng.integers(2, 7))
        prob = random_problem(rng, p, lam_scale=0.2)
        sol = solve(prob, record_trace=True)
        tr = sol.objective_trace
        assert all(
            b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:])
        )


def test_large_lambda_exactly_diagonal():
    rng = np.random.default_rng(15)
    for _ in range(10):
        s = random_spd(rng, 4, scale=0.5)
        off = ~np.eye(4, dtype=bool)
        lam = float(np.abs(s[off]).max())
        sol = solve(GlassoProblem(s=s, lam=lam))
        assert np.array_equal(sol.omega[off], np.zeros(12))
        # KKT holds analytically at the diagonal solution
        assert kkt_residual(np.diag(1 / np.diag(s)), GlassoProblem(s=s, lam=lam)) < 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(16)
    s = random_spd(rng, 5, scale=0.5)
    prob = GlassoProblem(s=s, lam=0.1)
    sol = solve(prob, tol=1e-9)
    perm = rng.permutation(5)
    sp = s[np.ix_(perm, perm)]
    solp = solve(GlassoProblem(s=sp, lam=0.1), tol=1e-9)
    assert np.max(np.abs(solp.omega - sol.omega[np.ix_(perm, perm)])) < 1e-6


def test_warm_start_validated():
    rng = np.random.default_rng(17)
    prob = random_problem(rng, 3)
    bad = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefinite):
        solve(prob, init=bad)
    good = solve(prob)
    again = solve(prob, init=good.omega)
    assert np.max(np.abs(again.omega - good.omega)) < 1e-7


def test_nonpositive_diagonal_rejected():
    s = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NonPositiveDiagonal):
        GlassoProblem(s=s, lam=0.1)


def test_max_sweeps_carries_iterate():
    rng = np.random.default_rng(18)
    prob = random_problem(rng, 4, lam_scale=0.1)
    with pytest.raises(MaxSweepsExceeded) as exc:
        solve(prob, max_sweeps=1, kkt_tol=1e-14)
    assert exc.value.omega.shape == (4, 4)
    assert exc.value.residual > 0
    assert exc.value.sweeps == 1


def test_unpenalized_singular_scatter_refused_at_once():
    """At lam = 0 a singular S has no minimizer: the solve refuses it
    before its first sweep, naming the cause, for an S whose Cholesky
    breaks down and for one whose last pivot is rounding noise."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 6))
    a = np.nextafter(1.0, 0.0)  # [[1, a], [a, 1]] factors, with pivot 2^-52
    for s in (X.T @ X / 4, np.array([[1.0, a], [a, 1.0]])):
        with pytest.raises(DegenerateScatter, match="lambda = 0 needs a positive-definite"):
            solve(GlassoProblem(s=s, lam=0.0))
        solve(GlassoProblem(s=s, lam=0.5))  # penalized, the same S is fine


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    lam_scale=st.floats(0.02, 0.9),
    kind=st.sampled_from(["cold", "other_lambda", "flipped"]),
)
def test_solve_iterates_exactly_symmetric(seed, p, lam_scale, kind):
    """Omega stays exactly symmetric with no symmetrizing step: the
    returned solution, and the iterate MaxSweepsExceeded carries."""
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, p, lam_scale=lam_scale)
    init = warm_start(rng, prob, kind)
    require_symmetric(solve(prob, init=init).omega)
    with pytest.raises(MaxSweepsExceeded) as exc:
        solve(prob, init=init, max_sweeps=1, kkt_tol=0.0)
    require_symmetric(exc.value.omega)


# --- kkt_residual ------------------------------------------------------------

def test_kkt_after_solve_tight():
    rng = np.random.default_rng(19)
    for _ in range(10):
        prob = random_problem(rng, 4)
        sol = solve(prob, tol=1e-8)
        assert kkt_residual(sol.omega, prob) < 1e-6


def test_kkt_diagonal_exact_zero():
    s = np.diag([2.0, 3.0])
    assert kkt_residual(np.diag([0.5, 1 / 3]), GlassoProblem(s=s, lam=0.4)) == 0.0


def test_perturbing_zero_entry_increases_objective():
    rng = np.random.default_rng(20)
    s = random_spd(rng, 4, scale=0.5)
    off = ~np.eye(4, dtype=bool)
    lam = 0.6 * float(np.abs(s[off]).max())
    prob = GlassoProblem(s=s, lam=lam)
    sol = solve(prob, tol=1e-9)
    zeros = np.argwhere(np.triu(sol.omega, k=1) == 0.0)
    assert len(zeros) > 0
    i, j = zeros[0]
    bumped = sol.omega.copy()
    bumped[i, j] += 0.1
    bumped[j, i] += 0.1
    assert glasso_objective(bumped, prob) > glasso_objective(sol.omega, prob)


# --- property tests ----------------------------------------------------------

def plain_lasso_cd(A, c, t, passes=20000, tol=1e-15):
    """Reference: cyclic coordinate descent alone, run far past the
    solver's inner tolerance."""
    w = np.zeros_like(c)
    for _ in range(passes):
        delta = 0.0
        for k in range(len(c)):
            val = -(c[k] + A[k] @ w - A[k, k] * w[k])
            new = np.sign(val) * max(abs(val) - t, 0.0) / A[k, k]
            delta = max(delta, abs(new - w[k]))
            w[k] = new
        if delta <= tol:
            break
    return w


def lasso_subproblem(seed, m):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, m, scale=0.3)
    A = (A + A.T) / 2
    c = rng.standard_normal(m)
    t = float(rng.uniform(0.05, 1.0)) * float(np.abs(c).max())
    w0 = rng.standard_normal(m) * rng.integers(0, 2, m)  # sparse warm start
    return A, c, t, w0


def lasso_objective(A, c, t, w):
    return 0.5 * float(w @ A @ w) + float(c @ w) + t * float(np.abs(w).sum())


def test_lasso_cd_on_the_optimal_signs_is_the_support_solve():
    """A warm start with the optimal signs ends at the exact solve on its
    support, before any coordinate-descent pass: even a tolerance that
    one pass would meet leaves the result bit-identical to that solve."""
    cases = 0
    for seed in range(20):
        A, c, t, _ = lasso_subproblem(seed, 8)
        signs = np.sign(plain_lasso_cd(A, c, t))
        w = signs * np.random.default_rng(seed).uniform(0.1, 2.0, 8)
        exact = _signed_support_solution(A, w, c, t)
        if exact is None:  # a sign at rounding level; no exact solve to match
            continue
        cases += 1
        _lasso_cd(A, w, c, t, inner_tol=1e30)
        np.testing.assert_array_equal(w, exact)
    assert cases >= 15


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    kind=st.sampled_from(["sparse", "zero", "optimal_signs", "flipped"]),
)
def test_lasso_cd_meets_kkt_and_matches_plain_cd(seed, m, kind):
    """From a random sparse warm start, zero, one on the optimal signs,
    or one with a sign flipped: the result meets the KKT conditions,
    matches plain coordinate descent and never ends above the start."""
    A, c, t, w = lasso_subproblem(seed, m)
    rng = np.random.default_rng(seed)
    if kind != "sparse":
        w = np.sign(plain_lasso_cd(A, c, t)) * rng.uniform(0.1, 2.0, m)
    if kind == "zero":
        w[:] = 0.0
    elif kind == "flipped":  # one sign flipped, or a zero moved onto the support
        k = rng.integers(0, m)
        w[k] = -w[k] if w[k] else 1.0
    start = lasso_objective(A, c, t, w)
    r = _lasso_cd(A, w, c, t, inner_tol=1e-12)
    np.testing.assert_array_equal(r, A @ w)
    g = c + A @ w
    on = w != 0
    assert np.all(np.abs(g[on] + t * np.sign(w[on])) <= 1e-9)
    assert np.all(np.abs(g[~on]) <= t + 1e-9)
    assert np.max(np.abs(w - plain_lasso_cd(A, c, t))) <= 1e-8
    assert lasso_objective(A, c, t, w) <= start


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    lam_scale=st.floats(0.02, 0.9),
)
def test_solve_kkt_pd_and_monotone_trace(seed, p, lam_scale):
    prob = random_problem(np.random.default_rng(seed), p, lam_scale=lam_scale)
    sol = solve(prob, record_trace=True)
    assert kkt_residual(sol.omega, prob) < 1e-6
    np.linalg.cholesky(sol.omega)  # raises unless PD
    tr = sol.objective_trace
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))


def test_solve_working_memory_is_quadratic_in_p():
    # At p=150 a solve needs a few p x p arrays (180 KB each); index
    # data held for every column at once would be O(p^3), 27 MB here.
    p = 150
    prob = random_problem(np.random.default_rng(5), p, lam_scale=0.6)
    tracemalloc.start()
    try:
        solve(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * p * p * 8


# --- exact Newton finish of the sweep loop -----------------------------------

def warm_start(rng, prob, kind):
    """None, the solution at another penalty (a wrong support), or that
    solution with random off-diagonal signs flipped and shifted to PD."""
    if kind == "cold":
        return None
    omega = solve(GlassoProblem(s=prob.s, lam=prob.lam * rng.uniform(0.3, 3.0))).omega
    if kind == "flipped":
        p = prob.dim
        flip = np.triu(rng.random((p, p)) < 0.5, 1)
        omega = np.where(flip | flip.T, -omega, omega)
        low = np.linalg.eigvalsh(omega).min()
        if low < 0.05:
            omega = omega + (0.05 - low) * np.eye(p)
    return omega


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    lam_scale=st.floats(0.02, 0.9),
    kind=st.sampled_from(["cold", "other_lambda", "flipped"]),
)
def test_solve_with_finish_kkt_pd_and_monotone_trace(seed, p, lam_scale, kind):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, p, lam_scale=lam_scale)
    sol = solve(prob, init=warm_start(rng, prob, kind), record_trace=True)
    assert kkt_residual(sol.omega, prob) < 1e-6
    np.linalg.cholesky(sol.omega)  # raises unless PD
    assert np.array_equal(sol.omega, sol.omega.T)
    tr = sol.objective_trace
    assert len(tr) == sol.iterations + (sol.newton_steps > 0)
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))


def _shrink_offdiagonal(x):
    # a convex combination of two PD matrices: PD, same signs, wrong values
    return 0.9 * x + 0.1 * np.diag(np.diag(x))


def _flip_one(x):
    x = x.copy()
    i, j = np.argwhere(np.triu(x, 1) != 0)[0]
    x[i, j] = x[j, i] = -x[i, j]
    return x


def _zero_one(x):
    x = x.copy()
    i, j = np.argwhere(np.triu(x, 1) != 0)[0]
    x[i, j] = x[j, i] = 0.0
    return x


@pytest.mark.parametrize("corrupt, kkt_tol, first_scale", [
    # fails the sign test
    pytest.param(_flip_one, 1e-6, None, id="_flip_one-1e-06"),
    # fails the sign test (a zero on E)
    pytest.param(_zero_one, 1e-6, None, id="_zero_one-1e-06"),
    # fails the KKT test
    pytest.param(_shrink_offdiagonal, 1e-6, None, id="_shrink_offdiagonal-1e-06"),
    # passes KKT < 1, fails the objective test.  From a cold start the
    # empty pattern's closed form diag(1/s_jj) passes all three tests
    # before any offer, and from the solution at 2 lam even the corrupted
    # offer beats the start; the solution at 1.2 lam is near enough
    pytest.param(_shrink_offdiagonal, 1.0, 1.2, id="_shrink_offdiagonal-1.0"),
])
def test_rejected_finish_sweeps_on(monkeypatch, corrupt, kkt_tol, first_scale):
    """Every candidate the finish offers, repairs included, is
    corrupted: the solve must reject each one and end by sweeps at the
    plain solver's answer, from a first start (cold, whose empty
    pattern is repaired, or the solution at a larger penalty) and from
    a warm start on the solution's signed support.  Each time the
    finish first runs on the start, before sweep 1."""
    prob = random_problem(np.random.default_rng(21), 6, lam_scale=0.2)
    reference = solve(prob, tol=1e-9, kkt_tol=1e-9)
    warm = solve(GlassoProblem(s=prob.s, lam=0.99 * prob.lam)).omega
    assert np.array_equal(np.sign(warm), np.sign(reference.omega))
    first = None
    if first_scale is not None:
        first = solve(GlassoProblem(s=prob.s, lam=first_scale * prob.lam)).omega
    starts, offered = [], []

    def corrupted(x, *args, **kw):
        starts.append(x.copy())
        found = _support_newton(x, *args, **kw)
        if found is None or np.count_nonzero(np.triu(found[0], 1)) == 0:
            return found
        offered.append(corrupt(found[0]))
        return offered[-1], 1, np.linalg.inv(offered[-1]), np.linalg.slogdet(offered[-1])[1]

    monkeypatch.setattr(glasso, "_support_newton", corrupted)
    for init in (first, warm):
        starts.clear()
        offered.clear()
        sol = solve(prob, init=init, tol=1e-9, kkt_tol=kkt_tol, record_trace=True)
        assert offered
        assert sol.iterations >= 1 and sol.newton_steps == 0
        assert all(sol.omega is not bad for bad in offered)
        assert np.max(np.abs(sol.omega - reference.omega)) < 1e-6
        tr = sol.objective_trace
        assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))
    assert np.array_equal(starts[0], warm)  # the finish ran before sweep 1


def test_warm_start_on_the_right_support_finishes_with_no_sweep():
    """At its own solution the start already solves its support's
    equations: no sweep, no Newton step, the same Omega bit for bit.  From the solution at a 1% smaller penalty, on the same
    signed support, the Newton finish alone solves the problem."""
    cases = 0
    for seed in range(10):
        prob = random_problem(np.random.default_rng(seed), 7, lam_scale=0.3)
        sol = solve(prob)
        again = solve(prob, init=sol.omega)
        assert (again.iterations, again.newton_steps) == (0, 0)
        assert np.array_equal(again.omega, sol.omega)
        near = solve(GlassoProblem(s=prob.s, lam=0.99 * prob.lam)).omega
        if not np.array_equal(np.sign(near), np.sign(sol.omega)):
            continue
        cases += 1
        warm = solve(prob, init=near)
        assert warm.iterations == 0 and warm.newton_steps > 0
        assert warm.kkt_residual < 1e-6
        assert np.max(np.abs(warm.omega - sol.omega)) < 1e-6
    assert cases >= 5


def _one_entry_off(rng, omega, kind):
    """omega with one off-diagonal pair changed, shifted to PD if needed:
    an edge removed, an edge added or an edge's sign flipped."""
    x = omega.copy()
    upper = np.triu(np.ones_like(x, dtype=bool), 1)
    pick = upper & ((x == 0.0) if kind == "extra_edge" else (x != 0.0))
    if not pick.any():
        return None
    i, j = np.argwhere(pick)[rng.integers(pick.sum())]
    if kind == "missing_edge":
        x[i, j] = x[j, i] = 0.0
    elif kind == "extra_edge":
        x[i, j] = x[j, i] = rng.choice([-1.0, 1.0]) * 0.2 * np.sqrt(x[i, i] * x[j, j])
    else:
        x[i, j] = x[j, i] = -x[i, j]
    low = np.linalg.eigvalsh(x).min()
    if low < 1e-3:
        x = x + (1e-3 - low) * np.eye(len(x))
    return x


def test_warm_start_one_entry_off_the_solution(monkeypatch):
    """From warm starts one entry off the solution's signed support, the
    solve meets KKT with a PD, exactly symmetric Omega and an objective
    no higher than the start's, and reports the same KKT residual and
    objective as a fresh evaluation; across the examples, some start
    with KKT violators at zero entries ends at a repaired finish with no
    sweep."""
    finish, newton = glasso._finish, glasso._support_newton
    seen = {"repaired_with_no_sweep": 0}
    calls, repaired = [], []  # Newton solves of the current finish; per finish

    def spy_newton(*args, **kw):
        calls.append(1)
        return newton(*args, **kw)

    def spy_finish(*args, **kw):
        calls.clear()
        done = finish(*args, **kw)
        repaired.append(done is not None and len(calls) > 1)
        return done

    monkeypatch.setattr(glasso, "_support_newton", spy_newton)
    monkeypatch.setattr(glasso, "_finish", spy_finish)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(3, 8),
        lam_scale=st.floats(0.05, 0.6),
        kind=st.sampled_from(["missing_edge", "extra_edge", "wrong_sign"]),
    )
    def check(seed, p, lam_scale, kind):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, p, lam_scale=lam_scale)
        init = _one_entry_off(rng, solve(prob).omega, kind)
        if init is None:
            return
        repaired.clear()
        sol = solve(prob, init=init, record_trace=True)
        zero = (init == 0.0) & ~np.eye(p, dtype=bool)
        violators = np.any(np.abs(prob.s - np.linalg.inv(init))[zero] > prob.lam)
        seen["repaired_with_no_sweep"] += bool(violators and sol.iterations == 0 and repaired[0])
        # the finish's tests reuse its factorization, with the same numbers
        assert sol.kkt_residual == kkt_residual(sol.omega, prob) < 1e-6
        if sol.objective_trace:
            assert sol.objective_trace[-1] == glasso_objective(sol.omega, prob)
        np.linalg.cholesky(sol.omega)  # raises unless PD
        assert np.array_equal(sol.omega, sol.omega.T)
        start = glasso_objective(init, prob)
        assert glasso_objective(sol.omega, prob) <= start + 1e-12 * max(1.0, abs(start))

    check()
    assert seen["repaired_with_no_sweep"] > 0


@pytest.fixture(scope="module")
def study_p25_work():
    """All four paths on the acceptance replicate (p=25, n=200, model
    ii, replicate 0 of seed 42), counting each solve's sweeps, the
    column updates, and the updates whose first support solve, on the
    unchanged warm start, was accepted."""
    solve_, lasso_cd, support = glasso.solve, glasso._lasso_cd, _signed_support_solution
    work = {"sweeps": [], "updates": 0, "warm_accepted": 0}
    warm = []  # the current update's warm start, until its first support solve

    def counted_solve(*args, **kw):
        sol = solve_(*args, **kw)
        work["sweeps"].append(sol.iterations)
        return sol

    def counted_lasso_cd(A, w12, c, t, *args, **kw):
        work["updates"] += 1
        warm[:] = [w12.copy()]
        return lasso_cd(A, w12, c, t, *args, **kw)

    def counted_support(A, w, c, t):
        x = support(A, w, c, t)
        if warm and x is not None and np.array_equal(w, warm[0]):
            work["warm_accepted"] += 1
        warm.clear()
        return x

    spec = simgen.SimSpec(p=25, n=200, model="ii", epsilon=0.1, eta=5.0, ba_m=1,
                          seed=simgen.replicate_seed(42, 0))
    X, _, _ = simgen.generate(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glasso, "solve", counted_solve)
        mp.setattr(glasso, "_lasso_cd", counted_lasso_cd)
        mp.setattr(glasso, "_signed_support_solution", counted_support)
        work["statuses"] = [
            study.fit_path(est, X, gamma=0.05, nu=1.0, delta_n="auto", K=10,
                           delta=0.2, tol=1e-7, max_iter=200).statuses
            for est in study.ESTIMATORS
        ]
    return work


def test_study_p25_sweep_count(study_p25_work):
    """Work-count regression on the acceptance replicate: all four
    paths together took 1,330 sweeps before the Newton finish, 343 with
    it after each sweep, 216 once it was also tried on starts that
    passed a KKT screen, and 22 now that it is tried on every start and
    repaired, where 179 solves end with no sweep.  Their 186 solves are
    one per glasso and npn point, one per MM/EM step of the gamma and
    tlasso points, and none at the first point of any path, which is
    its start."""
    assert all(set(statuses) == {"ok"} for statuses in study_p25_work["statuses"])
    sweeps = study_p25_work["sweeps"]
    assert len(sweeps) == 186
    assert sum(sweeps) <= 30
    assert sum(s == 0 for s in sweeps) >= 175


def test_study_p25_updates_end_at_the_warm_starts_support_solve(study_p25_work):
    """Column updates that need a coordinate-descent pass, because the
    exact solve on the warm start's signed support fails its KKT test:
    119 of the acceptance replicate's 550 updates (735 of 8,900 when
    most solves swept).  Trying that solve only after a pass, every
    update would need one."""
    work = study_p25_work
    assert work["updates"] > 0
    assert work["updates"] - work["warm_accepted"] <= 150
