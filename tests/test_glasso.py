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
    MaxStepsExceeded,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    glasso_objective,
    kkt_residual,
    solve,
)
from robustggm.matcore import require_symmetric, spd_factorize
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
    sol = solve(GlassoProblem(s=s, lam=0.0), kkt_tol=1e-10)
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
    sol = solve(prob, kkt_tol=1e-9)
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
    sol = solve(prob, kkt_tol=1e-9)
    perm = rng.permutation(5)
    sp = s[np.ix_(perm, perm)]
    solp = solve(GlassoProblem(s=sp, lam=0.1), kkt_tol=1e-9)
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


def test_max_steps_carries_iterate():
    """Reaching ``max_steps`` Newton steps raises with the last iterate,
    its KKT residual and the step count; a solve from that iterate goes
    on to the same answer as an uncapped one."""
    rng = np.random.default_rng(18)
    prob = random_problem(rng, 4, lam_scale=0.1)
    full = solve(prob)
    assert full.iterations > 2
    with pytest.raises(MaxStepsExceeded,
                       match=r"^no convergence after 2 Newton steps \(KKT residual ") as exc:
        solve(prob, max_steps=2)
    assert exc.value.steps == 2
    assert exc.value.residual == kkt_residual(exc.value.omega, prob) >= 1e-6
    np.linalg.cholesky(exc.value.omega)  # raises unless PD
    resumed = solve(prob, init=exc.value.omega)
    assert resumed.iterations < full.iterations
    assert np.max(np.abs(resumed.omega - full.omega)) < 1e-6
    with pytest.raises(MaxStepsExceeded) as exc:
        solve(prob, max_steps=0)  # the default start is not the solution
    assert exc.value.steps == 0


def test_unpenalized_singular_scatter_refused_at_once():
    """At lam = 0 a singular S has no minimizer: the solve refuses it
    before its first step, naming the cause, for an S whose Cholesky
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
    returned solution, and the iterate MaxStepsExceeded carries."""
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, p, lam_scale=lam_scale)
    init = warm_start(rng, prob, kind)
    require_symmetric(solve(prob, init=init).omega)
    with pytest.raises(MaxStepsExceeded) as exc:
        solve(prob, init=init, max_steps=1, kkt_tol=0.0)
    require_symmetric(exc.value.omega)


# --- Newton direction and inverse ----------------------------------------------

def _packed_hessian(sigma, iu, ju):
    """Dense packed Hessian of -log|X| at X = sigma^{-1} over the entries
    (iu, ju), off-diagonal entries counted twice: H = W K W / 2 with
    K_kl = sigma_ac sigma_bd + sigma_ad sigma_bc for k = (a, b), l = (c, d)."""
    w = np.where(iu != ju, 2.0, 1.0)
    K = (sigma[np.ix_(iu, iu)] * sigma[np.ix_(ju, ju)]
         + sigma[np.ix_(iu, ju)] * sigma[np.ix_(ju, iu)])
    return 0.5 * w[:, None] * K * w[None, :], w


def _random_pattern(rng, p):
    """The diagonal and a random subset of the upper off-diagonal."""
    keep = np.triu(rng.random((p, p)) < 0.6, 1) | np.eye(p, dtype=bool)
    return np.nonzero(keep)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 8), g_scale=st.floats(1e-6, 10.0))
def test_newton_direction_against_dense_hessian(seed, p, g_scale):
    """The CG direction meets the forcing bound |H d + g| <= eta |g|
    against a Hessian formed densely, and with eta = 0 it is the exact
    Newton direction.  (At eta = 0, CG runs until its preconditioned
    residual underflows to 0 and stops there.)"""
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng, p, scale=0.5)
    iu, ju = _random_pattern(rng, p)
    H, w = _packed_hessian(sigma, iu, ju)
    g = g_scale * rng.standard_normal(len(iu))
    gnorm = np.linalg.norm(g)
    eta = glasso._forcing(g, sigma)
    assert eta == min(1e-2, gnorm / np.diag(sigma).max())
    d, iters = glasso._newton_direction(sigma, iu, ju, w, g, eta)
    assert 1 <= iters < glasso.CG_MAX_ITER
    assert np.linalg.norm(H @ d + g) <= (eta + 1e-10) * gnorm
    exact = np.linalg.solve(H, -g)
    d0, _ = glasso._newton_direction(sigma, iu, ju, w, g, 0.0)
    assert np.max(np.abs(d0 - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_inverse_of_diagonal_is_exact():
    """A diagonal x is inverted elementwise, with or without its factor:
    exactly 1/d, where a triangular inverse could round."""
    d = np.array([3.0, 7.0, 0.1, 1e-3, 49.0])
    x = np.diag(d)
    for f in (None, spd_factorize(x)):
        np.testing.assert_array_equal(glasso._inverse(x, f), np.diag(1.0 / d))


# --- kkt_residual ------------------------------------------------------------

def test_kkt_after_solve_tight():
    rng = np.random.default_rng(19)
    for _ in range(10):
        prob = random_problem(rng, 4)
        sol = solve(prob, kkt_tol=1e-8)
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
    sol = solve(prob, kkt_tol=1e-9)
    zeros = np.argwhere(np.triu(sol.omega, k=1) == 0.0)
    assert len(zeros) > 0
    i, j = zeros[0]
    bumped = sol.omega.copy()
    bumped[i, j] += 0.1
    bumped[j, i] += 0.1
    assert glasso_objective(bumped, prob) > glasso_objective(sol.omega, prob)


# --- property tests ----------------------------------------------------------

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


# --- warm starts --------------------------------------------------------------

def _shifted_to_pd(x, floor):
    """x plus the multiple of I that lifts its smallest eigenvalue to
    ``floor``, or x itself if it is there already."""
    low = np.linalg.eigvalsh(x).min()
    return x if low >= floor else x + (floor - low) * np.eye(len(x))


def warm_start(rng, prob, kind):
    """None, the solution at another penalty (a wrong support), or that
    solution with random off-diagonal signs flipped and shifted to PD."""
    if kind == "cold":
        return None
    omega = solve(GlassoProblem(s=prob.s, lam=prob.lam * rng.uniform(0.3, 3.0))).omega
    if kind == "flipped":
        p = prob.dim
        flip = np.triu(rng.random((p, p)) < 0.5, 1)
        omega = _shifted_to_pd(np.where(flip | flip.T, -omega, omega), 0.05)
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
    assert len(tr) == sol.iterations
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 8),
    lam_scale=st.floats(0.02, 0.9),
    kind=st.sampled_from(["other_lambda", "flipped"]),
)
def test_solution_does_not_depend_on_the_start(seed, p, lam_scale, kind):
    """The strictly convex problem has one solution: from the solution
    at another penalty, or from it with signs flipped, the solve ends on
    the cold solve's support with Omega within 1e-6."""
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, p, lam_scale=lam_scale)
    cold = solve(prob).omega
    warm = solve(prob, init=warm_start(rng, prob, kind)).omega
    np.testing.assert_array_equal(warm != 0.0, cold != 0.0)
    assert np.max(np.abs(warm - cold)) < 1e-6


def _shrink_offdiagonal(x):
    # a convex combination of two PD matrices: PD, same signs, wrong values
    return 0.9 * x + 0.1 * np.diag(np.diag(x))


def _flip_one(x):
    x = x.copy()
    i, j = np.argwhere(np.triu(x, 1) != 0)[0]
    x[i, j] = x[j, i] = -x[i, j]
    return _shifted_to_pd(x, 1e-3)


def _zero_one(x):
    x = x.copy()
    i, j = np.argwhere(np.triu(x, 1) != 0)[0]
    x[i, j] = x[j, i] = 0.0
    return _shifted_to_pd(x, 1e-3)


@pytest.mark.parametrize("corrupt, kkt_tol, first_scale", [
    # a sign of the pattern is wrong
    pytest.param(_flip_one, 1e-6, None, id="_flip_one-1e-06"),
    # an entry of the solution's support is missing
    pytest.param(_zero_one, 1e-6, None, id="_zero_one-1e-06"),
    # the right signed support, the wrong values
    pytest.param(_shrink_offdiagonal, 1e-6, None, id="_shrink_offdiagonal-1e-06"),
    # a loose tolerance, from the solution at 1.2 lam corrupted
    pytest.param(_shrink_offdiagonal, 1.0, 1.2, id="_shrink_offdiagonal-1.0"),
])
def test_rejected_finish_sweeps_on(corrupt, kkt_tol, first_scale):
    """From a corrupted solution, a start whose own signed pattern does
    not hold the answer or whose values are off, the solve steps on: it
    meets ``kkt_tol`` with a monotone trace of one objective per Newton
    step, ends no higher than the start, and at a tight tolerance ends at
    the reference answer."""
    prob = random_problem(np.random.default_rng(21), 6, lam_scale=0.2)
    reference = solve(prob, kkt_tol=1e-9)
    base = reference.omega
    if first_scale is not None:
        base = solve(GlassoProblem(s=prob.s, lam=first_scale * prob.lam)).omega
    init = corrupt(base)
    sol = solve(prob, init=init, kkt_tol=kkt_tol, record_trace=True)
    assert sol.iterations >= 1
    assert sol.kkt_residual == kkt_residual(sol.omega, prob) < kkt_tol
    tr = sol.objective_trace
    assert len(tr) == sol.iterations
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))
    assert tr[-1] <= glasso_objective(init, prob)
    if kkt_tol <= 1e-6:
        assert np.max(np.abs(sol.omega - reference.omega)) < 1e-6


def test_warm_start_on_the_right_support_finishes_in_few_steps():
    """At its own solution the start already is the answer: no Newton
    step, the same Omega bit for bit.  From the solution at a 1% smaller
    penalty, on the same signed support, a few Newton steps on that
    pattern solve the problem, with no entry entering or leaving."""
    cases = 0
    for seed in range(10):
        prob = random_problem(np.random.default_rng(seed), 7, lam_scale=0.3)
        sol = solve(prob)
        again = solve(prob, init=sol.omega)
        assert again.iterations == 0
        assert np.array_equal(again.omega, sol.omega)
        near = solve(GlassoProblem(s=prob.s, lam=0.99 * prob.lam)).omega
        if not np.array_equal(np.sign(near), np.sign(sol.omega)):
            continue
        cases += 1
        warm = solve(prob, init=near)
        assert 1 <= warm.iterations <= 5
        assert np.array_equal(np.sign(warm.omega), np.sign(near))
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
    return _shifted_to_pd(x, 1e-3)


def test_warm_start_one_entry_off_the_solution():
    """From warm starts one entry off the solution's signed support, the
    solve meets KKT with a PD, exactly symmetric Omega and an objective
    no higher than the start's, and reports the same KKT residual and
    objective as a fresh evaluation; across the examples, some start
    with KKT violators at zero entries ends with one of them entered."""
    seen = {"entered": 0}

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
        sol = solve(prob, init=init, record_trace=True)
        zero = (init == 0.0) & ~np.eye(p, dtype=bool)
        violators = zero & (np.abs(prob.s - np.linalg.inv(init)) > prob.lam)
        seen["entered"] += bool(np.any(sol.omega[violators] != 0.0))
        # the returned numbers come from the final iterate's factorization
        assert sol.kkt_residual == kkt_residual(sol.omega, prob) < 1e-6
        if sol.objective_trace:
            assert sol.objective_trace[-1] == glasso_objective(sol.omega, prob)
        np.linalg.cholesky(sol.omega)  # raises unless PD
        assert np.array_equal(sol.omega, sol.omega.T)
        start = glasso_objective(init, prob)
        assert glasso_objective(sol.omega, prob) <= start + 1e-12 * max(1.0, abs(start))

    check()
    assert seen["entered"] > 0


@pytest.fixture(scope="module")
def study_p25_work():
    """All four paths on the acceptance replicate (p=25, n=200, model
    ii, replicate 0 of seed 42), with each solve's Newton steps and CG
    iterations."""
    solve_ = glasso.solve
    work = {"steps": [], "cg": []}

    def counted_solve(*args, **kw):
        sol = solve_(*args, **kw)
        work["steps"].append(sol.iterations)
        work["cg"].append(sol.cg_iterations)
        return sol

    spec = simgen.SimSpec(p=25, n=200, model="ii", epsilon=0.1, eta=5.0, ba_m=1,
                          seed=simgen.replicate_seed(42, 0))
    X, _, _ = simgen.generate(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glasso, "solve", counted_solve)
        work["statuses"] = [
            study.fit_path(est, X, gamma=0.05, nu=1.0, delta_n="auto", K=10,
                           delta=0.2, tol=1e-7, max_iter=200).statuses
            for est in study.ESTIMATORS
        ]
    return work


def test_study_p25_newton_step_count(study_p25_work):
    """Work-count regression on the acceptance replicate: all four paths
    together take 704 Newton steps, with 11,423 CG iterations in their
    directions, over 186 solves.  The solves are one per glasso and npn
    point, one per MM/EM step of the gamma and tlasso points, and none
    at the first point of any path, which is its start."""
    assert all(set(statuses) == {"ok"} for statuses in study_p25_work["statuses"])
    steps = study_p25_work["steps"]
    assert len(steps) == 186
    assert sum(steps) <= 740
    assert sum(study_p25_work["cg"]) <= 12000
