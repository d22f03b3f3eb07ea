from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from robustggm import (
    DegenerateSample,
    GammaRule,
    GlassoProblem,
    ModelParams,
    RobustConfig,
    compute_weights,
    diagonal_start,
    edge_set,
    fit,
    log_density,
    mm_step,
    neg_gamma_loglik,
    penalized_gamma_objective,
    robust_init,
    solution_path,
    solve,
    spd_factorize,
    weighted_scatter,
)
from robustggm import baselines, gamma_mm, objective, simgen, study
from robustggm.errors import DegenerateScatter
from robustggm.gamma_mm import diagonal_fixed_point, exp_weights, geometric_grid
from conftest import mixture_24, random_spd, random_theta


# --- weights -----------------------------------------------------------------

def test_weights_gamma_zero_uniform():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 2))
    w = compute_weights(X, random_theta(rng, 2), 0.0)
    np.testing.assert_array_equal(w, np.full(7, 1 / 7))


def test_weights_identical_observations():
    X = np.tile([1.0, -2.0], (9, 1))
    theta = ModelParams(mu=np.zeros(2), omega=np.eye(2))
    w = compute_weights(X, theta, 0.7)
    np.testing.assert_allclose(w, np.full(9, 1 / 9), atol=1e-15)


def test_weights_outlier_extended_precision():
    # f(x)^g ratios with X = {0, 0, 10}, standard theta, g = 1:
    # w3/w1 = exp(-50); verified against a high-precision evaluation
    import mpmath

    theta = ModelParams(mu=np.zeros(1), omega=np.eye(1))
    w = compute_weights(np.array([[0.0], [0.0], [10.0]]), theta, 1.0)
    mp = [mpmath.exp(-mpmath.mpf(v) ** 2 / 2) for v in (0, 0, 10)]
    tot = sum(mp)
    assert w[2] < 1e-21
    for i in range(3):
        assert w[i] == pytest.approx(float(mp[i] / tot), rel=1e-10)
    assert w[0] == w[1]
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_sum_to_one_under_outliers():
    rng = np.random.default_rng(1)
    X = np.vstack([rng.standard_normal((50, 3)), np.full((5, 3), 40.0)])
    theta = ModelParams(mu=np.zeros(3), omega=np.eye(3))
    for g in (0.05, 0.5, 2.0):
        w = compute_weights(X, theta, g)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0)


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.floats(-5e3, 5e3), min_size=1, max_size=60),
    c=st.sampled_from([1.0, 0.1, -0.05, -0.5, 2.0]),
)
def test_exp_weights_match_logsumexp_reference(a, c):
    """Logits c * a spread over up to 1e4: the shifted single exponential
    sums to one and matches exp(l - logsumexp(l)), the reference taken in
    extended precision so that its own rounding does not count."""
    a = np.array(a)
    w = exp_weights(a, c)
    assert np.all(w >= 0) and np.all(np.isfinite(w))
    assert abs(w.sum() - 1.0) <= 1e-12
    logits = (c * a).astype(np.longdouble)
    ref = np.exp(logits - logsumexp(logits))
    ref /= ref.sum()
    big = w > 1e-300
    assert np.all(np.abs(w[big] - ref[big]) <= 1e-13 * ref[big])
    np.testing.assert_array_equal(exp_weights(a, 0.0), np.full(a.shape[0], 1.0 / a.shape[0]))


# --- weighted scatter ---------------------------------------------------------

def test_scatter_uniform_weights_is_biased_covariance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 4))
    mu = X.mean(axis=0)
    s = weighted_scatter(X, mu, np.full(30, 1 / 30))
    d = X - mu
    np.testing.assert_allclose(s, d.T @ d / 30, atol=1e-14)


def test_scatter_single_point_zero():
    X = np.array([[1.0, 2.0]])
    s = weighted_scatter(X, X[0], np.array([1.0]))
    np.testing.assert_array_equal(s, np.zeros((2, 2)))


def test_scatter_matches_triple_loop():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 3))
    w = rng.uniform(0.1, 1.0, 5)
    w /= w.sum()
    mu = rng.standard_normal(3)
    naive = np.zeros((3, 3))
    for i in range(5):
        for a in range(3):
            for b in range(3):
                naive[a, b] += w[i] * (X[i, a] - mu[a]) * (X[i, b] - mu[b])
    np.testing.assert_allclose(weighted_scatter(X, mu, w), naive, atol=1e-12)


# --- mm_step -------------------------------------------------------------------

def test_mm_step_gamma_zero_is_mle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 3))
    theta0 = robust_init(X)
    w = compute_weights(X, theta0, 0.0)
    np.testing.assert_array_equal(w, np.full(60, 1 / 60))
    theta1 = mm_step(X, theta0, RobustConfig(gamma=0.0, lam=0.0), w)
    np.testing.assert_allclose(theta1.mu, X.mean(axis=0), atol=1e-12)
    d = X - X.mean(axis=0)
    np.testing.assert_allclose(theta1.omega, np.linalg.inv(d.T @ d / 60), atol=1e-6)


def test_mm_step_fixed_point_stable():
    X, _, _ = mixture_24(seed=5)
    cfg = RobustConfig(gamma=0.1, lam=0.15)
    theta = robust_init(X)
    for _ in range(400):
        new = mm_step(X, theta, cfg, compute_weights(X, theta, cfg.gamma))
        if max(
            np.max(np.abs(new.mu - theta.mu)), np.max(np.abs(new.omega - theta.omega))
        ) < 1e-11:
            theta = new
            break
        theta = new
    again = mm_step(X, theta, cfg, compute_weights(X, theta, cfg.gamma))
    assert np.max(np.abs(again.mu - theta.mu)) < 1e-8
    assert np.max(np.abs(again.omega - theta.omega)) < 1e-8


def test_mm_step_descends_on_mixture():
    # gamma = 0.5 keeps the iteration away from its fixed point for well
    # over ten steps on this mixture
    X, _, _ = mixture_24(seed=6)
    cfg = RobustConfig(gamma=0.5, lam=0.1)
    theta = robust_init(X)
    prev = penalized_gamma_objective(X, theta, cfg)
    for _ in range(10):
        theta = mm_step(X, theta, cfg, compute_weights(X, theta, cfg.gamma))
        cur = penalized_gamma_objective(X, theta, cfg)
        assert cur < prev
        prev = cur


@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.5, 2.0])
def test_mm_step_meets_kkt_of_the_gamma_scaled_problem(gamma):
    """The precision mm_step returns minimizes -(1/(1+gamma)) log|O| +
    tr(O S_w) + lam sum_{j != k} |o_jk|, S_w the weighted scatter about
    the new mean: its optimality conditions, restated with numpy, hold."""
    X, _, _ = mixture_24(seed=7)
    lam = 0.05
    theta = robust_init(X)
    w = compute_weights(X, theta, gamma)
    omega = mm_step(X, theta, RobustConfig(gamma=gamma, lam=lam), w).omega
    d = X - w @ X
    s_w = (w[:, None] * d).T @ d
    sigma = np.linalg.inv(omega)
    grad = s_w - (sigma + sigma.T) / (2.0 * (1.0 + gamma))  # of the smooth part
    off = ~np.eye(X.shape[1], dtype=bool)
    on, zero = off & (omega != 0.0), off & (omega == 0.0)
    assert on.any() and zero.any()
    assert np.abs(np.diag(grad)).max() < 1e-6
    assert np.abs(grad[on] + lam * np.sign(omega[on])).max() < 1e-6
    assert np.abs(grad[zero]).max() < lam + 1e-6


# --- fit --------------------------------------------------------------------------

def test_fit_gamma_zero_matches_glasso():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = int(rng.integers(3, 8))
        X = rng.standard_normal((120, p)) @ random_spd(rng, p, scale=0.3)
        d = X - X.mean(axis=0)
        s = d.T @ d / X.shape[0]
        s = (s + s.T) / 2
        off = ~np.eye(p, dtype=bool)
        lam = 0.3 * float(np.abs(s[off]).max())
        res = fit(X, GammaRule(RobustConfig(gamma=0.0, lam=lam)))
        direct = solve(GlassoProblem(s=s, lam=lam))
        assert res.converged
        assert np.max(np.abs(res.theta.omega - direct.omega)) < 1e-5


def test_fit_gamma_zero_takes_one_exact_step():
    # at gamma = 0 the weights do not depend on theta: the first step's
    # solve, on the sample covariance, is the estimate
    X, _, _ = mixture_24(seed=7)
    lam = 0.1
    res = fit(X, GammaRule(RobustConfig(gamma=0.0, lam=lam)))
    assert res.converged and res.mm_iterations == 1 and len(res.objective_trace) == 2
    w = np.full(X.shape[0], 1.0 / X.shape[0])
    s = weighted_scatter(X, w @ X, w)
    direct = solve(GlassoProblem(s=s, lam=lam), init=robust_init(X).omega)
    assert np.array_equal(res.theta.omega, direct.omega)


def test_fit_recovers_support_on_clean_data():
    rng = np.random.default_rng(8)
    om = np.eye(5)
    for i, j in [(0, 1), (0, 2), (1, 4), (2, 3)]:
        om[i, j] = om[j, i] = 0.3
    X = rng.multivariate_normal(np.zeros(5), np.linalg.inv(om), size=2000)
    path = solution_path(X, study.estimator("gamma", gamma=0.1))
    truth = {(1, 2), (1, 3), (2, 5), (3, 4)}
    supports = [set(edge_set(f.theta.omega).edges) for f in path.fits]
    assert truth in supports


def test_fit_downweights_contamination():
    ratios = []
    for seed in range(20):
        X, labels, _ = mixture_24(seed=100 + seed)
        if labels.sum() == 0:
            continue
        res = fit(X, GammaRule(RobustConfig(gamma=0.1, lam=0.1)))
        w = res.weights
        ratios.append(w[labels].mean() / w[~labels].mean())
    assert len(ratios) >= 18
    assert all(r < 0.1 for r in ratios)


def test_fit_trace_monotone_and_pd():
    rng = np.random.default_rng(9)
    for seed in range(5):
        X, _, _ = mixture_24(seed=200 + seed, n=120)
        res = fit(X, GammaRule(RobustConfig(gamma=0.5, lam=0.2)), keep_iterates=True)
        tr = res.objective_trace
        assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))
        for theta in res.iterates:
            spd_factorize(theta.omega)  # raises if not PD


def test_fit_weight_normalization_every_iteration():
    X, _, _ = mixture_24(seed=10)
    cfg = RobustConfig(gamma=0.3, lam=0.1)
    theta = robust_init(X)
    for _ in range(15):
        w = compute_weights(X, theta, cfg.gamma)
        assert abs(w.sum() - 1.0) < 1e-12
        theta = mm_step(X, theta, cfg, w)


def test_fit_permutation_equivariance():
    X, _, _ = mixture_24(seed=11)
    cfg = RobustConfig(gamma=0.1, lam=0.15)
    res = fit(X, GammaRule(cfg, 1e-10))
    perm = np.array([3, 0, 4, 1, 2])
    resp = fit(X[:, perm], GammaRule(cfg, 1e-10))
    np.testing.assert_allclose(resp.theta.mu, res.theta.mu[perm], atol=1e-6)
    np.testing.assert_allclose(
        resp.theta.omega, res.theta.omega[np.ix_(perm, perm)], atol=1e-5
    )


def test_fit_max_iter_soft_failure():
    X, _, _ = mixture_24(seed=12)
    res = fit(X, GammaRule(RobustConfig(gamma=0.2, lam=0.05)), max_iter=1)
    assert not res.converged
    assert res.mm_iterations == 1


def test_weight_collapse_raises_degenerate_scatter():
    from robustggm import DegenerateScatter

    # one point at the current center, the rest so remote that their
    # weights underflow: the scatter collapses to (numerically) zero
    X = np.vstack([np.zeros((1, 2)), np.full((9, 2), 60.0)])
    theta = ModelParams(mu=np.zeros(2), omega=np.eye(2))
    with pytest.raises(DegenerateScatter):
        mm_step(X, theta, RobustConfig(gamma=5.0, lam=0.1), compute_weights(X, theta, 5.0))


# --- majorization --------------------------------------------------------------

def majorizer(X, theta, theta_t, gamma):
    """Weighted negative log-likelihood surrogate plus its
    iterate-dependent constant."""
    n = X.shape[0]
    w = compute_weights(X, theta_t, gamma)
    c = (w @ np.log(w)) / gamma + np.log(n) / gamma
    return -(w @ log_density(X, theta)) + c


def ell1(X, theta, gamma):
    logf = log_density(X, theta)
    return -(logsumexp(gamma * logf) - np.log(len(X))) / gamma


def test_majorization_bounds():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = int(rng.integers(2, 5))
        X = rng.standard_normal((20, p))
        gamma = float(rng.choice([0.05, 0.1, 0.5]))
        theta = random_theta(rng, p)
        theta_t = random_theta(rng, p)
        upper = majorizer(X, theta, theta_t, gamma)
        assert upper >= ell1(X, theta, gamma) - 1e-10
        touch = majorizer(X, theta_t, theta_t, gamma)
        assert touch == pytest.approx(ell1(X, theta_t, gamma), abs=1e-10)


# --- diagonal start ---------------------------------------------------------------

def test_diagonal_start_gamma_zero_is_column_moments():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((50, 3)) * [2.0, 0.5, 7.0] + [1.0, -3.0, 20.0]
    theta, s_w, _ = diagonal_start(X, 0.0)
    np.testing.assert_allclose(theta.mu, X.mean(axis=0), rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(np.diag(s_w), X.var(axis=0), rtol=1e-14)
    np.testing.assert_array_equal(theta.omega, np.diag(1.0 / np.diag(s_w)))


def test_diagonal_start_contamination_gets_negligible_weight():
    rng = np.random.default_rng(15)
    X = np.vstack([rng.normal(2.0, 1.5, (300, 2)), rng.normal(14.0, 1.0, (30, 2))])
    theta, _, _ = diagonal_start(X, 0.5)
    w = compute_weights(X, theta, 0.5)
    assert w[300:].sum() < 1e-12
    np.testing.assert_allclose(theta.mu, 2.0, atol=0.3)


def test_diagonal_start_symmetric_data_gives_its_centre():
    d = np.array([[-3.0, 1.5], [-1.0, 0.5], [0.0, 0.0], [1.0, -0.5], [3.0, -1.5]])
    theta, _, _ = diagonal_start(d + [5.0, -2.0], 0.4)
    np.testing.assert_allclose(theta.mu, [5.0, -2.0], atol=1e-9)


def test_diagonal_start_degenerate_columns():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((100, 2))
    X[:, 1] = 3.3
    with pytest.raises(DegenerateSample):
        diagonal_start(X, 0.3)
    # a mostly tied column: the weights leave the one distinct row and the
    # variance collapses, which is refused before it reaches 0 or NaN
    X[:, 1] = 0.0
    X[-1, 1] = 100.0
    with pytest.raises(DegenerateScatter):
        diagonal_start(X, 0.5)


def test_diagonal_start_minimizes_over_diagonal_perturbations():
    """At p = 2 the start is the minimizer of the negative gamma-likelihood
    over diagonal precisions: no nearby diagonal parameter is lower."""
    gamma = 0.5
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        X = np.vstack([rng.normal(2.0, 1.5, (300, 2)), rng.normal(14.0, 1.0, (30, 2))])
        theta, _, _ = diagonal_start(X, gamma)
        base = neg_gamma_loglik(X, theta, gamma)
        sd = 1.0 / np.sqrt(np.diag(theta.omega))
        for step in (1e-1, 1e-2, 1e-3):
            for _ in range(50):
                mu = theta.mu + step * sd * rng.standard_normal(2)
                omega = np.diag(np.diag(theta.omega) * np.exp(step * rng.standard_normal(2)))
                assert neg_gamma_loglik(X, ModelParams(mu=mu, omega=omega), gamma) >= base - 1e-13


# --- carried squared deviations: the same floats as recentering every pass ----------

def _recentering_diagonal(X, weigh, scale):
    seed = robust_init(X)
    mu, sig = seed.mu, 1.0 / np.diag(seed.omega)
    for _ in range(gamma_mm.DIAGONAL_MAX_PASSES):
        w = weigh(np.sum((X - mu) ** 2 / sig, axis=1), sig)
        mu_new = w @ X
        sig_new = scale * (w @ (X - mu_new) ** 2)
        done = max(
            np.max(np.abs(mu_new - mu)), np.max(np.abs(sig_new - sig))
        ) <= gamma_mm.DIAGONAL_TOL * max(1.0, np.max(np.abs(mu)), np.max(sig))
        mu, sig = mu_new, sig_new
        if done:
            break
    return mu, weighted_scatter(X, mu, weigh(np.sum((X - mu) ** 2 / sig, axis=1), sig))


@pytest.mark.parametrize("rule", ["gamma", "tlasso"])
def test_diagonal_fixed_point_equals_recentering_loop(rule):
    X, _, _ = mixture_24(seed=32, n=300)
    p = X.shape[1]
    if rule == "gamma":
        gamma = 0.1
        scale = 1.0 + gamma

        def weigh(q, sig):
            return exp_weights(q + np.log(sig).sum(), -0.5 * gamma)
    else:
        scale = 1.0

        def weigh(q, sig):
            return baselines._t_weights(q, p, 1.0)
    theta, s_w, lam1 = diagonal_fixed_point(X, weigh, scale)
    ref_mu, ref_s = _recentering_diagonal(X, weigh, scale)
    assert np.array_equal(theta.mu, ref_mu)
    assert np.array_equal(s_w, ref_s)
    assert np.array_equal(theta.omega, np.diag(1.0 / (scale * np.diag(ref_s))))
    assert lam1 == gamma_mm.offdiag_absmax(ref_s)


# --- lam1, the anchor --------------------------------------------------------------------

def test_lambda_max_p2_offdiagonal():
    rng = np.random.default_rng(16)
    X = rng.multivariate_normal(
        np.zeros(2), np.array([[1.0, 0.6], [0.6, 1.0]]), size=500
    )
    theta, s_w, lam1 = diagonal_start(X, 0.3)
    assert lam1 == abs(s_w[0, 1])


def test_lambda_max_gamma_zero_is_sample_covariance():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((200, 4)) @ random_spd(rng, 4, scale=0.3)
    d = X - X.mean(axis=0)
    s = d.T @ d / X.shape[0]
    off = ~np.eye(4, dtype=bool)
    assert diagonal_start(X, 0.0)[2] == pytest.approx(float(np.abs(s[off]).max()), rel=1e-12)


def test_lambda_boundary_probe():
    for seed in range(5):
        X, _, _ = mixture_24(seed=300 + seed)
        theta0, _, lam1 = diagonal_start(X, 0.1)
        hi = fit(X, GammaRule(RobustConfig(gamma=0.1, lam=lam1)), init=theta0)
        assert len(edge_set(hi.theta.omega)) == 0
        lo = fit(X, GammaRule(RobustConfig(gamma=0.1, lam=0.9 * lam1)), init=theta0)
        assert len(edge_set(lo.theta.omega)) >= 1


# --- solution path -----------------------------------------------------------------

def test_path_first_point_empty_support():
    X, _, _ = mixture_24(seed=18)
    path = solution_path(X, study.estimator("gamma", gamma=0.1))
    assert len(edge_set(path.fits[0].theta.omega)) == 0


def test_path_grid_endpoints():
    X, _, _ = mixture_24(seed=19)
    path = solution_path(X, study.estimator("gamma", gamma=0.1), K=10, delta=0.2)
    assert len(path.lambdas) == 10
    assert np.all(np.diff(path.lambdas) < 0)
    assert path.lambdas[-1] == 0.2 * path.lambdas[0]
    assert path.lambdas[0] == pytest.approx(diagonal_start(X, 0.1)[2], rel=1e-12)


def test_path_refit_idempotent():
    X, _, _ = mixture_24(seed=20)
    path = solution_path(X, study.estimator("gamma", gamma=0.1), K=4, delta=0.2)
    for lam, res in zip(path.lambdas, path.fits):
        cfg = RobustConfig(gamma=0.1, lam=float(lam))
        obj = penalized_gamma_objective(X, res.theta, cfg)
        refit = fit(X, GammaRule(cfg), init=res.theta)
        obj2 = penalized_gamma_objective(X, refit.theta, cfg)
        assert obj2 <= obj + 1e-9 * max(1.0, abs(obj))
        assert abs(obj2 - obj) < 1e-7 * max(1.0, abs(obj))


def test_path_statuses_ok():
    X, _, _ = mixture_24(seed=21)
    path = solution_path(X, study.estimator("gamma", gamma=0.05), K=6, delta=0.3)
    assert all(s == "ok" for s in path.statuses)
    assert len(path.fits) == len(path.lambdas) == 6


def test_geometric_grid_checks():
    with pytest.raises(ValueError):
        geometric_grid(1.0, 1, 0.2)
    with pytest.raises(ValueError):
        geometric_grid(1.0, 5, 1.0)
    grid = geometric_grid(3.0, 5, 0.25)
    assert grid[0] == 3.0 and grid[-1] == 0.75


def _estimator(fit_at):
    """An estimator whose start is "theta0" at lam1 = 3 and whose fit at a
    later point is ``fit_at(lam, init)``.  The first point is the start
    evaluated with no step, as the path asks for it (max_iter = 0)."""

    def fit(X, lam, init=None, max_iter=200, init_score=None):
        if max_iter == 0:
            return gamma_mm.FitResult(theta=init, weights=None, objective_trace=(0.0,),
                                      converged=False, mm_iterations=0)
        return fit_at(lam, init)

    return gamma_mm.Estimator(start=lambda X: ("theta0", None, 3.0), fit=fit)


def test_warm_path_point_failure_keeps_going():
    lambdas = geometric_grid(3.0, 5, 0.2)
    starts = []

    def fit_at(lam, init):
        starts.append(init)
        k = int(np.flatnonzero(lambdas == lam)[0])
        if k == 1:
            raise DegenerateScatter("collapsed")
        return SimpleNamespace(theta=f"theta@{k}", converged=k != 4, logf=None)

    path = solution_path(np.zeros((2, 2)), _estimator(fit_at), K=5, delta=0.2)
    assert np.array_equal(path.lambdas, lambdas)
    assert path.statuses == ("ok", "error: collapsed", "ok", "ok", "max_iter")
    assert path.fits[1] is None
    # the first point is the start, converged, with no fit_at call at lambdas[0]
    assert path.fits[0].theta == "theta0" and path.fits[0].converged
    assert [f.theta for f in path.fits[2:]] == ["theta@2", "theta@3", "theta@4"]
    # the point after the failure starts from the last estimate before it
    assert starts == ["theta0", "theta0", "theta@2", "theta@3"]


def test_warm_path_propagates_non_estimation_errors():
    def fit_at(lam, init):
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        solution_path(np.zeros((2, 2)), _estimator(fit_at), K=2)


# --- metamorphic: what a path cannot depend on ---------------------------------

def _path_support(X, name):
    path = solution_path(X, study.estimator(name, gamma=0.1), K=6)
    return path.statuses, [None if f is None else edge_set(f.theta.omega).edges for f in path.fits]


@pytest.mark.parametrize("name", study.ESTIMATORS)
def test_path_support_ignores_row_order_and_location(name):
    """Each estimator's path keeps every status and edge set when the rows
    are permuted (the path benchmark shuffles its data file's rows) or a
    constant is added to each column."""
    for seed in range(6):
        p, n = 3 + seed, 40 + 16 * seed
        spec = simgen.SimSpec(p=p, n=n, model="ii", epsilon=0.1, eta=5.0, seed=seed)
        X, _, _ = simgen.generate(spec)
        rng = np.random.default_rng(seed)
        base = _path_support(X, name)
        assert _path_support(X[rng.permutation(n)], name) == base, seed
        assert _path_support(X + rng.uniform(-5.0, 5.0, p), name) == base, seed


# --- work: one log-density per iterate --------------------------------------------

def _reference_fit(X, cfg, init, tol=1e-7, max_iter=200):
    """The MM loop over the public per-θ functions, each evaluating log f
    afresh: the reference for fit's numbers."""
    theta = init
    obj = penalized_gamma_objective(X, theta, cfg)
    trace = [obj]
    converged = False
    for _ in range(max_iter):
        theta = mm_step(X, theta, cfg, compute_weights(X, theta, cfg.gamma))
        new_obj = penalized_gamma_objective(X, theta, cfg)
        trace.append(new_obj)
        if cfg.gamma == 0.0 or abs(new_obj - obj) <= tol * max(1.0, abs(obj)):
            converged = True
            break
        obj = new_obj
    return theta, compute_weights(X, theta, cfg.gamma), tuple(trace), converged


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_path_one_log_density_per_iterate_and_same_numbers(monkeypatch, gamma):
    X, _, _ = mixture_24(seed=24)
    seen = []  # the θ objects evaluated, kept alive so that their ids stay distinct

    def counting(x, theta, **kw):
        seen.append(theta)
        return log_density(x, theta, **kw)

    for module in (gamma_mm, objective):
        monkeypatch.setattr(module, "log_density", counting)
    path = solution_path(X, study.estimator("gamma", gamma=gamma), K=5, delta=0.2)
    monkeypatch.undo()
    assert all(s == "ok" for s in path.statuses)
    # the first fit evaluates its start, and every fit each of its MM
    # iterates, once; a warm start's log f is handed down, never recomputed
    assert len(seen) == 1 + sum(f.mm_iterations for f in path.fits)
    assert len({id(t) for t in seen}) == len(seen)

    theta = diagonal_start(X, gamma)[0]
    for k, (lam, res) in enumerate(zip(path.lambdas, path.fits)):
        # point 1 is the start itself, converged with no MM step
        ref_theta, ref_w, ref_trace, ref_conv = _reference_fit(
            X, RobustConfig(gamma=gamma, lam=float(lam)), theta, max_iter=200 if k else 0
        )
        ref_conv = ref_conv or k == 0
        assert np.array_equal(res.theta.mu, ref_theta.mu)
        assert np.array_equal(res.theta.omega, ref_theta.omega)
        assert np.array_equal(res.weights, ref_w)
        assert res.objective_trace == ref_trace
        assert res.converged == ref_conv
        theta = ref_theta
