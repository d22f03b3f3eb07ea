import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from robustggm import (
    DegenerateColumn,
    GlassoProblem,
    ModelParams,
    RobustConfig,
    fit_nonparanormal,
    fit_tlasso,
    npn_delta,
    npn_transform,
    solve,
    weighted_scatter,
)
from robustggm import baselines, quad_form, solution_path, spd_factorize, study
from conftest import mixture_24, random_spd


# --- tlasso -------------------------------------------------------------------

def tlasso_weights(X, theta, nu):
    """The t rule's weights at ``theta``, from its score there."""
    rule = baselines.TRule(RobustConfig(gamma=0.0, lam=0.0), nu, theta.p)
    return rule.weights(rule.score(X, theta, X - theta.mu))


def test_tlasso_weight_at_center():
    theta = ModelParams(mu=np.array([1.0, -1.0]), omega=np.eye(2))
    X = np.vstack([theta.mu, theta.mu + 2.0])
    nu = 3.0
    u = tlasso_weights(X, theta, nu)
    raw0 = (nu + 2) / nu  # zero Mahalanobis distance
    raw1 = (nu + 2) / (nu + 8.0)
    assert u[0] == pytest.approx(raw0 / (raw0 + raw1), rel=1e-12)


def test_tlasso_weights_positive_normalized():
    rng = np.random.default_rng(30)
    X = np.vstack([rng.standard_normal((40, 3)), np.full((4, 3), 25.0)])
    theta = ModelParams(mu=np.zeros(3), omega=np.eye(3))
    u = tlasso_weights(X, theta, 1.0)
    assert np.all(u > 0)
    assert abs(u.sum() - 1.0) < 1e-12


def test_tlasso_large_nu_limits_to_glasso():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((150, 4)) @ random_spd(rng, 4, scale=0.3)
    lam = 0.1
    res = fit_tlasso(X, lam, nu=1e6)
    assert np.max(np.abs(res.weights - 1 / 150)) < 1e-4
    d = X - X.mean(axis=0)
    s = d.T @ d / 150
    s = (s + s.T) / 2
    direct = solve(GlassoProblem(s=s, lam=lam))
    assert np.max(np.abs(res.theta.omega - direct.omega)) < 1e-3


def test_tlasso_outlier_contribution_tends_to_constant():
    # u~_i * ||x_i - mu||^2 -> (nu + p) as the outlier recedes, so the
    # weighted scatter never forgets a remote point
    nu, p = 1.0, 3
    theta = ModelParams(mu=np.zeros(p), omega=np.eye(p))
    for d in (1e3, 1e5, 1e7):
        x = np.zeros(p)
        x[0] = d
        raw = (nu + p) / (nu + d**2)
        assert raw * d**2 == pytest.approx(nu + p, rel=1e-4)


def test_tlasso_iterates_finite_and_pd():
    X, _, _ = mixture_24(seed=32)
    res = fit_tlasso(X, 0.1, nu=1.0)
    assert res.converged
    assert np.all(np.isfinite(res.theta.omega))
    assert np.all(np.linalg.eigvalsh(res.theta.omega) > 0)
    assert np.all(np.isfinite(res.objective_trace))


# --- npn_delta ------------------------------------------------------------------

def test_npn_delta_paper_value():
    assert round(npn_delta(20000), 4) == 0.0038


def test_npn_delta_monotone():
    vals = [npn_delta(n) for n in (10, 100, 1000, 10**4, 10**5, 10**6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_npn_delta_50_digit_reference():
    mpmath.mp.dps = 50
    for n in (100, 20000):
        ref = 1 / (4 * mpmath.mpf(n) ** mpmath.mpf("0.25") * mpmath.sqrt(mpmath.pi * mpmath.log(n)))
        assert abs(npn_delta(n) - float(ref)) / float(ref) < 1e-12


def test_ndtri_error_bound_against_mpmath():
    # contractual accuracy of the normal quantile on the truncated range
    mpmath.mp.dps = 40
    delta = npn_delta(500)
    for q in np.linspace(delta, 1 - delta, 21):
        ref = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(q) - 1))
        assert abs(ndtri(q) - ref) < 1e-9


# --- npn_transform ----------------------------------------------------------------

def test_npn_transform_near_identity_on_normal_data():
    # per-seed worst case over the untruncated range; order-statistic
    # noise near the truncation boundary makes single seeds heavy-tailed,
    # so the calibration is on the median over 20 seeds
    maxima = []
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        x = rng.standard_normal((2000, 1))
        z = npn_transform(x)
        delta = npn_delta(2000)
        cdf = (np.argsort(np.argsort(x[:, 0])) + 1) / 2001.0
        in_range = (cdf >= delta) & (cdf <= 1 - delta)
        maxima.append(np.max(np.abs(z[in_range, 0] - x[in_range, 0])))
    assert np.median(maxima) < 0.15


def test_npn_transform_clamps_maximum():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((300, 2))
    z = npn_transform(x)
    delta = npn_delta(300)
    for j in range(2):
        col = x[:, j]
        expected = col.mean() + col.std() * ndtri(1 - delta)
        assert z[np.argmax(col), j] == pytest.approx(expected, rel=1e-12)


def test_npn_transform_preserves_ranks():
    # monotone composition: non-decreasing in each column (ties appear
    # exactly where the truncation clamps the extremes)
    rng = np.random.default_rng(34)
    x = rng.gamma(2.0, size=(200, 3))
    z = npn_transform(x)
    for j in range(3):
        order = np.argsort(x[:, j])
        assert np.all(np.diff(z[order, j]) >= 0)
        interior = slice(10, 190)
        assert np.all(np.diff(z[order, j][interior]) > 0)


def test_npn_transform_degenerate_column():
    x = np.ones((50, 2))
    x[:, 0] = np.arange(50)
    with pytest.raises(DegenerateColumn):
        npn_transform(x)


def test_npn_cdf_respects_truncation():
    rng = np.random.default_rng(35)
    x = rng.standard_normal((100, 1))
    delta = npn_delta(100)
    z = npn_transform(x)
    # back out Phi^{-1}(F~) and check its range
    col = x[:, 0]
    q = (z[:, 0] - col.mean()) / col.std()
    lo, hi = ndtri(delta), ndtri(1 - delta)
    assert q.min() >= lo - 1e-12
    assert q.max() <= hi + 1e-12


# --- fit_nonparanormal ---------------------------------------------------------------

def test_npn_close_to_glasso_on_normal_data():
    rng = np.random.default_rng(36)
    om = np.eye(5)
    for i, j in [(0, 1), (1, 2), (3, 4)]:
        om[i, j] = om[j, i] = 0.35
    X = rng.multivariate_normal(np.zeros(5), np.linalg.inv(om), size=2000)
    lam = 0.05
    res = fit_nonparanormal(X, lam)
    d = X - X.mean(axis=0)
    s = d.T @ d / 2000
    s = (s + s.T) / 2
    direct = solve(GlassoProblem(s=s, lam=lam))
    assert np.max(np.abs(res.theta.omega - direct.omega)) < 0.1
    assert np.all(res.weights == 1 / 2000)


def test_npn_explicit_delta_validated():
    with pytest.raises(ValueError):
        study.estimator("npn", delta_n=0.7)
    with pytest.raises(ValueError):
        study.estimator("npn", delta_n="bogus")


def test_tlasso_factorizes_each_iterate_once(monkeypatch):
    X, _, _ = mixture_24(seed=33)
    seen = []
    real = baselines.spd_factorize

    def counting(omega):
        seen.append(np.asarray(omega).tobytes())
        return real(omega)

    monkeypatch.setattr(baselines, "spd_factorize", counting)
    res = fit_tlasso(X, 0.1, nu=1.0)
    monkeypatch.undo()
    assert res.mm_iterations >= 2
    assert len(seen) == len(set(seen)) == res.mm_iterations + 1
    assert np.array_equal(res.weights, tlasso_weights(X, res.theta, 1.0))


def _reference_em(X, nu, lam, init, max_iter=200):
    """The tlasso EM over public functions, each iterate's Mahalanobis
    distances evaluated afresh: the reference for the tlasso path's numbers."""
    p = X.shape[1]
    objective = baselines.TRule(RobustConfig(gamma=0.0, lam=lam), nu, p).objective

    def distances(theta):
        f = spd_factorize(theta.omega)
        return quad_form(f, X - theta.mu), f.logdet

    def weights(q):
        raw = (nu + p) / (nu + q)
        return raw / raw.sum()

    theta = init
    q, logdet = distances(theta)
    trace = [objective((q, logdet), theta.omega)]
    converged = False
    for _ in range(max_iter):
        u = weights(q)
        mu = u @ X
        omega = solve(GlassoProblem(s=weighted_scatter(X, mu, u), lam=lam), init=theta.omega).omega
        change = max(np.max(np.abs(mu - theta.mu)), np.max(np.abs(omega - theta.omega)))
        theta = ModelParams(mu=mu, omega=omega)
        q, logdet = distances(theta)
        trace.append(objective((q, logdet), omega))
        if change < baselines.TLASSO_TOL:
            converged = True
            break
    return theta, weights(q), tuple(trace), converged


def test_tlasso_path_equals_reference_em():
    X, _, _ = mixture_24(seed=38)
    path = solution_path(X, study.estimator("tlasso", nu=1.0), K=5)
    assert all(s == "ok" for s in path.statuses)
    theta = baselines.tlasso_diagonal_start(X, 1.0)[0]
    for k, (lam, res) in enumerate(zip(path.lambdas, path.fits)):
        # point 1 is the start itself, converged with no EM step
        ref_theta, ref_w, ref_trace, ref_conv = _reference_em(
            X, 1.0, float(lam), theta, max_iter=200 if k else 0
        )
        assert np.array_equal(res.theta.mu, ref_theta.mu)
        assert np.array_equal(res.theta.omega, ref_theta.omega)
        assert np.array_equal(res.weights, ref_w)
        assert res.objective_trace == ref_trace
        assert res.converged == (ref_conv or k == 0)
        assert res.mm_iterations == len(ref_trace) - 1
        theta = ref_theta


def test_tlasso_path_factorizes_each_iterate_once(monkeypatch):
    X, _, _ = mixture_24(seed=39)
    seen = []  # the precisions factorized, kept alive so that their ids stay distinct
    real = baselines.spd_factorize

    def counting(omega):
        seen.append(omega)
        return real(omega)

    monkeypatch.setattr(baselines, "spd_factorize", counting)
    path = solution_path(X, study.estimator("tlasso", nu=1.0), K=5)
    monkeypatch.undo()
    assert all(s == "ok" for s in path.statuses)
    # the start is factorized once and every EM iterate once; a later
    # point starts from the score its predecessor handed down
    assert len(seen) == 1 + sum(f.mm_iterations for f in path.fits)
    assert len({id(o) for o in seen}) == len(seen)
    for f in path.fits:
        q, logdet = f.logf
        factor = real(f.theta.omega)
        assert np.array_equal(q, quad_form(factor, X - f.theta.mu))
        assert logdet == factor.logdet


def test_npn_path_is_the_glasso_path_of_the_transformed_data():
    X, _, _ = mixture_24(seed=40)
    npn = solution_path(X, study.estimator("npn"), K=5)
    glasso = solution_path(npn_transform(X), study.estimator("glasso"), K=5)
    assert np.array_equal(npn.lambdas, glasso.lambdas)
    assert npn.statuses == glasso.statuses
    for a, b in zip(npn.fits, glasso.fits):
        assert np.array_equal(a.theta.mu, b.theta.mu)
        assert np.array_equal(a.theta.omega, b.theta.omega)
        assert np.array_equal(a.weights, b.weights)
        assert a.objective_trace == b.objective_trace
        assert a.mm_iterations == b.mm_iterations
