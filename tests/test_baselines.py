import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from robustggm import (
    DegenerateColumn,
    GlassoProblem,
    ModelParams,
    NpnConfig,
    TlassoConfig,
    fit_nonparanormal,
    fit_tlasso,
    npn_delta,
    npn_transform,
    solve,
)
from robustggm import baselines
from robustggm.baselines import tlasso_weights
from conftest import mixture_24, random_spd


# --- tlasso -------------------------------------------------------------------

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
    res = fit_tlasso(X, TlassoConfig(nu=1e6, lam=lam))
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
    res = fit_tlasso(X, TlassoConfig(nu=1.0, lam=0.1))
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
        z = npn_transform(x, NpnConfig())
        delta = npn_delta(2000)
        cdf = (np.argsort(np.argsort(x[:, 0])) + 1) / 2001.0
        in_range = (cdf >= delta) & (cdf <= 1 - delta)
        maxima.append(np.max(np.abs(z[in_range, 0] - x[in_range, 0])))
    assert np.median(maxima) < 0.15


def test_npn_transform_clamps_maximum():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((300, 2))
    cfg = NpnConfig()
    z = npn_transform(x, cfg)
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
    z = npn_transform(x, NpnConfig())
    for j in range(3):
        order = np.argsort(x[:, j])
        assert np.all(np.diff(z[order, j]) >= 0)
        interior = slice(10, 190)
        assert np.all(np.diff(z[order, j][interior]) > 0)


def test_npn_transform_degenerate_column():
    x = np.ones((50, 2))
    x[:, 0] = np.arange(50)
    with pytest.raises(DegenerateColumn):
        npn_transform(x, NpnConfig())


def test_npn_cdf_respects_truncation():
    rng = np.random.default_rng(35)
    x = rng.standard_normal((100, 1))
    delta = npn_delta(100)
    z = npn_transform(x, NpnConfig())
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
    res = fit_nonparanormal(X, NpnConfig(lam=lam))
    d = X - X.mean(axis=0)
    s = d.T @ d / 2000
    s = (s + s.T) / 2
    direct = solve(GlassoProblem(s=s, lam=lam))
    assert np.max(np.abs(res.theta.omega - direct.omega)) < 0.1
    assert np.all(res.weights == 1 / 2000)


def test_npn_invariant_to_monotone_distortion():
    # rank statistics absorb x -> x^3 on a column; full invariance of
    # the estimate needs the scale-free (correlation) route, since the
    # distorted column's sample moments rescale the transform
    rng = np.random.default_rng(37)
    om = np.eye(4)
    om[0, 1] = om[1, 0] = 0.4
    X = rng.multivariate_normal(np.zeros(4), np.linalg.inv(om), size=500)
    cfg = NpnConfig(lam=0.08, use_correlation=True)
    base = fit_nonparanormal(X, cfg)
    distorted = X.copy()
    distorted[:, 2] = distorted[:, 2] ** 3  # strictly increasing, ranks kept
    again = fit_nonparanormal(distorted, cfg)
    assert np.max(np.abs(base.theta.omega - again.theta.omega)) < 1e-10


def test_npn_explicit_delta_validated():
    with pytest.raises(ValueError):
        NpnConfig(delta_n=0.7)
    with pytest.raises(ValueError):
        NpnConfig(delta_n="bogus")


def test_tlasso_factorizes_each_iterate_once(monkeypatch):
    X, _, _ = mixture_24(seed=33)
    seen = []
    real = baselines.spd_factorize

    def counting(omega):
        seen.append(np.asarray(omega).tobytes())
        return real(omega)

    monkeypatch.setattr(baselines, "spd_factorize", counting)
    res = fit_tlasso(X, TlassoConfig(nu=1.0, lam=0.1))
    monkeypatch.undo()
    assert res.mm_iterations >= 2
    assert len(seen) == len(set(seen)) == res.mm_iterations + 1
    assert np.array_equal(res.weights, tlasso_weights(X, res.theta, 1.0))
