"""End-to-end acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single PASS line (visible with ``pytest -s``) once its
assertions hold.  Criterion 11 audits the optimality of every inner
solve performed by the criteria before it, so this module is meant to
run in file order as a whole.
"""

import json
import os
import time
import numpy as np
import pytest
from scipy import integrate

import robustggm.glasso as glasso_mod
from robustggm import (
    GammaRule,
    GlassoProblem,
    KernelInput,
    ModelParams,
    RobustConfig,
    compute_weights,
    default_subgradient,
    diagonal_start,
    edge_set,
    fit,
    kernel_norm,
    log_density,
    npn_delta,
    score,
    solution_path,
    spd_factorize,
    total_agreement,
)
from robustggm import study
from robustggm.cli import main as cli_main
from robustggm.metrics import EdgeSet
from conftest import mixture_24, random_spd, random_theta

KKT_LOG = []
_orig_solve = glasso_mod.solve


def _recording_solve(*args, **kwargs):
    sol = _orig_solve(*args, **kwargs)
    KKT_LOG.append(sol.kkt_residual)
    return sol


@pytest.fixture(autouse=True, scope="module")
def record_kkt():
    glasso_mod.solve = _recording_solve
    try:
        yield
    finally:
        glasso_mod.solve = _orig_solve


def _report(num, name, detail):
    print(f"[acceptance] criterion {num:2d} ({name}): PASS — {detail}")


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_majorization():
    start = time.perf_counter()
    from scipy.special import logsumexp

    rng = np.random.default_rng(101)
    worst_gap, worst_touch = 0.0, 0.0
    for _ in range(100):
        p = int(rng.integers(2, 5))
        X = rng.standard_normal((25, p))
        gamma = float(rng.choice([0.05, 0.1, 0.5]))
        theta = random_theta(rng, p)
        theta_t = random_theta(rng, p)
        w = compute_weights(X, theta_t, gamma)
        const = (w @ np.log(w)) / gamma + np.log(len(X)) / gamma

        def surrogate(th):
            return -(w @ log_density(X, th)) + const

        def ell1(th):
            lf = log_density(X, th)
            return -(logsumexp(gamma * lf) - np.log(len(X))) / gamma

        worst_gap = max(worst_gap, ell1(theta) - surrogate(theta))
        worst_touch = max(worst_touch, abs(surrogate(theta_t) - ell1(theta_t)))
    elapsed = time.perf_counter() - start
    assert worst_gap <= 1e-10
    assert worst_touch <= 1e-10
    assert elapsed < 30.0
    _report(1, "majorization bounds", f"max gap {worst_gap:.2e}, touch error "
            f"{worst_touch:.2e}, {elapsed:.1f}s")


# -- 2 ------------------------------------------------------------------------

def test_criterion_02_monotone_descent():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    n_fits = 0
    worst_violation = 0.0
    for ds in range(50):
        p = int(rng.integers(3, 9))
        n = int(rng.integers(60, 140))
        base = rng.multivariate_normal(np.zeros(p), np.linalg.inv(random_spd(rng, p)), size=n)
        if ds % 2:  # contaminate half the datasets
            mask = rng.uniform(size=n) < 0.1
            base[mask] = rng.normal(5.0, 1.0, size=(int(mask.sum()), p))
        lam_hi = float(np.abs(np.cov(base.T, bias=True)).max())
        for gamma, lam in [(0.05, 0.3 * lam_hi), (0.1, 0.1 * lam_hi),
                           (0.5, 0.3 * lam_hi), (0.1, 0.02 * lam_hi)]:
            res = fit(base, GammaRule(RobustConfig(gamma=gamma, lam=lam)), keep_iterates=True)
            n_fits += 1
            tr = res.objective_trace
            for a, b in zip(tr, tr[1:]):
                worst_violation = max(worst_violation, (b - a) / max(1.0, abs(a)))
            for theta in res.iterates:
                spd_factorize(theta.omega)  # raises unless PD
    elapsed = time.perf_counter() - start
    assert n_fits == 200
    assert worst_violation <= 1e-9
    assert elapsed < 300.0
    _report(2, "monotone descent", f"{n_fits} fits, worst relative rise "
            f"{worst_violation:.2e}, {elapsed:.1f}s")


# -- 3 ------------------------------------------------------------------------

def test_criterion_03_gamma_zero_reduction():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(3, 11))
        n = int(rng.integers(100, 200))
        X = rng.multivariate_normal(np.zeros(p), np.linalg.inv(random_spd(rng, p)), size=n)
        d = X - X.mean(axis=0)
        s = d.T @ d / n
        s = (s + s.T) / 2
        off = ~np.eye(p, dtype=bool)
        lam_hi = float(np.abs(s[off]).max())
        for frac in (0.5, 0.2, 0.05):
            lam = frac * lam_hi
            res = fit(X, GammaRule(RobustConfig(gamma=0.0, lam=lam)))
            direct = glasso_mod.solve(GlassoProblem(s=s, lam=lam))
            worst = max(worst, float(np.max(np.abs(res.theta.omega - direct.omega))))
    assert worst < 1e-5
    _report(3, "gamma-zero reduction", f"20 datasets x 3 penalties, max "
            f"deviation {worst:.2e}")


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_integral_closed_form():
    from robustggm import ell2_closed_form

    rng = np.random.default_rng(104)
    worst = 0.0
    for k in range(20):
        p = 1 if k < 10 else 2
        omega = random_spd(rng, p)
        for gamma in (0.1, 0.5, 1.0):
            got = ell2_closed_form(omega, gamma)
            if p == 1:
                w = float(omega[0, 0])
                num, _ = integrate.quad(
                    lambda x: ((2 * np.pi) ** -0.5 * np.sqrt(w)
                               * np.exp(-0.5 * w * x * x)) ** (1 + gamma),
                    -40, 40,
                )
            else:
                det = np.linalg.det(omega)

                def f2(y, x):
                    v = np.array([x, y])
                    dens = (2 * np.pi) ** -1 * np.sqrt(det) * np.exp(-0.5 * v @ omega @ v)
                    return dens ** (1 + gamma)

                num, _ = integrate.dblquad(f2, -12, 12, -12, 12,
                                           epsabs=1e-12, epsrel=1e-12)
            worst = max(worst, abs(got - np.log(num) / (1 + gamma)))
    assert worst < 1e-6
    _report(4, "integral closed form", f"p in {{1,2}}, 3 exponents, 20 "
            f"matrices, max error {worst:.2e}")


# -- 5 ------------------------------------------------------------------------

def test_criterion_05_penalty_boundary():
    for seed in range(20):
        X, _, _ = mixture_24(seed=5000 + seed)
        theta0, _, lam1 = diagonal_start(X, 0.1)
        hi = fit(X, GammaRule(RobustConfig(gamma=0.1, lam=lam1)), init=theta0)
        assert len(edge_set(hi.theta.omega)) == 0
        lo = fit(X, GammaRule(RobustConfig(gamma=0.1, lam=0.9 * lam1)), init=theta0)
        assert len(edge_set(lo.theta.omega)) >= 1
    _report(5, "penalty boundary", "20 datasets: diagonal at lam1, nonempty "
            "at 0.9 lam1")


# -- 6 ------------------------------------------------------------------------

def test_criterion_06_redescending():
    theta = ModelParams(mu=np.zeros(2), omega=np.eye(2))
    k = KernelInput(subgrad_u=default_subgradient(theta.omega),
                    config=RobustConfig(gamma=0.1, lam=0.0))
    ray = np.ones(2)  # x = t * (1, ..., 1)
    g_near = kernel_norm(2.0 * ray, theta, k, method="gamma")
    g_far = kernel_norm(100.0 * ray, theta, k, method="gamma")
    assert g_far < 1e-8 * g_near
    d_mid = kernel_norm(10.0 * ray, theta, k, method="dp")
    d_far = kernel_norm(100.0 * ray, theta, k, method="dp")
    assert d_far >= 0.5 * d_mid

    rng = np.random.default_rng(106)
    worst = 0.0
    h = 1e-6
    for _ in range(100):
        p = int(rng.integers(1, 5))
        th = random_theta(rng, p)
        x = rng.standard_normal(p)
        got = score(x, th)
        fd = np.empty_like(got)
        idx = 0
        for i in range(p):
            mu_p, mu_m = th.mu.copy(), th.mu.copy()
            mu_p[i] += h
            mu_m[i] -= h
            fd[idx] = (log_density(x, ModelParams(mu_p, th.omega))
                       - log_density(x, ModelParams(mu_m, th.omega))) / (2 * h)
            idx += 1
        for i in range(p):
            for j in range(i, p):
                om_p, om_m = th.omega.copy(), th.omega.copy()
                om_p[i, j] += h
                om_m[i, j] -= h
                if i != j:
                    om_p[j, i] += h
                    om_m[j, i] -= h
                fd[idx] = (log_density(x, ModelParams(th.mu, om_p))
                           - log_density(x, ModelParams(th.mu, om_m))) / (2 * h)
                idx += 1
        worst = max(worst, float(np.max(np.abs(got - fd))))
    assert worst < 1e-5
    _report(6, "redescending kernels", f"gamma ratio {g_far / g_near:.1e}, dp "
            f"ratio {d_far / d_mid:.2f}, score FD error {worst:.1e}")


# -- 7 ------------------------------------------------------------------------

def test_criterion_07_agreement_table():
    pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
    reported = [(3, 0.57), (4, 0.64), (5, 0.71), (6, 0.79), (7, 0.86), (9, 1.00)]
    for c, expected in reported:
        a = EdgeSet(p=8, edges=frozenset(pairs[:9]))
        b = EdgeSet(p=8, edges=frozenset(pairs[:c] + pairs[9: 18 - c]))
        assert len(b) == 9
        assert round(total_agreement(a, b), 2) == expected
    _report(7, "agreement table", "all reported (common, agreement) pairs "
            "reproduced at two decimals")


# -- 8 ------------------------------------------------------------------------

def test_criterion_08_truncation_level():
    val = npn_delta(20000)
    assert round(val, 4) == 0.0038
    _report(8, "truncation level", f"delta(20000) = {val:.6f} -> 0.0038")


# -- 9 ------------------------------------------------------------------------

def _best_f1_and_exact(X, gamma, truth):
    path = solution_path(X, study.estimator("gamma", gamma=gamma))
    best, exact = 0.0, False
    for f in path.fits:
        if f is None:
            continue
        e = set(edge_set(f.theta.omega).edges)
        if e == truth:
            exact = True
        inter = len(e & truth)
        if inter:
            prec, rec = inter / len(e), inter / len(truth)
            best = max(best, 2 * prec * rec / (prec + rec))
    return best, exact


def test_criterion_09_mixture_recovery():
    start = time.perf_counter()
    truth = {(1, 2), (1, 3), (2, 5), (3, 4)}
    f1_gamma, f1_glasso, exact_count = [], [], 0
    for seed in range(50):
        X, _, _ = mixture_24(seed=9000 + seed)
        bg, eg = _best_f1_and_exact(X, 0.1, truth)
        bl, _ = _best_f1_and_exact(X, 0.0, truth)
        f1_gamma.append(bg)
        f1_glasso.append(bl)
        exact_count += eg
    elapsed = time.perf_counter() - start
    assert np.median(f1_gamma) >= np.median(f1_glasso)
    assert exact_count > 25
    assert elapsed < 600.0
    _report(9, "mixture recovery", f"median best-F1 {np.median(f1_gamma):.2f} "
            f"vs {np.median(f1_glasso):.2f}, exact support {exact_count}/50, "
            f"{elapsed:.0f}s")


# -- 10 / 12 --------------------------------------------------------------------

BENCH_ARGS = [
    "bench", "--p", "25", "--n", "200", "--model", "ii", "--epsilon", "0.1",
    "--eta", "5", "--gamma", "0.05", "--nu", "1", "--replicates", "20",
    "--seed", "42", "--estimators", "gamma,glasso,tlasso,npn",
    "--lambda-grid", "default", "--quiet",
]


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "run"
    old = os.environ.get("RGGM_THREADS")
    os.environ["RGGM_THREADS"] = "1"  # keep solves in-process for the audit
    start = time.perf_counter()
    try:
        code = cli_main(BENCH_ARGS + ["--out", str(out)])
    finally:
        if old is None:
            os.environ.pop("RGGM_THREADS", None)
        else:
            os.environ["RGGM_THREADS"] = old
    assert code == 0
    (out / "elapsed.txt").write_text(f"{time.perf_counter() - start:.1f}")
    return out


def test_criterion_10_scaled_benchmark(bench_dir):
    elapsed = float((bench_dir / "elapsed.txt").read_text())
    doc = json.loads((bench_dir / "bench.json").read_text())
    means = doc["roc_mean"]
    g = np.asarray(means["gamma"])
    l = np.asarray(means["glasso"])
    dom = float(np.mean(g >= l))
    wins = 0
    for rep in doc["replicates"]:
        def min_mse(est):
            return min(pt["mse_offdiag"] for pt in rep["estimators"][est]["points"]
                       if "mse_offdiag" in pt)
        wins += min_mse("gamma") < min_mse("glasso")
    assert dom >= 0.8
    assert wins >= 16
    for est in ("tlasso", "npn"):  # produced and reported, no ordering asserted
        assert len(means[est]) == len(doc["roc_grid"])
        assert max(means[est]) > 0
    assert elapsed < 1800.0
    _report(10, "scaled benchmark", f"TPR domination at {100 * dom:.0f}% of "
            f"grid points, min-MSE wins {wins}/20, tlasso/npn curves reported, "
            f"{elapsed:.0f}s")


# -- 11 ----------------------------------------------------------------------------

def test_criterion_11_kkt_audit(bench_dir):
    # every solver return recorded across criteria 2, 3, 5, 9 and the
    # criterion-10 benchmark run
    assert len(KKT_LOG) > 1000
    worst = max(KKT_LOG)
    assert worst < 1e-6
    _report(11, "KKT audit", f"{len(KKT_LOG)} solves, worst residual "
            f"{worst:.2e}")


# -- 12 ----------------------------------------------------------------------------

def test_criterion_12_determinism(bench_dir, tmp_path):
    out = tmp_path / "repeat"
    old = os.environ.get("RGGM_THREADS")
    os.environ["RGGM_THREADS"] = "1"
    try:
        code = cli_main(BENCH_ARGS + ["--out", str(out)])
    finally:
        if old is None:
            os.environ.pop("RGGM_THREADS", None)
        else:
            os.environ["RGGM_THREADS"] = old
    assert code == 0
    for name in ("bench.json", "roc_mean.tsv", "mse_summary.tsv"):
        assert (out / name).read_bytes() == (bench_dir / name).read_bytes()
    _report(12, "determinism", "repeated benchmark artifacts byte-identical")
