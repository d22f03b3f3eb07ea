"""Output checks, recomputed with numpy from the written artifacts.

Nothing here imports the package under test: each check restates the
quantity from its definition and compares it with what `rggm` wrote.
Every check is attributed to the fitted lambda points it speaks of, so
a failed check fails those operations.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))
SUPPORT_TOL = 1e-8  # an |omega_jk| above this is an edge (robustggm.metrics.edge_set)
KKT_TOL = 1e-6
OBJ_RTOL = 1e-9
WEIGHT_RTOL = 1e-8
DESCENT_SLACK = 1e-10  # roundoff allowed per step of a non-increasing trace
CONTAMINATED_MASS_MAX = 1e-6


class Findings:
    """Failed checks per operation index."""

    def __init__(self, n_points: int):
        self.n_points = n_points
        self.by_point: dict[int, list[str]] = {}

    def fail(self, points, msg: str) -> None:
        for k in points:
            self.by_point.setdefault(k, []).append(msg)

    def fail_all(self, msg: str) -> None:
        self.fail(range(self.n_points), msg)

    def check(self, ok: bool, points, msg: str) -> None:
        if not ok:
            self.fail(points, msg)

    @property
    def failed(self) -> int:
        return len(self.by_point)

    def messages(self) -> list[str]:
        return [f"point {k}: {m}" for k, ms in sorted(self.by_point.items()) for m in ms]


def _logsumexp(a: np.ndarray) -> float:
    m = float(a.max())
    return m + float(np.log(np.exp(a - m).sum()))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def support(omega: np.ndarray) -> set[tuple[int, int]]:
    """1-based (i, j), i < j, with |omega_ij| above the support tolerance."""
    i, j = np.nonzero(np.triu(np.abs(omega) > SUPPORT_TOL, k=1))
    return {(int(a) + 1, int(b) + 1) for a, b in zip(i, j)}


def gaussian_logdensity(X: np.ndarray, mu: np.ndarray, omega: np.ndarray) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(omega)
    d = X - mu
    q = np.einsum("ij,ij->i", d @ omega, d)
    return -0.5 * X.shape[1] * LOG_2PI + 0.5 * logdet - 0.5 * q


def penalized_gamma_objective(X, mu, omega, gamma: float, lam: float) -> tuple[float, np.ndarray]:
    """Penalized negative gamma-likelihood and the weights it induces.

    -(1/g) log((1/n) sum_i f(x_i)^g) + (1/(1+g)) log int f^(1+g)
    + (lam/2) sum_{j != k} |omega_jk|, with the integral in closed form.
    """
    n, p = X.shape
    g_logf = gamma * gaussian_logdensity(X, mu, omega)
    lse = _logsumexp(g_logf)
    logdet = float(np.linalg.slogdet(omega)[1])
    ell1 = -(lse - np.log(n)) / gamma
    ell2 = (-(gamma * p / 2.0) * LOG_2PI + (gamma / 2.0) * logdet - (p / 2.0) * np.log1p(gamma)) / (1.0 + gamma)
    pen = 0.5 * lam * float(np.abs(omega).sum() - np.abs(np.diag(omega)).sum())
    weights = np.exp(g_logf - lse)
    return ell1 + ell2 + pen, weights / weights.sum()


def glasso_kkt(s: np.ndarray, lam: float, kappa: float, omega: np.ndarray) -> float:
    """Worst violation of the optimality conditions of
    min -kappa log|O| + tr(O S) + lam sum_{j != k} |o_jk| at ``omega``,
    in the standard form S / kappa, lam / kappa."""
    s = np.asarray(s, dtype=float) / kappa
    lam = lam / kappa
    omega = np.asarray(omega, dtype=float)
    sigma = np.linalg.inv(omega)
    diff = s - (sigma + sigma.T) / 2.0
    off = ~np.eye(omega.shape[0], dtype=bool)
    nonzero = off & (omega != 0.0)
    zero = off & (omega == 0.0)
    res = float(np.abs(np.diag(diff)).max())
    if nonzero.any():
        res = max(res, float(np.abs(diff[nonzero] + lam * np.sign(omega[nonzero])).max()))
    if zero.any():
        res = max(res, float((np.abs(diff[zero]) - lam).max()))
    return res


def edge_hash(edges) -> str:
    canon = ";".join(f"{i},{j}" for i, j in sorted(tuple(e) for e in edges))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


# --- the gamma path workloads ----------------------------------------------

def check_path_round(rdir: Path, X: np.ndarray, truth: dict, labels: np.ndarray,
                     K: int, delta: float) -> tuple[Findings, list[float], list[float]]:
    """Check one `rggm fit` + `rggm evaluate` round.

    Returns the findings and, per fitted point, the TPR and off-diagonal
    MSE that `evaluate` reported.
    """
    f = Findings(K)
    try:
        fit = json.loads((rdir / "fit" / "fit.json").read_text())
        report = json.loads((rdir / "eval" / "metrics.json").read_text())
        tsv_header, tsv_rows = read_tsv(rdir / "fit" / "path.tsv")
    except (OSError, ValueError) as exc:
        f.fail_all(f"artifact unreadable: {exc}")
        return f, [], []
    recs = fit["fits"]
    cfg = fit["config"]
    gamma = float(cfg["gamma"])
    f.check(len(recs) == K and cfg["lambda_grid"] == {"K": K, "delta": delta},
            range(K), f"grid is {cfg.get('lambda_grid')} with {len(recs)} points, expected K={K}")
    recs = recs[:K]
    ratio = delta ** (1.0 / (K - 1))
    for k in range(1, len(recs)):
        r = recs[k]["lambda"] / recs[k - 1]["lambda"]
        f.check(_close(r, ratio, 1e-12), [k], f"lambda ratio {r!r} != delta^(1/(K-1)) = {ratio!r}")
    f.check([r["lambda"] for r in recs] == cfg["lambdas"][:K], range(K), "config lambdas differ from the points'")

    truth_omega = np.asarray(truth["omega"], dtype=float)
    truth_edges = {tuple(e) for e in truth["edges"]}
    p = truth_omega.shape[0]
    per_lambda = report.get("per_lambda", [])
    f.check(len(per_lambda) == len(recs), range(K), f"metrics.json has {len(per_lambda)} points")
    f.check(tsv_header == ["lambda", "nnz", "objective", "edge_hash"] and len(tsv_rows) == len(recs),
            range(K), "path.tsv header or row count is wrong")
    tprs, mses = [], []
    for k, rec in enumerate(recs):
        if rec.get("status") != "ok" or "omega" not in rec:
            f.fail([k], f"status {rec.get('status')!r}")
            continue
        mu = np.asarray(rec["mu"], dtype=float)
        omega = np.asarray(rec["omega"], dtype=float)
        if not np.array_equal(omega, omega.T):
            f.fail([k], "omega is not exactly symmetric")
            continue
        try:
            np.linalg.cholesky(omega)
        except np.linalg.LinAlgError:
            f.fail([k], "omega is not Cholesky-factorable")
            continue
        obj, w = penalized_gamma_objective(X, mu, omega, gamma, rec["lambda"])
        trace = rec["objective_trace"]
        f.check(_close(obj, trace[-1], OBJ_RTOL), [k],
                f"objective recomputed {obj!r} != last trace entry {trace[-1]!r}")
        f.check(all(b <= a + DESCENT_SLACK * max(1.0, abs(a)) for a, b in zip(trace, trace[1:])),
                [k], "objective trace increases")
        w_fit = np.asarray(rec["weights"], dtype=float)
        f.check(w_fit.shape == w.shape and np.allclose(w_fit, w, rtol=WEIGHT_RTOL, atol=1e-300),
                [k], "weights differ from f(x)^gamma normalized")
        mass = float(w_fit[labels].sum()) if w_fit.shape == labels.shape else float("inf")
        f.check(mass <= CONTAMINATED_MASS_MAX, [k], f"weight mass on contaminated rows {mass:.3e}")
        est = support(omega)
        f.check(est == {tuple(e) for e in rec["edges"]} and rec["nnz"] == 2 * len(est),
                [k], "edges/nnz differ from omega's support")
        if k == 0:
            f.check(not est and rec["nnz"] == 0, [k], f"first point has {len(est)} edges")
        tpr = len(est & truth_edges) / len(truth_edges)
        off = ~np.eye(p, dtype=bool)
        mse = float(((omega - truth_omega)[off] ** 2).sum() / (p * (p - 1)))
        if k < len(per_lambda):
            m = per_lambda[k]
            f.check(m["lambda"] == rec["lambda"] and m["nnz"] == rec["nnz"], [k], "metrics.json point mismatch")
            f.check(_close(m["tpr"], tpr, 1e-12), [k], f"tpr {m['tpr']!r} != recomputed {tpr!r}")
            f.check(_close(m["mse_offdiag"], mse, 1e-10), [k], f"mse {m['mse_offdiag']!r} != recomputed {mse!r}")
            tprs.append(float(m["tpr"]))
            mses.append(float(m["mse_offdiag"]))
        if k < len(tsv_rows):
            row = tsv_rows[k]
            f.check(
                len(row) == 4 and float(row[0]) == rec["lambda"] and int(row[1]) == rec["nnz"]
                and float(row[2]) == trace[-1] and row[3] == edge_hash(rec["edges"]),
                [k], f"path.tsv row {row} disagrees with fit.json",
            )
    return f, tprs, mses


# --- the replicated study ----------------------------------------------------

def _roc_mean(bench: dict, estimators) -> tuple[list[int], dict]:
    """Mean over replicates of each replicate's best TPR at or below
    each nnz of the union grid (0 below its first point)."""
    reps = bench["replicates"]
    grid = sorted({pt["nnz"] for rep in reps for est in estimators for pt in rep["estimators"][est]["points"]})
    means = {}
    for est in estimators:
        total = np.zeros(len(grid))
        for rep in reps:
            best: dict[int, float] = {}
            for pt in rep["estimators"][est]["points"]:
                best[pt["nnz"]] = max(best.get(pt["nnz"], 0.0), pt["tpr"])
            xs = sorted(best)
            for gi, g in enumerate(grid):
                below = [x for x in xs if x <= g]
                total[gi] += best[below[-1]] if below else 0.0
        means[est] = total / len(reps)
    return grid, means


def check_study_round(rdir: Path, replicates: int, estimators, K: int) -> tuple[Findings, list[float], list[float]]:
    """Check one `rggm bench` round.  Operation index:
    (replicate * len(estimators) + estimator) * K + point.

    Returns the findings, every point's TPR, and the minimum MSE per
    (estimator, replicate) path.
    """
    estimators = list(estimators)
    n_est = len(estimators)
    f = Findings(replicates * n_est * K)

    def ops(r, e):
        base = (r * n_est + e) * K
        return range(base, base + K)

    try:
        bench = json.loads((rdir / "bench.json").read_text())
        roc_header, roc_rows = read_tsv(rdir / "roc_mean.tsv")
        mse_header, mse_rows = read_tsv(rdir / "mse_summary.tsv")
    except (OSError, ValueError) as exc:
        f.fail_all(f"artifact unreadable: {exc}")
        return f, [], []
    reps = bench.get("replicates", [])
    if [rep.get("replicate") for rep in reps] != list(range(replicates)) or any(
        set(rep["estimators"]) != set(estimators) for rep in reps
    ):
        f.fail_all("bench.json does not hold every (replicate, estimator) path")
        return f, [], []
    tprs, mse_mins = [], []
    for r, rep in enumerate(reps):
        for e, est in enumerate(estimators):
            path = rep["estimators"][est]
            pts = path.get("points", [])
            idx = ops(r, e)
            if "error" in path or len(pts) != K:
                f.fail(idx, f"replicate {r} {est}: {path.get('error', f'{len(pts)} points')}")
                continue
            for k, pt in enumerate(pts):
                ok = pt.get("status") == "ok" and "nnz" in pt
                f.check(ok, [idx[k]], f"replicate {r} {est} point {k}: status {pt.get('status')!r}")
                if ok:
                    f.check(0.0 <= pt["tpr"] <= 1.0 and pt["nnz"] % 2 == 0 and pt["mse_offdiag"] > 0,
                            [idx[k]], f"replicate {r} {est} point {k}: values out of range")
                    tprs.append(float(pt["tpr"]))
            f.check(pts[0].get("nnz") == 0, [idx[0]], f"replicate {r} {est}: first point nnz {pts[0].get('nnz')}")
            if all("mse_offdiag" in pt for pt in pts):
                mse_mins.append(min(float(pt["mse_offdiag"]) for pt in pts))
    if f.failed:
        return f, tprs, mse_mins

    grid, means = _roc_mean(bench, estimators)
    f.check(roc_header == ["nnz"] + estimators and [int(row[0]) for row in roc_rows] == grid,
            range(f.n_points), "roc_mean.tsv grid differs from the union of bench.json's nnz")
    f.check(bench.get("roc_grid") == grid, range(f.n_points), "bench.json roc_grid differs")
    if [int(row[0]) for row in roc_rows] == grid:
        for e, est in enumerate(estimators):
            tsv = np.array([float(row[1 + e]) for row in roc_rows])
            ok = np.allclose(tsv, means[est], rtol=0, atol=1e-12) and np.allclose(
                bench["roc_mean"][est], means[est], rtol=0, atol=1e-12)
            f.check(ok, [i for r in range(replicates) for i in ops(r, e)],
                    f"roc_mean for {est} differs from the aggregation of bench.json")
    f.check(mse_header == ["replicate"] + estimators and len(mse_rows) == replicates,
            range(f.n_points), "mse_summary.tsv header or row count is wrong")
    for r, row in enumerate(mse_rows[:replicates]):
        for e, est in enumerate(estimators):
            want = min(pt["mse_offdiag"] for pt in reps[r]["estimators"][est]["points"])
            f.check(int(row[0]) == r and float(row[1 + e]) == want, ops(r, e),
                    f"mse_summary.tsv replicate {r} {est}: {row[1 + e]} != {want!r}")
    return f, tprs, mse_mins
