import json
import tracemalloc
import warnings

import numpy as np
import pytest

from robustggm import baselines, cli, fileio, gamma_mm, glasso, simgen, study
from robustggm.errors import DegenerateScatter, MaxSweepsExceeded
from robustggm.fileio import read_csv, write_csv
from robustggm.metrics import edge_set
from conftest import mixture_24


def run(args):
    return cli.main(args)


@pytest.fixture
def simdir(tmp_path):
    out = tmp_path / "sim"
    code = run(
        [
            "simulate", "--p", "5", "--n", "200", "--model", "ii",
            "--epsilon", "0.1", "--eta", "5", "--seed", "1",
            "--out", str(out), "--quiet",
        ]
    )
    assert code == 0
    return out


def test_simulate_shapes_and_labels(simdir):
    X = read_csv(simdir / "data.csv")
    assert X.shape == (200, 5)
    truth = json.loads((simdir / "truth.json").read_text())
    assert truth["p"] == 5
    assert len(truth["labels"]) == 200
    assert len(truth["omega"]) == 5
    assert all(i < j for i, j in truth["edges"])


def test_simulate_epsilon_zero_all_clean(tmp_path):
    out = tmp_path / "clean"
    assert run(
        ["simulate", "--p", "4", "--n", "50", "--model", "i",
         "--epsilon", "0", "--seed", "3", "--out", str(out), "--quiet"]
    ) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert not any(truth["labels"])


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--p", "6", "--n", "40", "--model", "iii",
            "--epsilon", "0.2", "--eta", "10", "--seed", "9", "--quiet"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    for name in ("data.csv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fit_default_grid_first_row_empty(simdir, tmp_path):
    out = tmp_path / "fit"
    code = run(
        ["fit", "--estimator", "gamma", "--gamma", "0.1",
         "--lambda-grid", "default", "--input", str(simdir / "data.csv"),
         "--normalize", "mad", "--out", str(out), "--quiet"]
    )
    assert code == 0
    rows = (out / "path.tsv").read_text().strip().split("\n")
    assert rows[0].split("\t") == ["lambda", "nnz", "objective", "edge_hash"]
    assert len(rows) == 11
    first = rows[1].split("\t")
    assert first[1] == "0"
    doc = json.loads((out / "fit.json").read_text())
    assert len(doc["fits"]) == 10
    assert doc["config"]["normalize"] == "mad"
    assert "omega" in doc and len(doc["omega"]) == 5


def test_fit_byte_identical_reruns(simdir, tmp_path):
    a, b = tmp_path / "fa", tmp_path / "fb"
    args = ["fit", "--estimator", "gamma", "--gamma", "0.1",
            "--lambda-grid", "default", "--input", str(simdir / "data.csv"), "--quiet"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "fit.json").read_bytes() == (b / "fit.json").read_bytes()
    assert (a / "path.tsv").read_bytes() == (b / "path.tsv").read_bytes()


def test_fit_gamma_zero_matches_glasso_estimator(simdir, tmp_path):
    outs = []
    for est, extra in (("gamma", ["--gamma", "0"]), ("glasso", [])):
        out = tmp_path / est
        assert run(
            ["fit", "--estimator", est, *extra, "--lambda", "0.12",
             "--input", str(simdir / "data.csv"), "--out", str(out), "--quiet"]
        ) == 0
        outs.append(json.loads((out / "fit.json").read_text()))
    a = np.asarray(outs[0]["omega"])
    b = np.asarray(outs[1]["omega"])
    assert np.max(np.abs(a - b)) < 1e-5


def test_fit_all_estimators_run(simdir, tmp_path):
    for est in ("tlasso", "npn"):
        out = tmp_path / est
        assert run(
            ["fit", "--estimator", est, "--lambda", "0.15", "--nu", "1",
             "--input", str(simdir / "data.csv"), "--out", str(out), "--quiet"]
        ) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert len(doc["omega"]) == 5


def test_fit_missing_input_exit_1(tmp_path):
    code = run(
        ["fit", "--estimator", "gamma", "--lambda", "0.1",
         "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
         "--quiet"]
    )
    assert code == 1


def test_fit_malformed_csv_exit_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n1.0,2.0\n3.0,\n")
    code = run(
        ["fit", "--estimator", "gamma", "--lambda", "0.1",
         "--input", str(bad), "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert code == 1
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    assert run(
        ["fit", "--estimator", "gamma", "--lambda", "0.1",
         "--input", str(ragged), "--out", str(tmp_path / "o2"), "--quiet"]
    ) == 1


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_fit_non_finite_csv_cell_exit_1(tmp_path, capsys, cell):
    X = np.random.default_rng(5).standard_normal((5, 3))
    rows = [",".join(repr(v) for v in row) for row in X.tolist()]
    rows[2] = rows[2].split(",", 1)[0] + f",{cell}," + rows[2].rsplit(",", 1)[1]
    path = tmp_path / "nonfinite.csv"
    path.write_text("x1,x2,x3\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(
            ["fit", "--estimator", "gamma", "--lambda", "0.1",
             "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}:4: non-finite value {cell!r} in column 2\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("estimator", ["gamma", "glasso", "tlasso", "npn"])
@pytest.mark.parametrize("rows, message", [
    (["1.0", "2.0", "0.5", "3.0", "-1.0"], "need at least two variables"),
    (["0.1,1e300", "0.7,-1e300", "-0.4,1e300", "0.2,-1e300"],
     "column 1 spreads too wide: its variance overflows float64"),
])
def test_fit_path_unusable_data_exit_2_one_line(tmp_path, capsys, estimator, rows, message):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(
            ["fit", "--estimator", estimator, "--lambda-grid", "default",
             "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
    assert code == 2
    assert capsys.readouterr().err == f"estimation failed: {message}\n"


@pytest.mark.parametrize("estimator", ["gamma", "glasso", "tlasso", "npn"])
def test_fit_unpenalized_singular_scatter_exit_2_at_once(tmp_path, estimator):
    """n = 8 rows of p = 12 variables: every estimator's scatter is
    singular, so lambda = 0 has no solution.  The fit says so at its
    first solve instead of stepping to the solver's limit."""
    sim = tmp_path / "sim"
    assert run(["simulate", "--model", "ii", "--p", "12", "--n", "8", "--seed", "3",
                "--out", str(sim), "--quiet"]) == 0
    out = tmp_path / "fit"
    code = run(["fit", "--estimator", estimator, "--lambda", "0",
                "--input", str(sim / "data.csv"), "--out", str(out), "--quiet"])
    assert code == 2
    status = json.loads((out / "fit.json").read_text())["fits"][0]["status"]
    assert status.startswith("error: lambda = 0 needs a positive-definite scatter, "
                             "and this one is singular")


def test_fit_nonconvergence_exit_2(simdir, tmp_path):
    out = tmp_path / "soft"
    code = run(
        ["fit", "--estimator", "gamma", "--gamma", "0.5", "--lambda", "0.01",
         "--max-iter", "1", "--input", str(simdir / "data.csv"),
         "--out", str(out), "--quiet"]
    )
    assert code == 2
    doc = json.loads((out / "fit.json").read_text())
    assert doc["fits"][0]["status"] == "max_iter"
    assert "omega" in doc  # result still written


def test_fit_grid_point_failure_exit_2_with_artifacts(simdir, tmp_path, monkeypatch):
    # every solve at the second grid point's penalty fails
    lam1 = baselines.tlasso_diagonal_start(read_csv(simdir / "data.csv"), 1.0)[2]
    second = float(gamma_mm.geometric_grid(lam1, 4, 0.3)[1])
    orig = glasso.solve

    def failing(problem, **kw):
        if problem.lam == second:
            raise MaxSweepsExceeded(problem.s, 1.0, 0)
        return orig(problem, **kw)

    monkeypatch.setattr(glasso, "solve", failing)
    out = tmp_path / "fail"
    code = run(
        ["fit", "--estimator", "tlasso", "--lambda-grid", "4,0.3",
         "--input", str(simdir / "data.csv"), "--out", str(out), "--quiet"]
    )
    assert code == 2
    doc = json.loads((out / "fit.json").read_text())
    statuses = [rec["status"] for rec in doc["fits"]]
    assert statuses[1].startswith("error: no convergence")
    assert "omega" not in doc["fits"][1]
    assert statuses[0] == statuses[2] == statuses[3] == "ok"
    assert (out / "path.tsv").exists()


@pytest.mark.parametrize("estimator", ["gamma", "glasso", "tlasso"])
def test_fit_unsettled_diagonal_start_exit_2(simdir, tmp_path, monkeypatch, capsys, estimator):
    # a diagonal start short of its fixed point would pass as the path's first point
    monkeypatch.setattr(gamma_mm, "DIAGONAL_MAX_PASSES", 1)
    code = run(
        ["fit", "--estimator", estimator, "--lambda-grid", "default",
         "--input", str(simdir / "data.csv"), "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "diagonal start did not settle in 1 passes" in err[0]


def test_fit_missing_lambda_exit_1(simdir, tmp_path):
    code = run(
        ["fit", "--estimator", "gamma", "--input", str(simdir / "data.csv"),
         "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert code == 1


def test_fit_lambda_and_lambda_grid_exclusive_exit_1(simdir, tmp_path):
    code = run(
        ["fit", "--estimator", "gamma", "--lambda", "0.1", "--lambda-grid", "default",
         "--input", str(simdir / "data.csv"), "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert code == 1
    assert not (tmp_path / "o").exists()


SIM_FLAGS = ["--p", "4", "--n", "30", "--model", "i"]


@pytest.mark.parametrize("argv", [
    ["fit", "--estimator", "gamma", "--delta-n", "abc"],
    ["fit", "--estimator", "npn", "--delta-n", "0.7"],
    ["fit", "--estimator", "gamma", "--tol", "-1"],
    ["fit", "--estimator", "gamma", "--max-iter", "-3"],
    ["fit", "--estimator", "gamma", "--gamma", "-1"],
    ["fit", "--estimator", "tlasso", "--nu", "0"],
    ["bench", *SIM_FLAGS, "--gamma", "-1"],
    ["bench", *SIM_FLAGS, "--nu", "0"],
    ["simulate", *SIM_FLAGS, "--epsilon", "2"],
    ["simulate", "--p", "1", "--n", "30", "--model", "i"],
    ["simulate", "--p", "4", "--n", "0", "--model", "i"],
    ["simulate", *SIM_FLAGS, "--m", "0"],
    ["evaluate", "--fit", "truth.json"],
], ids=" ".join)
def test_bad_flag_exit_1_one_error_line(simdir, tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("RGGM_THREADS", "1")
    if argv[0] == "fit":
        argv = argv + ["--lambda", "0.1", "--input", str(simdir / "data.csv")]
    if argv[0] == "evaluate":  # no --truth or --fit-b
        argv = ["evaluate", "--fit", str(simdir / "truth.json")]
    code = run(argv + ["--out", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_evaluate_perfect_fixture_and_recount(simdir, tmp_path):
    fitdir = tmp_path / "fit"
    assert run(
        ["fit", "--estimator", "gamma", "--gamma", "0.1",
         "--lambda-grid", "default", "--input", str(simdir / "data.csv"),
         "--out", str(fitdir), "--quiet"]
    ) == 0
    evadir = tmp_path / "eval"
    assert run(
        ["evaluate", "--fit", str(fitdir / "fit.json"),
         "--truth", str(simdir / "truth.json"), "--out", str(evadir), "--quiet"]
    ) == 0
    report = json.loads((evadir / "metrics.json").read_text())
    fit_doc = json.loads((fitdir / "fit.json").read_text())
    truth_doc = json.loads((simdir / "truth.json").read_text())
    truth_edges = {tuple(e) for e in truth_doc["edges"]}
    truth_om = np.asarray(truth_doc["omega"])
    # independent recount of every row
    assert len(report["per_lambda"]) == 10
    for row, rec in zip(report["per_lambda"], fit_doc["fits"]):
        est_edges = {tuple(e) for e in rec["edges"]}
        assert row["nnz"] == 2 * len(est_edges)
        assert row["tpr"] == len(est_edges & truth_edges) / len(truth_edges)
        om = np.asarray(rec["omega"])
        p = om.shape[0]
        naive = sum(
            (om[i, j] - truth_om[i, j]) ** 2
            for i in range(p)
            for j in range(p)
            if i != j
        ) / (p * (p - 1))
        assert row["mse_offdiag"] == pytest.approx(naive, rel=1e-12)
    assert report["per_lambda"][0]["nnz"] == 0


def test_evaluate_self_comparison_total_agreement(simdir, tmp_path):
    fitdir = tmp_path / "fit"
    assert run(
        ["fit", "--estimator", "gamma", "--gamma", "0.1", "--lambda", "0.1",
         "--input", str(simdir / "data.csv"), "--out", str(fitdir), "--quiet"]
    ) == 0
    evadir = tmp_path / "eval"
    assert run(
        ["evaluate", "--fit", str(fitdir / "fit.json"),
         "--fit-b", str(fitdir / "fit.json"), "--out", str(evadir), "--quiet"]
    ) == 0
    report = json.loads((evadir / "metrics.json").read_text())
    assert report["total_agreement"] == 1.0


def test_evaluate_dimension_mismatch_exit_1(simdir, tmp_path):
    other = tmp_path / "sim2"
    assert run(
        ["simulate", "--p", "4", "--n", "60", "--model", "i", "--epsilon", "0",
         "--seed", "2", "--out", str(other), "--quiet"]
    ) == 0
    fitdir = tmp_path / "fit"
    assert run(
        ["fit", "--estimator", "glasso", "--lambda", "0.1",
         "--input", str(simdir / "data.csv"), "--out", str(fitdir), "--quiet"]
    ) == 0
    code = run(
        ["evaluate", "--fit", str(fitdir / "fit.json"),
         "--truth", str(other / "truth.json"), "--out", str(tmp_path / "e"),
         "--quiet"]
    )
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--fit", "truth", "--truth", "truth"],
    ["--fit", "fit", "--truth", "fit"],
    ["--fit", "fit", "--fit-b", "truth"],
    ["--fit", "truth", "--fit-b", "fit"],
], ids=" ".join)
def test_evaluate_wrong_artifact_exit_1_nothing_written(simdir, tmp_path, capsys, flags):
    fitdir = tmp_path / "fit"
    assert run(
        ["fit", "--estimator", "glasso", "--lambda", "0.1",
         "--input", str(simdir / "data.csv"), "--out", str(fitdir), "--quiet"]
    ) == 0
    files = {"truth": simdir / "truth.json", "fit": fitdir / "fit.json"}
    argv = [str(files.get(f, f)) for f in flags]
    capsys.readouterr()
    code = run(["evaluate", *argv, "--out", str(tmp_path / "e"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error:")
    assert not (tmp_path / "e").exists()


def test_evaluate_memory_does_not_hold_the_weights(simdir, tmp_path):
    """A tall fit.json is mostly per-row weights, which evaluate never
    reads.  Reading the file holds its bytes and its text at once, about
    twice its size; holding every parsed weight as well took 2.4 times."""
    truth = json.loads((simdir / "truth.json").read_text())
    rng = np.random.default_rng(63)
    rec = {"lambda": 0.1, "status": "ok", "omega": np.asarray(truth["omega"]),
           "edges": truth["edges"], "weights": rng.dirichlet(np.ones(40_000))}
    doc = {"config": {}, "fits": [dict(rec, weights=rng.dirichlet(np.ones(40_000))) for _ in range(10)],
           "omega": rec["omega"], "edges": rec["edges"], "weights": rec["weights"]}
    fileio.write_json(tmp_path / "fit.json", doc)
    size = (tmp_path / "fit.json").stat().st_size
    tracemalloc.start()
    try:
        code = run(["evaluate", "--fit", str(tmp_path / "fit.json"), "--truth", str(simdir / "truth.json"),
                    "--out", str(tmp_path / "e"), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads((tmp_path / "e" / "metrics.json").read_text())["per_lambda"]) == 10
    assert peak < 2.2 * size


def test_bench_small_run_and_aggregates(tmp_path, monkeypatch):
    monkeypatch.setenv("RGGM_THREADS", "1")
    out = tmp_path / "bench"
    code = run(
        ["bench", "--p", "6", "--n", "80", "--model", "ii", "--epsilon", "0.1",
         "--eta", "5", "--gamma", "0.1", "--replicates", "2", "--seed", "4",
         "--estimators", "gamma,glasso", "--lambda-grid", "4,0.2",
         "--out", str(out), "--quiet"]
    )
    assert code == 0
    doc = json.loads((out / "bench.json").read_text())
    assert len(doc["replicates"]) == 2
    assert set(doc["roc_mean"]) == {"gamma", "glasso"}
    roc = (out / "roc_mean.tsv").read_text().strip().split("\n")
    assert roc[0].split("\t") == ["nnz", "gamma", "glasso"]
    mse = (out / "mse_summary.tsv").read_text().strip().split("\n")
    assert len(mse) == 3


def test_bench_deterministic_across_worker_counts(tmp_path, monkeypatch):
    args = ["bench", "--p", "5", "--n", "60", "--model", "i", "--epsilon", "0.1",
            "--gamma", "0.1", "--replicates", "2", "--seed", "11",
            "--estimators", "gamma", "--lambda-grid", "3,0.3", "--quiet"]
    monkeypatch.setenv("RGGM_THREADS", "1")
    a = tmp_path / "a"
    assert run(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("RGGM_THREADS", "2")
    b = tmp_path / "b"
    assert run(args + ["--out", str(b)]) == 0
    for name in ("bench.json", "roc_mean.tsv", "mse_summary.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_csv_roundtrip_17_digits(tmp_path):
    rng = np.random.default_rng(50)
    X = rng.standard_normal((7, 3)) * np.pi
    path = tmp_path / "x.csv"
    write_csv(path, X)
    back = read_csv(path)
    assert np.array_equal(back, X)


def test_bench_failed_estimator_exit_2_with_all_artifacts(tmp_path, monkeypatch):
    real_fit_path = study.fit_path

    def fit_path(estimator, X, **kw):
        if estimator == "npn":
            raise DegenerateScatter("forced failure")
        return real_fit_path(estimator, X, **kw)

    monkeypatch.setattr(study, "fit_path", fit_path)
    monkeypatch.setenv("RGGM_THREADS", "1")
    out = tmp_path / "bench"
    code = run(
        ["bench", "--p", "5", "--n", "60", "--model", "i", "--epsilon", "0.1",
         "--replicates", "1", "--seed", "3", "--estimators", "glasso,npn",
         "--lambda-grid", "3,0.3", "--out", str(out), "--quiet"]
    )
    assert code == 2
    doc = json.loads((out / "bench.json").read_text())
    assert doc["replicates"][0]["estimators"]["npn"]["error"] == "forced failure"
    assert (out / "roc_mean.tsv").exists()
    mse = [r.split("\t") for r in (out / "mse_summary.tsv").read_text().strip().split("\n")]
    assert mse[0] == ["replicate", "glasso", "npn"]
    assert mse[1][0] == "0" and float(mse[1][1]) > 0 and mse[1][2] == "NA"


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_bench_bad_threads_env_exit_1(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("RGGM_THREADS", value)
    code = run(
        ["bench", "--p", "4", "--n", "30", "--model", "i", "--replicates", "1",
         "--estimators", "glasso", "--out", str(tmp_path / "b"), "--quiet"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "RGGM_THREADS" in err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("value, workers", [("0", 3), ("", 3), (" 0 ", 3), ("2", 2), ("5", 5)])
def test_bench_workers_from_threads_env(monkeypatch, value, workers):
    monkeypatch.setenv("RGGM_THREADS", value)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._bench_workers() == workers


def test_bench_workers_threads_env_unset_uses_all_cpus(monkeypatch):
    monkeypatch.delenv("RGGM_THREADS", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._bench_workers() == 3


# --- fit_path: the shared path layer for every estimator --------------------

PATH_KW = dict(gamma=0.1, nu=1.0, delta_n="auto", K=10, delta=0.2, tol=1e-7, max_iter=200)


@pytest.mark.parametrize("estimator", study.ESTIMATORS)
def test_fit_path_shape(estimator):
    X, _, _ = mixture_24(seed=22)
    path = study.fit_path(estimator, X, **PATH_KW)
    assert len(path.lambdas) == len(path.fits) == len(path.statuses) == 10
    assert all(s == "ok" for s in path.statuses)
    assert len(edge_set(path.fits[0].theta.omega)) == 0
    assert np.all(np.diff(path.lambdas) < 0)
    assert path.lambdas[-1] == 0.2 * path.lambdas[0]


def test_fit_path_first_point_is_the_start():
    # replicate 1 of the acceptance bench, where re-fitting the start left
    # off-diagonal roundoff at the first gamma and tlasso points
    spec = simgen.SimSpec(p=25, n=200, model="ii", epsilon=0.1, eta=5.0, ba_m=1,
                          seed=simgen.replicate_seed(42, 1))
    X, _, _ = simgen.generate(spec)
    kw = dict(PATH_KW, gamma=0.05)
    starts = {
        "gamma": gamma_mm.diagonal_start(X, 0.05)[0],
        "glasso": gamma_mm.diagonal_start(X, 0.0)[0],
        "tlasso": baselines.tlasso_diagonal_start(X, 1.0)[0],
        "npn": gamma_mm.diagonal_start(baselines.npn_transform(X, baselines.NpnConfig()), 0.0)[0],
    }
    for estimator, start in starts.items():
        first = study.fit_path(estimator, X, **kw).fits[0]
        omega = first.theta.omega
        assert np.array_equal(omega, np.diag(np.diag(omega))), estimator
        assert np.array_equal(first.theta.mu, start.mu), estimator
        assert np.array_equal(omega, start.omega), estimator
        assert first.mm_iterations == 0 and len(first.objective_trace) == 1, estimator
        assert first.converged, estimator


def test_fit_npn_path_counts_one_solve_per_point(simdir, tmp_path):
    """npn's ``mm_iterations`` in fit.json counts its solves, as glasso's
    does: 0 at the first point, which is its start, and 1 at every solved
    point, however many Newton steps the solve took (possibly none)."""
    for estimator in ("npn", "glasso"):
        out = tmp_path / estimator
        assert run(["fit", "--estimator", estimator, "--lambda-grid", "default",
                    "--input", str(simdir / "data.csv"), "--out", str(out), "--quiet"]) == 0
        fits = json.loads((out / "fit.json").read_text())["fits"]
        assert [f["mm_iterations"] for f in fits] == [0] + [1] * 9, estimator


def test_npn_path_transforms_once_and_starts_cold(monkeypatch):
    X, _, _ = mixture_24(seed=23)
    calls = []
    orig = baselines.npn_transform

    def counting(*args, **kw):
        calls.append(1)
        return orig(*args, **kw)

    monkeypatch.setattr(baselines, "npn_transform", counting)
    path = study.fit_path("npn", X, **PATH_KW)
    assert len(calls) == 1
    first = baselines.fit_nonparanormal(X, baselines.NpnConfig(lam=float(path.lambdas[0])))
    assert np.array_equal(path.fits[0].theta.mu, first.theta.mu)
    assert np.array_equal(path.fits[0].theta.omega, first.theta.omega)
