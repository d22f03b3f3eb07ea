import ast
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from robustggm import GlassoProblem, cli, solve

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_diff_compares_json_field_by_field(tmp_path):
    """A shorter objective trace and a dropped key no longer hide the
    other fields: the length mismatch is named by its path, and λ,
    status, edges and Ω are still compared and bounded."""
    before = {
        "config": {"estimator": "tlasso", "seed": 7},
        "fits": [
            {"lambda": 0.5, "status": "ok", "edges": [[0, 1]], "omega": [[2.0, -0.5], [-0.5, 1.0]],
             "objective_trace": [3.0, 2.5, 2.4]},
            {"lambda": 0.25, "status": "ok", "edges": [[0, 1]], "omega": [[2.0, -0.7], [-0.7, 1.0]],
             "objective_trace": [2.4, 2.2]},
        ],
    }
    after = json.loads(json.dumps(before))
    del after["config"]["seed"]
    after["fits"][0]["objective_trace"] = [3.0, 2.4]
    after["fits"][1]["omega"] = [[2.0, -0.7000007], [-0.7000007, 1.0]]
    after["fits"][1]["status"] = "max_iter"
    after["fits"][1]["edges"] = [[0, 1], [0, 2]]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(before))
    b.write_text(json.dumps(after))

    artifact_diff = load_script("artifact_diff")
    report = artifact_diff.diff_json(a.read_text(), b.read_text())
    head, *fields = report.split("\n")
    assert head.startswith("2 numbers differ, max relative difference 1e-06; 1 other values differ")
    assert "shape differs at 3 paths" in head
    assert "fits[0].objective_trace (3 vs 2 entries)" in head
    assert "fits[1].edges (1 vs 2 entries)" in head
    assert "config.seed only before" in head
    assert [f.strip() for f in fields] == [
        "fits[].omega[][]: 2 differ, max relative difference 1e-06",
        "fits[].status: 1 differ",
    ]
    assert artifact_diff.diff_json(a.read_text(), a.read_text()) == "byte-identical"


def test_perfbench_tracer_targets_resolve():
    """perfbench's tracer wraps the (module, function) pairs of its
    ``TARGETS`` and sums ``GlassoSolution.iterations`` over the solves;
    a pair that no longer resolves, or a solution without that count,
    leaves its metric unmeasured, a null in the benchmark's result
    line.  The list is read from the tracer's source, not imported."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    targets = None
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            targets = ast.literal_eval(node.value)
    assert targets
    for mod_name, fn_name in targets:
        module = importlib.import_module(f"robustggm.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    sol = solve(GlassoProblem(s=np.array([[2.0, 0.5], [0.5, 1.0]]), lam=0.1))
    assert type(sol.iterations) is int
    assert np.isfinite(sol.kkt_residual)


def test_perfbench_layer_metrics_are_all_measured(tmp_path, monkeypatch):
    """Every per-layer metric of a traced benchmark round is a finite
    number: the study workload's round (`rggm bench`, one replicate), and
    the path workload's round (`fit --lambda-grid`, then `evaluate`) on
    small data.  A target that resolves but is never called reads 0, but
    a ratio whose denominator is never called reads null:
    ``gamma_mm.mm_steps_per_point`` when nothing calls ``gamma_mm.fit``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    monkeypatch.setenv("RGGM_THREADS", "1")
    for w in (workloads.WORKLOADS["study_p25"], workloads.Workload("path_p10", p=10, n=300)):
        out = tmp_path / w.name
        tr = tracer.Tracer()
        tr.install()
        try:
            if not w.is_study:
                assert cli.main(workloads.simulate_argv(w, out)) == 0
            tr.phase = "body"
            (out / "round0").mkdir(parents=True)
            monkeypatch.chdir(out / "round0")
            for argv in workloads.round_argvs(w):
                assert cli.main(argv) == 0
        finally:
            tr.uninstall()
        metrics = tracer.layer_metrics(tr, 1, 1.0, 1.0)
        unmeasured = [k for k, (v, _) in metrics.items() if v is None or not math.isfinite(v)]
        assert not unmeasured, (w.name, unmeasured)
