"""Run the same `rggm` commands in two checkouts and diff their artifacts.

Each checkout runs, from its own ``src/`` and in its own directory under
``--work``:

- ``rggm simulate --p 12 --n 300 --model ii --epsilon 0.1 --eta 5 --seed 3``
- ``rggm fit --estimator E --lambda-grid default`` and
  ``rggm fit --estimator E --lambda 0.1`` on that data, for each of gamma,
  glasso, tlasso and npn
- ``rggm evaluate --truth`` on each path fit, and ``rggm evaluate
  --fit-b`` of the gamma path fit against the glasso one
- the acceptance bench (``rggm bench`` at p=25, n=200, model ii, seed 42,
  all four estimators), with ``--replicates`` replicates

Both checkouts run with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1, as ``perfbench/run.py`` runs its workloads:
``fit`` artifacts depend on the BLAS thread count, so this diff covers
the numbers the benchmark checks, and a difference it reports is the
code's, not the thread count's.

For every artifact it prints "byte-identical", or how many numbers differ
and the largest relative difference among them.  Non-numeric tokens that
differ (edge hashes, statuses) are counted separately.  JSON files are
compared field by field: numbers and other values are counted per field
(list indices dropped from the path, as in ``fits[].omega``), and a list
whose length differs, or a key present on one side only, is named by its
path and not compared further; every other field is still compared.

    python3 scripts/artifact_diff.py BEFORE_CHECKOUT AFTER_CHECKOUT \\
        --work /tmp/adiff [--replicates 20] [--skip-bench]

Exit status 0 when every artifact is byte-identical and the exit codes
agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ESTIMATORS = ("gamma", "glasso", "tlasso", "npn")
SIMULATE = ["simulate", "--p", "12", "--n", "300", "--model", "ii", "--epsilon", "0.1",
            "--eta", "5", "--seed", "3", "--out", "sim", "--quiet"]
BENCH = ["bench", "--p", "25", "--n", "200", "--model", "ii", "--epsilon", "0.1",
         "--eta", "5", "--gamma", "0.05", "--nu", "1", "--seed", "42",
         "--estimators", ",".join(ESTIMATORS), "--lambda-grid", "default",
         "--out", "bench", "--quiet"]
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SPLIT = re.compile(r'[\s,\[\]{}:"]+')


def commands(replicates: int | None) -> list[list[str]]:
    cmds = [SIMULATE]
    for est in ESTIMATORS:
        cmds.append(["fit", "--estimator", est, "--lambda-grid", "default",
                     "--input", "sim/data.csv", "--out", f"fit_{est}", "--quiet"])
        cmds.append(["fit", "--estimator", est, "--lambda", "0.1",
                     "--input", "sim/data.csv", "--out", f"fit1_{est}", "--quiet"])
        cmds.append(["evaluate", "--fit", f"fit_{est}/fit.json", "--truth", "sim/truth.json",
                     "--out", f"eval_{est}", "--quiet"])
    cmds.append(["evaluate", "--fit", "fit_gamma/fit.json", "--fit-b", "fit_glasso/fit.json",
                 "--out", "eval_b", "--quiet"])
    if replicates is not None:
        cmds.append(BENCH + ["--replicates", str(replicates)])
    return cmds


def artifacts(replicates: int | None) -> list[str]:
    names = ["sim/data.csv", "sim/truth.json"]
    for est in ESTIMATORS:
        names += [f"fit_{est}/fit.json", f"fit_{est}/path.tsv", f"fit1_{est}/fit.json",
                  f"eval_{est}/metrics.json"]
    names.append("eval_b/metrics.json")
    if replicates is not None:
        names += ["bench/bench.json", "bench/roc_mean.tsv", "bench/mse_summary.tsv"]
    return names


def run_checkout(checkout: Path, workdir: Path, cmds) -> list[int]:
    workdir.mkdir(parents=True, exist_ok=False)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"), **ONE_BLAS_THREAD)
    codes = []
    for argv in cmds:
        done = subprocess.run([sys.executable, "-m", "robustggm.cli", *argv], cwd=workdir, env=env)
        codes.append(done.returncode)
    return codes


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _relative(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def diff_text(a: str, b: str) -> str:
    """"byte-identical", or a count of differing numbers and tokens."""
    if a == b:
        return "byte-identical"
    ta, tb = SPLIT.split(a), SPLIT.split(b)
    if len(ta) != len(tb):
        return f"structure differs ({len(ta)} vs {len(tb)} tokens)"
    numbers, others, worst = 0, 0, 0.0
    for x, y in zip(ta, tb):
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            others += 1
            continue
        numbers += 1
        worst = max(worst, _relative(fx, fy))
    text = f"{numbers} numbers differ, max relative difference {worst:.3g}"
    return text + (f"; {others} other tokens differ" if others else "")


def _walk(x, y, path: str, field: str, tally: dict) -> None:
    """Compare two parsed JSON values, recording into ``tally``."""
    if isinstance(x, dict) and isinstance(y, dict):
        for key in list(x) + [k for k in y if k not in x]:
            if key not in x or key not in y:
                tally["shapes"].append(f"{path}.{key} only {'after' if key in y else 'before'}")
            else:
                _walk(x[key], y[key], f"{path}.{key}", f"{field}.{key}", tally)
    elif isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            tally["shapes"].append(f"{path} ({len(x)} vs {len(y)} entries)")
            return
        for i, (u, v) in enumerate(zip(x, y)):
            _walk(u, v, f"{path}[{i}]", f"{field}[]", tally)
    elif x != y or type(x) is not type(y):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        count, worst = tally["fields"].get(field, (0, 0.0))
        rel = _relative(float(x), float(y)) if numeric else None
        tally["fields"][field] = (count + 1, worst if rel is None else max(worst, rel))
        tally["numbers" if numeric else "others"] += 1
        if numeric:
            tally["worst"] = max(tally["worst"], rel)


def diff_json(a: str, b: str) -> str:
    """"byte-identical", or the differences of two JSON documents, field
    by field: counts of differing numbers and other values, the largest
    relative difference per field, and the paths whose shape differs."""
    if a == b:
        return "byte-identical"
    tally = {"numbers": 0, "others": 0, "worst": 0.0, "fields": {}, "shapes": []}
    _walk(json.loads(a), json.loads(b), "", "", tally)
    text = f"{tally['numbers']} numbers differ, max relative difference {tally['worst']:.3g}"
    if tally["others"]:
        text += f"; {tally['others']} other values differ"
    if tally["shapes"]:
        text += f"; shape differs at {len(tally['shapes'])} paths: " + ", ".join(
            s.lstrip(".") for s in tally["shapes"])
    for field, (count, worst) in sorted(tally["fields"].items()):
        text += f"\n    {field.lstrip('.') or '(root)'}: {count} differ"
        text += f", max relative difference {worst:.3g}" if worst else ""
    return text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    ap.add_argument("--work", type=Path, required=True, help="new directory for both runs")
    ap.add_argument("--replicates", type=int, default=20)
    ap.add_argument("--skip-bench", action="store_true")
    args = ap.parse_args()
    replicates = None if args.skip_bench else args.replicates
    cmds = commands(replicates)
    codes = {}
    for label, checkout in (("before", args.before), ("after", args.after)):
        codes[label] = run_checkout(checkout, args.work / label, cmds)
    same = True
    for argv, ca, cb in zip(cmds, codes["before"], codes["after"]):
        if ca != cb:
            same = False
            print(f"exit codes differ for `rggm {' '.join(argv[:3])} ...`: {ca} vs {cb}")
    for name in artifacts(replicates):
        pa, pb = args.work / "before" / name, args.work / "after" / name
        if not (pa.exists() and pb.exists()):
            result = "missing in " + " and ".join(
                label for label, p in (("before", pa), ("after", pb)) if not p.exists()
            )
        else:
            diff = diff_json if name.endswith(".json") else diff_text
            result = diff(pa.read_text(), pb.read_text())
        same = same and result == "byte-identical"
        print(f"{name}: {result}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
