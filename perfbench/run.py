"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout without installing the package
(it is imported from ``src/``).  Each run starts one fresh worker process
with single-threaded BLAS and ``RGGM_THREADS=1``, which prepares the
workload's inputs and runs the whole rounds of `rggm` commands that fill
about S seconds.  Meanwhile this process runs a fixed pure-Python loop
on the other core, whose progress is the clock ``wall_ref_s`` is read
on, so that the host's changing speed cancels out (README).  Every
artifact of every round is then checked here with numpy (checks.py).
The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` (one operation is one fitted lambda point with its checks)
and ``metrics`` - the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced rounds with ``--trace 1``.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / ".out"
WORKER_TIMEOUT_S = 165
PROBE_CHUNK = 20_000  # loop iterations between two clock reads of the probe
PROBE_REF_RATE = 800.0  # probe chunks per second on the reference machine at its quiet speed (README)
THREAD_ENV = {
    "RGGM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **THREAD_ENV,
    }


def probe_until_exit(proc: subprocess.Popen, timeout_s: float) -> np.ndarray | None:
    """Run a fixed pure-Python loop on the other core until the worker
    exits; return the monotonic time at which each chunk of it ended, or
    None once ``timeout_s`` has passed.  The loop's speed is the host's
    speed at that moment (README, Environment)."""
    stamps = [time.monotonic()]
    deadline = stamps[0] + timeout_s
    while proc.poll() is None:
        if stamps[-1] > deadline:
            return None
        s = 0
        for i in range(PROBE_CHUNK):
            s += i * i
        stamps.append(time.monotonic())
    return np.asarray(stamps)


def host_seconds(stamps: np.ndarray, start: float, end: float) -> float:
    """The probe chunks done between two monotonic times, in seconds at
    the reference rate: the interval's length on a host of the reference
    speed."""
    done = np.interp([start, end], stamps, np.arange(stamps.shape[0]))
    return float(done[1] - done[0]) / PROBE_REF_RATE


def check_rounds(w, out: Path, report: dict, seed: int):
    """Check every round's artifacts.  The first round with artifacts is
    checked in full; a later round must be byte-identical to it (the CLI
    is deterministic), which carries the full check over."""
    rounds = report["rounds"]
    if not w.is_study:
        sim = workloads.sim_dir(out)
        truth = json.loads((sim / "truth.json").read_text())
        X = np.loadtxt(sim / "data.csv", delimiter=",", skiprows=1, ndmin=2)
        labels = np.asarray(truth["labels"], dtype=bool)[workloads.row_permutation(seed, w.n)]
    failed, messages = 0, []
    reference = None  # (file bytes, findings, tprs, mse mins)
    for rnd in rounds:
        rdir = out / rnd["dir"]
        if any(code != 0 for code in rnd["exit_codes"]):
            failed += w.points_per_round
            messages.append(f"{rdir.name}: exit codes {rnd['exit_codes']}")
            continue
        try:
            blobs = [p.read_bytes() for p in workloads.artifacts(w, rdir)]
        except OSError as exc:
            failed += w.points_per_round
            messages.append(f"{rdir.name}: {exc}")
            continue
        if reference is None:
            if w.is_study:
                found, tprs, mse_mins = checks.check_study_round(
                    rdir, w.replicates, workloads.ESTIMATORS, workloads.K)
            else:
                found, tprs, mses = checks.check_path_round(rdir, X, truth, labels, workloads.K, workloads.DELTA)
                mse_mins = [min(mses)] if mses else []
            reference = (blobs, found, tprs, mse_mins)
            messages += [f"{rdir.name}: {m}" for m in found.messages()]
            failed += found.failed
        elif blobs != reference[0]:
            failed += w.points_per_round
            messages.append(f"{rdir.name}: artifacts differ from {rounds[0]['dir']}'s")
        else:
            failed += reference[1].failed
    tprs, mse_mins = (reference[2], reference[3]) if reference else ([], [])
    return failed, messages, tprs, mse_mins


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "robustggm" / "cli.py").is_file():
        print(f"run.py: no robustggm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    out = OUT / w.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    env = dict(os.environ, **THREAD_ENV)
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", w.name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]
    proc = subprocess.Popen(cmd + ["--launched", repr(time.monotonic())], env=env)
    try:
        stamps = probe_until_exit(proc, WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if stamps is None:
        print(f"run.py: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads((out / "report.json").read_text())

    failed, messages, tprs, mse_mins = check_rounds(w, out, report, args.seed)
    rounds = report["rounds"]
    attempted = w.points_per_round * len(rounds)
    if args.trace:
        audit_failures = report["kkt_audit_failures"]
        if audit_failures:
            messages.append(f"{audit_failures} glasso.solve returns failed the KKT audit")
            failed = min(attempted, failed + min(audit_failures, w.points_per_round * report["traced_rounds"]))
        metrics = report["layer_metrics"]
    else:
        # Times on the probe's clock (README): each command at its median
        # over the run's rounds, summed over a round's commands; the one
        # cold set-up of this run.
        host = zip(*([host_seconds(stamps, a, b) for a, b in r["command_spans"]] for r in rounds))
        raw = zip(*([b - a for a, b in r["command_spans"]] for r in rounds))
        setup_start, setup_end = report["setup_span"]
        print(f"on the host's own clock: wall {sum(median(ts) for ts in raw)} s, "
              f"set-up {setup_end - setup_start} s")
        metrics = {
            "wall_ref_s": {"value": sum(median(ts) for ts in host), "unit": "s"},
            "setup_s": {"value": host_seconds(stamps, setup_start, setup_end), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "tpr_mean": {"value": float(np.mean(tprs)) if tprs else 0.0, "unit": "fraction"},
            "mse_min": {"value": float(np.mean(mse_mins)) if mse_mins else 0.0, "unit": "1"},
        }
    for m in messages[:20]:
        print(f"check failed: {m}", file=sys.stderr)
    print(f"environment: {json.dumps(environment())}")
    print(f"workload {w.name}: seed {args.seed}, {len(rounds)} rounds "
          f"({report['traced_rounds']} traced), {attempted} points attempted, {failed} failed")
    if report.get("unmeasured"):
        print(f"not measured: {', '.join(report['unmeasured'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not messages, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
