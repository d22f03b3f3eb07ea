"""One workload run in a fresh process: import, prepare inputs, then run
timed rounds of `rggm` commands in process through `robustggm.cli.main`.

Started by run.py, which sets the thread environment and passes the
monotonic time at which it launched this process, so set-up time counts
interpreter start-up and imports.  Writes ``report.json`` into ``--out``;
the artifacts of round i go to ``--out/round<i>``.  Whole rounds run
until ``--seconds`` have passed since the first began, and at least
three, so that a median over them can set aside the first (a warm-up:
it is often the slowest) or one round that the host slowed.  With
``--trace 1`` untraced and traced rounds alternate, starting untraced;
the untraced ones are the reference for the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
MIN_ROUNDS = 3
sys.path.insert(0, str(ROOT / "src"))

from robustggm import cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_round(w, out: Path, i: int) -> dict:
    rdir = out / f"round{i}"
    rdir.mkdir()
    argvs = workloads.round_argvs(w)
    codes, spans = [], []
    os.chdir(rdir)
    try:
        for argv in argvs:
            start = time.monotonic()
            codes.append(cli.main(argv))
            spans.append((start, time.monotonic()))
    finally:
        os.chdir(ROOT)
    wall = sum(end - start for start, end in spans)
    return {"dir": rdir.name, "wall_s": wall, "command_spans": spans, "exit_codes": codes}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--launched", type=float, required=True, help="time.monotonic() at launch")
    args = ap.parse_args()
    w = workloads.WORKLOADS[args.workload]
    out = args.out

    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install()
    if not w.is_study:
        if cli.main(workloads.simulate_argv(w, out)) != 0:
            print("worker: rggm simulate failed", file=sys.stderr)
            return 1
        workloads.shuffle_rows(workloads.sim_dir(out) / "data.csv", workloads.row_permutation(args.seed, w.n))
    setup_span = (args.launched, time.monotonic())
    if tr:
        tr.uninstall()

    # Traced runs interleave untraced and traced rounds, so that drift in
    # the machine's speed falls on both sides of trace_overhead_s.
    rounds = []
    report = {"setup_span": setup_span}
    if tr:
        tr.phase = "body"
    body_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - body_start < args.seconds:
        traced = tr is not None and len(rounds) % 2 == 1
        if traced:
            tr.round = len(rounds)
            tr.install()
        rounds.append(run_round(w, out, len(rounds)))
        rounds[-1]["traced"] = traced
        if traced:
            tr.uninstall()
    if tr:
        walls = {t: [r["wall_s"] for r in rounds if r["traced"] == t] for t in (False, True)}
        metrics = tracer.layer_metrics(tr, len(walls[True]), median(walls[True]), median(walls[False]))
        report["layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["unmeasured"] = sorted(tr.unmeasured)
        report["kkt_audit_failures"] = int(tr.get_count("body", "kkt_audit.failures") or 0)
        with open(out / "spans.jsonl", "w") as fh:
            for span in tr.spans:
                fh.write(json.dumps(span) + "\n")
    report["rounds"] = rounds
    report["traced_rounds"] = sum(r["traced"] for r in rounds)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "report.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
