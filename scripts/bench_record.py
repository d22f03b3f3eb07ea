"""Record benchmark runs of one or more source checkouts into a BENCH file.

    python3 scripts/bench_record.py --out BENCH_N.json --workload study_p25 \
        --seeds 101-110 --checkout parent=../parent --checkout change=.

For every workload and seed it runs the benchmark command that
``BENCHMARK.json`` declares (``python3 perfbench/run.py``) with
``--trace 0`` and the declared run length, once in each checkout,
from that checkout's root.  The result line is parsed as strict JSON:
a run whose last line holds ``NaN`` or ``Infinity`` is recorded as
having no result, as a strict reader of that line would fail on it.
With several checkouts the order rotates from seed to seed, so that
with two the side that runs first alternates.
Each run's parsed result line, the environment line and the
host-clock line it printed are appended to the block of its checkout's
label in the output file; runs already in the file are kept, and the
file is rewritten after every run.  A ``summary`` gives each label's
median and quartiles per workload and metric and, for every two labels
in the order given, how many seed-matched pairs the later one won on
each end-to-end metric and its median paired gain (positive is better).

The benchmark's own code is run, never imported.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """'101-110' or '1,5,9' (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_checkout(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    return label, Path(path).resolve()


def source_id(checkout: Path) -> dict:
    """What was measured: the checkout's git HEAD (if any) and a hash
    of its package sources, which also covers uncommitted edits."""
    h = hashlib.sha256()
    for f in sorted((checkout / "src").rglob("*.py")):
        h.update(str(f.relative_to(checkout)).encode() + b"\0" + f.read_bytes())
    head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return {"git_head": head.stdout.strip() if head.returncode == 0 else None,
            "src_sha256": h.hexdigest()}


def _refuse_non_finite(token: str):
    raise ValueError(f"non-finite number {token} in the result line")


def run_once(command: list, checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "exit_code": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("environment: "):
            run["environment"] = json.loads(line[len("environment: "):])
        elif line.startswith("on the host's own clock: "):
            run["host_clock"] = line[len("on the host's own clock: "):]
    try:
        run["result"] = json.loads(lines[-1], parse_constant=_refuse_non_finite)
    except (IndexError, ValueError) as exc:  # JSONDecodeError is a ValueError
        run["result"] = None
        run["result_error"] = repr(exc)
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-20:]
    return run


def summarize(blocks: dict, better: dict) -> dict:
    labels = list(blocks)
    values = {}  # (label, workload, seed) -> metrics
    for label, block in blocks.items():
        for run in block["runs"]:
            if run.get("result"):
                metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
                values[(label, run["workload"], run["seed"])] = metrics
    summary = {}
    for workload in sorted({w for _, w, _ in values}):
        per_label = {}
        for label in labels:
            runs = [m for (lb, w, _), m in values.items() if lb == label and w == workload]
            if not runs:
                continue
            per_label[label] = {"runs": len(runs)}
            for name in sorted(runs[0]):
                q1, med, q3 = np.percentile([m[name] for m in runs], [25, 50, 75])
                per_label[label][name] = {"median": med, "q1": q1, "q3": q3}
        entry = {"labels": per_label, "pairs": {}}
        for a, b in itertools.combinations(labels, 2):
            seeds = sorted(s for (lb, w, s) in values if lb == a and w == workload
                           and (b, w, s) in values)
            wins = {}
            for name, direction in better.items():
                sign = 1.0 if direction == "lower" else -1.0
                diffs = [sign * (values[(a, workload, s)][name] - values[(b, workload, s)][name])
                         for s in seeds if name in values[(a, workload, s)]]
                if diffs:
                    wins[name] = {"pairs": len(diffs), f"{b}_wins": sum(d > 0 for d in diffs),
                                  "ties": sum(d == 0 for d in diffs),
                                  f"median_gain_of_{b}": float(np.median(diffs))}
            entry["pairs"][f"{b} vs {a}"] = wins
        summary[workload] = entry
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to create or extend")
    ap.add_argument("--workload", action="append", required=True, help="repeatable")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 101-110 or 1,4,9")
    ap.add_argument("--checkout", type=parse_checkout, action="append", required=True,
                    help="LABEL=PATH of a source checkout; repeatable")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"blocks": {}}
    for label, path in args.checkout:
        block = doc["blocks"].setdefault(label, {"runs": []})
        block["source"] = source_id(path)

    checkouts = list(args.checkout)
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            k = i % len(checkouts)
            for label, path in checkouts[k:] + checkouts[:k]:
                run = run_once(command, path, workload, seed, spec["run_seconds"])
                doc["blocks"][label]["runs"].append(run)
                doc["summary"] = summarize(doc["blocks"], better)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                result = run["result"] or {}
                wall = result.get("metrics", {}).get("wall_ref_s", {}).get("value")
                print(f"{workload} seed {seed} {label}: exit {run['exit_code']}, "
                      f"wall_ref_s {wall}, failed {result.get('failed')}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
