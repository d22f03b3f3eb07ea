"""The two benchmark workloads: their inputs and the `rggm` commands
one round of each runs.

Both use contamination model ii (epsilon = 0.1, eta = 5) and the
default lambda grid (K = 10, delta = 0.2).  Their datasets are fixed:
per-replicate cost varies by a factor of two across simulation seeds
(11-22 s for one bench replicate), and some gamma-path seeds let the
weights collapse so that the fit never ends.  The benchmark's ``--seed``
therefore shuffles the rows of the path workload's data file; the
estimator is row-permutation equivariant, so the work stays the same
while the input bytes differ from seed to seed.  `rggm bench` draws its datasets internally, so ``study_p25`` does
not depend on ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONTAMINATION = ["--model", "ii", "--epsilon", "0.1", "--eta", "5", "--m", "1"]
K, DELTA = 10, 0.2
ESTIMATORS = ("gamma", "glasso", "tlasso", "npn")
BENCH_SEED = 42  # the acceptance bench's seed
DATA_SEED = 7  # the seed of the roadmap's gamma-path measurements


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    n: int
    replicates: int = 0  # > 0: one `rggm bench` run; 0: a gamma path on simulated data

    @property
    def is_study(self) -> bool:
        return self.replicates > 0

    @property
    def points_per_round(self) -> int:
        """Operations per round: fitted lambda points over every
        (estimator, replicate) path."""
        if self.is_study:
            return self.replicates * len(ESTIMATORS) * K
        return K


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study_p25", p=25, n=200, replicates=1),
        Workload("path_tall_n100k", p=20, n=100_000),
    )
}


def sim_dir(out: Path) -> Path:
    return out / "sim"


def simulate_argv(w: Workload, out: Path) -> list[str]:
    return [
        "simulate", "--p", str(w.p), "--n", str(w.n), *CONTAMINATION,
        "--seed", str(DATA_SEED), "--out", str(sim_dir(out)), "--quiet",
    ]


def row_permutation(seed: int, n: int) -> np.ndarray:
    """Row i of the benchmark's data file is row perm[i] of the simulated one."""
    return np.random.default_rng(np.random.SeedSequence([seed, n])).permutation(n)


def shuffle_rows(path: Path, perm: np.ndarray) -> None:
    """Rewrite a CSV with its data rows reordered; bytes of each row are kept."""
    header, *rows = path.read_bytes().splitlines(keepends=True)
    if len(rows) != perm.shape[0]:
        raise ValueError(f"{path}: {len(rows)} rows, expected {perm.shape[0]}")
    path.write_bytes(header + b"".join(rows[i] for i in perm))


def round_argvs(w: Workload) -> list[list[str]]:
    """The CLI invocations of one timed round, run from inside the round's
    own directory under ``out``; the relative paths make every round's
    artifacts byte-identical."""
    if w.is_study:
        return [[
            "bench", "--p", str(w.p), "--n", str(w.n), *CONTAMINATION,
            "--gamma", "0.05", "--nu", "1", "--replicates", str(w.replicates),
            "--seed", str(BENCH_SEED), "--estimators", ",".join(ESTIMATORS),
            "--lambda-grid", "default", "--out", ".", "--quiet",
        ]]
    return [
        [
            "fit", "--estimator", "gamma", "--gamma", "0.1", "--lambda-grid", "default",
            "--input", "../sim/data.csv", "--out", "fit", "--quiet",
        ],
        ["evaluate", "--fit", "fit/fit.json", "--truth", "../sim/truth.json", "--out", "eval", "--quiet"],
    ]


def artifacts(w: Workload, rdir: Path) -> list[Path]:
    """Every file one round writes."""
    if w.is_study:
        return [rdir / f for f in ("bench.json", "roc_mean.tsv", "mse_summary.tsv")]
    return [rdir / "fit" / "fit.json", rdir / "fit" / "path.tsv", rdir / "eval" / "metrics.json"]
