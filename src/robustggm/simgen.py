"""Synthetic benchmark generator: scale-free graphs, precision matrices
with exactly matching support, and contaminated Gaussian samples.

All randomness flows through numpy Generators derived by
:func:`derive_rng` from ``SeedSequence([seed, *purpose])``; the purpose
codes are GRAPH = 0, PRECISION = 1, SAMPLES = 2, and replicated drivers
prepend the replicate index.  Identical seeds therefore reproduce
identical bits, and paired method comparisons can share datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import SupportCollision
from .matcore import spd_factorize
from .metrics import EdgeSet

GRAPH, PRECISION, SAMPLES = 0, 1, 2

#: outlier block size of the partial mean-shift model, capped by p
SHIFT_BLOCK = 20


def derive_rng(seed: int, *purpose: int) -> np.random.Generator:
    """Deterministic generator for (seed, purpose...) streams."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, purpose)]))


def replicate_seed(base: int, r: int) -> int:
    """Child seed for replicate r of a run seeded with ``base``."""
    return int(np.random.SeedSequence([int(base), int(r)]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SimSpec:
    """Contamination-model description.

    model "i" mixes in wide centered noise, "ii" shifts all coordinates
    by eta, "iii" shifts only the first min(20, p) coordinates.
    ``epsilon`` is the contamination ratio; ``ba_m`` the number of edges
    each new node attaches in the scale-free graph.
    """

    p: int
    n: int
    model: str
    epsilon: float
    eta: float = 0.0
    ba_m: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("i", "ii", "iii"):
            raise ValueError("model must be one of 'i', 'ii', 'iii'")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.p < 2 or self.n < 1 or self.ba_m < 1:
            raise ValueError("need p >= 2, n >= 1, ba_m >= 1")
        if self.ba_m >= self.p:
            raise ValueError("ba_m must be < p")


@dataclass(frozen=True)
class GroundTruth:
    """True precision matrix and its off-diagonal support."""

    omega: np.ndarray
    adjacency: EdgeSet


def ba_graph(p: int, m: int, rng: np.random.Generator) -> EdgeSet:
    """Preferential-attachment graph: complete seed on m + 1 nodes, then
    each new node attaches m distinct edges with probability
    proportional to current degree.  Always connected; edge count is
    exactly m (p - m) + C(m, 2)."""
    if not 1 <= m < p:
        raise ValueError("need 1 <= m < p")
    edges = set()
    repeated = []  # node list with multiplicity = degree
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            edges.add((i, j))
            repeated.extend((i, j))
    for source in range(m + 1, p):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(targets):
            edges.add((t, source))
            repeated.extend((t, source))
    return EdgeSet(p=p, edges=frozenset((i + 1, j + 1) for i, j in edges))


def edge_matrix(adj: EdgeSet, rng: np.random.Generator) -> np.ndarray:
    """Symmetrized random edge-weight matrix on the given support.

    Both ordered slots of each edge draw independently from
    [-0.75, -0.25] u [0.25, 0.75] and are averaged; an averaged
    magnitude below 1e-6 is resampled so the support cannot collapse.
    """
    p = adj.p

    def draw():
        u = rng.uniform(0.25, 0.75)
        return u if rng.uniform() < 0.5 else -u

    e = np.zeros((p, p))
    for i, j in sorted(adj.edges):
        a, b = i - 1, j - 1
        for _ in range(100):
            val = (draw() + draw()) / 2.0
            if abs(val) >= 1e-6:
                break
        else:
            raise SupportCollision(f"edge ({i},{j}) kept cancelling")
        e[a, b] = val
        e[b, a] = val
    return e


def make_precision(adj: EdgeSet, rng: np.random.Generator) -> GroundTruth:
    """Precision matrix whose support equals ``adj`` exactly.

    The edge matrix is shifted to minimum eigenvalue 0.1 and then
    congruence-rescaled so the covariance (inverse) has unit diagonal.
    """
    p = adj.p
    e = edge_matrix(adj, rng)
    lam_min = float(np.linalg.eigvalsh(e)[0])
    shifted = e + (0.1 - lam_min) * np.eye(p)
    # the covariance's diagonal by two triangular solves against I, the
    # arithmetic every simulated dataset was drawn with
    low = spd_factorize(shifted).lower
    y = solve_triangular(low, np.eye(p), lower=True)
    l = np.diag(solve_triangular(low, y, lower=True, trans="T"))
    root = np.sqrt(l)
    omega = shifted * np.outer(root, root)
    omega = (omega + omega.T) / 2.0
    return GroundTruth(omega=omega, adjacency=adj)


def _outlier_sample(spec: SimSpec, k: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((k, spec.p))
    if spec.model == "i":
        return np.sqrt(30.0) * z
    mean = np.full(spec.p, spec.eta)
    if spec.model == "iii":
        mean = np.zeros(spec.p)
        mean[: min(SHIFT_BLOCK, spec.p)] = spec.eta
    return mean + z


def sample_contaminated(
    spec: SimSpec, truth: GroundTruth, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n rows, each independently contaminated with probability
    epsilon; returns (data, boolean contamination labels).

    Clean rows are N(0, omega^{-1}), sampled through the Cholesky factor
    of omega (x = L^{-T} z); outlier rows follow the spec's model.
    """
    labels = rng.uniform(size=spec.n) < spec.epsilon
    f = spd_factorize(truth.omega)
    z = rng.standard_normal((spec.n, spec.p))
    clean = solve_triangular(f.lower, z.T, lower=True, trans="T").T
    X = clean
    k = int(labels.sum())
    if k:
        X = X.copy()
        X[labels] = _outlier_sample(spec, k, rng)
    return X, labels


def generate(spec: SimSpec) -> tuple[np.ndarray, np.ndarray, GroundTruth]:
    """Full pipeline from a spec: graph, precision, contaminated sample.

    Streams: (seed, GRAPH), (seed, PRECISION), (seed, SAMPLES).
    Returns (data, labels, truth).
    """
    adj = ba_graph(spec.p, spec.ba_m, derive_rng(spec.seed, GRAPH))
    truth = make_precision(adj, derive_rng(spec.seed, PRECISION))
    X, labels = sample_contaminated(spec, truth, derive_rng(spec.seed, SAMPLES))
    return X, labels, truth
