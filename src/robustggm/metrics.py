"""Support-recovery and accuracy metrics, plus column normalization.

Vertices in an :class:`EdgeSet` are numbered 1..p (matching the
conventional display of graph estimates); array code elsewhere stays
0-based and converts at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumn, DimensionMismatch
from .gamma_mm import MAD_CONSTANT
from .matcore import require_symmetric


@dataclass(frozen=True)
class EdgeSet:
    """Unordered vertex pairs (i, j), 1 <= i < j <= p."""

    p: int
    edges: frozenset

    def __post_init__(self):
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if not (1 <= i < j <= self.p):
                raise ValueError(f"edge ({i},{j}) out of range for p={self.p}")
        object.__setattr__(self, "edges", edges)

    def __len__(self) -> int:
        return len(self.edges)


def edge_set(omega: np.ndarray) -> EdgeSet:
    """Off-diagonal support of a symmetric matrix: its exact nonzeros.
    ``glasso.solve`` returns exact zeros off its pattern, so every nonzero
    is an edge, in any units."""
    omega = require_symmetric(np.asarray(omega, dtype=float), "omega")
    p = omega.shape[0]
    rows, cols = np.triu_indices(p, k=1)
    keep = omega[rows, cols] != 0.0
    return EdgeSet(
        p=p, edges=frozenset(zip((rows[keep] + 1).tolist(), (cols[keep] + 1).tolist()))
    )


def true_positive_rate(est: EdgeSet, truth: EdgeSet) -> float:
    """|est n truth| / |truth|; 0.0 when the truth has no edges."""
    return len(est.edges & truth.edges) / len(truth) if len(truth) else 0.0


def mse_offdiag(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over the off-diagonal entries,
    sum_{i != j} (est_ij - truth_ij)^2 / (p (p - 1))."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape or est.ndim != 2 or est.shape[0] != est.shape[1]:
        raise DimensionMismatch(f"shapes {est.shape} vs {truth.shape}")
    p = est.shape[0]
    off = ~np.eye(p, dtype=bool)
    return float(np.sum((est[off] - truth[off]) ** 2) / (p * (p - 1)))


def score_point(est: EdgeSet, omega: np.ndarray, truth: EdgeSet, truth_omega: np.ndarray) -> dict:
    """One path point against the truth: its nonzero off-diagonal count
    ``nnz`` (both triangles, 2 |est|), the true positive rate of its
    support ``est`` and the off-diagonal MSE of its precision ``omega``."""
    return {
        "nnz": 2 * len(est),
        "tpr": true_positive_rate(est, truth),
        "mse_offdiag": mse_offdiag(omega, truth_omega),
    }


def total_agreement(a: EdgeSet, b: EdgeSet) -> float:
    """(|A n B| + |A^c n B^c|) / |C| with C the complete graph's edges."""
    if a.p != b.p:
        raise DimensionMismatch(f"p={a.p} vs p={b.p}")
    full = a.p * (a.p - 1) // 2
    both = len(a.edges & b.edges)
    neither = full - len(a.edges | b.edges)
    return (both + neither) / full


def common_edges(a: EdgeSet, b: EdgeSet) -> int:
    """|A n B|."""
    if a.p != b.p:
        raise DimensionMismatch(f"p={a.p} vs p={b.p}")
    return len(a.edges & b.edges)


def normalize(X: np.ndarray, method: str = "sd") -> np.ndarray:
    """Columnwise (x - center) / scale.

    method "sd": sample mean and (biased) standard deviation.
    method "mad": median and adjusted median absolute deviation
    (1.4826 x MAD), whose center tolerates up to half a column of
    corrupted entries.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if method == "sd":
        center = X.mean(axis=0)
        scale = X.std(axis=0)
    elif method == "mad":
        center = np.median(X, axis=0)
        scale = MAD_CONSTANT * np.median(np.abs(X - center), axis=0)
    else:
        raise ValueError(f"unknown normalization {method!r}")
    if np.any(scale <= 0):
        j = int(np.argmin(scale))
        raise DegenerateColumn(f"column {j} has zero {method} scale")
    return (X - center) / scale
