"""Dense symmetric-matrix primitives used by every estimator.

Matrices are plain float64 ndarrays kept exactly symmetric by
construction (`symmetrize`).  Positive definiteness is checked, never
repaired: a failed factorization raises :class:`NotPositiveDefinite`
with the pivot where it broke down, because a PD violation downstream
signals an algorithmic bug, not a numerical nuisance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatch, NotPositiveDefinite


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the exactly symmetric part (a + a.T)/2 as a new array."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def require_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise DimensionMismatch(f"{name} is not exactly symmetric")
    return a


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of a symmetric positive-definite matrix,
    with the log-determinant of the source matrix cached."""

    lower: np.ndarray
    logdet: float

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def inverse(self) -> np.ndarray:
        """Dense inverse of the factored matrix, exactly symmetric.

        LAPACK ``dpotri`` writes the inverse's lower triangle over a copy
        of the factor, whose upper triangle is zero; adding the strict
        lower triangle to the transpose mirrors it, in C order."""
        if self.dim == 0:  # LAPACK refuses a leading dimension of 0
            return np.zeros((0, 0))
        inv, info = lapack.dpotri(self.lower, lower=1)
        if info != 0:
            raise ValueError(f"dpotri failed with info {info}")
        return inv.T + np.tril(inv, -1)


def spd_factorize(m: np.ndarray) -> SpdFactor:
    """Cholesky-factorize a symmetric positive-definite matrix.

    Parameters
    ----------
    m : ndarray, shape (p, p)
        Exactly symmetric matrix.

    Returns
    -------
    SpdFactor
        Lower factor L with L L^T = m and the cached log-determinant.

    Raises
    ------
    NotPositiveDefinite
        If a pivot is non-positive; carries the 0-based pivot index.
    """
    m = require_symmetric(m)
    c, info = lapack.dpotrf(m, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(pivot=info - 1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dpotrf")
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    return SpdFactor(lower=c, logdet=logdet)


def inv_spd(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky."""
    return spd_factorize(m).inverse()


def quad_form(f: SpdFactor, v: np.ndarray) -> float | np.ndarray:
    """Quadratic form v^T M v for the factored matrix M.

    Accepts a single vector of length p or an (n, p) stack of row
    vectors; returns a scalar or a length-n array accordingly.  Always
    nonnegative, and zero only at v = 0.
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    rows = v[None, :] if single else v
    if rows.shape[1] != f.dim:
        raise DimensionMismatch(
            f"vector length {rows.shape[1]} != matrix dim {f.dim}"
        )
    half = rows @ f.lower  # row i is L^T v_i
    q = np.einsum("ij,ij->i", half, half)
    return float(q[0]) if single else q

