import numpy as np
import pytest

from robustggm import (
    DimensionMismatch,
    NotPositiveDefinite,
    quad_form,
    spd_factorize,
    symmetrize,
)
from conftest import random_spd


def det_cofactor(m):
    """Determinant by recursive first-row expansion, memoized over
    column subsets; independent of any factorization."""
    n = m.shape[0]
    cache = {}

    def rec(row, cols):
        if len(cols) == 1:
            return m[row, cols[0]]
        key = (row, cols)
        if key in cache:
            return cache[key]
        total = 0.0
        for i, c in enumerate(cols):
            sub = cols[:i] + cols[i + 1 :]
            total += (-1.0) ** i * m[row, c] * rec(row + 1, sub)
        cache[key] = total
        return total

    return rec(0, tuple(range(n)))


def test_factorize_identity():
    f = spd_factorize(np.eye(3))
    assert f.logdet == 0.0
    np.testing.assert_array_equal(f.lower, np.eye(3))


def test_factorize_diagonal():
    f = spd_factorize(np.diag([2.0, 2.0]))
    assert f.logdet == pytest.approx(2 * np.log(2.0), abs=1e-12)


def test_factorize_cofactor_oracle_2x2():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    f = spd_factorize(m)
    assert f.logdet == pytest.approx(np.log(3.0), abs=1e-12)
    assert np.exp(f.logdet) == pytest.approx(det_cofactor(m), rel=1e-12)


def test_factorize_not_pd_carries_pivot():
    m = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefinite) as exc:
        spd_factorize(m)
    assert exc.value.pivot == 1


def test_factorize_rejects_asymmetric():
    m = np.array([[1.0, 0.1], [0.2, 1.0]])
    with pytest.raises(DimensionMismatch):
        spd_factorize(m)


def test_logdet_matches_cofactor_oracle_randomized():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = int(rng.integers(1, 11))
        m = random_spd(rng, p)
        f = spd_factorize(m)
        assert np.exp(f.logdet) == pytest.approx(det_cofactor(m), rel=1e-8)


def test_factor_reconstructs_source():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = random_spd(rng, int(rng.integers(1, 9)))
        f = spd_factorize(m)
        err = np.linalg.norm(f.lower @ f.lower.T - m) / np.linalg.norm(m)
        assert err < 1e-10
        assert np.all(np.diag(f.lower) > 0)


def test_quad_form_identity():
    f = spd_factorize(np.eye(2))
    assert quad_form(f, np.array([3.0, 4.0])) == pytest.approx(25.0, abs=1e-12)


def test_quad_form_zero_vector():
    f = spd_factorize(random_spd(np.random.default_rng(3), 4))
    assert quad_form(f, np.zeros(4)) == 0.0


def test_quad_form_direct_expansion():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    v = np.array([1.0, 1.0])
    # v' M v = 2 + 1 + 1 + 2
    assert quad_form(spd_factorize(m), v) == pytest.approx(6.0, abs=1e-12)


def test_quad_form_matches_naive_loops():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = int(rng.integers(1, 8))
        m = random_spd(rng, p)
        v = rng.standard_normal(p)
        naive = sum(v[i] * m[i, j] * v[j] for i in range(p) for j in range(p))
        assert quad_form(spd_factorize(m), v) == pytest.approx(naive, rel=1e-12)


def test_quad_form_dimension_mismatch():
    f = spd_factorize(np.eye(3))
    with pytest.raises(DimensionMismatch):
        quad_form(f, np.ones(4))


def test_quad_form_batched_rows():
    rng = np.random.default_rng(5)
    m = random_spd(rng, 3)
    f = spd_factorize(m)
    V = rng.standard_normal((6, 3))
    batched = quad_form(f, V)
    for i in range(6):
        assert batched[i] == pytest.approx(quad_form(f, V[i]), rel=1e-13)


def test_symmetrize_exact():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
