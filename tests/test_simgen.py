import numpy as np
import pytest

from robustggm import (
    SimSpec,
    ba_graph,
    derive_rng,
    edge_set,
    generate,
    make_precision,
)
from robustggm.simgen import GRAPH, PRECISION, replicate_seed


def test_ba_tree_for_m1():
    g = ba_graph(5, 1, derive_rng(0, GRAPH))
    assert len(g.edges) == 4
    # connected with p - 1 edges => tree
    adj = {i: set() for i in range(1, 6)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = set(), [1]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    assert seen == set(range(1, 6))


def test_ba_edge_count_formula():
    for p, m in [(50, 2), (30, 3), (12, 1), (10, 4)]:
        g = ba_graph(p, m, derive_rng(p * 100 + m, GRAPH))
        assert len(g.edges) == m * (p - m) + m * (m - 1) // 2


def test_ba_heavier_tail_than_er():
    wins = 0
    trials = 200
    for t in range(trials):
        rng = derive_rng(1000 + t, GRAPH)
        g = ba_graph(100, 1, rng)
        deg = np.zeros(101, dtype=int)
        for i, j in g.edges:
            deg[i] += 1
            deg[j] += 1
        # Erdos-Renyi G(n, M) with the same edge count, paired stream
        er_rng = derive_rng(1000 + t, GRAPH, 99)
        pairs = [(i, j) for i in range(100) for j in range(i + 1, 100)]
        chosen = er_rng.choice(len(pairs), size=len(g.edges), replace=False)
        er_deg = np.zeros(100, dtype=int)
        for idx in chosen:
            i, j = pairs[idx]
            er_deg[i] += 1
            er_deg[j] += 1
        if deg.max() > er_deg.max():
            wins += 1
    assert wins / trials >= 0.9


def test_make_precision_empty_adjacency_is_identity():
    from robustggm.metrics import EdgeSet

    adj = EdgeSet(p=4, edges=frozenset())
    truth = make_precision(adj, derive_rng(2, PRECISION))
    np.testing.assert_allclose(truth.omega, np.eye(4), atol=1e-12)


def test_make_precision_shift_and_unit_inverse_diagonal():
    from robustggm.simgen import edge_matrix

    rng_g = derive_rng(3, GRAPH)
    adj = ba_graph(12, 2, rng_g)
    # replay the construction with the identical stream to observe the
    # shifted intermediate matrix
    e = edge_matrix(adj, derive_rng(3, PRECISION))
    shifted = e + (0.1 - np.linalg.eigvalsh(e)[0]) * np.eye(12)
    assert np.linalg.eigvalsh(shifted)[0] == pytest.approx(0.1, abs=1e-9)
    truth = make_precision(adj, derive_rng(3, PRECISION))
    root = np.sqrt(np.diag(np.linalg.inv(shifted)))
    np.testing.assert_allclose(truth.omega, shifted * np.outer(root, root), atol=1e-12)
    inv = np.linalg.inv(truth.omega)
    np.testing.assert_allclose(np.diag(inv), np.ones(12), atol=1e-8)


def test_make_precision_edge_magnitudes():
    from robustggm.simgen import edge_matrix

    rng_g = derive_rng(5, GRAPH)
    adj = ba_graph(20, 1, rng_g)
    e = edge_matrix(adj, derive_rng(5, PRECISION))
    for i, j in adj.edges:
        # averaged entries stay in the hull of the draw support and away
        # from zero (resampled otherwise)
        v = e[i - 1, j - 1]
        assert 1e-6 <= abs(v) <= 0.75
    # and the realized support matches exactly
    truth = make_precision(adj, derive_rng(5, PRECISION))
    assert edge_set(truth.omega).edges == adj.edges


def test_edge_draws_have_paper_magnitudes():
    # raw (pre-average) draws always have magnitude in [0.25, 0.75];
    # observe them through single-slot statistics: with one edge the two
    # ordered draws average inside [-0.75, 0.75] and never inside
    # (-1e-6, 1e-6) after resampling
    from robustggm.metrics import EdgeSet
    from robustggm.simgen import edge_matrix

    adj = EdgeSet(p=2, edges=frozenset({(1, 2)}))
    for seed in range(300):
        e = edge_matrix(adj, derive_rng(seed, PRECISION))
        assert 1e-6 <= abs(e[0, 1]) <= 0.75
        assert e[0, 1] == e[1, 0]


def _reference_make_precision(adj, rng):
    """make_precision's arithmetic spelled out with LAPACK's Cholesky and
    two triangular solves against I: the reference every simulated
    dataset is pinned to."""
    from scipy.linalg import lapack, solve_triangular
    from robustggm.simgen import edge_matrix

    p = adj.p
    e = edge_matrix(adj, rng)
    shifted = e + (0.1 - float(np.linalg.eigvalsh(e)[0])) * np.eye(p)
    low, info = lapack.dpotrf(shifted, lower=1, clean=1)
    assert info == 0
    y = solve_triangular(low, np.eye(p), lower=True)
    inv = solve_triangular(low, y, lower=True, trans="T")
    root = np.sqrt(np.diag((inv + inv.T) / 2.0))
    omega = shifted * np.outer(root, root)
    return (omega + omega.T) / 2.0


@pytest.mark.parametrize("p, m", [(2, 1), (5, 1), (12, 2), (25, 1), (60, 3)])
def test_make_precision_matches_reference_bit_for_bit(p, m):
    """The truth, and so every dataset drawn from it, does not move when
    the package's inverse routes change: make_precision equals the
    reference computation exactly."""
    for seed in range(5):
        adj = ba_graph(p, m, derive_rng(seed, GRAPH))
        truth = make_precision(adj, derive_rng(seed, PRECISION))
        np.testing.assert_array_equal(
            truth.omega, _reference_make_precision(adj, derive_rng(seed, PRECISION))
        )


def test_make_precision_invariants_randomized():
    for seed in range(100):
        adj = ba_graph(8, 1, derive_rng(seed, GRAPH))
        truth = make_precision(adj, derive_rng(seed, PRECISION))
        assert edge_set(truth.omega).edges == adj.edges
        inv = np.linalg.inv(truth.omega)
        np.testing.assert_allclose(np.diag(inv), np.ones(8), atol=1e-8)
        assert np.all(np.linalg.eigvalsh(truth.omega) > 0)


def test_sample_clean_covariance_consistency():
    spec = SimSpec(p=5, n=20000, model="i", epsilon=0.0, seed=6)
    X, labels, truth = generate(spec)
    assert not labels.any()
    cov = np.cov(X.T, bias=True)
    err = np.linalg.norm(cov - np.linalg.inv(truth.omega))
    assert err < 0.2


def test_sample_model_iii_mean_block():
    spec = SimSpec(p=100, n=10500, model="iii", epsilon=0.99, eta=5.0, seed=7)
    X, labels, truth = generate(spec)
    out = X[labels]
    assert out.shape[0] > 10000
    means = out.mean(axis=0)
    se = 1.0 / np.sqrt(out.shape[0])  # each outlier coordinate has sd 1
    # 4 se covers the max over 100 coordinates (Bonferroni)
    assert np.max(np.abs(means[:20] - 5.0)) < 4 * se
    assert np.max(np.abs(means[20:])) < 4 * se


def test_sample_contamination_fraction_binomial():
    spec = SimSpec(p=3, n=100000, model="ii", epsilon=0.1, eta=5.0, seed=8)
    X, labels, truth = generate(spec)
    frac = labels.mean()
    half_ci = 2.576 * np.sqrt(0.1 * 0.9 / 100000)
    assert abs(frac - 0.1) < half_ci


def test_model_i_outliers_are_wide_and_centered():
    spec = SimSpec(p=4, n=50000, model="i", epsilon=0.99, seed=9)
    X, labels, truth = generate(spec)
    out = X[labels]
    v = out.var(axis=0)
    assert np.all(np.abs(v - 30.0) < 1.5)
    assert np.max(np.abs(out.mean(axis=0))) < 0.1


def test_generation_is_deterministic():
    spec = SimSpec(p=10, n=50, model="ii", epsilon=0.2, eta=5.0, seed=10)
    X1, l1, t1 = generate(spec)
    X2, l2, t2 = generate(spec)
    assert np.array_equal(X1, X2)
    assert np.array_equal(l1, l2)
    assert np.array_equal(t1.omega, t2.omega)
    assert t1.adjacency.edges == t2.adjacency.edges


def test_replicate_seeds_distinct_and_stable():
    seeds = [replicate_seed(123, r) for r in range(50)]
    assert len(set(seeds)) == 50
    assert seeds == [replicate_seed(123, r) for r in range(50)]


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(p=5, n=10, model="iv", epsilon=0.1)
    with pytest.raises(ValueError):
        SimSpec(p=5, n=10, model="i", epsilon=1.0)
    with pytest.raises(ValueError):
        SimSpec(p=5, n=10, model="i", epsilon=0.1, ba_m=5)
