import numpy as np
import pytest

from robustggm import (
    DegenerateColumn,
    DimensionMismatch,
    EdgeSet,
    common_edges,
    edge_set,
    mse_offdiag,
    normalize,
    score_point,
    total_agreement,
)
from robustggm.metrics import true_positive_rate


def make_edges(p, pairs):
    return EdgeSet(p=p, edges=frozenset(pairs))


# --- edge_set -------------------------------------------------------------------

def test_edge_set_diagonal_empty():
    assert len(edge_set(np.diag([1.0, 2.0, 3.0]))) == 0


def test_edge_set_four_edge_precision():
    om = np.eye(5)
    for i, j in [(0, 1), (0, 2), (1, 4), (2, 3)]:
        om[i, j] = om[j, i] = 0.3
    assert edge_set(om).edges == {(1, 2), (1, 3), (2, 5), (3, 4)}


def test_edge_set_symmetric_input():
    rng = np.random.default_rng(40)
    a = rng.standard_normal((4, 4))
    om = (a + a.T) / 2
    assert edge_set(om).edges == edge_set(om.T).edges


def test_edge_set_reads_exact_nonzeros():
    """No absolute tolerance: an edge of a precision in small units stays an edge."""
    om = np.eye(4)
    om[0, 1] = om[1, 0] = 1e-9
    om[0, 2] = om[2, 0] = -1e-300
    om[1, 3] = om[3, 1] = 0.0
    assert edge_set(om).edges == {(1, 2), (1, 3)}


# --- score_point: a path point's ROC coordinates (nnz, tpr) and MSE -----------

def _om(p, pairs, val=0.3):
    om = np.eye(p)
    for i, j in pairs:
        om[i - 1, j - 1] = om[j - 1, i - 1] = val
    return om


def _roc(omega, truth):
    s = score_point(edge_set(omega), omega, truth, _om(truth.p, truth.edges))
    return s["nnz"], s["tpr"]


def test_roc_perfect_recovery_point():
    truth = make_edges(5, {(1, 2), (1, 3), (2, 5), (3, 4)})
    om = _om(5, truth.edges)
    assert _roc(om, truth) == (8, 1.0)
    assert score_point(edge_set(om), om, truth, om)["mse_offdiag"] == 0.0


def test_roc_empty_support_point():
    truth = make_edges(4, {(1, 2)})
    assert _roc(np.eye(4), truth) == (0, 0.0)


def test_roc_matches_recount_oracle():
    rng = np.random.default_rng(41)
    truth_pairs = {(1, 2), (2, 3), (1, 4)}
    truth = make_edges(5, truth_pairs)
    truth_om = _om(5, truth_pairs, val=-0.2)
    all_pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    for _ in range(6):
        k = int(rng.integers(0, 5))
        idx = rng.choice(len(all_pairs), size=k, replace=False)
        pairs = {all_pairs[i] for i in idx}
        om = _om(5, pairs)
        hits = sum(1 for e in pairs if e in truth_pairs)
        naive = sum(
            (om[i, j] - truth_om[i, j]) ** 2 for i in range(5) for j in range(5) if i != j
        ) / 20
        got = score_point(edge_set(om), om, truth, truth_om)
        assert (got["nnz"], got["tpr"]) == (2 * len(pairs), hits / len(truth_pairs))
        assert 0.0 <= got["tpr"] <= 1.0
        assert got["mse_offdiag"] == pytest.approx(naive, rel=1e-12)


def test_roc_tpr_one_when_truth_covered():
    truth = make_edges(5, {(1, 2), (2, 3)})
    superset = {(1, 2), (2, 3), (1, 4), (3, 5)}
    assert _roc(_om(5, superset), truth) == (8, 1.0)


# --- mse ------------------------------------------------------------------------

def test_mse_identical():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((4, 4))
    assert mse_offdiag(a, a.copy()) == 0.0


def test_mse_single_pair_perturbation():
    a = np.eye(3)
    b = a.copy()
    b[0, 1] = b[1, 0] = 0.1
    assert mse_offdiag(b, a) == pytest.approx(2 * 0.01 / 6, abs=1e-15)


def test_mse_matches_double_loop():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5))
    naive = sum(
        (a[i, j] - b[i, j]) ** 2
        for i in range(5)
        for j in range(5)
        if i != j
    ) / (5 * 4)
    assert mse_offdiag(a, b) == pytest.approx(naive, abs=1e-14)


def test_mse_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mse_offdiag(np.eye(3), np.eye(4))


# --- total agreement / common edges ------------------------------------------------

def sets_with_overlap(p, size, overlap):
    """Two edge sets of equal size with the requested intersection."""
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    a = pairs[:size]
    b = pairs[:overlap] + pairs[size : 2 * size - overlap]
    assert len(b) == size
    return make_edges(p, set(a)), make_edges(p, set(b))


TABLE_SD = [  # (common edges, rounded total agreement), |A| = |B| = 9, p = 8
    (3, 0.57),
    (9, 1.00),
    (9, 1.00),
    (9, 1.00),
    (4, 0.64),
    (5, 0.71),
    (9, 1.00),
    (7, 0.86),
    (4, 0.64),
    (6, 0.79),
]


def test_total_agreement_reproduces_reported_pairs():
    for c, expected in TABLE_SD:
        a, b = sets_with_overlap(8, 9, c)
        assert common_edges(a, b) == c
        assert round(total_agreement(a, b), 2) == expected


def test_total_agreement_identity_and_symmetry():
    rng = np.random.default_rng(44)
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for _ in range(20):
        a = make_edges(6, {pairs[k] for k in rng.choice(15, size=5, replace=False)})
        b = make_edges(6, {pairs[k] for k in rng.choice(15, size=7, replace=False)})
        assert total_agreement(a, b) == total_agreement(b, a)
        assert total_agreement(a, a) == 1.0
        assert (total_agreement(a, b) == 1.0) == (a.edges == b.edges)


def test_common_edges_brute_force():
    rng = np.random.default_rng(45)
    pairs = [(i, j) for i in range(1, 8) for j in range(i + 1, 8)]
    for _ in range(20):
        a = {pairs[k] for k in rng.choice(len(pairs), size=6, replace=False)}
        b = {pairs[k] for k in rng.choice(len(pairs), size=8, replace=False)}
        brute = sum(1 for e in a if e in b)
        assert common_edges(make_edges(7, a), make_edges(7, b)) == brute
    assert common_edges(make_edges(4, {(1, 2)}), make_edges(4, {(3, 4)})) == 0
    nine = make_edges(8, set(pairs[:9]))
    assert common_edges(nine, nine) == 9


def test_edgeset_validation():
    with pytest.raises(ValueError):
        make_edges(3, {(1, 4)})
    with pytest.raises(ValueError):
        make_edges(3, {(2, 2)})
    with pytest.raises(DimensionMismatch):
        total_agreement(make_edges(3, set()), make_edges(4, set()))


# --- normalize ---------------------------------------------------------------------

def test_normalize_sd_moments():
    rng = np.random.default_rng(46)
    X = rng.gamma(3.0, size=(400, 3)) * 10
    Z = normalize(X, "sd")
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(Z.var(axis=0), 1.0, atol=1e-10)


def test_normalize_mad_center_survives_corruption():
    rng = np.random.default_rng(47)
    x = rng.standard_normal(101)
    X = x[:, None]
    center = np.median(x)
    corrupted = x.copy()
    top = np.argsort(x)[-40:]  # corrupt 40 of 101 entries, all above center
    corrupted[top] += 1e6
    Zc = normalize(corrupted[:, None], "mad")
    # the corrupted column's center is still the original median
    np.testing.assert_allclose(
        np.median(corrupted), center, atol=1e-12
    )
    assert np.isfinite(Zc).all()


def test_normalize_mad_scale_consistency():
    rng = np.random.default_rng(48)
    x = rng.standard_normal((200000, 1))
    zm = normalize(x, "mad")
    zs = normalize(x, "sd")
    # adjusted MAD of a large normal sample matches the sd within 5%
    ratio = zm.std() / zs.std()
    assert abs(1.0 - 1.0 / ratio) < 0.05


def test_normalize_degenerate_column():
    X = np.ones((20, 2))
    X[:, 0] = np.arange(20)
    with pytest.raises(DegenerateColumn):
        normalize(X, "sd")
    # a column that is constant in the middle has zero MAD but positive sd
    Y = np.zeros((21, 1))
    Y[0] = -5.0
    Y[1] = 5.0
    with pytest.raises(DegenerateColumn):
        normalize(Y, "mad")
    normalize(Y, "sd")


def test_true_positive_rate():
    truth = make_edges(4, {(1, 2), (2, 3), (3, 4)})
    assert true_positive_rate(make_edges(4, {(1, 2), (1, 4)}), truth) == 1 / 3
    assert true_positive_rate(truth, truth) == 1.0
    assert true_positive_rate(truth, make_edges(4, set())) == 0.0
