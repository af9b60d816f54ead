import itertools
from math import comb

import numpy as np
import pytest

from tanglekit.bipartition import Partition, epsilon_matrix, reshape
from tanglekit.plucker import (
    PluckerVector,
    gram_bilinear,
    gram_hermitian,
    plucker_coordinates,
    plucker_relation_residual,
)
from tanglekit.states import make_named_state, random_state
from oracles import det_cofactor, epsilon_entry_rule

# Coordinate order of Gr(4, 2): the row pairs in itertools.combinations order.
PAIRS_OF_4 = list(itertools.combinations(range(4), 2))


def _cmat(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_coordinates_vanish_for_product_state():
    z = reshape(make_named_state("product-zero", 3), Partition(3, (3,)))
    assert np.all(plucker_coordinates(z).coords == 0)


def test_coordinates_of_ghz3():
    z = reshape(make_named_state("ghz", 3), Partition(3, (3,)))
    p = plucker_coordinates(z)
    idx = PAIRS_OF_4.index((0, 3))
    assert abs(p.coords[idx] - 0.5) < 1e-15
    others = np.delete(p.coords, idx)
    assert np.all(others == 0)


def test_coordinates_match_pairwise_formula():
    rng = np.random.default_rng(50)
    z = _cmat(rng, (8, 2))
    p = plucker_coordinates(z)
    assert p.coords.shape == (28,)
    for rank, (i, j) in enumerate(itertools.combinations(range(8), 2)):
        expected = z[i, 0] * z[j, 1] - z[j, 0] * z[i, 1]
        assert abs(p.coords[rank] - expected) < 1e-13


def test_relation_residual_vanishes_on_actual_matrices():
    rng = np.random.default_rng(51)
    for _ in range(25):
        p = plucker_coordinates(_cmat(rng, (4, 2)))
        assert plucker_relation_residual(p) <= 1e-12


def test_relation_residual_detects_non_separable_bivector():
    coords = np.zeros(6, dtype=complex)
    coords[PAIRS_OF_4.index((0, 1))] = 1.0
    coords[PAIRS_OF_4.index((2, 3))] = 1.0
    assert abs(plucker_relation_residual(PluckerVector(4, 2, coords)) - 1.0) < 1e-15


def test_relation_residual_zero_vector():
    assert plucker_relation_residual(PluckerVector(4, 2, np.zeros(6))) == 0.0


def test_relation_residual_rejects_other_grassmannians():
    coords = np.zeros(comb(8, 2), dtype=complex)
    with pytest.raises(ValueError):
        plucker_relation_residual(PluckerVector(8, 2, coords))


def test_plucker_vector_validates_length():
    with pytest.raises(ValueError):
        PluckerVector(4, 2, np.zeros(5))


def test_gauge_identity_leaves_coordinates():
    rng = np.random.default_rng(52)
    z = _cmat(rng, (6, 3))
    assert np.array_equal(
        plucker_coordinates(z @ np.eye(3)).coords,
        plucker_coordinates(z).coords,
    )


def test_gauge_two_column_scaling():
    rng = np.random.default_rng(53)
    z = _cmat(rng, (4, 2))
    s = _cmat(rng, (2, 2))
    det_s = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    left = plucker_coordinates(z @ s).coords
    right = det_s * plucker_coordinates(z).coords
    assert np.abs(left - right).max() <= 1e-12 * max(1.0, float(np.abs(right).max()))


def test_gauge_covariance_random():
    rng = np.random.default_rng(54)
    for rows, cols in [(4, 2), (8, 2), (6, 3), (8, 4)]:
        z = _cmat(rng, (rows, cols))
        s = _cmat(rng, (cols, cols))
        left = plucker_coordinates(z @ s).coords
        right = complex(np.linalg.det(s)) * plucker_coordinates(z).coords
        assert np.abs(left - right).max() <= 1e-10 * max(1.0, float(np.abs(right).max()))


def test_gram_hermitian_orthonormal_columns():
    rng = np.random.default_rng(55)
    q, _ = np.linalg.qr(_cmat(rng, (6, 3)))
    assert np.abs(gram_hermitian(q) - np.eye(3)).max() < 1e-14


def test_gram_hermitian_ghz3():
    z = reshape(make_named_state("ghz", 3), Partition(3, (3,)))
    assert np.abs(gram_hermitian(z) - np.diag([0.5, 0.5])).max() < 1e-15


def test_gram_hermitian_cauchy_binet():
    rng = np.random.default_rng(56)
    for rows, cols in [(4, 2), (8, 2), (16, 2), (8, 4), (16, 4)]:
        z = _cmat(rng, (rows, cols)) / np.sqrt(rows)
        det = complex(np.linalg.det(gram_hermitian(z)))
        minor_sum = sum(abs(v) ** 2 for v in plucker_coordinates(z).coords)
        assert abs(det - minor_sum) <= 1e-10 * max(1.0, abs(minor_sum))


def test_gram_bilinear_diagonal_vanishes_for_odd_m():
    state = random_state(4, seed=57)
    z = reshape(state, Partition(4, (4,)))
    g = gram_bilinear(z, 3)
    assert g[0, 0] == 0 and g[1, 1] == 0


def test_gram_bilinear_ghz3_determinant():
    z = reshape(make_named_state("ghz", 3), Partition(3, (3,)))
    g = gram_bilinear(z, 2)
    assert abs(g[0, 1] - 0.5) < 1e-15
    assert abs(g[0, 0]) < 1e-15 and abs(g[1, 1]) < 1e-15
    det = complex(np.linalg.det(g))
    assert abs(det + 0.25) < 1e-15
    assert abs(4.0 * abs(det) - 1.0) < 1e-14


def test_gram_bilinear_symmetry_follows_m():
    # Exact: the half-rows product X enters as X + (-1)**m X^T.
    rng = np.random.default_rng(58)
    for m in range(1, 8):
        for cols in (2, 4, 8):
            z = _cmat(rng, (2**m, cols))
            g = gram_bilinear(z, m)
            assert np.array_equal(g, (-1) ** m * g.T)


def test_gram_bilinear_matches_the_materialized_form():
    rng = np.random.default_rng(61)
    for m in range(0, 8):
        for cols in (1, 2, 4):
            z = _cmat(rng, (2**m, cols)) / np.sqrt(2.0**m)
            expected = z.T @ epsilon_matrix(m) @ z
            assert np.abs(gram_bilinear(z, m) - expected).max() <= 1e-12


def test_gram_bilinear_cauchy_binet_raised_minors():
    rng = np.random.default_rng(59)
    for m, cols in [(2, 2), (3, 2), (3, 4), (4, 2)]:
        z = _cmat(rng, (2**m, cols)) / np.sqrt(2.0**m)
        det = complex(np.linalg.det(gram_bilinear(z, m)))
        gz = epsilon_entry_rule(m) @ z
        minor_sum = 0j
        for combo in itertools.combinations(range(2**m), cols):
            minor_sum += det_cofactor(gz[combo, :]) * det_cofactor(z[combo, :])
        assert abs(det - minor_sum) <= 1e-10 * max(1.0, abs(minor_sum))


def test_gram_bilinear_full_contraction_for_two_columns():
    # the two-index raised contraction, summed over all index pairs, equals
    # twice the Gram determinant
    rng = np.random.default_rng(60)
    for m in (2, 3):
        z = _cmat(rng, (2**m, 2))
        det = complex(np.linalg.det(gram_bilinear(z, m)))
        p = np.outer(z[:, 0], z[:, 1]) - np.outer(z[:, 1], z[:, 0])
        g = epsilon_entry_rule(m)
        total = np.einsum("ab,ag,bd,gd->", p, g, g, p)
        assert abs(2.0 * det - total) <= 1e-12 * max(1.0, abs(total))


def test_gram_bilinear_rejects_row_mismatch():
    # 3 rows with m = 2: the bottom half alone has the 2 rows of m - 1 = 1.
    for z, m in ((np.zeros((4, 2)), 3), (np.zeros((3, 2)), 2)):
        with pytest.raises(ValueError, match=r"^expected \d+ rows, got shape"):
            gram_bilinear(z, m)


def test_gram_bilinear_rejects_a_vector():
    # epsilon_apply accepts a vector of 2**m entries; only this guard refuses it.
    with pytest.raises(ValueError, match="expected a matrix"):
        gram_bilinear(np.zeros(8), 3)
