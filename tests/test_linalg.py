import itertools
from math import comb

import numpy as np
import pytest

from tanglekit.linalg import maximal_minors, pfaffian
from oracles import det_cofactor


def _cmat(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_pfaffian_2x2():
    a = 0.7 - 1.3j
    assert pfaffian([[0, a], [-a, 0]]) == a


def test_pfaffian_4x4_three_term_formula():
    rng = np.random.default_rng(4)
    m = _cmat(rng, (4, 4))
    a = m - m.T
    expected = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert abs(pfaffian(a) - expected) < 1e-14


def test_pfaffian_square_equals_determinant():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 6):
        for _ in range(30):
            m = _cmat(rng, (dim, dim))
            a = m - m.T
            pf = pfaffian(a)
            det = np.linalg.det(a)
            assert abs(pf**2 - det) <= 1e-10 * max(1.0, abs(det))


def test_pfaffian_empty_matrix_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_pfaffian_rejects_odd_dimension():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"^pfaffian needs a square matrix, got shape"):
        pfaffian(np.zeros((2, 4)))


def test_pfaffian_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        pfaffian([[0.0, 1.0], [-1.0 + 1e-6, 0.0]])


def test_pfaffian_symmetrizes_roundoff():
    rng = np.random.default_rng(6)
    m = _cmat(rng, (4, 4))
    a = m - m.T
    polluted = a + 1e-14 * np.ones((4, 4))
    assert pfaffian(polluted) == pfaffian((polluted - polluted.T) / 2.0)


def test_maximal_minors_square_case():
    rng = np.random.default_rng(7)
    z = _cmat(rng, (2, 2))
    [value] = maximal_minors(z)
    assert abs(value - np.linalg.det(z)) < 1e-14


def test_maximal_minors_4x2_pairwise_formula():
    rng = np.random.default_rng(8)
    z = _cmat(rng, (4, 2))
    minors = maximal_minors(z)
    rows = list(itertools.combinations(range(4), 2))
    assert minors.shape == (len(rows),) and minors.dtype == complex
    for (i, j), value in zip(rows, minors):
        expected = z[i, 0] * z[j, 1] - z[j, 0] * z[i, 1]
        assert abs(value - expected) < 1e-13


def test_maximal_minors_8x2_count_and_oracle():
    rng = np.random.default_rng(9)
    z = _cmat(rng, (8, 2))
    minors = maximal_minors(z)
    assert len(minors) == comb(8, 2) == 28
    for (i, j), value in zip(itertools.combinations(range(8), 2), minors):
        expected = det_cofactor(z[[i, j], :])
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_maximal_minors_count_matches_binomial():
    rng = np.random.default_rng(10)
    for rows, cols in [(5, 1), (6, 3), (7, 4), (4, 4)]:
        assert len(maximal_minors(_cmat(rng, (rows, cols)))) == comb(rows, cols)


def test_maximal_minors_rejects_wide_matrix():
    with pytest.raises(ValueError):
        maximal_minors(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="^expected a 2-d matrix, got ndim=1$"):
        maximal_minors(np.zeros(4))
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        maximal_minors([[1.0], [np.nan]])
