"""Plücker coordinates of a rectangular coefficient matrix, the Gr(4,2)
quadratic relation, and the two Gram matrices (Hermitian and ε-bilinear) whose
determinants drive the monotones."""

from __future__ import annotations

import numpy as np

from .bipartition import epsilon_apply
from .linalg import maximal_minors


def plucker_coordinates(z) -> np.ndarray:
    """The C(L, l) Plücker coordinates of an L x l matrix, in
    :func:`itertools.combinations` order of the row combinations.

    This is :func:`~tanglekit.linalg.maximal_minors` under the paper's name,
    kept because ``verify`` calls it and perfbench traces it by this name.
    """
    return maximal_minors(z)


def plucker_relation_residual(coords) -> float:
    """|P01 P23 - P02 P13 + P03 P12| for the six Gr(4,2) coordinates.

    Zero (up to round-off) whenever the coordinates come from an actual 4 x 2
    matrix; nonzero values witness a non-separable bivector.
    """
    c = np.asarray(coords, dtype=complex)  # rows (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
    if c.shape != (6,):
        raise ValueError(f"expected the 6 coordinates of Gr(4,2), got shape {c.shape}")
    return float(abs(c[0] * c[5] - c[1] * c[4] + c[2] * c[3]))


def gram_hermitian(z) -> np.ndarray:
    """Hermitian Gram matrix ``(a, b) -> sum_i conj(Z[i,a]) Z[i,b]``.

    Equals the reduced density matrix of the selected block when ``z`` is a
    state reshape; positive semidefinite by construction.
    """
    z = np.asarray(z, dtype=complex)
    return z.conj().T @ z


def gram_bilinear(z, m: int) -> np.ndarray:
    """ε-bilinear Gram matrix ``(a, b) -> Z_a . Z_b`` with 2**m rows.

    Antisymmetric when m is odd, symmetric when m is even, exactly: the form
    pairs row i with row 2**m - 1 - i, whose parity sign is (-1)**m times that
    of row i, so the rows below the middle give the transpose of the sum over
    the rows above it.  With ``X = Z_top^T (g Z)_top`` over the top half of the
    rows, the result is ``X + (-1)**m X^T``, one product over half the rows.
    The form is never materialized: a top-half row has top bit 0, so ``(g Z)_top``
    is :func:`~tanglekit.bipartition.epsilon_apply` of m - 1 qubits on the bottom half.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {z.shape}")
    if len(z) != 2**m:
        raise ValueError(f"expected {2**m} rows, got shape {z.shape}")
    if m == 0:  # one row, paired with itself
        return z.T @ epsilon_apply(m, z)
    half = len(z) // 2
    x = z[:half].T @ epsilon_apply(m - 1, z[half:])
    return x + x.T if m % 2 == 0 else x - x.T
