"""Plücker coordinates of a rectangular coefficient matrix, the Gr(4,2)
quadratic relation, gauge covariance, and the two Gram matrices (Hermitian and
ε-bilinear) whose determinants drive the monotones."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .bipartition import epsilon_apply
from .linalg import maximal_minors


@dataclass(frozen=True)
class PluckerVector:
    """The C(L, l) maximal minors of an L x l matrix, in
    :func:`itertools.combinations` order of the row combinations."""

    rows: int
    cols: int
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        expected = comb(self.rows, self.cols)
        if coords.shape != (expected,):
            raise ValueError(
                f"expected {expected} coordinates for Gr({self.rows}, {self.cols}), "
                f"got shape {coords.shape}"
            )
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)


def plucker_coordinates(z) -> PluckerVector:
    """All maximal minors of ``z`` as a :class:`PluckerVector`."""
    z = np.asarray(z, dtype=complex)
    minors = maximal_minors(z)
    coords = np.array([value for _, value in minors], dtype=complex)
    return PluckerVector(z.shape[0], z.shape[1], coords)


def plucker_relation_residual(p: PluckerVector) -> float:
    """|P01 P23 - P02 P13 + P03 P12| for Gr(4,2) coordinates.

    Zero (up to round-off) whenever the coordinates come from an actual 4 x 2
    matrix; nonzero values witness a non-separable bivector.
    """
    if (p.rows, p.cols) != (4, 2):
        raise ValueError(
            f"the quadratic relation is implemented for Gr(4,2) only, "
            f"got Gr({p.rows},{p.cols})"
        )
    c = p.coords  # rows (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
    return float(abs(c[0] * c[5] - c[1] * c[4] + c[2] * c[3]))


def gauge_transform(z, s) -> np.ndarray:
    """Column mixing ``Z -> Z S``; Plücker coordinates rescale by det(S)."""
    z = np.asarray(z, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape != (z.shape[1], z.shape[1]):
        raise ValueError(
            f"gauge matrix must be {z.shape[1]} x {z.shape[1]}, got shape {s.shape}"
        )
    return z @ s


def gram_hermitian(z) -> np.ndarray:
    """Hermitian Gram matrix ``(a, b) -> sum_i conj(Z[i,a]) Z[i,b]``.

    Equals the reduced density matrix of the selected block when ``z`` is a
    state reshape; positive semidefinite by construction.
    """
    z = np.asarray(z, dtype=complex)
    return z.conj().T @ z


def gram_bilinear(z, m: int) -> np.ndarray:
    """ε-bilinear Gram matrix ``(a, b) -> Z_a . Z_b`` with 2**m rows.

    Antisymmetric when m is odd, symmetric when m is even; the form is applied
    by :func:`~tanglekit.bipartition.epsilon_apply`, never materialized.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[0] != 2**m:
        raise ValueError(f"expected 2**{m} = {2**m} rows, got shape {z.shape}")
    # Named rather than inlined: as a temporary it raised the benchmark's cli-io
    # peak RSS from 107 to 113 MB (18-qubit reshapes; allocator reuse).
    gz = epsilon_apply(m, z)
    return z.T @ gz
