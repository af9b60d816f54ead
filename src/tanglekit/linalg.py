"""Dense complex linear-algebra kernels: Pfaffians and maximal minors."""

from __future__ import annotations

import itertools

import numpy as np

# Inputs farther than this from antisymmetric are rejected; closer ones are
# symmetrized to (A - A^T)/2.  The odd-m ε-Gram is exactly antisymmetric (it is
# built as X - X^T), so this only settles callers' round-off-polluted matrices.
ANTISYMMETRY_TOL = 1e-12


def _as_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def pfaffian(matrix) -> complex:
    """Pfaffian of an even-dimensional antisymmetric complex matrix.

    Uses recursive expansion along the first row, which is exact and cheap for
    the small dimensions (<= 8) this library needs.  The input must satisfy
    max|A + A^T| <= 1e-12 and is symmetrized before expansion.
    """
    a = _as_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"pfaffian needs a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    if dim % 2 != 0:
        raise ValueError(f"pfaffian needs even dimension, got {dim}")
    if dim > 0:
        asym = float(np.abs(a + a.T).max())
        if asym > ANTISYMMETRY_TOL:
            raise ValueError(
                f"matrix is not antisymmetric (max |A + A^T| entry = {asym:.3e})"
            )
    a = (a - a.T) / 2.0
    return _pfaffian_expand(a)


def _pfaffian_expand(a: np.ndarray) -> complex:
    dim = a.shape[0]
    if dim == 0:
        return 1.0 + 0.0j
    if dim == 2:
        return complex(a[0, 1])
    total = 0.0 + 0.0j
    rest = range(1, dim)
    for k, j in enumerate(rest):
        keep = [i for i in rest if i != j]
        sub = a[np.ix_(keep, keep)]
        total += (-1.0) ** k * a[0, j] * _pfaffian_expand(sub)
    return complex(total)


def maximal_minors(matrix) -> np.ndarray:
    """All maximal minors of a rows >= cols matrix, as one complex array.

    One minor per cols-sized row subset, in :func:`itertools.combinations`
    order of the strictly increasing row tuples.
    """
    z = _as_matrix(matrix)
    rows, cols = z.shape
    if rows < cols:
        raise ValueError(f"maximal_minors needs rows >= cols, got shape {z.shape}")
    members = list(itertools.combinations(range(rows), cols))
    return np.linalg.det(z[np.array(members, dtype=np.intp)])
