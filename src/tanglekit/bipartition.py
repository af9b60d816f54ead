"""Bipartition bookkeeping: reshape an N-qubit state into the L x l coefficient
matrix of a selected qubit subset, and the epsilon-tensor bilinear form on the
unselected factor.

Conventions (these fix every identity downstream):

* Qubit positions are 1-based; position 1 is the most significant bit of the
  amplitude index.
* For a partition selecting qubits ``k_1 < ... < k_n``, the reshape ``Z`` is
  ``L x l`` with ``L = 2**(N-n)`` rows and ``l = 2**n`` columns.  The row index
  is read off the bits at the unselected positions (in increasing position
  order, big-endian) and the column index off the bits at the selected
  positions (same order).
* The bilinear form ``g`` on the row space is the (N-n)-fold tensor power of
  ``[[0, 1], [-1, 0]]``; its only nonzero entries are
  ``g[i, j] = (-1)**popcount(i)`` at ``j = bitwise complement of i``, so it is
  applied implicitly via a vector reversal and a parity sign, never
  materialized (except in tests).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cache, reduce

import numpy as np

from .states import PureState

EPSILON_2X2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class Partition:
    """An ordered subset of qubit positions inducing the L x l reshape.

    ``n`` qubits are selected and ``m`` are not, so ``L = 2**m`` and
    ``l = 2**n``.  These four are set once per instance, as the monotones read
    them on every call; equality, hash and repr see only the two fields above.
    """

    num_qubits: int
    selected: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)
    m: int = field(init=False, repr=False, compare=False)
    L: int = field(init=False, repr=False, compare=False)
    l: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            n_total = operator.index(self.num_qubits)
            sel = tuple(map(operator.index, self.selected))
        except TypeError as exc:
            raise ValueError(f"qubit count and positions must be integers: {exc}") from None
        object.__setattr__(self, "num_qubits", n_total)
        object.__setattr__(self, "selected", sel)
        if len(sel) < 1:
            raise ValueError("partition must select at least one qubit")
        prev = 0
        for k in sel:
            if k <= prev or k > n_total:
                raise ValueError(
                    f"selected positions must be strictly increasing in "
                    f"[1, {n_total}], got {sel}"
                )
            prev = k
        if 2 * len(sel) > n_total:
            raise ValueError(
                f"at most N/2 qubits may be selected (n={len(sel)}, N={n_total}); "
                f"use the complementary subset instead"
            )
        n, m = len(sel), n_total - len(sel)
        for name, value in (("n", n), ("m", m), ("L", 2**m), ("l", 2**n)):
            object.__setattr__(self, name, value)

    @property
    def unselected(self) -> tuple[int, ...]:
        chosen = set(self.selected)
        return tuple(k for k in range(1, self.num_qubits + 1) if k not in chosen)

    @property
    def label(self) -> str:
        return ",".join(str(k) for k in self.selected)

    @classmethod
    def from_label(cls, num_qubits: int, label: str) -> "Partition":
        """Parse the CLI syntax, e.g. ``"3,4"``. Positions are ASCII decimals:
        ``int`` alone would read the typo ``"1_2"`` as 12."""
        if not re.fullmatch(r" *[0-9]+ *(, *[0-9]+ *)*", label):
            raise ValueError(f"malformed partition spec {label!r}")
        return cls(num_qubits, tuple(int(tok) for tok in label.split(",")))


def _reshape_axes(partition: Partition) -> list[int]:
    """The tensor axes in reshape order: unselected qubits first, then selected."""
    return [k - 1 for k in partition.unselected] + [k - 1 for k in partition.selected]


def reshape(state: PureState, partition: Partition) -> np.ndarray:
    """The L x l coefficient matrix of ``state`` for the given partition; ValueError
    unless ``partition`` splits a register of ``state``'s size."""
    n_total = state.num_qubits
    if partition.num_qubits != n_total:
        raise ValueError(
            f"partition is for {partition.num_qubits} qubits, state has {n_total}"
        )
    tensor = state.amplitudes.reshape((2,) * n_total)
    return tensor.transpose(_reshape_axes(partition)).reshape(partition.L, partition.l)


def unreshape(z: np.ndarray, partition: Partition) -> PureState:
    """Inverse of :func:`reshape`: reassemble the amplitude vector."""
    n_total = partition.num_qubits
    if z.shape != (partition.L, partition.l):
        raise ValueError(
            f"expected shape {(partition.L, partition.l)}, got {z.shape}"
        )
    inverse = np.argsort(_reshape_axes(partition))
    tensor = np.asarray(z, dtype=complex).reshape((2,) * n_total).transpose(inverse)
    return PureState(n_total, tensor.reshape(-1))


@cache
def parity_signs(m: int) -> np.ndarray:
    """(-1)**popcount(i) for i in range(2**m), built once per m and read-only.

    The table depends only on m, so every partition with m unselected qubits
    shares one copy, at most a quarter of the bytes of a state that uses it.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    signs = reduce(np.kron, [np.array([1.0, -1.0])] * m, np.array([1.0]))
    signs.flags.writeable = False
    return signs


def epsilon_apply(m: int, v) -> np.ndarray:
    """Apply the ε-form along axis 0: ``(g v)[i] = (-1)**popcount(i) * v[~i]``.

    ``v`` is a vector of length ``2**m`` or a matrix with ``2**m`` rows.  The
    bitwise complement within m bits is ``2**m - 1 - i``, so the whole operation
    is a row reversal times a parity sign, O(size of v).
    """
    vec = np.asarray(v, dtype=complex)
    if vec.ndim not in (1, 2) or vec.shape[0] != 2**m:
        raise ValueError(f"expected {2**m} rows, got shape {vec.shape}")
    signs = parity_signs(m)
    return (signs if vec.ndim == 1 else signs[:, None]) * vec[::-1]


@cache
def epsilon_matrix(m: int) -> np.ndarray:
    """Materialized 2**m x 2**m matrix of the ε-form (tests and oracles only),
    built once per m and read-only, like :func:`parity_signs`."""
    matrix = reduce(np.kron, [EPSILON_2X2] * m, np.array([[1.0]]))
    matrix.flags.writeable = False
    return matrix

