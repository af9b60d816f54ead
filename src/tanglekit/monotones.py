"""The bipartition family of entanglement monotones and its named special cases.

For a partition with ``L = 2**(N-n) >= l = 2**n`` and reshape ``Z``:

* ``D = l**2 * det(Z^dag Z)**(2/l)`` is the local-unitary monotone (for l = 2
  it is the linear entropy ``2 (1 - Tr rho^2)`` of the selected qubit).
* ``E = l**2 * |det(Z^T g Z)|**(2/l)`` with ``g`` the ε-form on the unselected
  factor is invariant under determinant-one SLOCC operations.

Both are homogeneous of degree 4 in the amplitudes, so unnormalized states are
accepted.  Each partition is reshaped once; :func:`_scaled` divides that
reshape by its Frobenius norm, to keep the determinants well conditioned, and
returns the exact ``|c|**4`` scale, which the private kernels
(:func:`_d_value`, :func:`_e_value`, :func:`_pfaffian_value`) multiply back in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bipartition import Partition, reshape
from .linalg import pfaffian
from .plucker import gram_bilinear, gram_hermitian
from .states import MAX_QUBITS, PureState

# The selections of the three square 4-qubit reshapes whose determinants are
# L, M and N, and their orientation signs, fixed once so that the determinant
# identity L + M + N = 0 holds; locked by a regression test.
FOUR_QUBIT_LMN_SELECTIONS = ((3, 4), (2, 4), (1, 4))
FOUR_QUBIT_LMN_SIGNS = (1.0, -1.0, 1.0)
# Diagonal shift of the unit-trace Gram matrix in the full-rank check; see
# _surely_full_rank for why it exceeds the round-off of any accepted size.
_FULL_RANK_SHIFT = 1e-8


@dataclass(frozen=True)
class InvariantReport:
    """Per-partition monotone values plus any named auxiliary invariant."""

    partition: Partition
    d_value: float
    e_value: float
    aux_name: str | None = None
    aux_value: complex | None = None
    rank_deficient: bool = False


def _scaled(z: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-Frobenius copy of a reshape and the |c|**4 homogeneity factor it carries."""
    scale = float(np.linalg.norm(z))
    if scale == 0.0:
        return z, 0.0
    return z / scale, scale**4


def _d_value(gram: np.ndarray, factor: float, partition: Partition) -> float:
    """D from the Hermitian Gram matrix of the scaled reshape."""
    if factor == 0.0:
        return 0.0
    det = float(np.linalg.det(gram).real)
    return factor * partition.l**2 * max(det, 0.0) ** (2.0 / partition.l)


def _e_value(z: np.ndarray, factor: float, partition: Partition) -> float:
    if factor == 0.0:
        return 0.0
    det = np.linalg.det(gram_bilinear(z, partition.m))
    return factor * partition.l**2 * float(abs(det)) ** (2.0 / partition.l)


def _pfaffian_value(z: np.ndarray, factor: float, partition: Partition) -> complex:
    if factor == 0.0:
        return 0j
    return factor * pfaffian(gram_bilinear(z, partition.m))


def d_monotone(state: PureState, partition: Partition) -> float:
    """LU monotone ``l**2 * det(Z^dag Z)**(2/l)``; in [0, 1] at unit norm."""
    z, factor = _scaled(reshape(state, partition))
    return _d_value(gram_hermitian(z), factor, partition)


def e_monotone(state: PureState, partition: Partition) -> float:
    """SLOCC monotone ``l**2 * |det(Z^T g Z)|**(2/l)``; at most D at unit norm."""
    return _e_value(*_scaled(reshape(state, partition)), partition)


def concurrence_squared(state: PureState) -> float:
    """``4 |det C|**2`` for a 2-qubit state, C the 2 x 2 amplitude matrix."""
    if state.num_qubits != 2:
        raise ValueError(f"concurrence is defined for 2 qubits, got {state.num_qubits}")
    c = state.amplitudes.reshape(2, 2)
    return 4.0 * abs(np.linalg.det(c)) ** 2


def three_tangle(state: PureState) -> float:
    """Genuine tripartite entanglement of a 3-qubit state (4 |hyperdeterminant|).

    Evaluated from the last-qubit partition; the other two give the same value
    by permutation invariance.
    """
    if state.num_qubits != 3:
        raise ValueError(f"three_tangle is defined for 3 qubits, got {state.num_qubits}")
    return e_monotone(state, Partition(3, (3,)))


def four_qubit_h(state: PureState) -> complex:
    """The degree-2 SLOCC invariant H of a 4-qubit state.

    Written directly in decimal amplitude labels (an independent path from the
    bilinear-form evaluation):
    ``C0 C15 - C2 C13 - C4 C11 + C6 C9 - C8 C7 + C10 C5 + C12 C3 - C14 C1``.
    Satisfies ``e_monotone({4}) = 4 |H|**2``.
    """
    if state.num_qubits != 4:
        raise ValueError(f"H is defined for 4 qubits, got {state.num_qubits}")
    c = state.amplitudes
    return complex(
        c[0] * c[15] - c[2] * c[13] - c[4] * c[11] + c[6] * c[9]
        - c[8] * c[7] + c[10] * c[5] + c[12] * c[3] - c[14] * c[1]
    )


def four_qubit_lmn(state: PureState) -> tuple[complex, complex, complex]:
    """The degree-4 invariants (L, M, N) of a 4-qubit state, with L + M + N = 0.

    L, M, N are the determinants of the square reshapes selecting
    :data:`FOUR_QUBIT_LMN_SELECTIONS` ({3,4}, {2,4} and {1,4}), multiplied by
    the fixed orientation signs :data:`FOUR_QUBIT_LMN_SIGNS`; ``e_monotone`` of
    those partitions equals 16|L|, 16|M|, 16|N|.
    """
    if state.num_qubits != 4:
        raise ValueError(f"L/M/N are defined for 4 qubits, got {state.num_qubits}")
    values = []
    for sign, selected in zip(FOUR_QUBIT_LMN_SIGNS, FOUR_QUBIT_LMN_SELECTIONS):
        z = reshape(state, Partition(4, selected))
        values.append(sign * complex(np.linalg.det(z)))
    return tuple(values)


def n_tangle(state: PureState) -> float:
    """The single-qubit-partition SLOCC monotone for general N (>= 2).

    Reduces to the concurrence squared at N = 2 and the three-tangle at N = 3;
    permutation invariant for N even.
    """
    n = state.num_qubits
    if n < 2:
        raise ValueError(f"n_tangle needs at least 2 qubits, got {n}")
    return e_monotone(state, Partition(n, (n,)))


def five_qubit_pfaffian_monotone(state: PureState, partition: Partition) -> float:
    """The n = 2 monotone of a 5-qubit state via the 3-term Pfaffian.

    The ε-bilinear Gram matrix is 4 x 4 antisymmetric (3 unselected qubits), so
    ``|det|**(1/2) = |Pf|`` and the monotone is ``16 |Pf|``; agrees with the
    generic ``e_monotone`` determinant path.
    """
    if state.num_qubits != 5:
        raise ValueError(
            f"the Pfaffian form is for 5-qubit states, got {state.num_qubits}"
        )
    if partition.n != 2:
        raise ValueError(f"the Pfaffian form needs n = 2, got n = {partition.n}")
    return 16.0 * abs(_pfaffian_value(*_scaled(reshape(state, partition)), partition))


def meyer_wallach_q(state: PureState) -> float:
    """Average single-qubit linear entropy of a 3-qubit state (the Q measure)."""
    if state.num_qubits != 3:
        raise ValueError(f"defined for 3 qubits, got {state.num_qubits}")
    return sum(d_monotone(state, Partition(3, (k,))) for k in (1, 2, 3)) / 3.0


def admissible_partitions(num_qubits: int) -> list[Partition]:
    """All partitions with 1 <= n <= N/2, deduplicating complements at n = N/2.

    For n = N/2 the complementary subset induces the transposed reshape with
    identical monotone values, so only subsets containing the last qubit are
    kept.  Counts: C(N, n) per n < N/2 and C(N, N/2)/2 at n = N/2.
    """
    if num_qubits < 2:
        raise ValueError(f"need at least 2 qubits, got {num_qubits}")
    parts = []
    for n in range(1, num_qubits // 2 + 1):
        for selected in itertools.combinations(range(1, num_qubits + 1), n):
            if 2 * n == num_qubits and num_qubits not in selected:
                continue
            parts.append(Partition(num_qubits, selected))
    return parts


def _aux_invariant(
    state: PureState, partition: Partition, z: np.ndarray, factor: float
):
    n_total = state.num_qubits
    if n_total == 4 and partition.selected == (4,):
        return "H", four_qubit_h(state)
    if n_total == 4 and partition.selected in FOUR_QUBIT_LMN_SELECTIONS:
        idx = FOUR_QUBIT_LMN_SELECTIONS.index(partition.selected)
        return "LMN"[idx], four_qubit_lmn(state)[idx]
    if n_total == 5 and partition.n == 2:
        return "pfaffian", _pfaffian_value(z, factor, partition)
    return None, None


def _surely_full_rank(gram: np.ndarray, factor: float, partition: Partition) -> bool:
    """True only if ``np.linalg.matrix_rank`` of the reshape is l.

    ``gram`` is the Hermitian Gram matrix G of the unit-Frobenius reshape Z, so
    tr G = 1 and sigma_max(Z) <= 1.  False means "not settled": the caller asks
    the SVD.  Why a Cholesky factorization of ``G - s I`` that completes
    settles it, with u = 2**-53 and s = _FULL_RANK_SHIFT:

    * ``matrix_rank`` counts the singular values above max(L, l) eps sigma_max.
      That cut is relative, so scaling Z changes nothing, and for at most
      MAX_QUBITS = 26 qubits (l <= 2**13, L <= 2**25) it is below
      2**25 * 2**-52 < 7.5e-9.
    * Gram round-off: the computed G is Z^H Z + E1 with ||E1|| <~ sqrt(2) L u
      (complex dot products of length L whose terms add up to tr G = 1).
    * Cholesky backward error (Higham, *Accuracy and Stability of Numerical
      Algorithms*, Thm. 10.3): a factorization of A = G - s I that completes
      gives R with R^H R = A + E2, |E2| <= gamma_(l+1) |R^H| |R|.  By
      Cauchy-Schwarz on the columns of R, ||E2|| <= gamma_(l+1) tr(R^H R),
      so ||E2|| <~ sqrt(2) (l + 1) u, far below even the cruder l**2 u.
    * R^H R is positive definite, so lambda_min(Z^H Z) > s - sqrt(2) (L + l + 3) u
      > 1e-8 - 6e-9, i.e. sigma_min(Z) > 6e-5: four orders of magnitude above
      the cut and the SVD's own error, which is a small multiple of it.
    """
    if factor == 0.0 or partition.num_qubits > MAX_QUBITS:
        return False
    try:
        np.linalg.cholesky(gram - _FULL_RANK_SHIFT * np.eye(partition.l))
    except np.linalg.LinAlgError:
        return False
    return True


def partition_report(state: PureState, partition: Partition) -> InvariantReport:
    """Monotone values, named auxiliary invariant, and rank flag for one partition.

    The partition is reshaped once and its Hermitian Gram matrix formed once.
    The rank flag comes from a Cholesky check of that Gram matrix when it
    certifies full rank, else from the SVD rank of the unscaled reshape.
    """
    z = reshape(state, partition)
    scaled, factor = _scaled(z)
    gram = gram_hermitian(scaled)
    aux_name, aux_value = _aux_invariant(state, partition, scaled, factor)
    return InvariantReport(
        partition=partition,
        d_value=_d_value(gram, factor, partition),
        e_value=_e_value(scaled, factor, partition),
        aux_name=aux_name,
        aux_value=aux_value,
        rank_deficient=not _surely_full_rank(gram, factor, partition)
        and bool(np.linalg.matrix_rank(z) < partition.l),
    )


def all_partitions_report(state: PureState) -> list[InvariantReport]:
    """One :class:`InvariantReport` per admissible partition of the state."""
    return [
        partition_report(state, p) for p in admissible_partitions(state.num_qubits)
    ]
