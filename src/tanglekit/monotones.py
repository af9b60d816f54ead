"""The bipartition family of entanglement monotones and its named special cases.

For a partition with ``L = 2**(N-n) >= l = 2**n`` and reshape ``Z``:

* ``D = l**2 * det(Z^dag Z)**(2/l)`` is the local-unitary monotone (for l = 2
  it is the linear entropy ``2 (1 - Tr rho^2)`` of the selected qubit).
* ``E = l**2 * |det(Z^T g Z)|**(2/l)`` with ``g`` the ε-form on the unselected
  factor is invariant under determinant-one SLOCC operations.

When L = l, Gr(l, l) is a point with one Plücker coordinate, det Z, and
``|det(Z^T g Z)| = |det Z|**2 = det(Z^H Z)`` as ``|det g| = 1``: E = D exactly.
That identity is exact in the math; the computed square E is D's value, taken
from the Hermitian Gram matrix, so it carries that matrix's kappa(Z)**2
round-off where ``|det Z|`` itself would carry kappa(Z).

Both are homogeneous of degree 4 in the amplitudes, so unnormalized states are
accepted.  Every reshape of a state has the state's Frobenius norm, so the
scale is a fact of the state: :func:`_scale` reads the state's norm, computed
once per state, and returns it with the exact ``|c|**4`` factor.  Each value
divides its reshape (or the amplitudes) by that norm, to keep the determinants
well conditioned; nothing else rescales.  Every value is formed on the
unit-norm input, where it is at most about 1, and leaves through
:func:`_unscaled`, times the factor (its square root for ``four_qubit_h``).
A report's rank flag, where its SVD decides, ranks the state's own reshape, so
that it is ``np.linalg.matrix_rank``'s verdict bit for bit.

:func:`all_partitions_report` reshapes only the top layer n = N // 2.  Below
it each partition takes both Gram matrices from those of the partition with one
more selected qubit, in O(l**2): the Hermitian one by a partial trace, the
ε-Gram by a signed difference of two off-diagonal blocks.  Those values equal
:func:`partition_report`'s to round-off, not to the bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bipartition import Partition, reshape
from .linalg import pfaffian
from .plucker import gram_bilinear, gram_hermitian
from .states import PureState

# The selections of the three square 4-qubit reshapes whose determinants are
# L, M and N, and their orientation signs, fixed once so that the determinant
# identity L + M + N = 0 holds; locked by a regression test.
FOUR_QUBIT_LMN_SELECTIONS = ((3, 4), (2, 4), (1, 4))
FOUR_QUBIT_LMN_SIGNS = (1.0, -1.0, 1.0)
# Diagonal shift of the unit-trace Gram matrix in the full-rank check; see
# _surely_full_rank for why it exceeds the round-off of any accepted size.
_FULL_RANK_SHIFT = 1e-8
# The smallest normal float, which no nonzero value may fall below.
_TINY = float(np.finfo(float).tiny)
# The norms |c| whose |c|**4 is a normal float (max**0.25 itself overflows).
_NORM_MIN = _TINY**0.25
_NORM_MAX = float(np.nextafter(np.finfo(float).max ** 0.25, 0.0))


@dataclass(frozen=True)
class InvariantReport:
    """Per-partition monotone values plus any named auxiliary invariant."""

    partition: Partition
    d_value: float
    e_value: float
    aux_name: str | None = None
    aux_value: complex | None = None
    rank_deficient: bool = False


def _scale(state: PureState) -> tuple[float, float]:
    """The divisor that gives the state and its reshapes unit norm, and the
    ``|c|**4`` factor; ``(1.0, 0.0)`` for the zero state.

    A nonzero state with a norm outside [_NORM_MIN, _NORM_MAX] raises ValueError.
    """
    scale = state.norm
    if _NORM_MIN <= scale <= _NORM_MAX:
        return scale, scale**4
    if not state.support:
        return 1.0, 0.0
    found = {0.0: "underflows", np.inf: "overflows"}.get(scale, f"is {scale:.3e}")
    raise ValueError(f"state norm {found}, outside [{_NORM_MIN:.3e}, {_NORM_MAX:.3e}]")


def _scaled_reshape(state: PureState, partition: Partition) -> tuple[np.ndarray, float]:
    """The reshape of the state at unit norm, and the ``|c|**4`` factor."""
    scale, factor = _scale(state)
    return reshape(state, partition) / scale, factor


def _unscaled(factor: float, unit_value):
    """``factor * unit_value``; ValueError if a nonzero value ends subnormal or 0."""
    value = factor * unit_value
    if unit_value and abs(value) < _TINY:
        raise ValueError(f"result {abs(value):.3e} is below the normal float range")
    return value


def _require_qubits(state: PureState, k: int, name: str) -> None:
    if state.num_qubits != k:
        raise ValueError(f"{name} is defined for {k} qubits, got {state.num_qubits}")


def _d_value(gram: np.ndarray, factor: float, partition: Partition) -> float:
    """D from the Hermitian Gram matrix of the scaled reshape."""
    det = float(np.linalg.det(gram).real)
    return _unscaled(factor, partition.l**2 * max(det, 0.0) ** (2.0 / partition.l))


def _e_value(gram: np.ndarray, factor: float, partition: Partition) -> float:
    """E from the ε-bilinear Gram matrix of the scaled reshape."""
    det = np.linalg.det(gram)
    return _unscaled(factor, partition.l**2 * float(abs(det)) ** (2.0 / partition.l))


def d_monotone(state: PureState, partition: Partition) -> float:
    """LU monotone ``l**2 * det(Z^dag Z)**(2/l)``; in [0, 1] at unit norm."""
    z, factor = _scaled_reshape(state, partition)
    return _d_value(gram_hermitian(z), factor, partition)


def e_monotone(state: PureState, partition: Partition) -> float:
    """SLOCC monotone ``l**2 * |det(Z^T g Z)|**(2/l)``; at most D, and D if L = l.

    On a square partition the value is D's, from the Hermitian Gram matrix: E = D
    is exact in the math, but the computed value carries kappa(Z)**2 round-off,
    so its SLOCC invariance holds only to that accuracy.
    """
    if partition.L == partition.l:
        return d_monotone(state, partition)
    z, factor = _scaled_reshape(state, partition)
    return _e_value(gram_bilinear(z, partition.m), factor, partition)


def concurrence_squared(state: PureState) -> float:
    """The 2-qubit N-tangle: its partition is square, so 4 det(C^H C) = 4 |det C|**2."""
    _require_qubits(state, 2, "concurrence_squared")
    return n_tangle(state)


def three_tangle(state: PureState) -> float:
    """Genuine tripartite entanglement of a 3-qubit state (4 |hyperdeterminant|).

    Evaluated from the last-qubit partition; the other two give the same value
    by permutation invariance.
    """
    _require_qubits(state, 3, "three_tangle")
    return n_tangle(state)


def four_qubit_h(state: PureState) -> complex:
    """The degree-2 SLOCC invariant H of a 4-qubit state.

    Written directly in decimal amplitude labels (an independent path from the
    bilinear-form evaluation):
    ``C0 C15 - C2 C13 - C4 C11 + C6 C9 - C8 C7 + C10 C5 + C12 C3 - C14 C1``.
    Satisfies ``e_monotone({4}) = 4 |H|**2``.
    """
    _require_qubits(state, 4, "four_qubit_h")
    scale, factor = _scale(state)
    c = state.amplitudes / scale
    return _unscaled(factor**0.5, complex(
        c[0] * c[15] - c[2] * c[13] - c[4] * c[11] + c[6] * c[9]
        - c[8] * c[7] + c[10] * c[5] + c[12] * c[3] - c[14] * c[1]
    ))


def four_qubit_lmn(state: PureState) -> tuple[complex, complex, complex]:
    """The degree-4 invariants (L, M, N) of a 4-qubit state, with L + M + N = 0.

    L, M, N are the determinants of the square reshapes selecting
    :data:`FOUR_QUBIT_LMN_SELECTIONS` ({3,4}, {2,4} and {1,4}), multiplied by
    the fixed orientation signs :data:`FOUR_QUBIT_LMN_SIGNS`; ``e_monotone`` of
    those partitions equals 16|L|, 16|M|, 16|N|.
    """
    _require_qubits(state, 4, "four_qubit_lmn")
    values = []
    for sign, selected in zip(FOUR_QUBIT_LMN_SIGNS, FOUR_QUBIT_LMN_SELECTIONS):
        z, factor = _scaled_reshape(state, Partition(4, selected))
        values.append(_unscaled(factor, sign * complex(np.linalg.det(z))))
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
    _require_qubits(state, 5, "five_qubit_pfaffian_monotone")
    if partition.n != 2:
        raise ValueError(f"the Pfaffian form needs n = 2, got n = {partition.n}")
    z, factor = _scaled_reshape(state, partition)
    return _unscaled(factor, 16.0 * abs(pfaffian(gram_bilinear(z, partition.m))))


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
    state: PureState,
    partition: Partition,
    bilinear_gram: np.ndarray | None,
    factor: float,
):
    n_total = state.num_qubits
    if n_total == 4 and partition.selected == (4,):
        return "H", four_qubit_h(state)
    if n_total == 4 and partition.selected in FOUR_QUBIT_LMN_SELECTIONS:
        idx = FOUR_QUBIT_LMN_SELECTIONS.index(partition.selected)
        return "LMN"[idx], four_qubit_lmn(state)[idx]
    if n_total == 5 and partition.n == 2:  # None on a zero column: see _grams
        unit = 0j if bilinear_gram is None else pfaffian(bilinear_gram)
        return "pfaffian", _unscaled(factor, unit)
    return None, None


def _surely_full_rank(gram: np.ndarray) -> bool:
    """True only if ``np.linalg.matrix_rank`` of the reshape is l.

    ``gram`` is the Hermitian Gram matrix G of the unit-Frobenius reshape Z, so
    tr G = 1 and sigma_max(Z) <= 1.  Both hold up to the round-off of the
    state's norm, which Z was divided by: a relative error below 2**27 u <
    1.5e-8 (dot products of at most 2**26 real terms), which moves each bound
    below by a factor of at most 1 + 3e-8, far inside their margins.  False
    means "not settled": the caller asks the SVD.  Why a Cholesky
    factorization of ``G - s I`` that completes settles it, with u = 2**-53
    and s = _FULL_RANK_SHIFT:

    * ``matrix_rank`` counts the singular values above max(L, l) eps sigma_max.
      That cut is relative, so scaling Z changes nothing, and as a PureState
      holds at most MAX_QUBITS = 26 qubits (l <= 2**13, L <= 2**25) it is
      below 2**25 * 2**-52 < 7.5e-9.
    * Gram round-off: the computed G is Z^H Z + E1 with ||E1|| <~ sqrt(2) L u
      (complex dot products of length L whose terms add up to tr G = 1).  A
      Gram matrix that all_partitions_report derives by partial traces holds
      the same dot products summed in another order, and the gamma_L bound on
      a sum does not depend on the order, so the bound stands.
    * Cholesky backward error (Higham, *Accuracy and Stability of Numerical
      Algorithms*, Thm. 10.3): a factorization of A = G - s I that completes
      gives R with R^H R = A + E2, |E2| <= gamma_(l+1) |R^H| |R|.  By
      Cauchy-Schwarz on the columns of R, ||E2|| <= gamma_(l+1) tr(R^H R),
      so ||E2|| <~ sqrt(2) (l + 1) u, far below even the cruder l**2 u.
    * R^H R is positive definite, so lambda_min(Z^H Z) > s - sqrt(2) (L + l + 3) u
      > 1e-8 - 6e-9, i.e. sigma_min(Z) > 6e-5: four orders of magnitude above
      the cut and the SVD's own error, which is a small multiple of it.

    A certificate is inherited in all_partitions_report.  Moving a qubit out of
    the selection turns Z'^H Z' into Z^H Z = G'_00 + G'_11, the sum of two
    principal submatrices.  By Cauchy interlacing each has lambda_min >=
    lambda_min(Z'^H Z'), and by Weyl's inequality lambda_min(Z^H Z) >=
    2 lambda_min(Z'^H Z'), so sigma_min(Z) >= sqrt(2) sigma_min(Z') > 6e-5
    whenever the parent's check completed: no child of a certified parent, and
    by induction no descendant, needs its own check.
    """
    shifted = gram.copy()
    shifted.flat[:: len(gram) + 1] -= _FULL_RANK_SHIFT
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def partition_report(state: PureState, partition: Partition) -> InvariantReport:
    """Monotone values, named auxiliary invariant, and rank flag for one partition.

    The partition is reshaped once, twice where test 3 below runs, and each
    Gram matrix formed at most once: :func:`_grams` opens the reshape, a
    square one forming no ε-Gram (E = D, module notes), and :func:`_report`
    evaluates the pair.
    The three 4-qubit L/M/N partitions are the exception: their aux value comes
    from :func:`four_qubit_lmn`, which makes 3 more reshapes and 3 more
    determinants.  The report's own reshape would do, but perfbench's pin
    ``ratio.reshape_per_partition > 1`` counts on those extra reshapes.
    :func:`all_partitions_report` reshapes only its top layer and derives the
    Gram matrices below it, so its values there agree with this one's to
    round-off, not to the bit.
    The rank flag is decided by the first of these that settles it:

    1. an exactly zero column of the reshape, as fewer nonzero amplitudes than
       l always leave: every maximal minor then vanishes, so D = E = 0 exactly
       (Cauchy-Binet), the rank is below l, and no Gram matrix is formed;
    2. a Cholesky check of the Hermitian Gram matrix that certifies full rank;
    3. the SVD rank of the state's own reshape, formed again without the
       scaling, so the flag is ``matrix_rank``'s verdict bit for bit.

    On a zero column the values equal the determinant path's bit for bit: both
    Gram matrices get an exactly zero column, LU meets an exactly zero pivot
    column, ``np.linalg.det`` returns exactly 0, and the result is ``+0.0``.
    The 5-qubit n = 2 Pfaffian is ``+0+0j`` there too: every term of the
    first-row expansion of Pf(Z^T g Z) holds an entry of its zero row or
    column, the sum starts from ``+0.0+0.0j``, and +0 plus a signed zero is +0.

    E is reported as ``min(E, D)``: |det(Z^T g Z)| <= det(Z^H Z) by Cauchy-Binet
    and Cauchy-Schwarz (g is real orthogonal), so only round-off lifts E above D.
    """
    z, factor = _scaled_reshape(state, partition)
    grams = _grams(z, partition, partition.L > partition.l)
    return _report(state, partition, factor, grams)[0]


def _grams(z: np.ndarray, partition: Partition, bilinear: bool) -> tuple | None:
    """Open the scaled reshape ``z`` into ``(gram, bilinear_gram, False)``, the
    ε-Gram formed only if ``bilinear``; None if ``z`` has an exactly zero column
    (test 1 of :func:`partition_report`).  False: no rank certificate yet."""
    if not z.any(axis=0).all():
        return None
    return gram_hermitian(z), gram_bilinear(z, partition.m) if bilinear else None, False


def _report(
    state: PureState, partition: Partition, factor: float, grams: tuple | None
) -> tuple[InvariantReport, tuple | None]:
    """The report from a Gram triple ``(gram, bilinear_gram, certified)``, opened
    by :func:`_grams` or inherited, or the zero-column report where ``grams`` is
    None.  Returns the report and the triple with its certificate settled, for
    children to inherit; None on the zero-column exit."""
    if grams is None:
        d_value = e_value = 0.0
        bilinear_gram, rank_deficient = None, True
    else:
        gram, bilinear_gram, certified = grams
        certified = certified or _surely_full_rank(gram)
        grams = gram, bilinear_gram, certified
        d_value = _d_value(gram, factor, partition)
        e_value = d_value if partition.L == partition.l else min(
            _e_value(bilinear_gram, factor, partition), d_value
        )
        rank_deficient = not certified and bool(
            np.linalg.matrix_rank(reshape(state, partition)) < partition.l
        )
    aux_name, aux_value = _aux_invariant(state, partition, bilinear_gram, factor)
    return InvariantReport(
        partition, d_value, e_value, aux_name, aux_value, rank_deficient
    ), grams


def _partial_trace_grams(gram: np.ndarray, bilinear_gram: np.ndarray, low: int):
    """Both Gram matrices after one selected qubit moves to the unselected side.

    The qubit is column bit ``low`` (counted from the least significant) of the
    parent reshape Z', and becomes the least significant row bit of the child
    reshape Z, so ``Z[(r, b), a] = Z'[r, (a, b)]`` with b inserted at ``low``.
    Then G = G'[(., 0), (., 0)] + G'[(., 1), (., 1)], a partial trace, and, as the
    child's ε-form is the parent's times ``[[0, 1], [-1, 0]]`` on that bit,
    B = B'[(., 0), (., 1)] - B'[(., 1), (., 0)].  O(l**2) work in place of an
    O(L l**2) product.
    """
    size = len(gram)
    high, l = size // (2 * 2**low), size // 2
    g = gram.reshape(high, 2, 2**low, high, 2, 2**low)
    b = bilinear_gram.reshape(g.shape)
    return (
        (g[:, 0, :, :, 0] + g[:, 1, :, :, 1]).reshape(l, l),
        (b[:, 0, :, :, 1] - b[:, 1, :, :, 0]).reshape(l, l),
    )


def all_partitions_report(state: PureState) -> list[InvariantReport]:
    """One :class:`InvariantReport` per admissible partition, from one unit-norm state.

    The partitions form a forest in which the parent of S is S plus its largest
    unselected qubit k; that parent is admissible, as at N/2 it holds qubit N.
    The roots are the top layer n = N // 2, and only they open a reshape into
    both Gram matrices (:func:`_grams`), as :func:`partition_report` does.
    Moving k out of the selection makes it the child's least significant row
    bit, so the child takes both Gram matrices from its parent's in O(l**2)
    (:func:`_partial_trace_grams`), and the rank certificate too (see
    :func:`_surely_full_rank`): the Cholesky check runs only where the
    parent's failed, and the SVD forms the state's own reshape where it runs.
    The walk is depth first, so at most one chain of N/2 Gram pairs is alive.
    At N = 4 that is 3 reshapes for the 3 roots, which are the L/M/N
    partitions, and :func:`four_qubit_lmn` adds 9: 12 for 7 partitions.

    A node passes Gram matrices down only if it formed them: the children of a
    zero-column node, or of one left unopened as the state has fewer nonzero
    amplitudes than l, open their own reshapes; :func:`_report` gives both
    nodes the zero-column report.  A zero column of a child's reshape would be
    two zero columns of its parent's, so a derived node never has one.  The
    top layer, the zero-column exits, the nodes that open their own reshape,
    every rank flag and every aux value are therefore
    :func:`partition_report`'s bit for bit; D and E of a derived node are the
    same sums taken in another order, equal to round-off.
    """
    scale, factor = _scale(state)
    unit = PureState(state.num_qubits, state.amplitudes / scale)
    partitions = admissible_partitions(state.num_qubits)
    by_selection = {p.selected: p for p in partitions}
    reports = {}

    def visit(partition: Partition, grams: tuple | None) -> None:
        # A node with nothing to inherit opens its reshape here, unbound, so it
        # is freed once _grams returns and only the Gram chain stays alive down
        # the subtree; its ε-Gram serves its children or its own E.
        if grams is None and state.support >= partition.l:
            bilinear = partition.n > 1 or partition.L > partition.l
            grams = _grams(reshape(unit, partition), partition, bilinear)
        reports[partition], grams = _report(state, partition, factor, grams)
        if partition.n == 1:
            return
        # Each child drops a qubit k of the trailing run ..., N - 1, N, the
        # column bit with N - k selected qubits below it.
        for low, k in enumerate(reversed(partition.selected)):
            if k != partition.num_qubits - low:
                break
            child = by_selection[tuple(q for q in partition.selected if q != k)]
            visit(child, grams and (*_partial_trace_grams(*grams[:2], low), grams[2]))

    for root in partitions:
        if root.n == state.num_qubits // 2:
            visit(root, None)
    return [reports[p] for p in partitions]
