"""Sampling of local operations (Haar unitaries, bounded SL(2,C) elements,
two-outcome POVMs) and the averaged-monotone measurement experiment."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bipartition import Partition
from .monotones import d_monotone, e_monotone
from .states import PureState

COMPLETENESS_TOL = 1e-12
# Operator-norm bound on the SL(2,C) samples of :func:`random_sl2`.
SL2_MAX_NORM = 3.0
# Branches this unlikely contribute zero, so a zero branch never divides 0 by 0.
BRANCH_PROB_FLOOR = 1e-14

_MONOTONES: dict[str, Callable[[PureState, Partition], float]] = {
    "d": d_monotone,
    "e": e_monotone,
}


def _operator_2x2(matrix, what: str) -> np.ndarray:
    """A read-only complex copy of a finite 2 x 2 operator."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"{what} must be 2 x 2, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} entries must be finite")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class LocalOperator:
    """A 2 x 2 operator acting on one 1-based qubit position."""

    qubit: int
    matrix: np.ndarray

    def __post_init__(self):
        try:
            qubit = operator.index(self.qubit)
        except TypeError as exc:
            raise ValueError(f"qubit position must be an integer: {exc}") from None
        object.__setattr__(self, "qubit", qubit)
        object.__setattr__(self, "matrix", _operator_2x2(self.matrix, "local operator"))


@dataclass(frozen=True)
class PovmPair:
    """Two-outcome POVM: operators with ``A1^dag A1 + A2^dag A2 = I``."""

    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        a1 = _operator_2x2(self.a1, "POVM operator")
        a2 = _operator_2x2(self.a2, "POVM operator")
        residual = np.abs(a1.conj().T @ a1 + a2.conj().T @ a2 - np.eye(2)).max()
        if residual > COMPLETENESS_TOL:
            raise ValueError(
                f"POVM completeness violated (max residual {float(residual):.3e})"
            )
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)


def ginibre(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex Ginibre sample: i.i.d. standard complex normal entries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unitary(seed=None, dim: int = 2) -> np.ndarray:
    """Haar-random dim x dim unitary (QR of a Ginibre matrix with phase fix)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(ginibre(rng, (dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_sl2(seed=None) -> np.ndarray:
    """Random SL(2,C) element with operator norm at most :data:`SL2_MAX_NORM`.

    Ginibre sample divided by a square root of its determinant; candidates
    with |det| < 0.1 or normalized operator norm above the bound are rejected.
    """
    rng = np.random.default_rng(seed)
    while True:
        m = ginibre(rng, (2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 0.1:
            continue
        m = m / np.sqrt(complex(det))
        if np.linalg.norm(m, 2) <= SL2_MAX_NORM:
            return m


def random_povm_pair(seed=None) -> PovmPair:
    """Two-outcome POVM from the singular-value parameterization.

    ``A1 = U1 D1 V`` and ``A2 = U2 D2 V`` with ``D1 = diag(cos t)``,
    ``D2 = diag(sin t)`` and Haar-random unitaries, so the completeness
    identity holds by construction.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi / 2.0, size=2)
    u1 = random_unitary(rng)
    u2 = random_unitary(rng)
    v = random_unitary(rng)
    a1 = u1 @ np.diag(np.cos(theta)) @ v
    a2 = u2 @ np.diag(np.sin(theta)) @ v
    return PovmPair(a1, a2)


def apply_local(state: PureState, operators: Sequence[LocalOperator]) -> PureState:
    """Contract each 2 x 2 operator with its qubit slot; no renormalization."""
    n_total = state.num_qubits
    positions = [op.qubit for op in operators]
    if len(set(positions)) != len(positions):
        raise ValueError(f"operator positions must be distinct, got {positions}")
    for q in positions:
        if not 1 <= q <= n_total:
            raise ValueError(f"qubit position {q} out of range [1, {n_total}]")
    tensor = state.amplitudes.reshape((2,) * n_total)
    for op in operators:
        axis = op.qubit - 1
        tensor = np.moveaxis(np.tensordot(op.matrix, tensor, axes=([1], [axis])), 0, axis)
    return PureState(n_total, tensor.reshape(-1))


def povm_branches(
    state: PureState, qubit: int, povm: PovmPair
) -> list[tuple[float, PureState]]:
    """Unnormalized measurement branches with their probabilities."""
    branches = []
    for a in (povm.a1, povm.a2):
        psi = apply_local(state, [LocalOperator(qubit, a)])
        branches.append((psi.norm**2, psi))
    return branches


def branch_average(
    branches: Sequence[tuple[float, PureState]],
    fn: Callable[[PureState, Partition], float],
    partition: Partition,
) -> float:
    """The probability-averaged value of the monotone ``fn`` after a measurement
    whose unnormalized branches ``(p, psi)`` are :func:`povm_branches`' output.

    By degree-4 homogeneity a branch of weight p adds ``fn(psi) / p``, or zero
    if p is below :data:`BRANCH_PROB_FLOOR`; the terms are summed in branch order.
    """
    after = 0.0
    for prob, psi in branches:
        if prob < BRANCH_PROB_FLOOR:
            continue
        after += fn(psi, partition) / prob
    return after


def monotonicity_trial(
    state: PureState,
    qubit: int,
    povm: PovmPair,
    monotone: str,
    partition: Partition,
) -> tuple[float, float]:
    """(value before, probability-averaged value after) a two-outcome POVM,
    for the monotone ``"d"`` or ``"e"``.

    For an entanglement monotone the average never exceeds the pre-measurement
    value; the average is :func:`branch_average`'s.
    """
    if monotone not in _MONOTONES:
        raise ValueError(f"unknown monotone {monotone!r}; choose from {tuple(_MONOTONES)}")
    fn = _MONOTONES[monotone]
    before = fn(state, partition)
    return before, branch_average(povm_branches(state, qubit, povm), fn, partition)
