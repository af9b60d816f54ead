"""Sampling of local operations (Haar unitaries, bounded SL(2,C) elements,
two-outcome POVMs) and the averaged-monotone measurement experiment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bipartition import Partition
from .monotones import d_monotone, e_monotone
from .states import PureState, normalize

COMPLETENESS_TOL = 1e-12
# Operator-norm bound on the SL(2,C) samples of :func:`random_sl2`.
SL2_MAX_NORM = 3.0
# Branches this unlikely contribute zero instead of amplifying round-off
# through a near-zero renormalization.
BRANCH_PROB_FLOOR = 1e-14

_MONOTONES: dict[str, Callable[[PureState, Partition], float]] = {
    "d": d_monotone,
    "e": e_monotone,
}


@dataclass(frozen=True)
class LocalOperator:
    """A 2 x 2 operator acting on one 1-based qubit position."""

    qubit: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"local operator must be 2 x 2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("local operator entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class PovmPair:
    """Two-outcome POVM: operators with ``A1^dag A1 + A2^dag A2 = I``."""

    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        a1 = np.asarray(self.a1, dtype=complex)
        a2 = np.asarray(self.a2, dtype=complex)
        if a1.shape != (2, 2) or a2.shape != (2, 2):
            raise ValueError("POVM operators must be 2 x 2")
        residual = np.abs(a1.conj().T @ a1 + a2.conj().T @ a2 - np.eye(2)).max()
        if residual > COMPLETENESS_TOL:
            raise ValueError(
                f"POVM completeness violated (max residual {float(residual):.3e})"
            )
        a1.flags.writeable = False
        a2.flags.writeable = False
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


def monotonicity_trial(
    state: PureState,
    qubit: int,
    povm: PovmPair,
    monotone: str | Callable[[PureState, Partition], float],
    partition: Partition,
) -> tuple[float, float]:
    """(value before, probability-averaged value after) a two-outcome POVM.

    For an entanglement monotone the average never exceeds the pre-measurement
    value; branches with probability below 1e-14 contribute zero.
    """
    fn = _MONOTONES[monotone] if isinstance(monotone, str) else monotone
    before = fn(state, partition)
    after = 0.0
    for prob, psi in povm_branches(state, qubit, povm):
        if prob < BRANCH_PROB_FLOOR:
            continue
        after += prob * fn(normalize(psi), partition)
    return before, after
