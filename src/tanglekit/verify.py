"""Randomized verification suites behind the ``verify`` CLI command.

Each property draws its own deterministic random stream (seeded per property
from the run seed), measures the worst residual observed, and compares it to
the tolerance the property is specified at.  Residuals for quantities bounded
by 1 at unit norm are measured against ``max(|a|, |b|, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .bipartition import Partition, epsilon_apply, epsilon_matrix, reshape, unreshape
from .linalg import maximal_minors, pfaffian
from .local_ops import (
    LocalOperator,
    apply_local,
    ginibre,
    monotonicity_trial,
    random_povm_pair,
    random_sl2,
    random_unitary,
)
from .monotones import (
    FOUR_QUBIT_LMN_SELECTIONS,
    admissible_partitions,
    d_monotone,
    e_monotone,
    five_qubit_pfaffian_monotone,
    four_qubit_lmn,
)
from .plucker import (
    gauge_transform,
    gram_bilinear,
    gram_hermitian,
    plucker_coordinates,
    plucker_relation_residual,
)
from .states import PureState, random_state

# Explicit 4 x 4 and 8 x 8 forms of the bilinear metric, frozen as the ground
# truth the implicit implementation must reproduce entry for entry.
EPSILON_FORM_4 = np.array(
    [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float
)
EPSILON_FORM_8 = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    max_residual: float
    trials: int
    passed: bool


def _result(name: str, tol: float, residual: float, trials: int) -> CheckResult:
    return CheckResult(name, tol, residual, trials, residual <= tol)


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _random_states(trials: int, rng: np.random.Generator) -> Iterator[tuple]:
    """Per trial, a Haar state on 2, 3, 4, 5, 2, ... qubits and its partitions.

    Drawn lazily, so a check's own draws between trials keep their stream order.
    """
    for t in range(trials):
        n_qubits = 2 + t % 4
        yield random_state(n_qubits, seed=rng), admissible_partitions(n_qubits)


# ---------------------------------------------------------------------------
# plucker


def check_plucker_relation(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        p = plucker_coordinates(ginibre(rng, (4, 2)))
        worst = max(worst, plucker_relation_residual(p))
    return _result("plucker-relation", 1e-12, worst, trials)


def check_gauge_covariance(trials: int, rng: np.random.Generator) -> CheckResult:
    shapes = [(4, 2), (8, 2), (6, 3), (8, 4)]
    worst = 0.0
    for t in range(trials):
        rows, cols = shapes[t % len(shapes)]
        z = ginibre(rng, (rows, cols))
        s = ginibre(rng, (cols, cols))
        left = plucker_coordinates(gauge_transform(z, s)).coords
        right = complex(np.linalg.det(s)) * plucker_coordinates(z).coords
        scale = max(1.0, float(np.abs(right).max()))
        worst = max(worst, float(np.abs(left - right).max()) / scale)
    return _result("gauge-covariance", 1e-10, worst, trials)


# ---------------------------------------------------------------------------
# cauchy-binet


def _minor_sum_hermitian(z: np.ndarray) -> float:
    return float(sum(abs(value) ** 2 for _, value in maximal_minors(z)))


def _minor_sum_bilinear(z: np.ndarray, m: int) -> complex:
    # Cauchy-Binet applied to det(Z^T g Z) with the metric materialized: the
    # raised minor of a row combination is the matching minor of g @ Z.
    gz = epsilon_matrix(m) @ z
    raised = maximal_minors(gz)
    plain = maximal_minors(z)
    return complex(sum(r * p for (_, r), (_, p) in zip(raised, plain)))


def check_cauchy_binet_hermitian(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    count = 0
    for state, partitions in _random_states(trials, rng):
        for part in partitions:
            z = reshape(state, part)
            gram_path = float(np.linalg.det(gram_hermitian(z)).real)
            minor_path = _minor_sum_hermitian(z)
            worst = max(worst, _rel(gram_path, minor_path))
            count += 1
    return _result("cauchy-binet-hermitian", 1e-10, worst, count)


def check_cauchy_binet_bilinear(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    count = 0
    for state, partitions in _random_states(trials, rng):
        for part in partitions:
            z = reshape(state, part)
            gram_path = complex(np.linalg.det(gram_bilinear(z, part.m)))
            minor_path = _minor_sum_bilinear(z, part.m)
            worst = max(worst, _rel(gram_path, minor_path))
            count += 1
    return _result("cauchy-binet-bilinear", 1e-10, worst, count)


def check_epsilon_form(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = max(
        float(np.abs(epsilon_matrix(2) - EPSILON_FORM_4).max()),
        float(np.abs(epsilon_matrix(3) - EPSILON_FORM_8).max()),
    )
    for t in range(trials):
        m = 1 + t % 4
        v = ginibre(rng, 2**m)
        # implicit application vs materialized matrix, and the involution sign
        worst = max(worst, float(np.abs(epsilon_apply(m, v) - epsilon_matrix(m) @ v).max()))
        worst = max(
            worst,
            float(np.abs(epsilon_apply(m, epsilon_apply(m, v)) - (-1.0) ** m * v).max()),
        )
    return _result("epsilon-form", 0.0, worst, trials)


# ---------------------------------------------------------------------------
# lu / slocc invariance


def _local_invariance(
    name: str, tol: float, sample, mono, trials: int, rng: np.random.Generator
) -> CheckResult:
    # ``mono`` before and after one ``sample(rng)`` operator on every qubit.
    worst = 0.0
    for state, partitions in _random_states(trials, rng):
        ops = [LocalOperator(q, sample(rng)) for q in range(1, state.num_qubits + 1)]
        moved = apply_local(state, ops)
        for part in partitions:
            worst = max(worst, _rel(mono(state, part), mono(moved, part)))
    return _result(name, tol, worst, trials)


def check_lu_single_qubit(trials: int, rng: np.random.Generator) -> CheckResult:
    return _local_invariance(
        "lu-single-qubit", 1e-10, random_unitary, d_monotone, trials, rng
    )


def check_lu_selected_block(trials: int, rng: np.random.Generator) -> CheckResult:
    # D is invariant under any unitary mixing of the full selected block, not
    # just per-qubit factors.
    worst = 0.0
    for state, partitions in _random_states(trials, rng):
        for part in partitions:
            u = random_unitary(rng, part.l)
            mixed = unreshape(reshape(state, part) @ u.T, part)
            worst = max(worst, _rel(d_monotone(state, part), d_monotone(mixed, part)))
    return _result("lu-selected-block", 1e-10, worst, trials)


def check_slocc_invariance(trials: int, rng: np.random.Generator) -> CheckResult:
    return _local_invariance(
        "slocc-invariance", 1e-8, random_sl2, e_monotone, trials, rng
    )


def check_homogeneity(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for state, partitions in _random_states(trials, rng):
        c = complex(*rng.uniform(0.5, 1.5, size=2))
        scaled = PureState(state.num_qubits, c * state.amplitudes)
        for part in partitions:
            for mono in (d_monotone, e_monotone):
                worst = max(
                    worst, _rel(mono(scaled, part), abs(c) ** 4 * mono(state, part))
                )
    return _result("homogeneity", 1e-10, worst, trials)


def check_range_ordering(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for state, partitions in _random_states(trials, rng):
        for part in partitions:
            d = d_monotone(state, part)
            e = e_monotone(state, part)
            worst = max(worst, -e, e - d, d - 1.0)
    return _result("range-ordering", 1e-12, max(worst, 0.0), trials)


# ---------------------------------------------------------------------------
# permutation equalities


def _single_qubit_spread(
    name: str, n: int, trials: int, rng: np.random.Generator
) -> CheckResult:
    # Spread of E over the n single-qubit partitions of one n-qubit state.
    worst = 0.0
    for _ in range(trials):
        state = random_state(n, seed=rng)
        values = [e_monotone(state, Partition(n, (k,))) for k in range(1, n + 1)]
        worst = max(worst, max(values) - min(values))
    return _result(name, 1e-10, worst, trials)


def check_permutation_three_tangle(trials: int, rng: np.random.Generator) -> CheckResult:
    return _single_qubit_spread("permutation-three-tangle", 3, trials, rng)


def check_permutation_four_qubit(trials: int, rng: np.random.Generator) -> CheckResult:
    return _single_qubit_spread("permutation-four-qubit", 4, trials, rng)


# ---------------------------------------------------------------------------
# monotonicity


def check_povm_monotonicity(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = -np.inf
    count = 0
    for n_qubits in (2, 3, 4):
        partitions = admissible_partitions(n_qubits)
        for _ in range(trials):
            state = random_state(n_qubits, seed=rng)
            qubit = int(rng.integers(1, n_qubits + 1))
            povm = random_povm_pair(rng)
            count += 1
            for part in partitions:
                for mono in ("d", "e"):
                    before, after = monotonicity_trial(state, qubit, povm, mono, part)
                    worst = max(worst, after - before)
    return _result("povm-monotonicity", 1e-9, float(worst), count)


# ---------------------------------------------------------------------------
# four-qubit determinant invariants


def check_lmn_sum(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        state = random_state(4, seed=rng)
        lv, mv, nv = four_qubit_lmn(state)
        scale = max(abs(lv), abs(mv), abs(nv), 1.0)
        worst = max(worst, abs(lv + mv + nv) / scale)
    return _result("lmn-sum", 1e-9, worst, trials)


def check_lmn_monotone_match(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        state = random_state(4, seed=rng)
        values = four_qubit_lmn(state)
        for value, selected in zip(values, FOUR_QUBIT_LMN_SELECTIONS):
            e = e_monotone(state, Partition(4, selected))
            worst = max(worst, _rel(16.0 * abs(value), e))
    return _result("lmn-monotone-match", 1e-10, worst, trials)


# ---------------------------------------------------------------------------
# pfaffian


def check_pfaffian_square(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for t in range(trials):
        dim = 4 if t % 2 == 0 else 6
        a = ginibre(rng, (dim, dim))
        a = a - a.T
        pf = pfaffian(a)
        det = complex(np.linalg.det(a))
        worst = max(worst, abs(pf**2 - det) / max(abs(det), abs(pf) ** 2, 1e-300))
    return _result("pfaffian-square", 1e-10, worst, trials)


def check_pfaffian_five_qubit(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    parts = [p for p in admissible_partitions(5) if p.n == 2]
    for _ in range(trials):
        state = random_state(5, seed=rng)
        for part in parts:
            worst = max(
                worst,
                _rel(five_qubit_pfaffian_monotone(state, part), e_monotone(state, part)),
            )
    return _result("pfaffian-five-qubit", 1e-10, worst, trials)


# ---------------------------------------------------------------------------
# suite registry

_SUITE_CHECKS: dict[str, list[Callable[[int, np.random.Generator], CheckResult]]] = {
    "plucker": [check_plucker_relation, check_gauge_covariance],
    "cauchy-binet": [
        check_cauchy_binet_hermitian,
        check_cauchy_binet_bilinear,
        check_epsilon_form,
    ],
    "lu": [check_lu_single_qubit, check_lu_selected_block],
    "slocc": [check_slocc_invariance, check_homogeneity, check_range_ordering],
    "permutation": [check_permutation_three_tangle, check_permutation_four_qubit],
    "monotonicity": [check_povm_monotonicity],
    "lmn": [check_lmn_sum, check_lmn_monotone_match],
    "pfaffian": [check_pfaffian_square, check_pfaffian_five_qubit],
}
SUITE_NAMES = (*_SUITE_CHECKS, "all")


def run_suite(suite: str, trials: int = 100, seed: int = 0) -> list[CheckResult]:
    """Run one named suite (or ``"all"``) and return per-property results."""
    if suite == "all":
        checks = [fn for fns in _SUITE_CHECKS.values() for fn in fns]
    elif suite in _SUITE_CHECKS:
        checks = _SUITE_CHECKS[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    streams = np.random.SeedSequence(seed).spawn(len(checks))
    return [
        fn(trials, np.random.default_rng(stream))
        for fn, stream in zip(checks, streams)
    ]
