"""Randomized verification suites behind the ``verify`` CLI command.

Each property takes one random draw per trial from its own stream, spawned from
the run seed by its place among all properties and so the same in every suite,
and compares its worst residual to its tolerance.  Residuals for quantities
bounded by 1 at unit norm are measured against ``max(|a|, |b|, 1)``.
"""

from __future__ import annotations

import functools
import math
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


# (suite, check) in the order the @_check decorators below run: the stream order.
_CHECKS: list[tuple[str, Callable[[int, np.random.Generator], CheckResult]]] = []


def _check(suite: str, name: str, tolerance: float):
    """Make ``check(trials, rng) -> CheckResult`` from a generator of residuals
    and register it in ``suite``.

    The decorated generator yields, once per counted trial, an iterable of that
    trial's residuals.  The result keeps the largest residual and counts the
    yields as trials.  A NaN residual is kept over every number, so it fails.
    """

    def decorate(trial_residuals):
        @functools.wraps(trial_residuals)
        def check(trials: int, rng: np.random.Generator) -> CheckResult:
            if trials < 1:
                raise ValueError(f"trials must be >= 1, got {trials}")
            worst, count = -math.inf, 0
            for count, residuals in enumerate(trial_residuals(trials, rng), 1):
                for residual in residuals:
                    if residual > worst or math.isnan(residual):
                        worst = residual
            return CheckResult(name, tolerance, float(worst), count, worst <= tolerance)

        _CHECKS.append((suite, check))
        return check

    return decorate


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


@_check("plucker", "plucker-relation", 1e-12)
def check_plucker_relation(trials: int, rng: np.random.Generator):
    for _ in range(trials):
        p = plucker_coordinates(ginibre(rng, (4, 2)))
        yield (plucker_relation_residual(p),)


@_check("plucker", "gauge-covariance", 1e-10)
def check_gauge_covariance(trials: int, rng: np.random.Generator):
    shapes = [(4, 2), (8, 2), (6, 3), (8, 4)]
    for t in range(trials):
        rows, cols = shapes[t % len(shapes)]
        z = ginibre(rng, (rows, cols))
        s = ginibre(rng, (cols, cols))
        left = plucker_coordinates(z @ s)
        right = complex(np.linalg.det(s)) * plucker_coordinates(z)
        scale = max(1.0, float(np.abs(right).max()))
        yield (float(np.abs(left - right).max()) / scale,)


# ---------------------------------------------------------------------------
# cauchy-binet


def _cauchy_binet(sides, trials: int, rng: np.random.Generator):
    # ``sides(Z, m, p)`` gives a Gram matrix of Z and the minors that pair with
    # Z's maximal minors p in the Cauchy-Binet expansion of its determinant:
    # conj(p) for Z^H Z, and the minors of g @ Z for Z^T g Z with g materialized.
    for state, partitions in _random_states(trials, rng):
        residuals = []
        for part in partitions:
            z = reshape(state, part)
            p = maximal_minors(z)
            gram, raised = sides(z, part.m, p)
            residuals.append(_rel(complex(np.linalg.det(gram)), complex(raised @ p)))
        yield residuals


@_check("cauchy-binet", "cauchy-binet-hermitian", 1e-10)
def check_cauchy_binet_hermitian(trials: int, rng: np.random.Generator):
    return _cauchy_binet(lambda z, m, p: (gram_hermitian(z), p.conj()), trials, rng)


@_check("cauchy-binet", "cauchy-binet-bilinear", 1e-10)
def check_cauchy_binet_bilinear(trials: int, rng: np.random.Generator):
    def sides(z, m, p):
        return gram_bilinear(z, m), maximal_minors(epsilon_matrix(m) @ z)

    return _cauchy_binet(sides, trials, rng)


@_check("cauchy-binet", "epsilon-form", 0.0)
def check_epsilon_form(trials: int, rng: np.random.Generator):
    frozen = (
        float(np.abs(epsilon_matrix(2) - EPSILON_FORM_4).max()),
        float(np.abs(epsilon_matrix(3) - EPSILON_FORM_8).max()),
    )
    for t in range(trials):
        m = 1 + t % 6
        z = ginibre(rng, (2**m, 2))
        gram = gram_bilinear(z, m)
        # implicit application vs materialized matrix, the involution sign, and
        # the ε-Gram's parity: antisymmetric for odd m, symmetric for even m
        yield (
            *frozen,
            float(np.abs(epsilon_apply(m, z) - epsilon_matrix(m) @ z).max()),
            float(np.abs(epsilon_apply(m, epsilon_apply(m, z)) - (-1.0) ** m * z).max()),
            float(np.abs(gram - (-1.0) ** m * gram.T).max()),
        )


# ---------------------------------------------------------------------------
# lu / slocc invariance


def _local_invariance(sample, mono, trials: int, rng: np.random.Generator):
    # ``mono`` before and after one ``sample(rng)`` operator on every qubit.
    for state, partitions in _random_states(trials, rng):
        ops = [LocalOperator(q, sample(rng)) for q in range(1, state.num_qubits + 1)]
        moved = apply_local(state, ops)
        yield [_rel(mono(state, part), mono(moved, part)) for part in partitions]


@_check("lu", "lu-single-qubit", 1e-10)
def check_lu_single_qubit(trials: int, rng: np.random.Generator):
    return _local_invariance(random_unitary, d_monotone, trials, rng)


@_check("lu", "lu-selected-block", 1e-10)
def check_lu_selected_block(trials: int, rng: np.random.Generator):
    # D is invariant under any unitary mixing of the full selected block, not
    # just per-qubit factors.
    for state, partitions in _random_states(trials, rng):
        residuals = []
        for part in partitions:
            u = random_unitary(rng, part.l)
            mixed = unreshape(reshape(state, part) @ u.T, part)
            residuals.append(_rel(d_monotone(state, part), d_monotone(mixed, part)))
        yield residuals


@_check("slocc", "slocc-invariance", 1e-8)
def check_slocc_invariance(trials: int, rng: np.random.Generator):
    return _local_invariance(random_sl2, e_monotone, trials, rng)


@_check("slocc", "homogeneity", 1e-10)
def check_homogeneity(trials: int, rng: np.random.Generator):
    for state, partitions in _random_states(trials, rng):
        c = complex(*rng.uniform(0.5, 1.5, size=2))
        scaled = PureState(state.num_qubits, c * state.amplitudes)
        yield [
            _rel(mono(scaled, part), abs(c) ** 4 * mono(state, part))
            for part in partitions
            for mono in (d_monotone, e_monotone)
        ]


@_check("slocc", "range-ordering", 1e-12)
def check_range_ordering(trials: int, rng: np.random.Generator):
    for state, partitions in _random_states(trials, rng):
        residuals = [0.0]  # so that values inside 0 <= E <= D <= 1 read as 0
        for part in partitions:
            d = d_monotone(state, part)
            e = e_monotone(state, part)
            residuals += (-e, e - d, d - 1.0)
        yield residuals


# ---------------------------------------------------------------------------
# permutation equalities


def _single_qubit_spread(n: int, trials: int, rng: np.random.Generator):
    # Spread of E over the n single-qubit partitions of one n-qubit state.
    for _ in range(trials):
        state = random_state(n, seed=rng)
        values = [e_monotone(state, Partition(n, (k,))) for k in range(1, n + 1)]
        yield (float(np.ptp(values)),)


@_check("permutation", "permutation-three-tangle", 1e-10)
def check_permutation_three_tangle(trials: int, rng: np.random.Generator):
    return _single_qubit_spread(3, trials, rng)


@_check("permutation", "permutation-four-qubit", 1e-10)
def check_permutation_four_qubit(trials: int, rng: np.random.Generator):
    return _single_qubit_spread(4, trials, rng)


# ---------------------------------------------------------------------------
# monotonicity


@_check("monotonicity", "povm-monotonicity", 1e-9)
def check_povm_monotonicity(trials: int, rng: np.random.Generator):
    # One state per register size per trial; the residual is after - before,
    # so a monotone that strictly decreases on average gives a negative one.
    for _ in range(trials):
        residuals = []
        for n_qubits in (2, 3, 4):
            state = random_state(n_qubits, seed=rng)
            qubit = int(rng.integers(1, n_qubits + 1))
            povm = random_povm_pair(rng)
            for part in admissible_partitions(n_qubits):
                for mono in ("d", "e"):
                    before, after = monotonicity_trial(state, qubit, povm, mono, part)
                    residuals.append(after - before)
        yield residuals


# ---------------------------------------------------------------------------
# four-qubit determinant invariants


@_check("lmn", "lmn-sum", 1e-9)
def check_lmn_sum(trials: int, rng: np.random.Generator):
    for _ in range(trials):
        state = random_state(4, seed=rng)
        lv, mv, nv = four_qubit_lmn(state)
        scale = max(abs(lv), abs(mv), abs(nv), 1.0)
        yield (abs(lv + mv + nv) / scale,)


@_check("lmn", "lmn-monotone-match", 1e-10)
def check_lmn_monotone_match(trials: int, rng: np.random.Generator):
    for _ in range(trials):
        state = random_state(4, seed=rng)
        yield [
            _rel(16.0 * abs(value), e_monotone(state, Partition(4, selected)))
            for value, selected in zip(four_qubit_lmn(state), FOUR_QUBIT_LMN_SELECTIONS)
        ]


# ---------------------------------------------------------------------------
# pfaffian


@_check("pfaffian", "pfaffian-square", 1e-10)
def check_pfaffian_square(trials: int, rng: np.random.Generator):
    for t in range(trials):
        dim = 4 if t % 2 == 0 else 6
        a = ginibre(rng, (dim, dim))
        a = a - a.T
        pf = pfaffian(a)
        det = complex(np.linalg.det(a))
        yield (abs(pf**2 - det) / max(abs(det), abs(pf) ** 2, 1e-300),)


@_check("pfaffian", "pfaffian-five-qubit", 1e-10)
def check_pfaffian_five_qubit(trials: int, rng: np.random.Generator):
    parts = [p for p in admissible_partitions(5) if p.n == 2]
    for _ in range(trials):
        state = random_state(5, seed=rng)
        yield [
            _rel(five_qubit_pfaffian_monotone(state, part), e_monotone(state, part))
            for part in parts
        ]


# ---------------------------------------------------------------------------
# running suites

SUITE_NAMES = (*dict.fromkeys(suite for suite, _ in _CHECKS), "all")


def run_suite(suite: str, trials: int = 100, seed: int = 0) -> list[CheckResult]:
    """Run one named suite (or ``"all"``) and return per-property results, each
    from ``trials`` draws that depend only on ``seed`` and the property.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    streams = np.random.SeedSequence(seed).spawn(len(_CHECKS))
    return [
        check(trials, np.random.default_rng(stream))
        for (owner, check), stream in zip(_CHECKS, streams)
        if suite in (owner, "all")
    ]
