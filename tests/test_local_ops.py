import numpy as np
import pytest

from tanglekit.bipartition import Partition
from tanglekit.local_ops import (
    LocalOperator,
    PovmPair,
    apply_local,
    monotonicity_trial,
    povm_branches,
    random_povm_pair,
    random_sl2,
    random_unitary,
)
from tanglekit.monotones import d_monotone, three_tangle
from tanglekit.states import make_named_state, random_state

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_random_sl2_unit_determinant():
    for seed in range(50):
        m = random_sl2(seed)
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12


def test_random_sl2_deterministic():
    assert np.array_equal(random_sl2(123), random_sl2(123))


def test_random_sl2_norm_bound():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        assert np.linalg.norm(random_sl2(rng), 2) <= 3.0


def test_random_u2_unitary():
    for seed in range(50):
        u = random_unitary(seed)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12


def test_random_u2_isotropy_smoke():
    # first-column second moment of a Haar unitary is 1/2 per entry
    rng = np.random.default_rng(1)
    mean = np.mean([abs(random_unitary(rng)[0, 0]) ** 2 for _ in range(2000)])
    assert abs(mean - 0.5) < 0.03


def test_apply_local_identity_is_bit_exact():
    state = random_state(3, seed=2)
    ops = [LocalOperator(q, np.eye(2)) for q in (1, 2, 3)]
    assert np.array_equal(apply_local(state, ops).amplitudes, state.amplitudes)


def test_apply_local_bit_flip_on_first_qubit():
    state = make_named_state("product-zero", 3)
    flipped = apply_local(state, [LocalOperator(1, X)])
    assert flipped.amplitudes[4] == 1.0
    assert np.sum(np.abs(flipped.amplitudes)) == 1.0


def test_apply_local_preserves_three_tangle_under_sl2():
    state = make_named_state("ghz", 3)
    rng = np.random.default_rng(3)
    ops = [LocalOperator(q, random_sl2(rng)) for q in (1, 2, 3)]
    moved = apply_local(state, ops)
    assert abs(three_tangle(moved) - 1.0) <= 1e-8


def test_apply_local_validates_positions():
    state = random_state(2, seed=4)
    with pytest.raises(ValueError):
        apply_local(state, [LocalOperator(1, X), LocalOperator(1, X)])
    with pytest.raises(ValueError):
        apply_local(state, [LocalOperator(3, X)])


def test_local_operator_validation():
    with pytest.raises(ValueError):
        LocalOperator(1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        LocalOperator(1, [[np.inf, 0.0], [0.0, 1.0]])


def test_povm_pair_completeness_enforced():
    good = PovmPair(np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2))
    assert good.a1.shape == (2, 2)
    with pytest.raises(ValueError):
        PovmPair(np.eye(2), np.eye(2))


def test_random_povm_pair_complete_and_deterministic():
    for seed in range(20):
        pair = random_povm_pair(seed)
        residual = np.abs(
            pair.a1.conj().T @ pair.a1 + pair.a2.conj().T @ pair.a2 - np.eye(2)
        ).max()
        assert residual <= 1e-12
    a = random_povm_pair(7)
    b = random_povm_pair(7)
    assert np.array_equal(a.a1, b.a1) and np.array_equal(a.a2, b.a2)


def test_branch_probabilities_sum_to_one():
    state = random_state(3, seed=5)
    pair = random_povm_pair(6)
    probs = [p for p, _ in povm_branches(state, 2, pair)]
    assert abs(sum(probs) - 1.0) <= 1e-12


def test_projective_pair_probabilities():
    pair = PovmPair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    state = random_state(2, seed=7)
    probs = [p for p, _ in povm_branches(state, 1, pair)]
    assert abs(sum(probs) - 1.0) <= 1e-12


def test_balanced_identity_povm_branches_proportional():
    pair = PovmPair(np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2))
    state = random_state(3, seed=9)
    for prob, psi in povm_branches(state, 1, pair):
        assert abs(prob - 0.5) <= 1e-12
        assert np.abs(psi.amplitudes - state.amplitudes / np.sqrt(2)).max() < 1e-15


def test_balanced_unitary_povm_preserves_monotone():
    # both outcomes act as (scaled) unitaries, so the average equals the input
    pair = PovmPair(random_unitary(8) / np.sqrt(2), random_unitary(9) / np.sqrt(2))
    state = random_state(3, seed=10)
    before, after = monotonicity_trial(state, 2, pair, "e", Partition(3, (3,)))
    assert abs(after - before) <= 1e-10


def test_projective_measurement_kills_ghz_tangle():
    pair = PovmPair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    state = make_named_state("ghz", 3)
    before, after = monotonicity_trial(
        state, 3, pair, lambda s, p: three_tangle(s), Partition(3, (3,))
    )
    assert abs(before - 1.0) < 1e-10
    assert after < 1e-12


def test_zero_probability_branch_contributes_nothing():
    pair = PovmPair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    state = make_named_state("ghz", 2)
    # measuring |0><0| vs |1><1| on qubit 1 of |00>+|11>: both branches product
    before, after = monotonicity_trial(state, 1, pair, "e", Partition(2, (2,)))
    assert abs(before - 1.0) < 1e-12
    assert after == 0.0
    # a branch with exactly zero weight is skipped rather than normalized
    zero_state = make_named_state("product-zero", 2)
    before, after = monotonicity_trial(zero_state, 1, pair, "d", Partition(2, (2,)))
    assert before == 0.0 and after == 0.0


def test_monotonicity_random_suite():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        state = random_state(n, seed=rng)
        qubit = int(rng.integers(1, n + 1))
        pair = random_povm_pair(rng)
        for selected in [(n,), (1,)]:
            part = Partition(n, selected)
            for mono in ("d", "e"):
                before, after = monotonicity_trial(state, qubit, pair, mono, part)
                assert after <= before + 1e-9


def test_d_monotone_invariant_under_unitaries():
    state = random_state(4, seed=12)
    rng = np.random.default_rng(13)
    ops = [LocalOperator(q, random_unitary(rng)) for q in range(1, 5)]
    rotated = apply_local(state, ops)
    for selected in [(4,), (2, 4)]:
        part = Partition(4, selected)
        assert abs(d_monotone(rotated, part) - d_monotone(state, part)) <= 1e-10
