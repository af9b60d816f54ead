import re

import numpy as np
import pytest

from tanglekit.bipartition import (
    Partition,
    epsilon_apply,
    epsilon_matrix,
    parity_signs,
    reshape,
    unreshape,
)
from tanglekit.states import random_state
from oracles import reshape_bitwise, spin_flip_matrix

# Explicit forms of the bilinear metric for two and three unselected qubits.
G4 = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)
G8 = np.array(
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


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_partition_properties():
    p = Partition(5, (4, 5))
    assert (p.n, p.m, p.L, p.l) == (2, 3, 8, 4)
    assert p.unselected == (1, 2, 3)
    assert p.label == "4,5"


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(4, (3, 3))
    with pytest.raises(ValueError):
        Partition(4, (4, 3))
    with pytest.raises(ValueError):
        Partition(4, (5,))
    with pytest.raises(ValueError):
        Partition(4, ())
    with pytest.raises(ValueError):
        Partition(4, (1, 2, 3))  # n > N/2
    with pytest.raises(ValueError):
        Partition(3, (2, 3))
    for positions in ((2.7,), (2.0,), (1, 3.5), (np.float64(2.0),)):
        with pytest.raises(ValueError):
            Partition(4, positions)
    for n_qubits in (4.0, 4.5, np.float64(4.0)):
        with pytest.raises(ValueError):
            Partition(n_qubits, (1,))
    assert Partition(4, (np.int64(2), np.int32(4))).selected == (2, 4)
    assert type(Partition(np.int64(4), (1,)).num_qubits) is int


def test_partition_from_label():
    assert Partition.from_label(4, "3,4").selected == (3, 4)
    assert Partition.from_label(4, " 3").selected == (3,)
    with pytest.raises(ValueError):
        Partition.from_label(4, "3;4")
    # int() alone reads "1_2" as 12, "\u0661" (Arabic-Indic one) as 1 and "+2" as 2.
    for label in ("1_2", "\u0661", "+2"):
        with pytest.raises(ValueError, match=f"^malformed partition spec {re.escape(repr(label))}$"):
            Partition.from_label(13, label)


def test_reshape_last_qubit_of_three():
    # columns are the even- and odd-indexed amplitudes in decimal labeling
    state = random_state(3, seed=31)
    z = reshape(state, Partition(3, (3,)))
    c = state.amplitudes
    assert np.array_equal(z[:, 0], c[[0, 2, 4, 6]])
    assert np.array_equal(z[:, 1], c[[1, 3, 5, 7]])


def test_reshape_last_two_of_four():
    # rows are consecutive blocks of four amplitudes
    state = random_state(4, seed=32)
    z = reshape(state, Partition(4, (3, 4)))
    c = state.amplitudes
    for row in range(4):
        assert np.array_equal(z[row, :], c[4 * row : 4 * row + 4])


def test_reshape_last_qubit_of_four():
    state = random_state(4, seed=33)
    z = reshape(state, Partition(4, (4,)))
    c = state.amplitudes
    assert np.array_equal(z[:, 0], c[0::2])
    assert np.array_equal(z[:, 1], c[1::2])


def test_reshape_non_contiguous_matches_bitwise_oracle():
    for n, selected in [(3, (2,)), (4, (1, 3)), (5, (2, 4)), (5, (1,)), (6, (2, 3, 5))]:
        state = random_state(n, seed=34 + n)
        z = reshape(state, Partition(n, selected))
        assert np.array_equal(z, reshape_bitwise(state, selected))


def test_reshape_preserves_amplitude_multiset():
    state = random_state(5, seed=35)
    z = reshape(state, Partition(5, (2, 4)))
    assert np.isclose(
        np.sort_complex(z.reshape(-1)), np.sort_complex(state.amplitudes)
    ).all()


def test_reshape_rejects_mismatched_state():
    state = random_state(3, seed=36)
    with pytest.raises(ValueError):
        reshape(state, Partition(4, (4,)))


def test_unreshape_inverts_reshape():
    for n, selected in [(3, (3,)), (4, (2, 4)), (5, (1, 3))]:
        state = random_state(n, seed=37 + n)
        p = Partition(n, selected)
        back = unreshape(reshape(state, p), p)
        assert np.array_equal(back.amplitudes, state.amplitudes)


def test_unreshape_rejects_wrong_shape():
    with pytest.raises(ValueError):
        unreshape(np.zeros((2, 2)), Partition(3, (3,)))


def test_epsilon_apply_single_factor():
    out = epsilon_apply(1, [2.0, 5.0])
    assert np.array_equal(out, [5.0, -2.0])


def test_epsilon_matrix_explicit_forms():
    assert np.array_equal(epsilon_matrix(2), G4)
    assert np.array_equal(epsilon_matrix(3), G8)


def test_epsilon_apply_matches_materialized():
    rng = np.random.default_rng(38)
    for m in range(1, 6):
        v = _cvec(rng, 2**m)
        assert np.abs(epsilon_apply(m, v) - epsilon_matrix(m) @ v).max() < 1e-15
    # an L x l matrix is transformed column by column
    for m in range(1, 5):
        z = np.stack([_cvec(rng, 2**m) for _ in range(3)], axis=1)
        assert np.abs(epsilon_apply(m, z) - epsilon_matrix(m) @ z).max() < 1e-15


def test_epsilon_apply_involution_sign():
    rng = np.random.default_rng(39)
    for m in range(1, 6):
        v = _cvec(rng, 2**m)
        twice = epsilon_apply(m, epsilon_apply(m, v))
        assert np.abs(twice - (-1.0) ** m * v).max() < 1e-15


def test_epsilon_apply_rejects_wrong_length():
    with pytest.raises(ValueError):
        epsilon_apply(2, [1.0, 2.0])
    with pytest.raises(ValueError):
        epsilon_apply(2, np.zeros((4, 2, 2)))
    with pytest.raises(ValueError):
        epsilon_apply(2, np.zeros((8, 2)))


def test_parity_signs_pattern():
    assert np.array_equal(parity_signs(2), [1.0, -1.0, -1.0, 1.0])
    assert np.array_equal(parity_signs(0), [1.0])
    with pytest.raises(ValueError, match="^m must be >= 0$"):
        parity_signs(-1)


def test_parity_signs_is_one_read_only_table_per_m():
    for m in range(11):
        table = parity_signs(m)
        assert parity_signs(m) is table
        expected = np.array([1.0])
        for _ in range(m):
            expected = np.kron(expected, [1.0, -1.0])
        assert table.dtype == expected.dtype and np.array_equal(table, expected)
        with pytest.raises(ValueError):
            table[0] = 7.0
        assert table[0] == 1.0


# The ε-bilinear form pairs vectors a, b of length 2**m as a @ epsilon_apply(m, b).


def test_bilinear_self_pairing_vanishes_for_odd_m():
    rng = np.random.default_rng(40)
    for m in (1, 3):
        v = _cvec(rng, 2**m)
        assert abs(v @ epsilon_apply(m, v)) < 1e-15


def test_bilinear_symmetric_example():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert abs(v @ epsilon_apply(2, v) - 1.0) < 1e-15


def test_bilinear_exchange_symmetry():
    rng = np.random.default_rng(41)
    for m in (1, 2, 3, 4):
        a, b = _cvec(rng, 2**m), _cvec(rng, 2**m)
        ab, ba = a @ epsilon_apply(m, b), b @ epsilon_apply(m, a)
        assert abs(ab - (-1.0) ** m * ba) < 1e-13


def test_bilinear_conjugation_spin_flip_identity():
    # for two unselected qubits: conj(A.B) = -<A|flip(B)>
    rng = np.random.default_rng(42)
    a, b = _cvec(rng, 4), _cvec(rng, 4)
    flipped = spin_flip_matrix(2) @ np.conj(b)
    assert abs(np.conj(a @ epsilon_apply(2, b)) + np.vdot(a, flipped)) < 1e-13


def test_bilinear_conjugation_general_phase():
    # the general-m version carries a phase i**m
    rng = np.random.default_rng(43)
    for m in (1, 2, 3, 4):
        a, b = _cvec(rng, 2**m), _cvec(rng, 2**m)
        flipped = spin_flip_matrix(m) @ np.conj(b)
        assert abs(np.conj(a @ epsilon_apply(m, b)) - 1j**m * np.vdot(a, flipped)) < 1e-12


def test_bilinear_invariant_under_single_slot_sl2():
    # unit-determinant mixing of one unselected qubit slot preserves the pairing
    from tanglekit.local_ops import random_sl2

    rng = np.random.default_rng(44)
    for m, slot in [(2, 0), (3, 1), (4, 3)]:
        a, b = _cvec(rng, 2**m), _cvec(rng, 2**m)
        mat = random_sl2(rng)
        ta = np.moveaxis(
            np.tensordot(mat, a.reshape((2,) * m), axes=([1], [slot])), 0, slot
        ).reshape(-1)
        tb = np.moveaxis(
            np.tensordot(mat, b.reshape((2,) * m), axes=([1], [slot])), 0, slot
        ).reshape(-1)
        before = a @ epsilon_apply(m, b)
        after = ta @ epsilon_apply(m, tb)
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))
