import json
import re

import numpy as np
import pytest
from oracles import serialize_state_lines

from tanglekit.states import (
    PureState,
    StateParseError,
    make_named_state,
    normalize,
    parse_state,
    random_state,
    serialize_state,
)


def test_ghz_amplitudes():
    state = make_named_state("ghz", 3)
    amps = state.amplitudes
    assert abs(amps[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(amps[7] - 1 / np.sqrt(2)) < 1e-15
    assert np.all(amps[1:7] == 0)


def test_w_amplitudes():
    state = make_named_state("w", 3)
    amps = state.amplitudes
    for idx in (1, 2, 4):
        assert abs(amps[idx] - 1 / np.sqrt(3)) < 1e-15
    for idx in (0, 3, 5, 6, 7):
        assert amps[idx] == 0


def test_bell_is_two_qubit_ghz():
    assert np.array_equal(
        make_named_state("bell", 2).amplitudes, make_named_state("ghz", 2).amplitudes
    )


def test_product_zero():
    state = make_named_state("product-zero", 4)
    assert state.amplitudes[0] == 1.0
    assert np.all(state.amplitudes[1:] == 0)


def test_named_states_are_normalized():
    for name, n in [("ghz", 2), ("ghz", 5), ("w", 4), ("bell", 2), ("product-zero", 3)]:
        state = make_named_state(name, n)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12


def test_haar_random_normalized_and_deterministic():
    a = make_named_state("haar-random", 4, seed=11)
    b = make_named_state("haar-random", 4, seed=11)
    c = make_named_state("haar-random", 4, seed=12)
    assert abs(a.norm - 1.0) < 1e-12
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_incompatible_name_and_size():
    with pytest.raises(ValueError):
        make_named_state("bell", 3)
    with pytest.raises(ValueError):
        make_named_state("w", 1)
    with pytest.raises(ValueError):
        make_named_state("spooky", 2)


def test_normalize_scales_direction():
    state = PureState(2, [2.0, 0.0, 0.0, 0.0])
    out = normalize(state)
    assert np.array_equal(out.amplitudes, [1.0, 0.0, 0.0, 0.0])


def test_normalize_is_idempotent_on_bell():
    bell = make_named_state("bell", 2)
    out = normalize(bell)
    assert np.abs(out.amplitudes - bell.amplitudes).max() < 1e-15


def test_normalize_random_vector():
    rng = np.random.default_rng(13)
    state = PureState(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    assert abs(normalize(state).norm - 1.0) < 1e-12


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        normalize(PureState(1, [0.0, 0.0]))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(2, [1.0, 0.0])  # wrong amplitude count
    with pytest.raises(ValueError):
        PureState(1, [np.nan, 0.0])
    with pytest.raises(ValueError):
        PureState(0, [1.0])


# Short amplitude lists: the register check must fire before 2**n is formed.
@pytest.mark.parametrize(
    ("num_qubits", "amplitudes", "message"),
    [
        (2.0, [1, 0, 0, 0], "^num_qubits must be an integer: "),
        (100000, [1], "^num_qubits must be <= 26, got 100000$"),
        (27, [1], "^num_qubits must be <= 26, got 27$"),
    ],
    ids=["float", "past-int-digit-limit", "27"],
)
def test_pure_state_owns_the_register_bound(num_qubits, amplitudes, message):
    with pytest.raises(ValueError, match=message):
        PureState(num_qubits, amplitudes)


def test_register_size_is_a_plain_int():
    state = PureState(np.int64(1), [1, 0])
    assert type(state.num_qubits) is int and state.num_qubits == 1


def test_make_named_state_shares_the_register_check():
    with pytest.raises(ValueError, match="^num_qubits must be an integer: "):
        make_named_state("ghz", 2.0)


def test_pure_state_amplitudes_read_only():
    state = make_named_state("ghz", 2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_parse_minimal_document():
    text = '{"n_qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}'
    state = parse_state(text)
    assert state.num_qubits == 2
    assert state.amplitudes[0] == 1.0


def test_parse_rejects_wrong_amplitude_count():
    text = '{"n_qubits": 2, "amplitudes": [[1, 0], [0, 0]]}'
    with pytest.raises(StateParseError):
        parse_state(text)


def test_parse_rejects_malformed_json_with_position():
    with pytest.raises(StateParseError) as err:
        parse_state('{"n_qubits": 2, "amplitudes": [[1, oops]]}')
    assert err.value.position is not None


def test_parse_rejects_bad_fields():
    with pytest.raises(StateParseError):
        parse_state('{"amplitudes": [[1, 0], [0, 0]]}')
    with pytest.raises(StateParseError):
        parse_state('{"n_qubits": "2", "amplitudes": [[1, 0], [0, 0]]}')
    with pytest.raises(StateParseError):
        parse_state('{"n_qubits": 1, "amplitudes": [[1, 0], [0]]}')
    with pytest.raises(StateParseError):
        parse_state('{"n_qubits": 1, "amplitudes": [[1, 0], [0, true]]}')
    with pytest.raises(StateParseError):
        parse_state('[1, 2]')
    for n_qubits in (27, 100000):
        doc = f'{{"n_qubits": {n_qubits}, "amplitudes": []}}'
        with pytest.raises(StateParseError, match=f"^'n_qubits' must be <= 26, got {n_qubits}$"):
            parse_state(doc)
    for bad in ("NaN", "Infinity", "-Infinity"):
        doc = f'{{"n_qubits": 1, "amplitudes": [[{bad}, 0], [0, 0]]}}'
        with pytest.raises(StateParseError, match="^amplitudes must be finite$"):
            parse_state(doc)
    # A bad pair at index 5 of 8 is named by its index.
    bad_pairs = {
        "[true, 0]": "expected a [re, im] number pair",
        "[1]": "expected a [re, im] number pair",
        "[1, 2, 3]": "expected a [re, im] number pair",
        '"1, 0"': "expected a [re, im] number pair",
        "null": "expected a [re, im] number pair",
        '{"re": 1, "im": 0}': "expected a [re, im] number pair",
        "[[1, 0], 0]": "expected a [re, im] number pair",
        f"[0, {10**400}]": "value out of range",
    }
    for bad, message in bad_pairs.items():
        pairs = ["[0, 0]"] * 8
        pairs[5] = bad
        doc = f'{{"n_qubits": 3, "amplitudes": [{", ".join(pairs)}]}}'
        with pytest.raises(StateParseError, match=f"^amplitude 5: {re.escape(message)}$"):
            parse_state(doc)
    # The first bad pair is reported, whichever check it fails.
    doc = f'{{"n_qubits": 2, "amplitudes": [[0, 0], [{10**400}, 0], [0], [0, 0]]}}'
    with pytest.raises(StateParseError, match="^amplitude 1: value out of range$"):
        parse_state(doc)


def test_parse_large_integers_like_complex():
    values = [2**53 + 1, 2**53 + 3, -(2**63) - 1, 2**64 + 1, 3**600, 2**1024 - 2**970 - 1]
    pairs = [[values[i], values[-1 - i]] for i in range(4)]
    state = parse_state(json.dumps({"n_qubits": 2, "amplitudes": pairs}))
    expected = [complex(re_, im) for re_, im in pairs]
    assert state.amplitudes.tolist() == expected


def test_serialize_matches_per_amplitude_lines_across_blocks():
    # 2**17 amplitudes span four blocks of 2**16 floats; the edge values sit at
    # the ends of the array and across the first block boundary.
    amps = random_state(17, seed=3).amplitudes.copy()
    edge = [-0.0, 5e-324, 1.797e308, -1.797e308, 1e16, -5e-324, 0.0, 1.0]
    flat = amps.view(np.float64)
    for start in (0, 2**16 - 4, flat.size - len(edge)):
        flat[start : start + len(edge)] = edge
    state = PureState(17, amps)
    text = serialize_state(state)
    assert text == serialize_state_lines(state)
    back = parse_state(text).amplitudes.view(np.float64)
    # `-0` reads back as the JSON integer 0, so a zero loses its sign;
    # every other component round-trips bit for bit.
    nonzero = flat != 0
    assert np.array_equal(back[nonzero].view(np.uint64), flat[nonzero].view(np.uint64))
    assert np.all(back[~nonzero] == 0)


def test_serialize_parse_round_trip_is_exact():
    state = random_state(4, seed=21)
    back = parse_state(serialize_state(state))
    assert back.num_qubits == state.num_qubits
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_serialize_exponent_notation_round_trip():
    state = PureState(1, [1e-200 + 1e-17j, 1.0])
    back = parse_state(serialize_state(state))
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_parse_accepts_exponent_notation():
    state = parse_state('{"n_qubits": 1, "amplitudes": [[1.0e-3, 0], [0, -2E4]]}')
    assert state.amplitudes[0] == 1e-3
    assert state.amplitudes[1] == -2e4j
