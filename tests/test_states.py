import contextlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import parse_state_whole, serialize_state_lines

from tanglekit.states import (
    _CHUNK,
    PureState,
    StateParseError,
    make_named_state,
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


def test_support_counts_nonzero_amplitudes():
    assert make_named_state("ghz", 5).support == 2
    assert make_named_state("w", 5).support == 5
    assert make_named_state("product-zero", 5).support == 1
    assert PureState(5, np.zeros(32)).support == 0


def test_pure_state_amplitudes_read_only():
    state = make_named_state("ghz", 2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_parse_minimal_document():
    text = '{"n_qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}'
    state = parse_state(text)
    assert state.num_qubits == 2
    assert state.amplitudes[0] == 1.0
    # json.loads also takes the document as UTF-8 bytes.
    assert np.array_equal(parse_state(text.encode()).amplitudes, state.amplitudes)


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
    with pytest.raises(StateParseError, match="^'amplitudes' must be an array$"):
        parse_state('{"n_qubits": 1, "amplitudes": {"0": [1, 0], "1": [0, 0]}}')
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
    # The same pairs, and non-finite ones, in a 12-qubit document in the layout
    # serialize_state writes, which the parser reads in several chunks: on the
    # first and the last line, and on the lines on both sides of the first
    # chunk boundary.
    lines, (first_after, *_) = _written_document_lines(12)
    planted = {bad: f"amplitude {{}}: {message}" for bad, message in bad_pairs.items()}
    for bad in ("[NaN, 0]", "[0, Infinity]", "[-Infinity, 1]"):
        planted[bad] = "amplitudes must be finite"
    for bad, message in planted.items():
        for index in (0, first_after - 1, first_after, 4095):
            doc = _plant(lines, index, bad)
            with pytest.raises(StateParseError, match=f"^{re.escape(message.format(index))}$"):
                parse_state(doc)
    # Layouts that differ from serialize_state's at the first chunk boundary,
    # with the outcome of the whole-document parse: an error, or (None) the
    # amplitudes of the unchanged document.
    text = "\n".join(lines)
    before = first_after - 1
    line = lines[_HEAD + before]

    def edited(*new_lines):
        return "\n".join(lines[: _HEAD + before] + list(new_lines) + lines[_HEAD + before + 1 :])

    split_pair = line.replace(", ", ",\n      ", 1).split("\n")
    deviations = {
        "crlf": (text.replace("\n", "\r\n"), None),
        "pair split over two lines": (edited(*split_pair), None),
        "leading zero": (
            text.replace('"n_qubits": 12', '"n_qubits": 012'),
            "invalid document: Expecting ',' delimiter (at position 17)",
        ),
        "missing comma": (
            edited(line[:-1]),
            "invalid document: Expecting ',' delimiter (at position 65592)",
        ),
        "doubled comma": (
            edited(line + ","),
            "invalid document: Expecting value (at position 65588)",
        ),
        "bracket for the comma": (
            edited(line[:-1] + "]"),
            "invalid document: Expecting ',' delimiter (at position 65593)",
        ),
        "one line too many": (
            edited(line, line),
            "expected 4096 amplitudes for n_qubits=12, got 4097",
        ),
        "one line too few": (edited(), "expected 4096 amplitudes for n_qubits=12, got 4095"),
    }
    expected = parse_state(text).amplitudes
    for name, (doc, message) in deviations.items():
        if message is None:
            assert np.array_equal(parse_state(doc).amplitudes, expected), name
        else:
            with pytest.raises(StateParseError, match=f"^{re.escape(message)}$"):
                parse_state(doc)
    # A trailing comma and a blank line after a last pair padded past a chunk
    # boundary leave a last chunk of whitespace only. (The message for a
    # trailing comma differs between Python versions.)
    doc = "\n".join(lines[:-4] + [lines[-4] + " " * _CHUNK + ",", ""] + lines[-3:])
    with pytest.raises(StateParseError, match=r"^invalid document: .* \(at position \d+\)$"):
        parse_state(doc)


# Lines of a serialize_state document before its first amplitude line.
_HEAD = 3


def _written_document_lines(num_qubits):
    """A serialize_state document as a list of lines, and for each chunk
    boundary of the chunked parse the index of the first amplitude past it."""
    text = serialize_state(random_state(num_qubits, seed=num_qubits))
    body = cut = text.index("[\n") + 2
    end = text.rindex("\n  ]")
    firsts = []
    while (cut := text.find(",\n", cut + _CHUNK, end)) != -1:
        firsts.append(text.count("\n", body, cut) + 1)
        cut += 1
    return text.split("\n"), firsts


def _plant(lines, index, pair):
    """The document with amplitude ``index`` replaced by ``pair``, padded with
    spaces to the length of the line it replaces so that no chunk boundary
    moves."""
    old = lines[_HEAD + index]
    comma = "," if old.endswith(",") else ""
    new = f"    {pair}".ljust(len(old) - len(comma)) + comma
    return "\n".join(lines[: _HEAD + index] + [new] + lines[_HEAD + index + 1 :])


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
    # Every component round-trips bit for bit, the negative zero included.
    assert np.array_equal(back.view(np.uint64), flat.view(np.uint64))


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


_FUZZ_DOCUMENTS = {n: _written_document_lines(n) for n in range(8, 13)}
_FUZZ_PAIRS = (
    "[0, 1]", "[-0, -0.0]", "[1e308, -5e-324]", "[1e999, 0]", f"[{10**400}, 0]",
    "[NaN, 0]", "[0, -Infinity]", "[true, 0]", "[1]", "[1, 2, 3]", "null", '"0, 0"',
    "[[0, 0], 0]", '{"re": 0, "im": 0}', "[0, 0", "0, 0]", "[0 0]", "[]",
)


def _mutate(lines, row, kind, data):
    """Apply one edit of kind ``kind`` to ``lines`` at ``row``, in place."""
    line = lines[row]
    if kind == "pair":
        comma = "," if line.endswith(",") else ""
        lines[row] = "    " + data.draw(st.sampled_from(_FUZZ_PAIRS)) + comma
    elif kind == "delete":
        del lines[row]
    elif kind == "duplicate":
        lines.insert(row, line)
    elif kind == "split":
        lines[row : row + 1] = line.replace(", ", ",\n      ", 1).split("\n")
    elif kind == "double comma":
        lines[row] = line + ","
    elif kind == "drop comma":
        lines[row] = line.removesuffix(",")
    elif kind == "comma first" and line.endswith(","):
        lines[row] = line.removesuffix(",")
        lines[row + 1] = "," + lines[row + 1]
    elif kind == "header":
        lines[1] = data.draw(st.sampled_from(
            ['  "n_qubits": 012,', '  "n_qubits": 27,', '  "n_qubits": 0,', '   "n_qubits": 9,',
             '  "n_qubits": 9.0,', '  "n_qubits": true,', '  "n_qubit": 10,', '  "n_qubits": 11 ,']
        ))
    elif kind == "footer":
        lines[-3:] = data.draw(st.sampled_from([["  ]", "}"], ["  ],", "}", ""], ["]}", ""]]))


def _outcome(parse, text):
    try:
        state = parse(text)
    except StateParseError as exc:
        return type(exc), str(exc), exc.position
    return state.num_qubits, state.amplitudes.view(np.uint64).tobytes()


@settings(max_examples=150, deadline=None, print_blob=True)
@given(data=st.data())
def test_parse_state_matches_the_whole_document_oracle(data):
    # Mutated serialize_state documents of 8-12 qubits (one to four chunks);
    # the edited lines sit mostly next to chunk boundaries.
    num_qubits = data.draw(st.integers(8, 12))
    lines, firsts = _FUZZ_DOCUMENTS[num_qubits]
    last = 2**num_qubits - 1
    near = sorted({0, last, *(f + d for f in firsts for d in (-2, -1, 0, 1))})
    lines = list(lines)
    kinds = ["pair", "delete", "duplicate", "split", "double comma", "drop comma",
             "comma first", "header", "footer"]
    for _ in range(data.draw(st.integers(0, 3))):
        index = data.draw(st.sampled_from(near) | st.integers(0, last))
        row = min(_HEAD + index, len(lines) - 4)
        _mutate(lines, row, data.draw(st.sampled_from(kinds)), data)
    newline = data.draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join(lines)
    assert _outcome(parse_state, text) == _outcome(parse_state_whole, text)


def test_parse_state_memory_is_bounded_on_the_written_layout():
    # The chunked parse holds the amplitudes twice (its own array and
    # PureState's copy) and the lists of one chunk; a whole-document JSON tree
    # is about 11 times the amplitudes. A non-finite value is refused after the
    # one chunked pass, not by a second, whole-document parse.
    num_qubits = 16
    text = serialize_state(random_state(num_qubits, seed=num_qubits))
    nan_first = _plant(text.split("\n"), 0, "[NaN, 0]")
    not_finite = pytest.raises(StateParseError, match="^amplitudes must be finite$")
    for doc, outcome in ((text, contextlib.nullcontext()), (nan_first, not_finite)):
        tracemalloc.start()
        try:
            with outcome:
                parse_state(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * 2**num_qubits


def test_parse_state_refuses_a_short_file_before_allocating_its_register():
    # The header of a written document claims 26 qubits, whose components would
    # take 1 GiB, but the file holds two pairs.
    text = '{\n  "n_qubits": 26,\n  "amplitudes": [\n    [1, 0],\n    [0, 0]\n  ]\n}\n'
    tracemalloc.start()
    try:
        with pytest.raises(
            StateParseError, match="^expected 67108864 amplitudes for n_qubits=26, got 2$"
        ):
            parse_state(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
