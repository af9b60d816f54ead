"""N-qubit pure-state model, named state constructors, random sampling, and the
JSON state-file format.

Bit convention: amplitude vectors are big-endian, i.e. the first qubit is the
most significant bit of the amplitude index.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Largest register a PureState holds: 2**26 complex amplitudes are 1 GiB.
MAX_QUBITS = 26
# Floats serialize_state formats with one `%` call: the block's argument tuple
# stays small, and the per-block overhead is spread over 2**15 amplitudes.
_BLOCK = 2**16
# Characters of amplitude lines _parse_written_layout hands to one json.loads
# call: its lists and floats stay small next to the text and the amplitudes.
_CHUNK = 2**16
# The layout serialize_state writes and _parse_written_layout matches: the
# header (``%d`` is n_qubits), the text between two amplitude pairs, the footer.
_HEADER = '{\n  "n_qubits": %d,\n  "amplitudes": [\n'
_PAIR_SEPARATOR = ",\n"
_FOOTER = "\n  ]\n}\n"
_WRITTEN_HEADER = re.compile(re.escape(_HEADER).replace("%d", "([1-9][0-9]?)"))

NAMED_STATES = ("ghz", "w", "bell", "product-zero", "haar-random")


class StateParseError(ValueError):
    """Malformed state document; ``position`` is a character offset when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def _register_size(num_qubits) -> int:
    """``num_qubits`` as an int in [1, MAX_QUBITS], checked before ``2**n`` is formed."""
    try:
        n = operator.index(num_qubits)
    except TypeError as exc:
        raise ValueError(f"num_qubits must be an integer: {exc}") from None
    if n < 1:
        raise ValueError(f"num_qubits must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"num_qubits must be <= {MAX_QUBITS}, got {n}")
    return n


@dataclass(frozen=True)
class PureState:
    """Amplitude vector of a 1- to MAX_QUBITS-qubit register (length 2**num_qubits)."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = _register_size(self.num_qubits)
        object.__setattr__(self, "num_qubits", n)
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**n,):
            raise ValueError(
                f"expected {2**n} amplitudes for {n} qubits, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    # The amplitudes are read-only, so each of these is computed once per state.
    @cached_property
    def norm(self) -> float:
        """Euclidean norm of the amplitudes; inf if it overflows."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.amplitudes))

    @cached_property
    def support(self) -> int:
        """Number of nonzero amplitudes."""
        return int(np.count_nonzero(self.amplitudes))


def make_named_state(name: str, num_qubits: int, seed=None) -> PureState:
    """Construct a named normalized state: ghz, w, bell, product-zero, or haar-random."""
    n = _register_size(num_qubits)
    if name == "ghz":
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    elif name == "w":
        if n < 2:
            raise ValueError(f"w state needs at least 2 qubits, got {n}")
        amps = np.zeros(2**n, dtype=complex)
        for k in range(n):
            amps[1 << k] = 1.0 / np.sqrt(n)
    elif name == "bell":
        if n != 2:
            raise ValueError(f"bell state needs exactly 2 qubits, got {n}")
        return make_named_state("ghz", 2)
    elif name == "product-zero":
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = 1.0
    elif name == "haar-random":
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
    else:
        raise ValueError(f"unknown state name {name!r}; choose from {NAMED_STATES}")
    return PureState(n, amps)


def random_state(num_qubits: int, seed=None) -> PureState:
    """Haar-uniform random pure state (normalized complex Gaussian vector)."""
    return make_named_state("haar-random", num_qubits, seed=seed)


def format_float(x: float) -> str:
    """A float with 17 significant digits, enough to round-trip exactly.

    A negative zero is ``-0.0``: JSON reads ``-0`` back as the integer 0.
    """
    text = f"{x:.17g}"
    return "-0.0" if text == "-0" else text


def serialize_state(state: PureState) -> str:
    """Emit the JSON state document with 17 significant digits per component.

    The amplitudes are formatted a block at a time by one ``%`` call each;
    ``%.17g`` gives :func:`format_float`'s digits, and a negative zero becomes
    ``-0.0`` as there.
    """
    flat = state.amplitudes.view(np.float64)
    parts = [_HEADER % state.num_qubits]
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        if start:
            parts.append(_PAIR_SEPARATOR)
        pair_lines = _PAIR_SEPARATOR.join(["    [%.17g, %.17g]"] * (block.size // 2))
        text = pair_lines % tuple(block.tolist())
        if np.signbit(block[block == 0]).any():
            text = re.sub(r"-0(?=[,\]])", "-0.0", text)
        parts.append(text)
    parts.append(_FOOTER)
    return "".join(parts)


def parse_state(text: str) -> PureState:
    """Parse a JSON state document such as :func:`serialize_state` produces.

    A document in exactly the layout :func:`serialize_state` writes is parsed
    a chunk of lines at a time (:func:`_parse_written_layout`); any other
    document, and any that path turns down, whole (:func:`_parse_document`).
    Both end in this one exit, where ``PureState`` refuses a non-finite value.
    """
    n, flat = _parse_written_layout(text) or _parse_document(text)
    try:
        return PureState(n, flat.view(complex))
    except ValueError as exc:  # n and the length are checked: only finiteness is left
        raise StateParseError(str(exc)) from None


def _parse_document(text: str) -> tuple[int, np.ndarray]:
    """``n_qubits`` and the amplitude components of a whole JSON state document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateParseError(f"invalid document: {exc.msg}", position=exc.pos) from exc
    except ValueError as exc:  # e.g. an integer past the int-string digit limit
        raise StateParseError(f"invalid document: {exc}") from exc
    except RecursionError:
        raise StateParseError("invalid document: nested too deeply") from None
    if not isinstance(doc, dict):
        raise StateParseError("top-level value must be an object")
    if "n_qubits" not in doc or "amplitudes" not in doc:
        raise StateParseError("document needs 'n_qubits' and 'amplitudes' fields")
    n = doc["n_qubits"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StateParseError(f"'n_qubits' must be a positive integer, got {n!r}")
    if n > MAX_QUBITS:
        raise StateParseError(f"'n_qubits' must be <= {MAX_QUBITS}, got {n}")
    raw = doc["amplitudes"]
    if not isinstance(raw, list):
        raise StateParseError("'amplitudes' must be an array")
    if len(raw) != 2**n:
        raise StateParseError(
            f"expected {2**n} amplitudes for n_qubits={n}, got {len(raw)}"
        )
    return n, _pair_components(raw)


def _pair_components(raw: list) -> np.ndarray:
    """The components of ``raw``'s ``[re, im]`` pairs as one float64 array; raises
    the StateParseError that names, by its index in ``raw``, the first pair that
    is not two numbers a float can hold."""
    # json.loads yields exact int/float/bool types, so these set tests accept
    # exactly the pairs the loop below accepts.
    components = itertools.chain.from_iterable
    if (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and set(map(type, components(raw))) <= {int, float}
    ):
        try:
            return np.fromiter(components(raw), float, count=2 * len(raw))
        except OverflowError:
            pass
    for i, pair in enumerate(raw):
        ok = (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        )
        if not ok:
            raise StateParseError(f"amplitude {i}: expected a [re, im] number pair")
        try:
            complex(pair[0], pair[1])
        except OverflowError:
            raise StateParseError(f"amplitude {i}: value out of range") from None
    raise AssertionError("no bad amplitude pair found")


def _parse_written_layout(text: str) -> tuple[int, np.ndarray] | None:
    """Parse a document in the exact layout of :func:`serialize_state` without
    building its whole JSON tree, or return None on any deviation.

    The text between the header and the footer is cut, at the first pair
    separator ``",\\n"`` past each ``_CHUNK`` characters, into chunks that drop
    the separator's comma. Outside a JSON string that comma always separates
    two values (a string cannot hold a raw line break), so when every chunk
    parses as a non-empty value list, joining the lists gives the same array,
    in the same order: a successful parse returns exactly what ``json.loads``
    of the whole document would give, and the fixed header leaves the keys and
    ``n_qubits`` no room to differ.

    Every pair passes the same :func:`_pair_components` test as the whole
    path. A text too short for ``2**n`` pairs of at least ``[0,0]`` (checked
    before allocating), a chunk ``json`` rejects, a bad pair or a wrong count
    returns None, and the whole-document path then raises the error.
    """
    header = _WRITTEN_HEADER.match(text) if isinstance(text, str) else None
    if header is None or not text.endswith(_FOOTER):
        return None
    n = int(header.group(1))
    if n > MAX_QUBITS or len(text) < 5 * 2**n:
        return None
    flat = np.empty(2 * 2**n)
    filled = 0
    start, end = header.end(), len(text) - len(_FOOTER)
    while start < end:
        stop = text.find(_PAIR_SEPARATOR, min(start + _CHUNK, end), end)
        if stop == -1:
            stop = end
        try:
            values = _pair_components(json.loads("[" + text[start:stop] + "]"))
        except (ValueError, RecursionError):
            return None
        if not values.size or filled + values.size > flat.size:
            return None
        flat[filled : filled + values.size] = values
        filled += values.size
        start = stop + 1
    if filled != flat.size:
        return None
    return n, flat


def load_state(path) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StateParseError(f"state file is not UTF-8 text: {exc.reason}") from exc
    return parse_state(text)
