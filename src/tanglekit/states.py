"""N-qubit pure-state model, named state constructors, random sampling, and the
JSON state-file format.

Bit convention: amplitude vectors are big-endian, i.e. the first qubit is the
most significant bit of the amplitude index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-10
# Largest register make_named_state builds: 2**26 complex amplitudes are 1 GiB.
MAX_QUBITS = 26

NAMED_STATES = ("ghz", "w", "bell", "product-zero", "haar-random")


class StateParseError(ValueError):
    """Malformed state document; ``position`` is a character offset when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class PureState:
    """Amplitude vector of an N-qubit register (length exactly 2**num_qubits)."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} "
                f"qubits, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm**2 - 1.0) <= NORM_TOL


def amplitude_index(bit_string) -> int:
    """Index of a computational-basis amplitude, first qubit most significant.

    Accepts a string like ``"0010"`` or a sequence of 0/1 integers.
    """
    bits = [int(b) for b in bit_string]
    if not bits:
        raise ValueError("bit string must be non-empty")
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit_string!r}")
        index = (index << 1) | b
    return index


def make_named_state(name: str, num_qubits: int, seed=None) -> PureState:
    """Construct a named normalized state: ghz, w, bell, product-zero, or haar-random."""
    n = num_qubits
    if n < 1:
        raise ValueError(f"num_qubits must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"num_qubits must be <= {MAX_QUBITS}, got {n}")
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


def normalize(state: PureState) -> PureState:
    """Rescale to unit norm; raises on the zero vector."""
    nrm = state.norm
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return PureState(state.num_qubits, state.amplitudes / nrm)


def format_float(x: float) -> str:
    """A float with 17 significant digits, enough to round-trip exactly."""
    return f"{x:.17g}"


def serialize_state(state: PureState) -> str:
    """Emit the JSON state document with 17 significant digits per component."""
    lines = ["{", f'  "n_qubits": {state.num_qubits},', '  "amplitudes": [']
    last = len(state.amplitudes) - 1
    for i, a in enumerate(state.amplitudes):
        sep = "" if i == last else ","
        lines.append(f"    [{format_float(a.real)}, {format_float(a.imag)}]{sep}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_state(text: str) -> PureState:
    """Parse the JSON state document produced by :func:`serialize_state`."""
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
    raw = doc["amplitudes"]
    if not isinstance(raw, list):
        raise StateParseError("'amplitudes' must be an array")
    if len(raw) != 2**n:
        raise StateParseError(
            f"expected {2**n} amplitudes for n_qubits={n}, got {len(raw)}"
        )
    amps = np.empty(2**n, dtype=complex)
    for i, pair in enumerate(raw):
        ok = (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        )
        if not ok:
            raise StateParseError(f"amplitude {i}: expected a [re, im] number pair")
        try:
            amps[i] = complex(pair[0], pair[1])
        except OverflowError:
            raise StateParseError(f"amplitude {i}: value out of range") from None
    if not np.all(np.isfinite(amps)):
        raise StateParseError("amplitudes must be finite")
    return PureState(n, amps)


def load_state(path) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StateParseError(f"state file is not UTF-8 text: {exc.reason}") from exc
    return parse_state(text)


def save_state(state: PureState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_state(state))
