"""Independent test oracles.

Everything here is deliberately written from first principles (explicit bit
assembly, cofactor expansion, materialized forms) so it shares no code path
with the library implementations it checks.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from tanglekit.states import MAX_QUBITS, PureState, StateParseError


def det_cofactor(matrix) -> complex:
    """Determinant by recursive cofactor expansion along the first row."""
    m = np.asarray(matrix, dtype=complex)
    size = m.shape[0]
    if size == 1:
        return complex(m[0, 0])
    total = 0j
    for j in range(size):
        sub = np.delete(m[1:, :], j, axis=1)
        total += (-1.0) ** j * m[0, j] * det_cofactor(sub)
    return total


def assemble_index(num_qubits: int, selected, sel_bits: int, unselected, env_bits: int) -> int:
    """Amplitude index from bit values at selected/unselected 1-based positions."""
    bits = [0] * num_qubits
    for j, pos in enumerate(selected):
        bits[pos - 1] = (sel_bits >> (len(selected) - 1 - j)) & 1
    for j, pos in enumerate(unselected):
        bits[pos - 1] = (env_bits >> (len(unselected) - 1 - j)) & 1
    index = 0
    for b in bits:
        index = (index << 1) | b
    return index


def reshape_bitwise(state, selected) -> np.ndarray:
    """L x l coefficient matrix built entry by entry with explicit bit assembly."""
    n = state.num_qubits
    selected = list(selected)
    unselected = [k for k in range(1, n + 1) if k not in selected]
    rows, cols = 2 ** len(unselected), 2 ** len(selected)
    z = np.empty((rows, cols), dtype=complex)
    for alpha in range(rows):
        for a in range(cols):
            z[alpha, a] = state.amplitudes[
                assemble_index(n, selected, a, unselected, alpha)
            ]
    return z


def reshape_gathered(state, selected) -> np.ndarray:
    """L x l coefficient matrix gathered through an index table that
    :func:`assemble_index`'s bit rule builds for all entries at once."""
    n = state.num_qubits
    selected = list(selected)
    unselected = [k for k in range(1, n + 1) if k not in selected]
    rows = np.arange(2 ** len(unselected))[:, None]
    cols = np.arange(2 ** len(selected))[None, :]
    index = np.zeros((rows.size, cols.size), dtype=np.int64)
    for j, pos in enumerate(selected):
        index |= ((cols >> (len(selected) - 1 - j)) & 1) << (n - pos)
    for j, pos in enumerate(unselected):
        index |= ((rows >> (len(unselected) - 1 - j)) & 1) << (n - pos)
    return state.amplitudes[index]


def reduced_density(state, selected) -> np.ndarray:
    """Reduced density matrix of the selected qubits, O(4^N) summation."""
    n = state.num_qubits
    selected = list(selected)
    unselected = [k for k in range(1, n + 1) if k not in selected]
    dim = 2 ** len(selected)
    env_dim = 2 ** len(unselected)
    rho = np.zeros((dim, dim), dtype=complex)
    amps = state.amplitudes
    for a in range(dim):
        for b in range(dim):
            total = 0j
            for env in range(env_dim):
                ia = assemble_index(n, selected, a, unselected, env)
                ib = assemble_index(n, selected, b, unselected, env)
                total += amps[ia] * np.conj(amps[ib])
            rho[a, b] = total
    return rho


def d_oracle(state, selected) -> float:
    """LU monotone from the reduced density matrix: l**2 * det(rho)**(2/l)."""
    rho = reduced_density(state, selected)
    size = rho.shape[0]
    det = det_cofactor(rho).real
    return size**2 * max(det, 0.0) ** (2.0 / size)


def epsilon_entry_rule(m: int) -> np.ndarray:
    """Materialized ε-form from its entry rule (not from Kronecker products)."""
    dim = 2**m
    g = np.zeros((dim, dim))
    for i in range(dim):
        g[i, dim - 1 - i] = (-1.0) ** int(i).bit_count()
    return g


def de_oracle_slogdet(state, selected) -> tuple[float, float]:
    """(D, E) with both Gram determinants taken as ``slogdet``, so that neither
    underflows to 0 at large l; the ε-form is materialized from its entry rule."""
    z = reshape_gathered(state, selected)
    rows, cols = z.shape
    gz = epsilon_entry_rule(rows.bit_length() - 1) @ z
    sign_d, log_d = np.linalg.slogdet(z.conj().T @ z)
    sign_e, log_e = np.linalg.slogdet(z.T @ gz)
    d = cols**2 * np.exp((2.0 / cols) * log_d) if sign_d.real > 0 else 0.0
    e = cols**2 * np.exp((2.0 / cols) * log_e) if sign_e != 0 else 0.0
    return float(d), float(e)


def e_oracle_minor(state, selected) -> float:
    """SLOCC monotone from the raised-minor contraction sum.

    Enumerates every column-sized row combination c, multiplies the cofactor
    minors of (g Z) and Z at c, sums, and applies the l**2 |.|**(2/l) wrapper.
    """
    z = reshape_bitwise(state, selected)
    rows, cols = z.shape
    m = rows.bit_length() - 1
    gz = epsilon_entry_rule(m) @ z
    total = 0j
    for combo in itertools.combinations(range(rows), cols):
        total += det_cofactor(gz[combo, :]) * det_cofactor(z[combo, :])
    return cols**2 * abs(total) ** (2.0 / cols)


def e_oracle_pairwise(state, selected) -> float:
    """SLOCC monotone for l = 2 via the full two-index contraction.

    Builds the antisymmetric coordinate matrix P[i, j] = Z[i,0] Z[j,1] -
    Z[j,0] Z[i,1] and contracts both indices with the materialized ε-form;
    the monotone is 2 |sum|.
    """
    z = reshape_bitwise(state, selected)
    if z.shape[1] != 2:
        raise ValueError("pairwise oracle only applies to l = 2")
    rows = z.shape[0]
    m = rows.bit_length() - 1
    p = np.outer(z[:, 0], z[:, 1]) - np.outer(z[:, 1], z[:, 0])
    g = epsilon_entry_rule(m)
    total = np.einsum("ab,ag,bd,gd->", p, g, g, p)
    return float(2.0 * abs(total))


def spin_flip_matrix(m: int) -> np.ndarray:
    """sigma_y tensor power, used by the conjugation identity of the pairing."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    out = np.array([[1.0 + 0.0j]])
    for _ in range(m):
        out = np.kron(out, sy)
    return out


def _json_component(x: float) -> str:
    """17 significant digits; a negative zero as ``-0.0``, since JSON reads ``-0``
    as the integer 0."""
    text = f"{x:.17g}"
    return "-0.0" if text == "-0" else text


def serialize_state_lines(state) -> str:
    """The JSON state document, one f-string per amplitude line."""
    lines = ["{", f'  "n_qubits": {state.num_qubits},', '  "amplitudes": [']
    last = len(state.amplitudes) - 1
    for i, a in enumerate(state.amplitudes):
        sep = "" if i == last else ","
        re_, im = _json_component(float(a.real)), _json_component(float(a.imag))
        lines.append(f"    [{re_}, {im}]{sep}")
    lines += ["  ]", "}"]
    return "\n".join(lines) + "\n"


def parse_state_whole(text: str) -> PureState:
    """The state document parsed whole by one ``json.loads``, with every check
    and message of the parser that :mod:`tanglekit.states` had before it
    parsed the ``serialize_state`` layout chunk by chunk."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateParseError(f"invalid document: {exc.msg}", position=exc.pos) from exc
    except ValueError as exc:
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
        raise StateParseError(f"expected {2**n} amplitudes for n_qubits={n}, got {len(raw)}")
    # Pair by pair, in index order: the first bad pair is the one reported.
    for i, pair in enumerate(raw):
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise StateParseError(f"amplitude {i}: expected a [re, im] number pair")
        try:
            complex(pair[0], pair[1])
        except OverflowError:
            raise StateParseError(f"amplitude {i}: value out of range") from None
    amps = np.array([complex(float(re_), float(im)) for re_, im in raw])
    if not np.all(np.isfinite(amps)):
        raise StateParseError("amplitudes must be finite")
    return PureState(n, amps)


def graph_state(adjacency) -> PureState:
    """Graph state of a symmetric 0/1 adjacency matrix A: amplitudes
    (-1)**(sum_{i<j} A_ij x_i x_j) / 2**(N/2), with qubit 1 the highest bit of
    the index."""
    upper = np.triu(np.asarray(adjacency, dtype=np.int64), 1)
    n = upper.shape[0]
    index = np.arange(2**n)
    bits = np.stack([(index >> (n - 1 - k)) & 1 for k in range(n)], axis=1)
    parity = np.einsum("xi,ij,xj->x", bits, upper, bits) % 2
    return PureState(n, (1.0 - 2.0 * parity) / 2 ** (n / 2))


def gf2_rank(matrix) -> int:
    """Rank over GF(2), by Gauss–Jordan elimination with XOR row operations."""
    m = np.array(matrix, dtype=np.uint8) % 2
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.flatnonzero(m[rank:, col])
        if pivots.size == 0:
            continue
        m[[rank, rank + pivots[0]]] = m[[rank + pivots[0], rank]]
        others = np.flatnonzero(m[:, col])
        m[others[others != rank]] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def graph_state_de(adjacency, selected) -> tuple[float, float, bool]:
    """Exact (D, E, rank flag) of a graph state's partition.

    With B = A[U, S] the block of A between the unselected qubits U and the
    n selected ones S, the reshape has rank 2**rank2(B) and equal nonzero
    singular values, so D = 1 when rank2(B) = n and 0 otherwise, and the flag
    reads rank2(B) < n. The ε-Gram is Zᵀ g Z ∝ ±[B(a ⊕ b) = c], with
    c = 1 + A[U, U]·1 (mod 2), so E = 1 when B has full rank and c lies in its
    column space, and 0 otherwise.
    """
    a = np.asarray(adjacency, dtype=np.int64) % 2
    sel = [k - 1 for k in selected]
    uns = [k for k in range(a.shape[0]) if k not in sel]
    b = a[np.ix_(uns, sel)]
    c = (1 + a[np.ix_(uns, uns)].sum(axis=1)) % 2
    full = gf2_rank(b) == len(sel)
    solvable = gf2_rank(np.column_stack([b, c])) == gf2_rank(b)
    return float(full), float(full and solvable), not full
