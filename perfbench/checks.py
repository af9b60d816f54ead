"""Output checks: the benchmark's own slogdet reference for D and E, and the
report invariants.  Nothing here calls tanglekit, and nothing here is timed."""

from __future__ import annotations

import csv
import io
import itertools
import json

import numpy as np

# Agreement with the reference: |x - ref| <= ATOL + RTOL |ref|.
RTOL = 1e-7
ATOL = 1e-9
# Slack on 0 <= E <= D <= 1 at unit norm.
RANGE_SLACK = 1e-10
CHUNK = 32


def admissible_selections(n_qubits: int) -> list[tuple[int, ...]]:
    """Selected 1-based positions of every admissible partition: 1 <= n <= N/2,
    and at n = N/2 only the subsets that contain the last qubit."""
    out = []
    for n in range(1, n_qubits // 2 + 1):
        for sel in itertools.combinations(range(1, n_qubits + 1), n):
            if 2 * n == n_qubits and n_qubits not in sel:
                continue
            out.append(sel)
    return out


def _reshape_index(n_qubits: int, selected: tuple[int, ...]) -> np.ndarray:
    """Flat amplitude index of each entry of the L x l reshape (unselected bits
    pick the row, selected bits the column, both big-endian)."""
    chosen = set(selected)
    axes = [k - 1 for k in range(1, n_qubits + 1) if k not in chosen]
    axes += [k - 1 for k in selected]
    n = len(selected)
    grid = np.arange(2**n_qubits).reshape((2,) * n_qubits).transpose(axes)
    return grid.reshape(2 ** (n_qubits - n), 2**n)


def _parity_signs(m: int) -> np.ndarray:
    signs = np.ones(1)
    for _ in range(m):
        signs = np.concatenate([signs, -signs])
    return signs


def reference_monotones(amplitudes, n_qubits: int, selections) -> dict:
    """``{selection: (D, E)}`` from ``numpy.linalg.slogdet`` of the two Grams,
    evaluated in the log domain so no determinant underflows."""
    amps = np.asarray(amplitudes, dtype=complex)
    by_n: dict[int, list] = {}
    for sel in selections:
        by_n.setdefault(len(sel), []).append(tuple(sel))
    out = {}
    for n, group in by_n.items():
        l = 2**n
        signs = _parity_signs(n_qubits - n)[:, None]
        for start in range(0, len(group), CHUNK):
            chunk = group[start:start + CHUNK]
            z = amps[np.stack([_reshape_index(n_qubits, s) for s in chunk])]
            zt = z.transpose(0, 2, 1)
            sign_h, log_h = np.linalg.slogdet(zt.conj() @ z)
            sign_b, log_b = np.linalg.slogdet(zt @ (signs * z[:, ::-1, :]))
            d = np.where(sign_h.real > 0, l * l * np.exp((2.0 / l) * log_h), 0.0)
            e = np.where(sign_b != 0, l * l * np.exp((2.0 / l) * log_b), 0.0)
            for sel, dv, ev in zip(chunk, d, e):
                out[sel] = (float(dv), float(ev))
    return out


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ATOL + RTOL * abs(ref)


def check_records(records, refs: dict, n_qubits: int) -> str | None:
    """Check partition records ``(selected, n, L, l, D, E, rank_deficient)``
    against ``refs`` from :func:`reference_monotones`.

    The records must cover the selections of ``refs``, each once.  Returns the
    first failure found, or None when every record is right.
    """
    records = list(records)
    if len(records) != len(refs):
        return f"{len(records)} records, expected {len(refs)}"
    if {r[0] for r in records} != set(refs):
        return "records do not cover the expected partitions"
    for sel, n, big_l, l, d, e, rank_deficient in records:
        label = ",".join(map(str, sel))
        if (n, big_l, l) != (len(sel), 2 ** (n_qubits - len(sel)), 2 ** len(sel)):
            return f"partition {label}: shape n={n} L={big_l} l={l} is wrong"
        ref_d, ref_e = refs[sel]
        if not _close(d, ref_d):
            return f"partition {label} (l={l}): D={d!r}, slogdet reference {ref_d!r}"
        if not _close(e, ref_e):
            return f"partition {label} (l={l}): E={e!r}, slogdet reference {ref_e!r}"
        if not (-RANGE_SLACK <= e <= d + RANGE_SLACK and d <= 1.0 + RANGE_SLACK):
            return f"partition {label}: 0 <= E={e!r} <= D={d!r} <= 1 fails"
        if not rank_deficient and not d > 0.0:
            return f"partition {label}: rank_deficient is false but D={d!r}"
    return None


def report_records(reports) -> list[tuple]:
    """Records from tanglekit ``InvariantReport`` objects."""
    return [
        (r.partition.selected, r.partition.n, r.partition.L, r.partition.l,
         r.d_value, r.e_value, r.rank_deficient)
        for r in reports
    ]


def _parse_selection(label: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in label.split(","))


def json_records(text: str) -> list[tuple]:
    """Records from ``tanglekit compute --format json`` output."""
    return [
        (_parse_selection(r["partition"]), r["n"], r["L"], r["l"],
         float(r["d_value"]), float(r["e_value"]), r["rank_deficient"])
        for r in json.loads(text)["records"]
    ]


def csv_records(text: str) -> list[tuple]:
    """Records from ``tanglekit compute --format csv`` output."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return [
        (_parse_selection(r["partition"]), int(r["n"]), int(r["L"]), int(r["l"]),
         float(r["d_value"]), float(r["e_value"]), r["rank_deficient"] == "true")
        for r in rows
    ]


def state_file_amplitudes(text: str, n_qubits: int) -> np.ndarray:
    """Amplitudes of a state file, read with the benchmark's own parser."""
    doc = json.loads(text)
    if doc.get("n_qubits") != n_qubits:
        raise ValueError(f"n_qubits is {doc.get('n_qubits')!r}, expected {n_qubits}")
    pairs = np.asarray(doc["amplitudes"], dtype=float)
    if pairs.shape != (2**n_qubits, 2):
        raise ValueError(f"amplitudes have shape {pairs.shape}")
    return pairs[:, 0] + 1j * pairs[:, 1]
