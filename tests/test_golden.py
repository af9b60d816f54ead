"""`compute --all-partitions` and `compute --partition` against committed expected output.

The files in ``tests/data`` were written by ``tanglekit gen <name> <N> [--seed
N] -o s.json`` and ``tanglekit compute --state s.json --all-partitions [--format
csv]``.  Labels, shapes, auxiliary names, null fields and rank flags must match
exactly; floats to 1e-12 relative, so the test holds on other CPUs and BLAS
builds, where the last printed digits may differ.  An expected 0 (an exactly
vanishing determinant or Pfaffian) allows 1e-15 of round-off.  ``compute
--partition P`` is held to the same record of each partition P.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

import tanglekit.cli as cli

DATA = Path(__file__).parent / "data"
# (name, N, seed) of each generated state.
STATES = [("haar-random", 4, 4), ("haar-random", 5, 5), ("haar-random", 8, 8),
          ("ghz", 5, None), ("w", 5, None)]
EXACT = ("partition", "n", "L", "l", "aux_name", "rank_deficient")
FLOATS = ("d_value", "e_value", "aux_re", "aux_im")


def _records(text, fmt):
    if fmt == "json":
        return json.loads(text)["records"]
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for key, value in row.items():
            if value == "":
                row[key] = None
            elif key in ("n", "L", "l"):
                row[key] = int(value)
            elif key in FLOATS:
                row[key] = float(value)
        row["rank_deficient"] = {"true": True, "false": False}[row["rank_deficient"]]
    return rows


def _gen(tmp_path, name, num_qubits, seed):
    path = tmp_path / "state.json"
    gen = ["gen", name, str(num_qubits), "-o", str(path)]
    assert cli.main(gen + (["--seed", str(seed)] if seed is not None else [])) == 0
    return path


def _expected_text(name, num_qubits, fmt):
    return (DATA / f"all-partitions-{name}-{num_qubits}.{fmt}").read_text()


def _assert_record_matches(mine, want):
    assert {k: mine[k] for k in EXACT} == {k: want[k] for k in EXACT}
    for key in FLOATS:
        label = (want["partition"], key)
        if want[key] is None:
            assert mine[key] is None, label
        else:
            assert math.isclose(mine[key], want[key], rel_tol=1e-12,
                                abs_tol=0.0 if want[key] else 1e-15), label


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name,num_qubits,seed", STATES)
def test_all_partitions_match_expected_output(tmp_path, capsys, fmt, name, num_qubits, seed):
    path = _gen(tmp_path, name, num_qubits, seed)
    argv = ["compute", "--state", str(path), "--all-partitions", "--format", fmt]
    assert cli.main(argv) == 0
    got = _records(capsys.readouterr().out, fmt)
    expected = _records(_expected_text(name, num_qubits, fmt), fmt)
    assert [r["partition"] for r in got] == [r["partition"] for r in expected]
    for mine, want in zip(got, expected):
        _assert_record_matches(mine, want)


@pytest.mark.parametrize("name,num_qubits,seed", STATES)
def test_each_partition_matches_expected_output(tmp_path, capsys, name, num_qubits, seed):
    # The single-partition path opens every reshape itself. Every GHZ and W
    # node of the walk does too (a zero column or a support below l stops
    # their Gram chains), so their record lines are the golden's byte for byte.
    path = _gen(tmp_path, name, num_qubits, seed)
    text = _expected_text(name, num_qubits, "json")
    lines = [line.removesuffix(",") for line in text.splitlines()[3:-2]]
    for want, line in zip(_records(text, "json"), lines, strict=True):
        argv = ["compute", "--state", str(path), "--partition", want["partition"]]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        [mine] = _records(out, "json")
        _assert_record_matches(mine, want)
        if name in ("ghz", "w"):
            assert out.splitlines()[3] == line
