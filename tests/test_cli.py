import csv
import io
import json

import numpy as np
import pytest

import tanglekit.cli as cli
from tanglekit.states import MAX_QUBITS, make_named_state, parse_state, save_state
from tanglekit.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_ghz_file(tmp_path, capsys):
    out = tmp_path / "ghz4.json"
    code, stdout, _ = run_cli(capsys, "gen", "ghz", "4", "-o", str(out))
    assert code == 0 and stdout == ""
    state = parse_state(out.read_text())
    assert abs(state.amplitudes[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(state.amplitudes[15] - 1 / np.sqrt(2)) < 1e-15


def test_gen_w_to_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "gen", "w", "3")
    assert code == 0
    state = parse_state(stdout)
    for idx in (1, 2, 4):
        assert abs(state.amplitudes[idx] - 1 / np.sqrt(3)) < 1e-15


def test_gen_seeded_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "gen", "haar-random", "5", "--seed", "7", "-o", str(a))[0] == 0
    assert run_cli(capsys, "gen", "haar-random", "5", "--seed", "7", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_invalid_combination_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "gen", "bell", "3")
    assert code == 2
    assert "error" in stderr


def test_gen_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "gen", "spooky", "3")
    assert exc.value.code == 2


def test_gen_nonpositive_size_exits_2(capsys):
    assert run_cli(capsys, "gen", "ghz", "-1")[0] == 2
    assert run_cli(capsys, "gen", "ghz", "0")[0] == 2


def test_gen_oversized_register_exits_2(capsys):
    # 2**40 amplitudes: rejected before anything is allocated.
    for name in ("ghz", "haar-random"):
        code, stdout, stderr = run_cli(capsys, "gen", name, "40")
        assert code == 2 and stdout == "", name
        assert stderr.startswith("error: ") and f"<= {MAX_QUBITS}" in stderr, name


def test_verify_negative_seed_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "verify", "plucker", "--seed", "-1", "--trials", "2")
    assert code == 2 and "error" in stderr


def test_compute_single_partition_json(tmp_path, capsys):
    path = tmp_path / "ghz3.json"
    save_state(make_named_state("ghz", 3), path)
    code, stdout, _ = run_cli(capsys, "compute", "--state", str(path), "--partition", "3")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["n_qubits"] == 3
    [record] = doc["records"]
    assert record["partition"] == "3"
    assert abs(record["d_value"] - 1.0) < 1e-10
    assert abs(record["e_value"] - 1.0) < 1e-10
    assert record["rank_deficient"] is False


def test_compute_all_partitions_counts(tmp_path, capsys):
    path = tmp_path / "s4.json"
    save_state(make_named_state("haar-random", 4, seed=3), path)
    code, stdout, _ = run_cli(
        capsys, "compute", "--state", str(path), "--all-partitions"
    )
    assert code == 0
    assert len(json.loads(stdout)["records"]) == 7


def test_compute_csv_columns(tmp_path, capsys):
    path = tmp_path / "s4.json"
    save_state(make_named_state("haar-random", 4, seed=4), path)
    code, stdout, _ = run_cli(
        capsys, "compute", "--state", str(path), "--all-partitions", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(stdout)))
    assert rows[0] == list(cli._CSV_COLUMNS)
    assert len(rows) == 1 + 7
    by_partition = {row[0]: row for row in rows[1:]}
    assert by_partition["3,4"][6] == "L"  # aux_name column


def test_compute_monotone_selector(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_state(make_named_state("bell", 2), path)
    code, stdout, _ = run_cli(
        capsys, "compute", "--state", str(path), "--partition", "2", "--monotone", "d"
    )
    assert code == 0
    [record] = json.loads(stdout)["records"]
    assert record["e_value"] is None
    assert abs(record["d_value"] - 1.0) < 1e-10


def test_compute_output_is_deterministic(tmp_path, capsys):
    path = tmp_path / "s5.json"
    save_state(make_named_state("haar-random", 5, seed=9), path)
    argv = ("compute", "--state", str(path), "--all-partitions", "--format", "csv")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def _amplitude_document(first_re: str) -> bytes:
    return f'{{"n_qubits": 1, "amplitudes": [[{first_re}, 0], [0, 0]]}}'.encode()


# One loop rather than a parametrization keeps this test's id stable.
MALFORMED_FILES = {
    "wrong-count": b'{"n_qubits": 2, "amplitudes": [[1, 0]]}',
    "401-digit-int": _amplitude_document("9" * 401),
    "5000-digit-int": _amplitude_document("9" * 5000),
    "not-utf8": b'{"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]} \xe9\xff',
    "deeply-nested": b"[" * 100000 + b"]" * 100000,
}


def test_compute_malformed_file_exits_2_without_output(tmp_path, capsys):
    for name, content in MALFORMED_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        code, stdout, stderr = run_cli(
            capsys, "compute", "--state", str(path), "--partition", "1"
        )
        assert code == 2, name
        assert stdout == "", name
        assert stderr.startswith("error: "), name


def test_compute_missing_file_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "compute", "--state", str(tmp_path / "nope.json"), "--partition", "2"
    )
    assert code == 2 and "error" in stderr


def test_compute_bad_partition_exits_2(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_state(make_named_state("bell", 2), path)
    for spec in ("1,2", "3", "x"):
        code, stdout, stderr = run_cli(
            capsys, "compute", "--state", str(path), "--partition", spec
        )
        assert code == 2 and stdout == "" and "error" in stderr


def test_compute_requires_partition_choice(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_state(make_named_state("bell", 2), path)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "compute", "--state", str(path))
    assert exc.value.code == 2


def test_unwritable_output_exits_2(tmp_path, capsys):
    state = tmp_path / "ghz3.json"
    save_state(make_named_state("ghz", 3), state)
    compute = ("compute", "--state", str(state), "--all-partitions", "-o")
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        for argv in (("gen", "ghz", "3", "-o"), compute):
            code, stdout, stderr = run_cli(capsys, *argv, str(target))
            assert code == 2 and stdout == "", (argv[0], target)
            assert stderr.startswith("error: cannot write output file: "), (argv[0], target)
    assert not (tmp_path / "missing").exists()


def test_verify_suite_passes(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "plucker", "--trials", "5")
    assert code == 0
    assert "[PASS] plucker-relation" in stdout
    assert "2/2 properties passed" in stdout


def test_verify_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "lmn", "--trials", "5", "--seed", "3")
    _, second, _ = run_cli(capsys, "verify", "lmn", "--trials", "5", "--seed", "3")
    assert first == second


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "spectral")
    assert exc.value.code == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = CheckResult("doomed", 1e-12, 1.0, 5, False)
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [failing])
    code, stdout, _ = run_cli(capsys, "verify", "plucker")
    assert code == 1
    assert "[FAIL] doomed" in stdout


def test_trials_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "plucker", "--trials", "0")
    assert exc.value.code == 2
