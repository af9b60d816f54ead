import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tanglekit.cli as cli
from tanglekit.states import make_named_state, parse_state, serialize_state
from tanglekit.verify import CheckResult

# data/haar5-seed7.state.json is `tanglekit gen haar-random 5 --seed 7` as
# written by the per-amplitude serializer that oracles.serialize_state_lines keeps.
DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_cli_error(capsys, argv, message):
    # A rejected input: exit 2, nothing on stdout, and exactly this `error:` line.
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv


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
    # A 16-qubit document is written in several slices of cli._WRITE_SLICE characters.
    big = tmp_path / "haar16.json"
    assert run_cli(capsys, "gen", "haar-random", "16", "--seed", "16", "-o", str(big))[0] == 0
    expected = serialize_state(make_named_state("haar-random", 16, seed=16))
    assert len(expected) > 2 * cli._WRITE_SLICE
    assert big.read_bytes() == expected.encode("utf-8")
    # stdout goes through the same slices.
    code, stdout, _ = run_cli(capsys, "gen", "haar-random", "16", "--seed", "16")
    assert code == 0 and stdout.encode("utf-8") == big.read_bytes()


def test_gen_matches_committed_state_file(tmp_path, capsys):
    out = tmp_path / "haar5.json"
    assert run_cli(capsys, "gen", "haar-random", "5", "--seed", "7", "-o", str(out))[0] == 0
    assert out.read_bytes() == (DATA / "haar5-seed7.state.json").read_bytes()


def test_gen_invalid_combination_exits_2(capsys):
    assert_cli_error(capsys, ("gen", "bell", "3"), "bell state needs exactly 2 qubits, got 3")


def test_gen_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "gen", "spooky", "3")
    assert exc.value.code == 2


def test_gen_nonpositive_size_exits_2(capsys):
    for size in ("0", "-1"):
        assert_cli_error(capsys, ("gen", "ghz", size), f"num_qubits must be >= 1, got {size}")


def test_gen_oversized_register_exits_2(capsys):
    # 2**40 amplitudes: rejected before anything is allocated.
    for name in ("ghz", "haar-random"):
        assert_cli_error(capsys, ("gen", name, "40"), "num_qubits must be <= 26, got 40")


def test_verify_negative_seed_exits_2(capsys):
    assert_cli_error(capsys, ("verify", "all", "--seed", "-1"), "expected non-negative integer")


def test_compute_single_partition_json(tmp_path, capsys):
    path = tmp_path / "ghz3.json"
    path.write_text(serialize_state(make_named_state("ghz", 3)), encoding="utf-8")
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
    s = make_named_state("haar-random", 4, seed=3)
    path.write_text(serialize_state(s), encoding="utf-8")
    code, stdout, _ = run_cli(
        capsys, "compute", "--state", str(path), "--all-partitions"
    )
    assert code == 0
    assert len(json.loads(stdout)["records"]) == 7


def test_compute_csv_columns(tmp_path, capsys):
    path = tmp_path / "s4.json"
    s = make_named_state("haar-random", 4, seed=4)
    path.write_text(serialize_state(s), encoding="utf-8")
    code, stdout, _ = run_cli(
        capsys, "compute", "--state", str(path), "--all-partitions", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(stdout)))
    assert rows[0] == list(cli._CSV_COLUMNS)
    assert len(rows) == 1 + 7
    by_partition = {row[0]: row for row in rows[1:]}
    assert by_partition["3,4"][6] == "L"  # aux_name column


def test_compute_keeps_the_sign_of_a_negative_zero(tmp_path, capsys):
    # M of these states is -0.0; `-0` would read back from JSON as the integer 0.
    for name in ("ghz", "w", "product-zero"):
        path = tmp_path / f"{name}4.json"
        assert run_cli(capsys, "gen", name, "4", "-o", str(path))[0] == 0
        argv = ("compute", "--state", str(path), "--partition", "2,4")
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        [record] = json.loads(stdout)["records"]
        assert record["aux_name"] == "M"
        assert repr(record["aux_re"]) == "-0.0", name
        code, stdout, _ = run_cli(capsys, *argv, "--format", "csv")
        [row] = csv.DictReader(io.StringIO(stdout))
        assert code == 0 and row["aux_re"] == "-0.0", name
    # tests/data/all-partitions-ghz-4.json is the whole GHZ-4 report, byte-checked
    # against the installed console script in CI; its values are exact.
    golden = json.loads((DATA / "all-partitions-ghz-4.json").read_text())
    code, stdout, _ = run_cli(
        capsys, "compute", "--state", str(tmp_path / "ghz4.json"), "--all-partitions"
    )
    assert code == 0 and json.loads(stdout) == golden
    assert repr(golden["records"][5]["aux_re"]) == "-0.0"


def test_compute_monotone_selector(tmp_path, capsys):
    path = tmp_path / "bell.json"
    path.write_text(serialize_state(make_named_state("bell", 2)), encoding="utf-8")
    code, stdout, _ = run_cli(
        capsys, "compute", "--state", str(path), "--partition", "2", "--monotone", "d"
    )
    assert code == 0
    [record] = json.loads(stdout)["records"]
    assert record["e_value"] is None
    assert abs(record["d_value"] - 1.0) < 1e-10


def test_compute_output_is_deterministic(tmp_path, capsys):
    path = tmp_path / "s5.json"
    s = make_named_state("haar-random", 5, seed=9)
    path.write_text(serialize_state(s), encoding="utf-8")
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
    "n-qubits-100000": b'{"n_qubits": 100000, "amplitudes": []}',
    "nan": _amplitude_document("NaN"),
    "infinity": _amplitude_document("Infinity"),
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
    missing = tmp_path / "nope.json"
    assert_cli_error(
        capsys,
        ("compute", "--state", str(missing), "--partition", "1"),
        f"cannot read state file: [Errno 2] No such file or directory: {str(missing)!r}",
    )


def test_compute_bad_partition_exits_2(tmp_path, capsys):
    path = tmp_path / "ghz3.json"
    path.write_text(serialize_state(make_named_state("ghz", 3)), encoding="utf-8")
    for spec, message in (
        ("x", "malformed partition spec 'x'"),
        (
            "1,2",
            "at most N/2 qubits may be selected (n=2, N=3); "
            "use the complementary subset instead",
        ),
        ("5", "selected positions must be strictly increasing in [1, 3], got (5,)"),
    ):
        assert_cli_error(capsys, ("compute", "--state", str(path), "--partition", spec), message)


def test_compute_requires_partition_choice(tmp_path, capsys):
    path = tmp_path / "bell.json"
    path.write_text(serialize_state(make_named_state("bell", 2)), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "compute", "--state", str(path))
    assert exc.value.code == 2


def test_unwritable_output_exits_2(tmp_path, capsys):
    state = tmp_path / "ghz3.json"
    state.write_text(serialize_state(make_named_state("ghz", 3)), encoding="utf-8")
    compute = ("compute", "--state", str(state), "--all-partitions", "-o")
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        for argv in (("gen", "ghz", "3", "-o"), compute):
            code, stdout, stderr = run_cli(capsys, *argv, str(target))
            assert code == 2 and stdout == "", (argv[0], target)
            assert stderr.startswith("error: cannot write output file: "), (argv[0], target)
    assert not (tmp_path / "missing").exists()


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_failing_stdout_write_exits_2(tmp_path, capsys, monkeypatch):
    state = tmp_path / "ghz3.json"
    state.write_text(serialize_state(make_named_state("ghz", 3)), encoding="utf-8")
    for argv in (
        ("gen", "ghz", "3"),
        ("compute", "--state", str(state), "--partition", "1"),
        ("verify", "lmn", "--trials", "1"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr("sys.stdout", _BrokenPipe())
            code = cli.main(list(argv))
        stderr = capsys.readouterr().err
        assert code == 2, argv
        assert stderr == "error: cannot write output file: [Errno 32] Broken pipe\n", argv


def test_closed_stdout_pipe_exits_2_in_a_subprocess(tmp_path):
    # The console script's path: a real stdout whose reader has gone, buffered
    # (Python's default for a pipe) or not. The exit-time flush of a buffered
    # stdout must not fail again and turn exit 2 into 120.
    state = tmp_path / "ghz3.json"
    state.write_text(serialize_state(make_named_state("ghz", 3)), encoding="utf-8")
    package_parent = str(Path(cli.__file__).resolve().parents[1])
    commands = (
        ("gen", "ghz", "3"),
        ("compute", "--state", str(state), "--partition", "1"),
        ("verify", "lmn", "--trials", "1"),
    )
    for unbuffered in ("", "1"):
        env = {**os.environ, "PYTHONPATH": package_parent, "PYTHONUNBUFFERED": unbuffered}
        for argv in commands:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "tanglekit.cli", *argv],
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                    cwd=tmp_path,
                    env=env,
                    timeout=120,
                )
            finally:
                os.close(write_end)
            stderr = proc.stderr.decode()
            assert proc.returncode == 2, (argv, unbuffered, stderr)
            assert stderr == "error: cannot write output file: [Errno 32] Broken pipe\n", (
                argv,
                unbuffered,
            )


def test_failing_command_leaves_output_target_as_it_was(tmp_path, capsys):
    ghz3 = tmp_path / "ghz3.json"
    ghz3.write_text(serialize_state(make_named_state("ghz", 3)), encoding="utf-8")
    not_json = tmp_path / "not-json.json"
    not_json.write_text("hello", encoding="utf-8")
    compute = ("compute", "--state")
    commands = (
        ("gen", "bell", "3"),
        (*compute, str(tmp_path / "nope.json"), "--partition", "1"),
        (*compute, str(ghz3), "--partition", "5"),
        (*compute, str(not_json), "--partition", "1"),
    )
    for argv in commands:
        absent = tmp_path / "absent.out"
        code, stdout, stderr = run_cli(capsys, *argv, "-o", str(absent))
        assert (code, stdout) == (2, ""), argv
        assert stderr.startswith("error: "), argv
        assert not absent.exists(), argv
        existing = tmp_path / "existing.out"
        existing.write_bytes(b"earlier output\n")
        code, stdout, _ = run_cli(capsys, *argv, "-o", str(existing))
        assert (code, stdout) == (2, ""), argv
        assert existing.read_bytes() == b"earlier output\n", argv


def test_verify_suite_passes(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "plucker", "--trials", "5")
    assert code == 0
    assert "[PASS] plucker-relation" in stdout
    assert "2/2 properties passed" in stdout
    # Every property of every suite runs exactly --trials trials.
    code, stdout, _ = run_cli(capsys, "verify", "all", "--trials", "3", "--seed", "5")
    *lines, last = stdout.splitlines()
    assert code == 0
    assert len(lines) == 17 and all(line.endswith(" trials 3") for line in lines)
    assert last == "17/17 properties passed"


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
    # A failure report that nobody can read is an output error: exit 2, not 1.
    monkeypatch.setattr("sys.stdout", _BrokenPipe())
    code = cli.main(["verify", "plucker"])
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write output file: [Errno 32] Broken pipe\n"


def test_trials_must_be_positive(capsys):
    assert_cli_error(capsys, ("verify", "all", "--trials", "0"), "trials must be >= 1, got 0")


def test_every_cli_error_path_exits_2_with_its_message(tmp_path, capsys):
    ghz3 = tmp_path / "ghz3.json"
    ghz3.write_text(serialize_state(make_named_state("ghz", 3)), encoding="utf-8")
    documents = {
        "one-qubit": '{"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]}',
        "not-json": "hello",
        "n27": '{"n_qubits": 27, "amplitudes": []}',
        # |c|**4 overflows, the norm itself overflows, |c|**4 underflows
        "c1e80": '{"n_qubits": 2, "amplitudes": [[1e80, 0], [0, 0], [0, 0], [1e80, 0]]}',
        "c1e155": '{"n_qubits": 2, "amplitudes": [[1e155, 0], [0, 0], [0, 0], [1e155, 0]]}',
        "c1e-90": '{"n_qubits": 2, "amplitudes": [[1e-90, 0], [0, 0], [0, 0], [1e-90, 0]]}',
    }
    for name, text in documents.items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    unwritable = tmp_path / "missing" / "x.json"
    compute = ("compute", "--state")
    rows = [
        (("gen", "w", "1"), "w state needs at least 2 qubits, got 1"),
        (("gen", "haar-random", "3", "--seed", "-5"), "expected non-negative integer"),
        (
            (*compute, str(tmp_path / "not-json.json"), "--partition", "1"),
            "invalid document: Expecting value (at position 0)",
        ),
        (
            (*compute, str(tmp_path / "n27.json"), "--partition", "1"),
            "'n_qubits' must be <= 26, got 27",
        ),
        (
            (*compute, str(ghz3), "--partition", "1,,2"),
            "malformed partition spec '1,,2'",
        ),
        (
            (*compute, str(tmp_path / "one-qubit.json"), "--all-partitions"),
            "need at least 2 qubits, got 1",
        ),
        (
            (*compute, str(ghz3), "--all-partitions", "-o", str(unwritable)),
            "cannot write output file: [Errno 2] No such file or directory: "
            f"{str(unwritable)!r}",
        ),
        (
            (*compute, str(tmp_path / "c1e80.json"), "--partition", "2"),
            "state norm is 1.414e+80, outside [1.221e-77, 1.158e+77]",
        ),
        (
            (*compute, str(tmp_path / "c1e155.json"), "--partition", "2"),
            "state norm overflows, outside [1.221e-77, 1.158e+77]",
        ),
        (
            (*compute, str(tmp_path / "c1e-90.json"), "--partition", "2"),
            "state norm is 1.414e-90, outside [1.221e-77, 1.158e+77]",
        ),
    ]
    for argv, message in rows:
        assert_cli_error(capsys, argv, message)
