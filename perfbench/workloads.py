"""The benchmark's workloads.

A workload builds its inputs from the seed when it is constructed (that is
set-up), then hands out rounds: round ``r`` is the workload's fixed list of
operations, with inputs drawn from ``(seed, r)``.  Each operation is one call
into tanglekit's public API plus the check of its output; checks run after the
timed region.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    # Returns the reason the output is wrong, or None when it is right.
    check: Callable[[Any], str | None]
    # Partition reports one call completes.
    partitions: int = 0
    # State files the call writes or reads.
    state_files: tuple[Path, ...] = field(default_factory=tuple)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _seed32(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def haar_amplitudes(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return amps / np.sqrt(np.vdot(amps, amps).real)


def ghz_amplitudes(n_qubits: int) -> np.ndarray:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return amps


def w_amplitudes(n_qubits: int) -> np.ndarray:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[[1 << k for k in range(n_qubits)]] = 1.0 / np.sqrt(n_qubits)
    return amps


def _sample_selection(rng: np.random.Generator, n_qubits: int, n: int) -> tuple[int, ...]:
    return tuple(sorted(int(k) + 1 for k in rng.choice(n_qubits, size=n, replace=False)))


class Workload:
    name = ""

    def __init__(self, tk, seed: int, workdir: Path):
        self.tk = tk
        self.seed = seed
        self.workdir = workdir

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def _cli(self, argv: list[str]) -> Callable[[], tuple[int, str, str]]:
        """A ``tanglekit`` command run in-process: (exit code, stdout, stderr)."""

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.tk.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 2
            return code, out.getvalue(), err.getvalue()

        return call


def _exit_failure(result) -> str | None:
    code, _, err = result
    return None if code == 0 else f"exit code {code}: {err.strip()[:200]}"


class AllParts12q(Workload):
    """``all_partitions_report`` on a Haar-random 12-qubit state, on GHZ and
    on W: 2047 partitions each, all with l <= 64."""

    name = "allparts-12q"
    N = 12

    def __init__(self, tk, seed, workdir):
        super().__init__(tk, seed, workdir)
        self.selections = checks.admissible_selections(self.N)
        self.ghz = tk.PureState(self.N, ghz_amplitudes(self.N))
        self.w = tk.PureState(self.N, w_amplitudes(self.N))
        self._fixed_refs: dict[str, dict] = {}

    def round(self, r):
        haar = self.tk.PureState(self.N, haar_amplitudes(self.N, _rng(self.seed, r)))
        return [self._op("haar", haar), self._op("ghz", self.ghz), self._op("w", self.w)]

    def _refs(self, kind, state):
        if kind == "haar":
            return checks.reference_monotones(state.amplitudes, self.N, self.selections)
        if kind not in self._fixed_refs:
            self._fixed_refs[kind] = checks.reference_monotones(
                state.amplitudes, self.N, self.selections
            )
        return self._fixed_refs[kind]

    def _op(self, kind, state):
        def check(reports):
            return checks.check_records(
                checks.report_records(reports), self._refs(kind, state), self.N
            )

        return Op(kind, lambda: self.tk.all_partitions_report(state), check,
                  partitions=len(self.selections))


class BalancedWide(Workload):
    """``partition_report`` on sampled near-balanced partitions (l = 64..1024)
    of Haar-random 16-, 18- and 20-qubit states."""

    name = "balanced-wide"
    SIZES = (16, 18, 20)
    N_SELECTED = range(6, 11)

    def __init__(self, tk, seed, workdir):
        super().__init__(tk, seed, workdir)
        self.states = {
            n_qubits: tk.PureState(n_qubits, haar_amplitudes(n_qubits, _rng(seed, n_qubits)))
            for n_qubits in self.SIZES
        }

    def round(self, r):
        rng = _rng(self.seed, r)
        ops = []
        for n_qubits, state in self.states.items():
            for n in self.N_SELECTED:
                if 2 * n > n_qubits:
                    break
                sel = _sample_selection(rng, n_qubits, n)
                ops.append(self._op(state, sel))
        return ops

    def _op(self, state, sel):
        part = self.tk.Partition(state.num_qubits, sel)

        def check(report):
            refs = checks.reference_monotones(state.amplitudes, state.num_qubits, [sel])
            return checks.check_records(checks.report_records([report]), refs, state.num_qubits)

        return Op(f"l={part.l}", lambda: self.tk.partition_report(state, part), check,
                  partitions=1)


class CliIO(Workload):
    """In-process ``tanglekit`` commands: ``gen haar-random N -o file`` then
    ``compute --state file --partition ...`` for N = 16, 17, 18, and
    ``compute --all-partitions`` on a 10-qubit file in JSON and in CSV."""

    name = "cli-io"
    SIZES = (16, 17, 18)
    ALL_PARTITIONS_N = 10
    # Partitions of the single-partition computes select 1..6 qubits (l <= 64).
    MAX_SELECTED = 6

    def round(self, r):
        rng = _rng(self.seed, r)
        ops = []
        for n_qubits in self.SIZES:
            gen, path, seed = self._gen(r, n_qubits)
            out = self.workdir / f"report{n_qubits}.json"
            sel = _sample_selection(rng, n_qubits, int(rng.integers(1, self.MAX_SELECTED + 1)))
            label = ",".join(map(str, sel))
            ops.append(gen)
            ops.append(Op(
                "compute",
                self._cli(["compute", "--state", str(path), "--partition", label, "-o", str(out)]),
                self._check_compute(n_qubits, seed, out, checks.json_records, [sel]),
                partitions=1,
                state_files=(path,),
            ))
        n_qubits = self.ALL_PARTITIONS_N
        gen, path, seed = self._gen(r, n_qubits)
        ops.append(gen)
        everything = checks.admissible_selections(n_qubits)
        for fmt, parse in (("json", checks.json_records), ("csv", checks.csv_records)):
            out = self.workdir / f"all.{fmt}"
            ops.append(Op(
                f"compute-all-{fmt}",
                self._cli(["compute", "--state", str(path), "--all-partitions",
                           "--format", fmt, "-o", str(out)]),
                self._check_compute(n_qubits, seed, out, parse, everything),
                partitions=len(everything),
                state_files=(path,),
            ))
        return ops

    def _gen(self, r, n_qubits):
        """``gen haar-random``: the operation, the file it writes, its seed."""
        seed = _seed32(self.seed, r, n_qubits)
        path = self.workdir / f"state{n_qubits}.json"
        argv = ["gen", "haar-random", str(n_qubits), "--seed", str(seed), "-o", str(path)]
        return Op("gen", self._cli(argv), self._check_gen(n_qubits, seed, path),
                  state_files=(path,)), path, seed

    def _expected_amplitudes(self, n_qubits, seed):
        return self.tk.make_named_state("haar-random", n_qubits, seed=seed).amplitudes

    def _check_gen(self, n_qubits, seed, path):
        def check(result):
            failure = _exit_failure(result)
            if failure:
                return failure
            amps = checks.state_file_amplitudes(path.read_text(encoding="utf-8"), n_qubits)
            if not np.array_equal(amps, self._expected_amplitudes(n_qubits, seed)):
                return f"{path.name} does not round-trip the generated state exactly"
            return None

        return check

    def _check_compute(self, n_qubits, seed, out, parse, expected):
        def check(result):
            failure = _exit_failure(result)
            if failure:
                return failure
            records = parse(out.read_text(encoding="utf-8"))
            refs = checks.reference_monotones(
                self._expected_amplitudes(n_qubits, seed), n_qubits, expected
            )
            return checks.check_records(records, refs, n_qubits)

        return check


class VerifyAll(Workload):
    """``tanglekit verify all --trials T --seed S``, a fresh seed each round."""

    name = "verify-all"
    TRIALS = 100

    def round(self, r):
        argv = ["verify", "all", "--trials", str(self.TRIALS), "--seed", str(_seed32(self.seed, r))]
        return [Op("verify", self._cli(argv), self._check)]

    @staticmethod
    def _check(result):
        failure = _exit_failure(result)
        if failure:
            return failure
        lines = result[1].splitlines()
        properties = [line for line in lines if line.startswith("[")]
        failing = [line for line in properties if not line.startswith("[PASS]")]
        if failing:
            return f"property failed: {failing[0]}"
        summary = f"{len(properties)}/{len(properties)} properties passed"
        if not properties or lines[-1] != summary:
            return f"unexpected verify output ending {lines[-1:]!r}"
        return None


WORKLOADS = {w.name: w for w in (AllParts12q, BalancedWide, CliIO, VerifyAll)}
