"""Command-line interface: compute invariants, generate state files, and run
the randomized verification suites. Each command returns its exit code and
its text; `main` alone writes that text, to stdout or `-o`, and prints errors.

Exit codes: 0 success, 1 verification failure, 2 input, usage or output error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from contextlib import nullcontext, suppress

from .bipartition import Partition
from .monotones import InvariantReport, all_partitions_report, partition_report
from .states import (
    NAMED_STATES,
    format_float,
    load_state,
    make_named_state,
    serialize_state,
)
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
# Characters per write: a whole document is never encoded in one copy.
_WRITE_SLICE = 2**20

_CSV_COLUMNS = (
    "partition",
    "n",
    "L",
    "l",
    "d_value",
    "e_value",
    "aux_name",
    "aux_re",
    "aux_im",
    "rank_deficient",
)


def _record_fields(report: InvariantReport, monotone: str) -> dict[str, str | None]:
    aux = report.aux_value
    return {
        "partition": report.partition.label,
        "n": str(report.partition.n),
        "L": str(report.partition.L),
        "l": str(report.partition.l),
        "d_value": format_float(report.d_value) if monotone in ("d", "both") else None,
        "e_value": format_float(report.e_value) if monotone in ("e", "both") else None,
        "aux_name": report.aux_name,
        "aux_re": format_float(aux.real) if aux is not None else None,
        "aux_im": format_float(aux.imag) if aux is not None else None,
        "rank_deficient": "true" if report.rank_deficient else "false",
    }


def _render_json(n_qubits: int, reports: list[InvariantReport], monotone: str) -> str:
    records = []
    for report in reports:
        fields = _record_fields(report, monotone)
        parts = []
        for key in _CSV_COLUMNS:
            value = fields[key]
            if value is None:
                rendered = "null"
            elif key in ("partition", "aux_name"):
                rendered = f'"{value}"'
            else:
                rendered = value
            parts.append(f'"{key}": {rendered}')
        records.append("    {" + ", ".join(parts) + "}")
    body = ",\n".join(records)
    return f'{{\n  "n_qubits": {n_qubits},\n  "records": [\n{body}\n  ]\n}}\n'


def _render_csv(reports: list[InvariantReport], monotone: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for report in reports:
        fields = _record_fields(report, monotone)
        writer.writerow(["" if fields[k] is None else fields[k] for k in _CSV_COLUMNS])
    return buf.getvalue()


def cmd_compute(args) -> tuple[int, str]:
    try:
        state = load_state(args.state)
    except OSError as exc:
        raise ValueError(f"cannot read state file: {exc}") from exc
    if args.all_partitions:
        reports = all_partitions_report(state)
    else:
        part = Partition.from_label(state.num_qubits, args.partition)
        reports = [partition_report(state, part)]
    if args.format == "json":
        return EXIT_OK, _render_json(state.num_qubits, reports, args.monotone)
    return EXIT_OK, _render_csv(reports, args.monotone)


def cmd_gen(args) -> tuple[int, str]:
    state = make_named_state(args.name, args.num_qubits, seed=args.seed)
    return EXIT_OK, serialize_state(state)


def cmd_verify(args) -> tuple[int, str]:
    results = run_suite(args.suite, trials=args.trials, seed=args.seed)
    width = max(len(r.name) for r in results)
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}  max residual "
        f"{r.max_residual:.3e}  tolerance {r.tolerance:.0e}  trials {r.trials}\n"
        for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} properties passed\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED, "".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglekit",
        description="Bipartition entanglement monotones for N-qubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute monotones for a state file")
    p_compute.add_argument("--state", required=True, help="path to a state file")
    group = p_compute.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition", help="comma-separated 1-based qubit positions, e.g. 3,4")
    group.add_argument(
        "--all-partitions", action="store_true", help="report every admissible partition"
    )
    p_compute.add_argument("--monotone", choices=("d", "e", "both"), default="both")
    p_compute.add_argument("--format", choices=("json", "csv"), default="json")
    p_compute.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p_compute.set_defaults(fn=cmd_compute)

    p_gen = sub.add_parser("gen", help="generate a named state file")
    p_gen.add_argument("name", choices=NAMED_STATES)
    p_gen.add_argument("num_qubits", type=int)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p_gen.set_defaults(fn=cmd_gen)

    p_verify = sub.add_parser("verify", help="run randomized verification suites")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(fn=cmd_verify, output=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The one boundary: ValueError (StateParseError too) and a failed write are exit 2.
    try:
        code, text = args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    stdout = nullcontext(sys.stdout)
    try:
        with stdout if args.output is None else open(args.output, "w", encoding="utf-8") as fh:
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start : start + _WRITE_SLICE])
            fh.flush()  # a buffered stdout fails here, not after main has returned
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        # What stdout still buffers would fail again in Python's flush at exit (code 120).
        if args.output is None:
            with suppress(OSError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
