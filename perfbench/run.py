"""tanglekit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload allparts-12q --seed 1 --seconds 25 --trace 0

Set-up imports tanglekit from ``src/`` of this checkout and builds the
workload's inputs from the seed.  After one warm-up round, the benchmark runs
the workload's rounds back to back until the timed operations add up to
``--seconds``, checking every output against its own reference between
rounds, outside the timed region.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports per-layer metrics from the
traced ones.  Human-readable lines come first; the last line of standard
output is one JSON object.  Run files and span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from workloads import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# One BLAS thread (at most nproc on any machine): two threads speed up the big
# factorizations but make the small ones slower and noisier.
BLAS_THREADS = 1
SETUP_SAMPLES = 9

# Times on the result line are CPU time of this single-threaded process.  On
# a shared 2-vCPU virtual machine, wall time also counts the time other tenants
# hold the CPU: over five seeds, wall-clock medians of allparts-12q spread by
# 15-28% (quartile distance over median), CPU-time medians by 7-10%.
# CPU time still moves with the host, which switches every 5-20 s between two
# states about 1.7x apart in speed.  The share of a run spent in the fast state
# varies, so medians over a run's rounds spread by up to 47% over five seeds;
# nearly every run holds a round in the slow state, so the slowest round spread
# by 15% at most.  Wall-clock times and medians are printed and stored beside.
END_TO_END = {
    "setup_s": "s",
    "round_cpu_max_s": "s",
    "peak_rss_mb": "MB",
}
DETAIL_UNITS = {
    "wall_s": "s", "round_cpu_p50_s": "s", "op_p50_s": "s", "op_cpu_p50_s": "s",
    "op_p90_s": "s", "op_p95_s": "s", "op_p99_s": "s",
    "partitions_per_s": "1/s", "state_mb_per_s": "MB/s", "failed_frac": "frac",
    "rounds": "count", "op_samples": "count", "check_s": "s",
    "traced_rounds": "count", "untraced_rounds": "count",
}
# Functions whose traced call counts and self times are reported.
LAYER_FUNCTIONS = (
    "states.parse_state", "states.serialize_state", "states.make_named_state",
    "bipartition.reshape", "bipartition.parity_signs",
    "plucker.gram_hermitian", "plucker.gram_bilinear", "plucker.plucker_coordinates",
    "linalg.maximal_minors", "linalg.pfaffian",
    "kernel.det", "kernel.matrix_rank", "kernel.norm", "kernel.qr",
    "monotones.d_monotone", "monotones.e_monotone", "monotones.partition_report",
    "monotones.all_partitions_report", "monotones.four_qubit_lmn",
    "local_ops.apply_local", "local_ops.monotonicity_trial",
    "verify.run_suite",
    "cli.main",
)
FACTORIZATIONS = frozenset({
    "kernel.det", "kernel.slogdet", "kernel.matrix_rank", "kernel.svd", "kernel.svdvals",
    "kernel.qr", "kernel.cholesky", "kernel.eig", "kernel.eigh", "kernel.eigvals",
    "kernel.eigvalsh", "kernel.inv", "kernel.pinv", "kernel.solve", "kernel.lstsq",
})


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in LAYER_FUNCTIONS}
    units.update({f"{name}.self_s": "s" for name in LAYER_FUNCTIONS})
    units["ratio.partition_reports_base"] = "count"
    units["ratio.reshape_per_partition"] = "ratio"
    units["ratio.parity_signs_per_partition"] = "ratio"
    units["ratio.factorizations_per_partition"] = "ratio"
    units["ratio.kernel_share_base_s"] = "s"
    units["ratio.kernel_share"] = "frac"
    units["plucker.gram.flops_computed"] = "flop"
    units["plucker.gram.bytes_computed"] = "B"
    units["trace.overhead_frac"] = "frac"
    return units


def load_tanglekit():
    """Import tanglekit from this checkout's ``src/``, never from elsewhere."""
    package = ROOT / "src" / "tanglekit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: tanglekit source not found at {package}")
    sys.path.insert(0, str(package.parent))
    import tanglekit
    import tanglekit.cli  # noqa: F401  (bound as tanglekit.cli for the CLI workloads)

    if Path(tanglekit.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported tanglekit from {tanglekit.__file__}, not {package}")
    return tanglekit


def set_up(workload_name: str, seed: int, workdir: Path):
    """Import tanglekit and build the workload's inputs."""
    from workloads import WORKLOADS

    tk = load_tanglekit()
    return WORKLOADS[workload_name](tk, seed, workdir)


def probe_setup_s(workload: str, seed: int) -> float:
    """Set-up CPU time of a fresh interpreter, as that interpreter measures it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


@dataclass
class Outcome:
    op: Op
    round: int
    traced: bool
    seconds: float
    cpu_seconds: float
    # What the call raised, if anything.
    error: str | None
    state_bytes: int = 0
    # Why the operation failed (it raised, or its output is wrong), if it did.
    failure: str | None = None


@dataclass
class Round:
    traced: bool
    seconds: float
    cpu_seconds: float


@dataclass
class RunResult:
    rounds: list[Round]
    outcomes: list[Outcome]
    # Peak resident memory after set-up and the warm-up round, before any check.
    peak_rss_mb: float
    check_s: float

    @property
    def failures(self) -> list[str]:
        return [f"round {o.round} {o.op.kind}: {o.failure}" for o in self.outcomes if o.failure]


def _check(op, result, error):
    """The failure of one operation, or None when its output is right."""
    if error is not None:
        return error
    try:
        return op.check(result)
    except Exception as exc:  # an unreadable output is a wrong output
        return f"check raised {type(exc).__name__}: {exc}"


def run_rounds(workload, seconds: float, tracer=None, after_round=None) -> RunResult:
    """Run a warm-up round, then rounds until the timed operations reach
    ``seconds`` of wall time.  With a tracer, the timed rounds go in pairs of
    one untraced and one traced round, so that both rounds of a pair see the
    host in the same state.

    Only the operations are timed.  Each round's outputs are checked after
    the round, and the warm-up round's only after peak memory is read; then
    ``after_round`` is called, if given.
    """
    rounds, outcomes = [], []
    peak_rss_mb = check_s = measured = 0.0
    r = 0
    while r == 0 or measured < seconds or (tracer is not None and r % 2 == 0):
        traced = tracer is not None and r > 0 and r % 2 == 0
        ops = workload.round(r)
        done = []
        if traced:
            tracer.install()
        try:
            for op in ops:
                # Garbage left by earlier operations and checks is collected
                # here, so that no operation is billed for it.
                gc.collect()
                start, cpu_start = time.perf_counter(), time.process_time()
                try:
                    if traced:
                        with tracer.span(f"op.{op.kind}"):
                            result, error = op.call(), None
                    else:
                        result, error = op.call(), None
                except Exception as exc:  # a raising operation counts as failed
                    result, error = None, f"{type(exc).__name__}: {exc}"
                cpu = time.process_time() - cpu_start
                wall = time.perf_counter() - start
                state_bytes = sum(p.stat().st_size for p in op.state_files if p.exists())
                done.append((Outcome(op, r, traced, wall, cpu, error, state_bytes), result))
        finally:
            if traced:
                tracer.uninstall()
        if r == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            rounds.append(Round(traced, sum(o.seconds for o, _ in done),
                                sum(o.cpu_seconds for o, _ in done)))
            measured += rounds[-1].seconds
        check_start = time.perf_counter()
        for outcome, result in done:
            outcome.failure = _check(outcome.op, result, outcome.error)
            outcomes.append(outcome)
        check_s += time.perf_counter() - check_start
        if after_round is not None:
            after_round()
        r += 1
    return RunResult(rounds, outcomes, peak_rss_mb, check_s)


def _round_time(outcomes, attr: str) -> float:
    """Time to finish one round: the sum, over the round's operations, of each
    one's median time across rounds.  Every round runs the same list, so this
    uses every operation, where a median of round totals would use few."""
    by_position: dict[int, list[float]] = {}
    position, last_round = 0, None
    for o in outcomes:
        position = position + 1 if o.round == last_round else 0
        last_round = o.round
        by_position.setdefault(position, []).append(getattr(o, attr))
    return sum(statistics.median(v) for v in by_position.values())


def end_to_end(run: RunResult, setup_samples):
    """End-to-end metrics of the untraced timed rounds, and printed details."""
    timed = [o for o in run.outcomes if o.round > 0 and not o.traced]
    untraced = [x for x in run.rounds if not x.traced]
    op_s = [o.seconds for o in timed]
    completed = [o for o in timed if o.error is None]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "round_cpu_max_s": max(x.cpu_seconds for x in untraced),
        "peak_rss_mb": run.peak_rss_mb,
    }
    details = {
        "round_cpu_p50_s": _round_time(timed, "cpu_seconds"),
        "wall_s": _round_time(timed, "seconds"),
        "op_cpu_p50_s": statistics.median(o.cpu_seconds for o in timed),
        "op_p50_s": statistics.median(op_s),
    }
    # The highest percentile with at least ten samples beyond it, if any.
    for pct in (99, 95, 90):
        if len(op_s) * (100 - pct) / 100 >= 10:
            details[f"op_p{pct}_s"] = quantile(op_s, pct / 100)
            break
    reporting = [o for o in completed if o.op.partitions]
    if reporting:
        details["partitions_per_s"] = (
            sum(o.op.partitions for o in reporting) / sum(o.seconds for o in reporting)
        )
    io_ops = [o for o in completed if o.op.state_files]
    if io_ops:
        details["state_mb_per_s"] = (
            sum(o.state_bytes for o in io_ops) / 1e6 / sum(o.seconds for o in io_ops)
        )
    details["rounds"] = len(untraced)
    details["op_samples"] = len(op_s)
    by_kind: dict[str, list[float]] = {}
    for o in timed:
        by_kind.setdefault(o.op.kind, []).append(o.seconds)
    details["op_p50_s_by_kind"] = {k: statistics.median(v) for k, v in sorted(by_kind.items())}
    details["setup_samples_s"] = setup_samples
    details["op_s"] = op_s
    details["op_cpu_s"] = [o.cpu_seconds for o in timed]
    return metrics, details


def per_layer(tracer, run: RunResult):
    """Per-layer metrics per traced round, and printed details."""
    from spans import gram_counts, summarize

    traced = [x for x in run.rounds if x.traced]
    count = len(traced)
    traced_s = sum(x.seconds for x in traced)
    spans = tracer.spans
    table = summarize(spans)

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics = {f"{name}.calls": row(name)["calls"] / count for name in LAYER_FUNCTIONS}
    metrics.update({f"{name}.self_s": row(name)["self_s"] / count for name in LAYER_FUNCTIONS})
    # Per-partition ratios are 0 where their base is 0: verify-all completes
    # no partition reports.
    reports = sum(o.op.partitions for o in run.outcomes if o.traced and o.error is None)
    factorizations = sum(v["calls"] for k, v in table.items() if k in FACTORIZATIONS)
    metrics["ratio.partition_reports_base"] = reports / count
    for name, calls in (("reshape", row("bipartition.reshape")["calls"]),
                        ("parity_signs", row("bipartition.parity_signs")["calls"]),
                        ("factorizations", factorizations)):
        metrics[f"ratio.{name}_per_partition"] = calls / reports if reports else 0.0
    kernel_self = sum(v["self_s"] for k, v in table.items()
                      if k.startswith("kernel.") or k.startswith("plucker.gram_"))
    metrics["ratio.kernel_share_base_s"] = traced_s / count
    metrics["ratio.kernel_share"] = kernel_self / traced_s
    flops, nbytes = gram_counts(spans)
    metrics["plucker.gram.flops_computed"] = flops / count
    metrics["plucker.gram.bytes_computed"] = nbytes / count
    # Rounds 2k - 1 (untraced) and 2k (traced) form pair k.
    metrics["trace.overhead_frac"] = statistics.median(
        t.cpu_seconds / u.cpu_seconds for u, t in zip(run.rounds[::2], run.rounds[1::2])
    ) - 1.0

    details = {"traced_rounds": count, "untraced_rounds": len(run.rounds) - count}
    details["spans"] = {name: dict(v, calls=v["calls"] / count) for name, v in sorted(table.items())}
    details["spans"] = {name: dict(v, calls=v["calls"] / count) for name, v in sorted(table.items())}
    return metrics, details


def result_line(run: RunResult, metrics: dict, units: dict) -> dict:
    """The JSON object printed as the last line of standard output."""
    failed = len(run.failures)
    return {
        "correct": failed == 0,
        "attempted": len(run.outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    # Wall-clock set-up time moved by a third between two sets of ten runs of
    # the same code; its CPU time is steadier.
    started = time.process_time()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    if args.setup_probe:
        set_up(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": time.process_time() - started}))
        return 0

    workload = set_up(args.workload, args.seed, workdir)
    setup_samples = [time.process_time() - started]
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    def probe_setup():
        # One set-up probe after each round spreads them over the run, so that
        # their median does not hang on the host's state in one short stretch.
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(probe_setup_s(args.workload, args.seed))

    try:
        run = run_rounds(workload, args.seconds, tracer, None if args.trace else probe_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics, details = per_layer(tracer, run)
        units = per_layer_units()
    else:
        while len(setup_samples) < SETUP_SAMPLES:
            probe_setup()
        metrics, details = end_to_end(run, setup_samples)
        units = END_TO_END
    failures = run.failures
    attempted = len(run.outcomes)
    details["failed_frac"] = len(failures) / attempted
    details["check_s"] = run.check_s
    details["failures"] = failures[:20]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "metrics": metrics, "details": details,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "operand_shape"],
            "spans": tracer.spans,
        }) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in record["environment"].items()))
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for name, value in details.items():
        if name in metrics:
            continue
        if name in DETAIL_UNITS:
            print(f"  {name:<36} {value:>14.6g} {DETAIL_UNITS[name]}")
        elif name not in ("failures", "spans", "op_s", "op_cpu_s"):
            print(f"  {name:<36} {value}")
    print(f"  failed {len(failures)} of {attempted} operations")
    for failure in failures[:5]:
        print(f"    {failure}")
    print(json.dumps(result_line(run, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
