"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py                      # every workload, seeds 1..10
    python3 perfbench/repeat.py --workloads cli-io --seeds 5 --first-seed 11
    python3 perfbench/repeat.py --seeds 1            # one line per metric and workload

For each workload and end-to-end metric this prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound from BENCHMARK.json.  With
``--trace 1`` it does the same for the per-layer metrics.  Every run's result
line and the summary are written to ``perfbench/out/repeat-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]),
                        help="comma-separated workload names")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
            ]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            result["elapsed_s"] = elapsed
            runs.append(result)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            summary[spec["name"]] = dict(summarize(values), unit=spec["unit"],
                                         bound=spec.get("bound"), values=values)
        report["workloads"][workload] = {"runs": runs, "summary": summary}

    print(f"\n{'workload':<14} {'metric':<38} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    for workload, data in report["workloads"].items():
        for name, s in data["summary"].items():
            bound = "" if s["bound"] is None else f"{s['bound']:.2f}"
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:<14} {name:<38} {s['median']:>12.6g} {s['q1']:>12.6g}"
                  f" {s['q3']:>12.6g} {spread:>8} {bound:>6}  {s['unit']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"repeat-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
