"""Run every workload (or some) for several seeds and summarise.

    python3 bench/suite.py [--workloads noisy-f2,hierarchy] [--runs 3] [--first-seed 1]
                           [--seconds 15] [--trace] [--out .bench_results/LABEL.json]

Each run is its own interpreter (bench/run.py), so set-up time and memory
belong to that workload alone. Prints, for every workload, each end-to-end
metric with its unit, median, quartiles and spread (the quartile distance as
a share of the median) beside its bound, and writes all runs to a result
file that bench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT = 900


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    env = [json.loads(ln[4:]) for ln in lines if ln.startswith("env ")]
    raw = [json.loads(ln[4:]) for ln in lines if ln.startswith("raw ")]
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "raw": raw[0] if raw else {},
        "env": env[0] if env else None,
        "log": lines[:-1],
    }


def summarise(name: str, runs: list[dict], bounds: dict) -> list[str]:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines = [
        f"{name}: {len(runs)} runs, {attempted} commands, failed_frac {failed / attempted:.4g}, "
        f"all correct: {all(r['correct'] for r in runs)}"
    ]
    for metric, unit in runs[0]["units"].items():
        values = [r["metrics"][metric] for r in runs]
        q1, median, q3 = quartiles(values)
        bound = bounds.get(metric)
        limit = f"  bound {bound:.3g}" if bound is not None else ""
        lines.append(
            f"  {metric:<40} {median:14.6g} {unit:<14} q1 {q1:.6g}  q3 {q3:.6g}  "
            f"spread {spread(values):.3f}{limit}"
        )
    return lines


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="per-layer runs instead of end-to-end")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_results" / "latest.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    result = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        runs = [
            run_once(name, args.first_seed + i, args.seconds, args.trace) for i in range(args.runs)
        ]
        result["workloads"][name] = runs
        print("\n".join(summarise(name, runs, bounds)), flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1))
    print(f"wrote {args.out}")
    return 0 if all(r["correct"] for runs in result["workloads"].values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
