"""Compare two result files written by bench/suite.py.

    python3 bench/compare.py BASE.json CHANGE.json

Prints one row per (workload, end-to-end metric): both medians with their
quartiles, the relative change, the relative change of the figures as
measured (not scaled to the reference machine speed; calibration.py) where
the run printed them, and a verdict:

- "worse": the change's median is worse than the base's by more than the
  metric's bound; or, on every row of the workload, the change has more
  failed commands or more incorrect runs than the base.
- "better": the change wins at least nine tenths of at least ten runs paired
  by seed (ties count for neither), and its median beats the base's by more
  than the base's quartile distance.
- "within bound": neither of the above.
- "unresolved": either side's spread (quartile distance over median) is
  wider than the bound, unless every change run beats every base run.

A row whose change as measured differs from its scaled change by more than
the bound is marked "raw differs": the calibration moved with the program,
or the machine's speed changed in a way it did not follow.

Exits 1 when any row is "worse" or "unresolved", else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from suite import load_benchmark, quartiles, spread

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(base: list[float], change: list[float], bound: float, lower_is_better: bool,
            more_failures: bool = False) -> tuple[str, float]:
    """Return (verdict, relative change with positive meaning worse).

    base[i] and change[i] are paired: the same seed on both commits.
    """
    def beats(x: float, y: float) -> bool:
        return x < y if lower_is_better else x > y

    q1_a, med_a, q3_a = quartiles(base)
    _, med_b, _ = quartiles(change)
    worse_by = _worse_by(med_a, med_b, lower_is_better)
    if more_failures:
        return "worse", worse_by
    pairs = list(zip(base, change))
    wins = sum(beats(b, a) for a, b in pairs)
    gain = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and worse_by < 0 and abs(med_b - med_a) > q3_a - q1_a)
    if max(spread(base), spread(change)) > bound:
        if not all(beats(b, a) for b in change for a in base):
            return "unresolved", worse_by
    elif worse_by > bound:
        return "worse", worse_by
    return ("better" if gain else "within bound"), worse_by


def _worse_by(base_median: float, change_median: float, lower_is_better: bool) -> float:
    worse_by = (change_median - base_median) / abs(base_median) if base_median else 0.0
    return worse_by if lower_is_better else -worse_by


def _by_seed(runs: list[dict]) -> dict:
    return {run["seed"]: run for run in runs}


def compare(base: dict, change: dict, metrics: list[dict]) -> list[tuple]:
    rows = []
    for workload, base_runs in base["workloads"].items():
        change_runs = change["workloads"].get(workload)
        if not change_runs:
            continue
        a, b = _by_seed(base_runs), _by_seed(change_runs)
        seeds = sorted(set(a) & set(b)) or None
        base_sel = [a[s] for s in seeds] if seeds else base_runs
        change_sel = [b[s] for s in seeds] if seeds else change_runs
        more_failures = (
            sum(r["failed"] for r in change_sel) > sum(r["failed"] for r in base_sel)
            or sum(not r["correct"] for r in change_sel) > sum(not r["correct"] for r in base_sel)
        )
        for metric in metrics:
            name = metric["name"]
            if name not in base_sel[0]["metrics"] or name not in change_sel[0]["metrics"]:
                continue
            lower = metric["better"] == "lower"
            xs = [r["metrics"][name] for r in base_sel]
            ys = [r["metrics"][name] for r in change_sel]
            result, worse_by = verdict(xs, ys, metric["bound"], lower, more_failures)
            raw_by = None
            if all(name in r.get("raw", {}) for r in base_sel + change_sel):
                raw_by = _worse_by(quartiles([r["raw"][name] for r in base_sel])[1],
                                   quartiles([r["raw"][name] for r in change_sel])[1], lower)
                if abs(raw_by - worse_by) > metric["bound"]:
                    result += ", raw differs"
            rows.append((workload, name, metric["unit"], quartiles(xs), quartiles(ys), worse_by, raw_by,
                         result))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    change = json.loads(args.change.read_text())
    rows = compare(base, change, load_benchmark()["end_to_end"])
    print(f"{'workload':<14} {'metric':<14} {'unit':<6} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'worse by':>9} {'raw':>9}  verdict")
    for workload, name, unit, (q1a, ma, q3a), (q1b, mb, q3b), worse_by, raw_by, result in rows:
        raw = "-" if raw_by is None else f"{raw_by:+.2%}"
        print(f"{workload:<14} {name:<14} {unit:<6} {f'{ma:.5g} [{q1a:.5g}, {q3a:.5g}]':<34} "
              f"{f'{mb:.5g} [{q1b:.5g}, {q3b:.5g}]':<34} {worse_by:>+9.2%} {raw:>9}  {result}")
    return 1 if any(row[-1].split(",")[0] in ("worse", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
