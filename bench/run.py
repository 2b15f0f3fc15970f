"""Run one benchmark workload against the trep sources of this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives trep.cli.main in-process, one command at a time (a closed loop with
one client and no --parallel), on scenario files generated from --seed, and
checks every command's output. Times leave out the time the benchmark's
thread waited for a CPU and are scaled to a reference machine speed
(calibration.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, and the line "raw {...}" before it holds the timed
ones as measured, wall time unadjusted and unscaled; with --trace 1 a separate traced run gives the
per-layer ones, each per block (one pass over the workload's strata). The
line starting with "env " records the machine and versions.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibration import CAL_REF_S, calibrate, scaled_times
from child import run_delay

PROCESS_START = perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_COMMANDS = 100      # so that ten samples lie beyond p90
SETUP_PROBES = 5        # fresh interpreters timed for setup_s; the median is reported
CHILD_TIMEOUT = 120
DEADLINE_S = 120        # start no new block after this much wall time

FUNCTIONS = (
    "cli.main", "cli.build_parser", "cli.cmd_decode", "cli.cmd_nash", "cli.cmd_noisy",
    "cli.cmd_bootstrap",
    "repgraph.load", "repgraph.validate", "repgraph.from_strategies",
    "pagerank.build_designated_chain", "pagerank.stationary", "pagerank.reputation_scores",
    "pagerank.tour_counts", "pagerank.contribution_matrix",
    "game.expected_utilities", "game.validate_profile", "game.bipartite_utility",
    "game.sample_nature",
    "equilibrium.truth_telling_profile", "equilibrium.best_response_to_mass",
    "equilibrium.best_response_closed_form", "equilibrium.measure_epsilon_prime",
    "equilibrium.hierarchy_best_response_gains",
    "decoder.decode", "decoder.decode_result_csv", "decoder.count_inversions", "decoder.f1",
    "decoder.f2_check", "decoder.noisy_belief_two_point",
    "bootstrap.run_bootstrap", "bootstrap.select_committee", "bootstrap.honest_majority_check",
    "bootstrap.trace_event_log",
    "rng.substream",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "cmd_ms_p50": "ms",
    "cmd_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    from spans import LAYERS
    from sweep import metric_names

    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "pagerank.stationary.iters": "count",
        "pagerank.stationary.residual_max": "L1",
        "pagerank.stationary.mflop": "Mflop_computed",
        "pagerank.stationary.mbytes": "MB_computed",
        "decoder.decode.distinct_frac": "frac",
        "pagerank.tour_counts.distinct_frac": "frac",
        "trace.overhead_frac": "frac",
        "trace.coverage_frac": "frac",
    })
    units.update({name: "ms" for name in metric_names()})
    return units


# ---------------------------------------------------------------- environment

def _blas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------- runs

def _child(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} failed: {proc.stderr.strip()}")
    return proc.stdout


class Runner:
    """Executes commands through trep.cli.main and checks their outputs.

    Every command runs between two calibrations (calibration.py): raw[i]
    ran between cals[i] and cals[i + 1]. raw holds wall times; on_cpu the
    same less the time the thread waited for a CPU.
    """

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.out = workdir / "out"
        self.cli = importlib.import_module("trep.cli")
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.raw: list[float] = []
        self.on_cpu: list[float] = []
        self.strata: list[str] = []
        self.cals = [calibrate()]

    def execute(self, command) -> None:
        if self.tracer is not None:
            self.tracer.scale = CAL_REF_S / self.cals[-1]
        for name in self.workload.outputs:
            (self.out / name).unlink(missing_ok=True)
        stdout = io.StringIO()
        argv = command.argv + ["--out", str(self.out)]
        delay = run_delay()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)  # looked up per call, so the tracer's wrapper is used
        except Exception:  # a crash counts as a failed command, and the loop goes on
            rc = traceback.format_exc(limit=1).strip().splitlines()[-1]
        self.raw.append(perf_counter() - start)
        self.on_cpu.append(self.raw[-1] - (run_delay() - delay))
        self.cals.append(calibrate())
        self.strata.append(command.stratum)
        self.attempted += 1
        if rc != 0:
            errors = [f"exit {rc}"]
        else:
            files = {}
            for name in self.workload.outputs:
                path = self.out / name
                files[name] = path.read_text(encoding="utf-8") if path.is_file() else None
            errors = command.check(stdout.getvalue(), files)
        if errors:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(command.argv)}: {'; '.join(errors)}")

    def block(self, commands) -> tuple[int, range]:
        """Run one block; returns (trials, positions of its commands in raw)."""
        first = len(self.raw)
        for command in commands:
            self.execute(command)
        for command in commands:
            Path(command.argv[1]).unlink(missing_ok=True)  # the scenario file
        return sum(c.trials for c in commands), range(first, len(self.raw))

    def scaled(self) -> list[float]:
        return scaled_times(self.on_cpu, self.cals)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _keep_going(spent: float, seconds: float, commands: int = MIN_COMMANDS) -> bool:
    if perf_counter() - PROCESS_START > DEADLINE_S:
        return False
    return spent < seconds or commands < MIN_COMMANDS


def measure(runner: Runner, seconds: float) -> tuple[dict, dict, list[str]]:
    """Untraced closed loop over fresh blocks; the end-to-end metrics, scaled and as measured."""
    first = len(runner.raw)
    blocks = []
    while _keep_going(sum(runner.on_cpu[first:]), seconds, len(runner.raw) - first):
        blocks.append(runner.block(runner.workload.block("run", len(blocks))))
    scaled = runner.scaled()
    times = scaled[first:]
    raw = runner.raw[first:]
    metrics = {
        "trials_per_s": statistics.median(trials / sum(scaled[i] for i in pos) for trials, pos in blocks),
        "cmd_ms_p50": _percentile(times, 0.5) * 1e3,
        "cmd_ms_p90": _percentile(times, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    measured = {
        "trials_per_s": statistics.median(trials / sum(runner.raw[i] for i in pos) for trials, pos in blocks),
        "cmd_ms_p50": _percentile(raw, 0.5) * 1e3,
        "cmd_ms_p90": _percentile(raw, 0.9) * 1e3,
    }
    beyond = sum(t * 1e3 > metrics["cmd_ms_p90"] for t in times)
    by_stratum = {}
    for stratum, t in zip(runner.strata[first:], times):
        by_stratum.setdefault(stratum, []).append(t * 1e3)
    notes = [
        f"samples commands={len(times)} blocks={len(blocks)} beyond_p90={beyond}",
        "cmd_ms_p50 by stratum: "
        + " ".join(f"{k} {_percentile(v, 0.5):.4g} ({len(v)})" for k, v in sorted(by_stratum.items())),
    ]
    return metrics, measured, notes


def measure_traced(runner: Runner, seconds: float, seed: int) -> tuple[dict, list[str]]:
    """Alternate untraced and traced blocks; per-layer metrics per traced block."""
    from spans import LAYERS, Tracer
    from sweep import run_sweep

    tracer = Tracer()
    first = len(runner.raw)
    plain, traced = [], []
    blocks = 0
    while blocks == 0 or _keep_going(sum(runner.on_cpu[first:]), seconds):
        plain.extend(runner.block(runner.workload.block("plain", blocks))[1])
        tracer.install()
        runner.tracer = tracer
        try:
            traced.extend(runner.block(runner.workload.block("traced", blocks))[1])
        finally:
            runner.tracer = None
            tracer.uninstall()
        blocks += 1
    scaled = runner.scaled()
    traced_s = sum(scaled[i] for i in traced)
    plain_s = sum(scaled[i] for i in plain)
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = tracer.calls[name] / blocks
        metrics[f"{name}.self_s"] = tracer.self_s[name] / blocks
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.module_self_s(layer) / blocks
    solves = tracer.calls["pagerank.stationary"]
    metrics["pagerank.stationary.iters"] = tracer.stationary["iters"] / solves if solves else 0.0
    metrics["pagerank.stationary.residual_max"] = tracer.stationary["residual_max"]
    metrics["pagerank.stationary.mflop"] = tracer.stationary["mflop"] / blocks
    metrics["pagerank.stationary.mbytes"] = tracer.stationary["mbytes"] / blocks
    metrics["decoder.decode.distinct_frac"] = tracer.distinct_frac("decoder.decode")
    metrics["pagerank.tour_counts.distinct_frac"] = tracer.distinct_frac("pagerank.tour_counts")
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["trace.coverage_frac"] = tracer.covered / sum(runner.raw[i] for i in traced)
    sweep, lines = run_sweep(seed)
    metrics.update(sweep)
    notes = [f"samples blocks={blocks} traced_s={traced_s:.3f} untraced_s={plain_s:.3f}", *lines]
    return metrics, notes


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, workdir)
    (workdir / "out").mkdir(parents=True)
    if hasattr(workload, "write_reference"):
        _child("reference", workload_name, str(seed), str(workdir))
    workload.prepare()
    warmup = workload.warmup()
    setup_s = None
    if not trace:
        commands = workdir / "warmup.json"
        commands.write_text(json.dumps([c.argv + ["--out", str(workdir / "out")] for c in warmup]))
        probes = [json.loads(_child("setup", str(commands))) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(p["scaled"] for p in probes)
        setup_raw = statistics.median(p["raw"] for p in probes)

    runner = Runner(workload, workdir)
    runner.block(warmup)
    warm_failures = runner.failed
    runner.attempted = runner.failed = 0
    if trace:
        metrics, notes = measure_traced(runner, seconds, seed)
        units = layer_units()
    else:
        metrics, measured, notes = measure(runner, seconds)
        metrics["setup_s"] = setup_s
        measured["setup_s"] = setup_raw
        notes.append("raw " + json.dumps(measured, sort_keys=True))
        units = END_TO_END_UNITS
    errors = workload.finish()
    if warm_failures:
        errors.append(f"{warm_failures} warm-up commands failed")
    for line in notes + runner.errors + errors:
        print(line)
    print("env " + json.dumps(environment(workload_name, seed), sort_keys=True))
    return {
        "correct": runner.failed == 0 and not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (SRC / "trep" / "cli.py").is_file():
        print(f"error: no trep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trep

    if Path(trep.__file__).resolve().parent != SRC / "trep":
        print(f"error: imported trep from {trep.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
