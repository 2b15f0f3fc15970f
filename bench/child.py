"""Helper interpreter for bench/run.py.

    python3 bench/child.py setup COMMANDS_JSON
        Import trep.cli in this fresh interpreter, run the warm-up commands
        and print {"scaled", "raw"}: the seconds both took as measured, and
        the same less the time the thread waited for a CPU, scaled to the
        reference machine speed by calibrations run right after (they need
        NumPy). Nothing of NumPy or trep is imported before the clock
        starts, so the figure includes their import.

    python3 bench/child.py reference WORKLOAD SEED WORKDIR
        Write the workload's dense reference scores, so the solve does not
        count in the benchmark interpreter's peak memory.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_delay() -> float:
    """Seconds this thread has waited, runnable, for a CPU; 0 where the kernel does not say.

    Read from run_delay in /proc/thread-self/schedstat. This module imports
    nothing heavy, so setup() can read it before its clock starts.
    """
    try:
        with open("/proc/thread-self/schedstat", "rb") as fh:
            return int(fh.read().split()[1]) * 1e-9
    except (OSError, IndexError, ValueError):
        return 0.0


def setup(commands_json: str) -> int:
    import contextlib
    import io
    import json

    with open(commands_json, encoding="utf-8") as fh:
        commands = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    delay = run_delay()
    start = perf_counter()
    import trep.cli

    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = trep.cli.main(argv)
        if rc != 0:
            print(f"warm-up command failed with exit code {rc}: {argv}", file=sys.stderr)
            return 1
    elapsed = perf_counter() - start
    on_cpu = elapsed - (run_delay() - delay)
    from calibration import calibrate, scaled_times  # imports NumPy: after the clock

    scaled = scaled_times([on_cpu], [calibrate(), calibrate()])[0]
    print(json.dumps({"scaled": scaled, "raw": elapsed}))
    return 0


def reference(workload: str, seed: str, workdir: str) -> int:
    from pathlib import Path

    from workloads import WORKLOADS

    WORKLOADS[workload](int(seed), Path(workdir)).write_reference()
    return 0


if __name__ == "__main__":
    role, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "reference": reference}[role](*rest))
