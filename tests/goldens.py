"""Golden outputs of fixed CLI commands, compared byte for byte by
tests/test_golden.py, and the script that rewrites them.

Each case is a directory under tests/golden/<command>/ holding its scenario
file (`scenario.trep`) and the outputs of the command run on it: `stdout.txt`
and every file the command writes.  Regenerate all of them with

    PYTHONPATH=src python tests/goldens.py

and list every file that changes, with its cause, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from trep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# case directory -> (arguments after the scenario, files the command writes)
CASES = {
    "bootstrap/criterion11": (
        ["bootstrap", "--seed", "5", "--trials", "8", "--lambda", "4", "--committee", "2"],
        ["bootstrap.csv", "bootstrap.log"],
    ),
    # twelve distinct trust values, four below 0.2: many restarts per trial
    "bootstrap/high-restart": (
        ["bootstrap", "--seed", "7", "--trials", "50", "--lambda", "5", "--committee", "3"],
        ["bootstrap.csv", "bootstrap.log"],
    ),
    "decode/criterion11": (["decode", "--seed", "5"], ["decode.csv"]),
    "nash/criterion11": (["nash", "--seed", "5", "--trials", "25"], ["nash.csv"]),
    # the hierarchy mode: two established players among six
    "nash/hierarchy-k2": (["nash", "--k", "2", "--n", "6", "--trials", "20"], ["nash.csv"]),
    "noisy/criterion11": (
        [
            "noisy", "--seed", "5", "--trials", "6",
            "--epsilon", "0.005", "--epsilon", "0.01", "--delta", "0.05",
        ],
        ["noisy.csv", "f2.csv"],
    ),
}


def run_case(case: str) -> dict[str, bytes]:
    """Run one case's command in-process; its stdout and written files by name."""
    args, files = CASES[case]
    scenario = GOLDEN / case / "scenario.trep"
    with tempfile.TemporaryDirectory() as out:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([args[0], str(scenario), *args[1:], "--out", out])
        if code != 0:
            raise RuntimeError(f"{case} exited {code}")
        outputs = {"stdout.txt": stdout.getvalue().encode("utf-8")}
        outputs.update((name, (Path(out) / name).read_bytes()) for name in files)
    return outputs


def regenerate() -> None:
    for case in CASES:
        for name, data in run_case(case).items():
            path = GOLDEN / case / name
            if not path.exists() or path.read_bytes() != data:
                path.write_bytes(data)
                print(f"wrote {path.relative_to(GOLDEN.parent.parent)}")


if __name__ == "__main__":
    regenerate()
