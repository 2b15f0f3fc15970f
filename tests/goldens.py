"""Golden outputs of fixed CLI commands, compared byte for byte by
tests/test_golden.py, and the script that rewrites them.

Each case is a directory under tests/golden/<command>/ (tests/golden/usage/
for an argv the parser refuses) holding its scenario file (`scenario.trep`)
and the outputs of the command run on it: `stdout.txt`, `stderr.txt`,
`exit_code.txt` and every file the command writes, so a failing command is
pinned too; argparse's usage text is wrapped at 80 columns.  Regenerate all
of them with

    PYTHONPATH=src python tests/goldens.py

and list every file that changes, with its cause, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from trep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# case directory -> arguments after the scenario
CASES = {
    "bootstrap/criterion11": [
        "bootstrap", "--seed", "5", "--trials", "8", "--lambda", "4", "--committee", "2",
    ],
    # twelve distinct trust values, four below 0.2: many restarts per trial
    "bootstrap/high-restart": [
        "bootstrap", "--seed", "7", "--trials", "50", "--lambda", "5", "--committee", "3",
    ],
    "decode/criterion11": ["decode", "--seed", "5"],
    # 200 users who put most of their mass on other users: many power steps
    "decode/users200": ["decode"],
    # every user endorses users only: AllServersUntrusted, exit 1
    "decode/servers-untrusted": ["decode"],
    # a million users, six with an edge: load lists the first ten bad rows,
    # row 2's drift renormalized away, and counts the rest, exit 2
    "decode/edgeless-users": ["decode"],
    "nash/criterion11": ["nash", "--seed", "5", "--trials", "25"],
    # the hierarchy mode: two established players among six
    "nash/hierarchy-k2": ["nash", "--k", "2", "--n", "6", "--trials", "20"],
    # one established player among six, eleven servers, one untrusted: every
    # opponent mass is zero, so every trusted server is free
    "nash/hierarchy-k1": ["nash", "--k", "1", "--trials", "5", "--seed", "4"],
    # five established players among eight, ten servers: every gain is
    # exactly 0, and the scores of later draws drift from draw 0's by rounding
    "nash/hierarchy-k5": ["nash", "--k", "5", "--trials", "6", "--seed", "3"],
    "noisy/criterion11": [
        "noisy", "--seed", "5", "--trials", "6",
        "--epsilon", "0.005", "--epsilon", "0.01", "--delta", "0.05",
    ],
    # the default epsilon sweep and trial count
    "noisy/default-sweep": ["noisy", "--delta", "0.05"],
    # trust 0.8 lies within 0.3 of 1: the noise-margin check fails, exit 2
    "noisy/noise-margin": ["noisy", "--epsilon", "0.3"],
    # a per-entry failure probability above zero lowers the f2 bound by m p
    "noisy/f2-p": [
        "noisy", "--seed", "5", "--trials", "20",
        "--epsilon", "0.01", "--delta", "0.05", "--p", "0.05",
    ],
    # delta beyond ||trust||_1 = 1.2: the f2 check fails before any file, exit 2
    "noisy/delta-too-large": ["noisy", "--delta", "5"],
    # argparse's usage errors, exit 2: the arguments the nash parser leaves
    # over, reported with the top-level usage; a value the nash parser
    # refuses, with its own usage; and an unknown command
    "usage/nash-unknown-option": ["nash", "--bogus"],
    "usage/nash-extra-argument": ["nash", "extra"],
    "usage/nash-trials-zero": ["nash", "--trials", "0"],
    "usage/unknown-command": ["bogus"],
}


def run_case(case: str, out: Path | None = None) -> dict[str, bytes]:
    """Run one case's command in-process, into out or a fresh temporary
    directory: its stdout, stderr, exit code and every file in out, by name."""
    if out is None:
        with tempfile.TemporaryDirectory() as fresh:
            return run_case(case, Path(fresh))
    args = CASES[case]
    scenario = GOLDEN / case / "scenario.trep"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main([args[0], str(scenario), *args[1:], "--out", str(out)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    outputs = {
        "stdout.txt": stdout.getvalue().encode("utf-8"),
        "stderr.txt": stderr.getvalue().encode("utf-8"),
        "exit_code.txt": f"{code}\n".encode("utf-8"),
    }
    outputs.update((path.name, path.read_bytes()) for path in sorted(out.iterdir()))
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
