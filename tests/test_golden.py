"""Fixed commands write the same bytes as their goldens (tests/goldens.py)."""

import os
import pickle
import re
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

import trep.cli
from goldens import CASES, GOLDEN, run_case


def first_difference(name: str, got: bytes, golden: bytes) -> str | None:
    """The first line where got and golden part, with both byte strings."""
    pairs = zip_longest(got.splitlines(True), golden.splitlines(True), fillvalue=b"")
    for number, (line, expected) in enumerate(pairs, start=1):
        if line != expected:
            return f"{name} line {number}: got {line!r}, golden {expected!r}"
    return None


def comparable(name: str, data: bytes) -> bytes:
    """data with the choice list of argparse's invalid-choice error unquoted
    in stderr.txt: Python 3.11 prints (choose from 'decode', 'nash', ...),
    3.13 (choose from decode, nash, ...); every other byte stays pinned."""
    if name != "stderr.txt":
        return data
    return re.sub(rb"\(choose from [^)\n]*\)", lambda choices: choices[0].replace(b"'", b""), data)


def pinned(case: str) -> list[str]:
    """The names of every output a case's golden holds."""
    return sorted(path.name for path in (GOLDEN / case).iterdir() if path.name != "scenario.trep")


# the files each case's command writes, beside its stdout, stderr and exit code
WRITTEN = {case: [name for name in pinned(case) if not name.endswith(".txt")] for case in CASES}


def test_comparable_unquotes_only_the_choice_list():
    quoted = b"trep: error: argument command: invalid choice: 'bogus' (choose from 'decode', 'nash')\n"
    unquoted = b"trep: error: argument command: invalid choice: 'bogus' (choose from decode, nash)\n"
    assert comparable("stderr.txt", quoted) == comparable("stderr.txt", unquoted) == unquoted
    assert comparable("stderr.txt", quoted.replace(b"'bogus'", b"bogus")) != unquoted
    assert comparable("stdout.txt", quoted) == quoted


def test_first_difference_names_the_line_and_both_bytes():
    assert first_difference("a.csv", b"x\ny\n", b"x\ny\n") is None
    assert first_difference("a.csv", b"x\n1.5\n", b"x\n1.25\n") == (
        "a.csv line 2: got b'1.5\\n', golden b'1.25\\n'"
    )
    assert first_difference("a.csv", b"x\n", b"x\ny\n") == "a.csv line 2: got b'', golden b'y\\n'"


def golden_differences(case: str, outputs: dict[str, bytes]) -> list[str]:
    """Where a case's outputs part from its golden: the files it wrote
    beyond or short of the golden's, and each file's first differing line."""
    if sorted(outputs) != pinned(case):
        return [f"{case}: the command wrote {sorted(outputs)}, its golden holds {pinned(case)}"]
    differences = [
        first_difference(
            f"{case}/{name}", comparable(name, data), comparable(name, (GOLDEN / case / name).read_bytes())
        )
        for name, data in outputs.items()
    ]
    return [d for d in differences if d is not None]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case):
    differences = golden_differences(case, run_case(case))
    assert not differences, "\n".join(differences)


def test_every_golden_holds_under_another_blas_kernel():
    # OpenBLAS picks its kernel from the CPU, once per process, unless
    # OPENBLAS_CORETYPE names one; kernels round dot products differently,
    # so every sum on a seeded path is NumPy's own reduce. One process runs
    # every case under the Haswell kernel, which this runner's CPU may not
    # pick by itself (a NumPy on another BLAS ignores the variable).
    script = (
        "import pickle, sys; from goldens import CASES, run_case; "
        "pickle.dump({case: run_case(case) for case in CASES}, sys.stdout.buffer)"
    )
    paths = [str(Path(trep.cli.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True)
    outputs = pickle.loads(run.stdout)
    assert sorted(outputs) == sorted(CASES)
    differences = [d for case in sorted(CASES) for d in golden_differences(case, outputs[case])]
    assert not differences, "\n".join(differences)


@pytest.mark.parametrize("case", sorted(case for case, names in WRITTEN.items() if names))
def test_a_run_over_longer_files_of_the_same_names_leaves_the_golden_bytes(case, tmp_path):
    # Each output file is replaced, not written over in place: a stale file
    # longer than the new one must leave no tail behind.
    for name in WRITTEN[case]:
        (tmp_path / name).write_bytes((GOLDEN / case / name).read_bytes() * 2 + b"stale\n")
    outputs = run_case(case, tmp_path)
    assert sorted(outputs) == pinned(case)
    for name, data in outputs.items():
        assert data == (GOLDEN / case / name).read_bytes(), name


@pytest.mark.parametrize(
    "case", ["decode/criterion11", "decode/servers-untrusted", "usage/nash-unknown-option"]
)
def test_the_module_entry_point_exits_with_the_golden_status_and_bytes(case, tmp_path):
    # run_case calls main() in-process; this runs `python -m trep.cli`, so the
    # exit status a shell sees (sys.exit(main())) is checked too, and main()
    # reads its argv from sys.argv, on a good parse and on a refused one.
    command, *args = CASES[case]
    golden = GOLDEN / case
    env = dict(os.environ, PYTHONPATH=str(Path(trep.cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "trep.cli", command, str(golden / "scenario.trep"), *args]
    run = subprocess.run([*argv, "--out", str(tmp_path)], env=env, capture_output=True)
    assert f"{run.returncode}\n".encode() == (golden / "exit_code.txt").read_bytes()
    assert run.stdout == (golden / "stdout.txt").read_bytes()
    assert run.stderr == (golden / "stderr.txt").read_bytes()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in golden.glob("*.csv"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()
