"""Fixed commands write the same bytes as their goldens (tests/goldens.py)."""

from itertools import zip_longest

import pytest

from goldens import CASES, GOLDEN, run_case


def first_difference(name: str, got: bytes, golden: bytes) -> str | None:
    """The first line where got and golden part, with both byte strings."""
    pairs = zip_longest(got.splitlines(True), golden.splitlines(True), fillvalue=b"")
    for number, (line, expected) in enumerate(pairs, start=1):
        if line != expected:
            return f"{name} line {number}: got {line!r}, golden {expected!r}"
    return None


def test_first_difference_names_the_line_and_both_bytes():
    assert first_difference("a.csv", b"x\ny\n", b"x\ny\n") is None
    assert first_difference("a.csv", b"x\n1.5\n", b"x\n1.25\n") == (
        "a.csv line 2: got b'1.5\\n', golden b'1.25\\n'"
    )
    assert first_difference("a.csv", b"x\n", b"x\ny\n") == "a.csv line 2: got b'', golden b'y\\n'"


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case):
    outputs = run_case(case)
    pinned = sorted(path.name for path in (GOLDEN / case).iterdir() if path.name != "scenario.trep")
    assert sorted(outputs) == pinned, "the command wrote other files than its golden holds"
    differences = [
        first_difference(f"{case}/{name}", data, (GOLDEN / case / name).read_bytes())
        for name, data in outputs.items()
    ]
    differences = [d for d in differences if d is not None]
    assert not differences, "\n".join(differences)
