"""Fixed commands write the same bytes as their goldens (tests/goldens.py)."""

import pytest

from goldens import CASES, GOLDEN, run_case


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case):
    outputs = run_case(case)
    for name, data in outputs.items():
        assert data == (GOLDEN / case / name).read_bytes(), f"{case}/{name} differs"
