from pathlib import Path

import trep

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "AllServersUntrusted", "BootstrapConfig", "BootstrapTrace", "Config", "DecodeResult",
    "DegenerateBelief", "EquilibriumReport", "F2Report", "NonConvergence", "ParseError", "RepGraph",
    "StationaryDistribution", "best_response_closed_form",
    "best_response_to_mass", "bipartite_utility", "build_designated_chain", "clique_chain",
    "contribution_matrix", "count_inversions", "decode", "epsilon_prime_bound",
    "expected_utilities", "f1", "f2_check", "hierarchy_best_response_gains",
    "hierarchy_profile", "honest_majority_check", "load",
    "measure_epsilon_prime", "noisy_belief_gaussian", "noisy_belief_two_point",
    "realized_utilities", "reputation_scores", "run_bootstrap", "sample_nature", "save",
    "select_committee", "stationary", "substream", "tour_counts", "trace_event_log",
    "truth_telling_profile", "validate", "verify_unique_nash",
}


def test_public_names_are_sorted_without_duplicates():
    assert trep.__all__ == sorted(set(trep.__all__))


def test_public_names_resolve():
    assert [name for name in trep.__all__ if not hasattr(trep, name)] == []


def test_public_names_are_pinned():
    assert len(PUBLIC) == 44
    assert set(trep.__all__) == PUBLIC


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert abs(float(printed[0]) - 1.2 / 3) <= 1e-12  # sum(trust) / n
    assert printed[2].startswith("[") and printed[2].endswith("]")
