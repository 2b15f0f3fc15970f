import trep

PUBLIC = {
    "AllServersUntrusted", "BootstrapConfig", "BootstrapTrace", "Config", "DecodeResult",
    "DegenerateBelief", "EquilibriumReport", "GameScenario", "NonConvergence", "ParseError",
    "RepGraph", "RoundEvent", "StationaryDistribution", "best_response_closed_form",
    "best_response_to_mass", "bipartite_utility", "build_designated_chain", "clique_chain",
    "contribution_matrix", "count_inversions", "decode", "distribute_rewards",
    "expected_utilities", "f1", "f2_check", "hierarchy_best_response_gains", "hoeffding_check",
    "honest_majority_check", "load", "measure_epsilon_prime", "noisy_belief_gaussian",
    "noisy_belief_two_point", "realized_utilities", "reputation_scores", "run_bootstrap",
    "sample_nature", "save", "select_committee", "stationary", "substream", "tour_counts",
    "trace_event_log", "truth_telling_profile", "validate", "verify_unique_nash",
}


def test_public_names_are_sorted_without_duplicates():
    assert trep.__all__ == sorted(set(trep.__all__))


def test_public_names_resolve():
    assert [name for name in trep.__all__ if not hasattr(trep, name)] == []


def test_public_names_are_pinned():
    assert len(PUBLIC) == 45
    assert set(trep.__all__) == PUBLIC
