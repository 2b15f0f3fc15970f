"""Reputation scores over endorsement graphs.

A library for computing random-walk reputation scores, analyzing the
associated endorsement game (its unique Nash equilibrium, noisy-belief
defects, and newcomer hierarchies), decoding trust from observed strategies,
and simulating committee-based bootstrapping.
"""

from .bootstrap import (
    BootstrapConfig,
    BootstrapTrace,
    honest_majority_check,
    run_bootstrap,
    select_committee,
    trace_event_log,
)
from .decoder import (
    DecodeResult,
    F2Report,
    count_inversions,
    decode,
    f1,
    f2_check,
    noisy_belief_gaussian,
    noisy_belief_two_point,
)
from .equilibrium import (
    DegenerateBelief,
    EquilibriumReport,
    best_response_closed_form,
    best_response_to_mass,
    epsilon_prime_bound,
    hierarchy_best_response_gains,
    hierarchy_profile,
    measure_epsilon_prime,
    truth_telling_profile,
    verify_unique_nash,
)
from .game import (
    bipartite_utility,
    expected_utilities,
    realized_utilities,
    sample_nature,
)
from .pagerank import (
    AllServersUntrusted,
    NonConvergence,
    StationaryDistribution,
    build_designated_chain,
    clique_chain,
    contribution_matrix,
    reputation_scores,
    stationary,
    tour_counts,
)
from .repgraph import Config, ParseError, RepGraph, load, save, validate
from .rng import substream

__all__ = [
    "AllServersUntrusted",
    "BootstrapConfig",
    "BootstrapTrace",
    "Config",
    "DecodeResult",
    "DegenerateBelief",
    "EquilibriumReport",
    "F2Report",
    "NonConvergence",
    "ParseError",
    "RepGraph",
    "StationaryDistribution",
    "best_response_closed_form",
    "best_response_to_mass",
    "bipartite_utility",
    "build_designated_chain",
    "clique_chain",
    "contribution_matrix",
    "count_inversions",
    "decode",
    "epsilon_prime_bound",
    "expected_utilities",
    "f1",
    "f2_check",
    "hierarchy_best_response_gains",
    "hierarchy_profile",
    "honest_majority_check",
    "load",
    "measure_epsilon_prime",
    "noisy_belief_gaussian",
    "noisy_belief_two_point",
    "realized_utilities",
    "reputation_scores",
    "run_bootstrap",
    "sample_nature",
    "save",
    "select_committee",
    "stationary",
    "substream",
    "tour_counts",
    "trace_event_log",
    "truth_telling_profile",
    "validate",
    "verify_unique_nash",
]

__version__ = "0.1.0"
