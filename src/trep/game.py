"""The reputation game: nature, utilities, and the bipartite shortcut.

Players are the n users; actions are endorsement targets.  Nature draws each
server's success independently with its trust probability, the per-server pot
is split among users proportionally to their per-tour contribution shares,
and a user's utility is its share of every successful server's pot.
"""

from __future__ import annotations

import numpy as np

from .pagerank import contribution_matrix
from .repgraph import Config, _profile_graph


def _check_trust(trust: np.ndarray) -> np.ndarray:
    trust = np.asarray(trust, dtype=float)
    if trust.ndim != 1 or trust.size == 0:
        raise ValueError("trust must be a nonempty vector")
    if not np.all((trust >= 0) & (trust <= 1)):
        raise ValueError("trust values must lie in [0, 1]")
    if not np.any(trust > 0):
        raise ValueError("trust has no positive entry")
    return trust


def f1(utilities: np.ndarray) -> np.ndarray:
    """Normalize a nonnegative vector with positive mass to sum one.

    The decoder f1 of the perfect-information game; it lives here so that
    equilibrium, which decoder imports, can normalize with it too.
    """
    utilities = np.asarray(utilities, dtype=float)
    if np.any(utilities < 0):
        raise ValueError("cannot normalize a vector with negative entries")
    total = utilities.sum()
    if total <= 0:
        raise ValueError("cannot normalize a vector without positive mass")
    return utilities / total


def sample_nature(trust: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw the success indicator of every server (1 with its trust probability)."""
    trust = _check_trust(trust)
    return (rng.random(trust.size) < trust).astype(np.int64)


def realized_utilities(profile: np.ndarray, outcome: np.ndarray, config: Config) -> np.ndarray:
    """Utilities after nature's move: contribution shares of successful pots."""
    return _pot_shares(profile, np.asarray(outcome, dtype=float), "outcome", config)


def expected_utilities(profile: np.ndarray, trust: np.ndarray, config: Config) -> np.ndarray:
    """Expected utilities over nature: contribution shares weighted by trust."""
    return _pot_shares(profile, _check_trust(trust), "trust", config)


def _pot_shares(profile: np.ndarray, pots: np.ndarray, name: str, config: Config) -> np.ndarray:
    """Each user's contribution shares of the per-server pots, summed."""
    graph = _profile_graph(profile)
    if pots.shape != (graph.m,):
        raise ValueError(f"{name} has shape {pots.shape}, expected ({graph.m},)")
    return contribution_matrix(graph, config) @ pots


def bipartite_utility(own: np.ndarray, opponent_mass: np.ndarray, trust: np.ndarray) -> float:
    """Expected utility of a server-only strategy against aggregate opponent mass.

    When every player endorses servers only, contribution shares reduce to
    endorsement shares: the player receives sum_j R_j x_j / (x_j + b_j),
    where empty pots (0/0) count as zero.
    """
    own = np.asarray(own, dtype=float)
    opponent_mass = np.asarray(opponent_mass, dtype=float)
    trust = np.asarray(trust, dtype=float)
    totals = own + opponent_mass
    shares = np.divide(own, totals, out=np.zeros_like(own), where=totals > 0)
    return float(shares @ trust)
