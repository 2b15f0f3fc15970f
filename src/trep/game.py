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
    lo, hi = trust.min(), trust.max()
    if not (lo >= 0 and hi <= 1):  # negated so NaN is rejected
        raise ValueError("trust values must lie in [0, 1]")
    if not hi > 0:
        raise ValueError("trust has no positive entry")
    return trust


def f1(utilities: np.ndarray) -> np.ndarray:
    """Normalize a nonnegative vector with positive mass to sum one.

    The decoder f1 of the perfect-information game; it lives here so that
    equilibrium, which decoder imports, can normalize with it too.
    """
    utilities = np.asarray(utilities, dtype=float)
    if utilities.ndim != 1 or utilities.size == 0:
        raise ValueError("cannot normalize anything but a nonempty vector")
    # min() >= 0 is false for a NaN as for a negative entry; any() tells them apart
    if not utilities.min() >= 0 and np.any(utilities < 0):
        raise ValueError("cannot normalize a vector with negative entries")
    total = utilities.sum()
    if not 0 < total < np.inf:  # negated so NaN is rejected
        raise ValueError("cannot normalize a vector without positive, finite mass")
    return utilities / total


def sample_nature(trust: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw the success indicator of every server (1 with its trust probability)."""
    return _draw_nature(_check_trust(trust), rng)


def _draw_nature(ratings: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """`sample_nature` on a checked trust vector."""
    return (rng.random(ratings.size) < ratings).astype(np.int64)


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
    return float(_bipartite_utility(
        np.asarray(own, dtype=float),
        np.asarray(opponent_mass, dtype=float),
        np.asarray(trust, dtype=float),
    ))


def _bipartite_utility(own: np.ndarray, opponent_mass: np.ndarray, trust: np.ndarray) -> np.ndarray:
    """bipartite_utility on float arrays, reduced over the last axis: a stack
    of rows gets one utility per row, each with the bits of its own call, as
    NumPy adds a contiguous last axis in the order it adds a vector."""
    totals = own + opponent_mass
    shares = np.divide(own, totals, out=np.zeros(totals.shape), where=totals > 0)
    return np.add.reduce(shares * trust, axis=-1)  # not BLAS's dot: see _UserChain.__rmatmul__
