"""The reputation game: nature, utilities, and the bipartite shortcut.

Players are the n users; actions are endorsement targets.  Nature draws each
server's success independently with its trust probability, the per-server pot
is split among users proportionally to their per-tour contribution shares,
and a user's utility is its share of every successful server's pot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pagerank import contribution_matrix
from .repgraph import Config, from_strategies

PROFILE_TOL = 1e-12


def _check_trust(trust: np.ndarray) -> np.ndarray:
    trust = np.asarray(trust, dtype=float)
    if trust.ndim != 1 or trust.size == 0:
        raise ValueError("trust must be a nonempty vector")
    if not np.all((trust >= 0) & (trust <= 1)):
        raise ValueError("trust values must lie in [0, 1]")
    if not np.any(trust > 0):
        raise ValueError("trust has no positive entry")
    return trust


def validate_profile(profile: np.ndarray, m: int, n: int) -> None:
    """Raise ValueError unless profile is an n x (m+n) matrix of mixed strategies."""
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (n, m + n):
        raise ValueError(
            f"profile shape {profile.shape} does not match n={n}, m={m} "
            f"(expected {(n, m + n)})"
        )
    if not np.all(profile >= 0):
        raise ValueError("strategy weights must be nonnegative")
    sums = profile.sum(axis=1)
    bad = np.where(~(np.abs(sums - 1.0) <= PROFILE_TOL))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"strategy row {i + 1} sums to {sums[i]:.12g}, expected 1")


@dataclass
class TRepGame:
    """Game instance: player count, server count, trust levels, solver config."""

    n: int
    m: int
    trust: np.ndarray
    config: Config

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 players, got {self.n}")
        if self.m < 2:
            raise ValueError(f"need at least 2 servers, got {self.m}")
        self.trust = _check_trust(self.trust)
        if self.trust.shape != (self.m,):
            raise ValueError(f"trust has shape {self.trust.shape}, expected ({self.m},)")


def sample_nature(trust: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw the success indicator of every server (1 with its trust probability)."""
    trust = _check_trust(trust)
    return (rng.random(trust.size) < trust).astype(np.int64)


def realized_utilities(profile: np.ndarray, outcome: np.ndarray, config: Config) -> np.ndarray:
    """Utilities after nature's move: contribution shares of successful pots."""
    profile = np.asarray(profile, dtype=float)
    outcome = np.asarray(outcome, dtype=float)
    n = profile.shape[0]
    m = profile.shape[1] - n
    if outcome.shape != (m,):
        raise ValueError(f"outcome has shape {outcome.shape}, expected ({m},)")
    validate_profile(profile, m, n)
    shares = contribution_matrix(from_strategies(profile, m, n), config)
    return shares @ outcome


def expected_utilities(profile: np.ndarray, trust: np.ndarray, config: Config) -> np.ndarray:
    """Expected utilities over nature: contribution shares weighted by trust."""
    profile = np.asarray(profile, dtype=float)
    trust = _check_trust(trust)
    n = profile.shape[0]
    m = profile.shape[1] - n
    if trust.shape != (m,):
        raise ValueError(f"trust has shape {trust.shape}, expected ({m},)")
    validate_profile(profile, m, n)
    shares = contribution_matrix(from_strategies(profile, m, n), config)
    return shares @ trust


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
