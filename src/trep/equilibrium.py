"""Equilibrium computation and verification for the reputation game.

At the unique Nash equilibrium every player endorses servers proportionally
to trust.  The best response against aggregate opponent server mass b solves
a waterfilling problem: maximize sum_j R_j x_j / (x_j + b_j) on the simplex,
whose KKT solution is x_j = sqrt(R_j b_j / lambda) - b_j on the active set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import _check_trust, bipartite_utility, expected_utilities, f1
from .pagerank import tour_counts
from .repgraph import Config, _profile_graph
from .rng import substream

SCENARIO_KINDS = ("perfect", "noisy", "hierarchy")

# Free servers (positive trust, no opponent mass) are captured by an
# arbitrarily small stake; the supremum is not attained, so we fix one.
FREE_SERVER_STAKE = 1e-12


class DegenerateBelief(ValueError):
    """Trust and belief have disjoint support; the best response is undefined."""


@dataclass
class GameScenario:
    """A family of profiles to analyze.

    kind "perfect": every player knows the trust vector.
    kind "noisy": every player plays a common perturbed belief.
    kind "hierarchy": k established players know the trust vector; the other
    n - k fresh players endorse only established players (uniformly unless
    fresh_weights rows are given).
    """

    kind: str
    trust: np.ndarray
    n: int
    belief: np.ndarray | None = None
    k: int | None = None
    fresh_weights: np.ndarray | None = None
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        self.trust = _check_trust(self.trust)
        if self.n < 2:
            raise ValueError(f"need at least 2 players, got {self.n}")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")
        if self.kind == "noisy":
            if self.belief is None:
                raise ValueError("noisy scenarios need a belief vector")
            self.belief = np.asarray(self.belief, dtype=float)
            if self.belief.shape != self.trust.shape:
                raise ValueError("belief and trust must have the same shape")
            if not (np.all(self.belief >= 0) and np.any(self.belief > 0)):
                raise ValueError("belief must be nonnegative with positive mass")
        if self.kind == "hierarchy":
            if self.k is None:
                raise ValueError("hierarchy scenarios need k, the established player count")
            if not 1 <= self.k <= self.n - 1:
                raise ValueError(f"k must lie in 1..{self.n - 1}, got {self.k}")
            if self.fresh_weights is not None:
                w = np.asarray(self.fresh_weights, dtype=float)
                if w.shape != (self.n - self.k, self.k):
                    raise ValueError(
                        f"fresh_weights have shape {w.shape}, expected "
                        f"({self.n - self.k}, {self.k})"
                    )
                if not (np.all(w >= 0) and np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)):
                    raise ValueError("fresh_weights rows must be distributions")
                self.fresh_weights = w


@dataclass
class EquilibriumReport:
    """Outcome of an equilibrium verification run.

    Every player plays the same row, so utility is each player's payoff.
    """

    epsilon_prime: float
    closed_form_deviation: float
    utility: float
    expected_value: float | None = None
    probe_min: float | None = None
    bound: float | None = None


def truth_telling_profile(scenario: GameScenario) -> np.ndarray:
    """The profile in which every informed player endorses by its belief."""
    n, m = scenario.n, scenario.trust.size
    profile = np.zeros((n, m + n))
    if scenario.kind == "perfect":
        profile[:, :m] = f1(scenario.trust)
    elif scenario.kind == "noisy":
        profile[:, :m] = f1(scenario.belief)
    else:  # hierarchy
        k = scenario.k
        profile[:k, :m] = f1(scenario.trust)
        if scenario.fresh_weights is None:
            profile[k:, m : m + k] = 1.0 / k
        else:
            profile[k:, m : m + k] = scenario.fresh_weights
    return profile


def best_response_to_mass(trust: np.ndarray, opponent_mass: np.ndarray) -> np.ndarray:
    """Exact waterfilling allocation against fixed aggregate opponent mass.

    Free servers (positive trust, no opponent mass) get FREE_SERVER_STAKE.
    Sorted by decreasing R_j / b_j, the contested servers are active on a
    prefix (Boyd & Vandenberghe, Convex Optimization, 5.5.3): the longest
    prefix whose last server still gets a positive KKT share at that prefix's
    water level.
    """
    ratings = np.asarray(trust, dtype=float)
    mass = np.asarray(opponent_mass, dtype=float)
    if ratings.shape != mass.shape or ratings.ndim != 1:
        raise ValueError("trust and opponent mass must be vectors of equal length")
    if not (np.all(ratings >= 0) and np.all(mass >= 0)):
        raise ValueError("trust and opponent mass must be nonnegative")
    m = ratings.size
    allocation = np.zeros(m)
    free = (mass <= 0) & (ratings > 0)
    allocation[free] = FREE_SERVER_STAKE
    budget = 1.0 - FREE_SERVER_STAKE * int(free.sum())
    contested = np.where((mass > 0) & (ratings > 0))[0]
    if contested.size == 0:
        if free.any():
            allocation[free] += budget / int(free.sum())
        else:
            allocation += budget / m  # nothing is worth anything; split evenly
        return allocation

    order = contested[np.argsort(-(ratings[contested] / mass[contested]), kind="stable")]
    # sqrt(R) * sqrt(b), not sqrt(R * b): the product R * b can underflow to 0.
    sqrt_gain = np.sqrt(ratings[order]) * np.sqrt(mass[order])
    sqrt_level = np.cumsum(sqrt_gain) / (budget + np.cumsum(mass[order]))
    positive = np.flatnonzero(sqrt_gain / sqrt_level > mass[order])
    if positive.size == 0:  # the budget is below the rounding of b: no share registers
        allocation[order[0]] += budget
        return allocation
    size = positive[-1] + 1
    active = order[:size]
    spread = np.maximum(sqrt_gain[:size] / sqrt_level[size - 1] - mass[active], 0.0)
    allocation[active] = spread * (budget / spread.sum())
    return allocation


def best_response_closed_form(trust: np.ndarray, belief: np.ndarray, n: int) -> np.ndarray:
    """Interior best response x_j = n sqrt(R_j R'_j) / sum_k sqrt(R_k R'_k) - (n-1) N(R')_j.

    Negative coordinates are clamped to zero and the rest renormalized; the
    numeric route remains authoritative whenever clamping kicks in.
    """
    ratings = np.asarray(trust, dtype=float)
    belief = np.asarray(belief, dtype=float)
    if ratings.shape != belief.shape or ratings.ndim != 1:
        raise ValueError("trust and belief must be vectors of equal length")
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    # sqrt(R) * sqrt(R'), not sqrt(R * R'): the product can underflow to 0.
    cross = np.sqrt(ratings) * np.sqrt(belief)
    total = cross.sum()
    if total <= 0:
        raise DegenerateBelief("trust and belief share no supported server")
    x = n * cross / total - (n - 1) * f1(belief)
    x = np.maximum(x, 0.0)
    return x / x.sum()


def _common_belief_defect(ratings: np.ndarray, belief: np.ndarray, n: int) -> EquilibriumReport:
    """Best unilateral gain when every player endorses the normalized belief.

    Each player faces opponent mass (n - 1) N(belief); the gain is the exact
    best response's utility, or the closed form's when that is higher, over
    the utility of playing N(belief).
    """
    nr_belief = f1(belief)
    mass = (n - 1) * nr_belief
    base = bipartite_utility(nr_belief, mass, ratings)
    response = best_response_to_mass(ratings, mass)
    best_utility = bipartite_utility(response, mass, ratings)
    deviation = np.nan
    try:
        closed = best_response_closed_form(ratings, belief, n)
    except DegenerateBelief:
        pass
    else:
        deviation = float(np.max(np.abs(response - closed)))
        closed_utility = bipartite_utility(closed, mass, ratings)
        best_utility = max(best_utility, closed_utility)
    return EquilibriumReport(
        epsilon_prime=max(0.0, best_utility - base),
        closed_form_deviation=deviation,
        utility=base,
        expected_value=ratings.sum() / n,
    )


def verify_unique_nash(
    trust: np.ndarray,
    n: int,
    probes: int = 100,
    rng: np.random.Generator | None = None,
) -> EquilibriumReport:
    """Check that proportional-to-trust endorsement is a Nash equilibrium.

    Computes the exact best response against the equilibrium profile (its
    gain bounds the equilibrium defect), compares the closed form with the
    waterfilling solver, and probes random opponent deviations to confirm
    the equilibrium player never drops below the equilibrium value.
    """
    ratings = _check_trust(trust)
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    if probes < 1:
        raise ValueError(f"need at least one probe, got {probes}")
    report = _common_belief_defect(ratings, ratings, n)
    nr = f1(ratings)
    rng = rng or substream(0, "nash-probes")
    probe_min = np.inf
    for _ in range(probes):
        opponents = rng.dirichlet(np.ones(ratings.size), size=n - 1).sum(axis=0)
        probe_min = min(probe_min, bipartite_utility(nr, opponents, ratings))
    report.probe_min = float(probe_min)
    return report


def measure_epsilon_prime(scenario: GameScenario) -> EquilibriumReport:
    """Equilibrium defect when every player endorses a common noisy belief.

    Reports the best unilateral gain over the truthful-belief profile and the
    theoretical bound m^2 (n-1) / n^2 * (1+eps) / (1-eps).
    """
    if scenario.kind != "noisy":
        raise ValueError("epsilon' is measured on noisy scenarios")
    n, m = scenario.n, scenario.trust.size
    report = _common_belief_defect(scenario.trust, scenario.belief, n)
    eps = scenario.epsilon
    bound = m * m * (n - 1) / n**2
    if eps > 0:
        if eps >= 1:
            bound = np.inf
        else:
            bound *= (1 + eps) / (1 - eps)
    report.bound = float(bound)
    return report


def _server_only_reduction(
    profile: np.ndarray, k: int, cfg: Config
) -> tuple[np.ndarray, np.ndarray]:
    """Visit totals and effective opponent masses of the established players.

    With N the fundamental matrix of tour_counts, v_t = sum_i N[i, t] counts
    the visits to user t over all sources, and server j receives
    (1 - alpha) sum_t v_t E_s[t, j] visits.  An established player p owns no
    user edges, so N does not depend on p's server row x, and p's expected
    utility is exactly bipartite_utility(x, b_p, R) / v_p with opponent mass
    b_p = sum_{t != p} v_t E_s[t, :] / v_p.
    """
    graph = _profile_graph(profile)
    n, m = graph.n, graph.m
    visits = tour_counts(graph, cfg)[:, m:].sum(axis=0)
    masses = np.empty((k, m))
    for player in range(k):
        others = np.arange(n) != player
        masses[player] = visits[others] @ graph.edges[others, :m] / visits[player]
    return visits[:k], masses


def hierarchy_best_response_gains(
    scenario: GameScenario, config: Config | None = None
) -> np.ndarray:
    """Best-response gains of the established players in a hierarchy profile.

    Both sides of a server-only gain come from one _server_only_reduction:
    the base utility of the player's row N(R), and the exact best response,
    which best_response_to_mass solves.  Deviations that also endorse users
    are covered by a single probe row, evaluated with the real expected
    utilities, so that part of each gain is a lower bound.  At the
    proportional-to-trust profile all gains should vanish regardless of how
    the fresh players split their endorsements.
    """
    if scenario.kind != "hierarchy":
        raise ValueError("hierarchy gains are measured on hierarchy scenarios")
    cfg = config or Config()
    profile = truth_telling_profile(scenario)
    ratings = scenario.trust
    m, k = ratings.size, scenario.k
    nr = f1(ratings)
    visits, masses = _server_only_reduction(profile, k, cfg)
    gains = np.zeros(k)
    for player in range(k):
        mass, visit = masses[player], visits[player]
        base = bipartite_utility(nr, mass, ratings) / visit
        response = best_response_to_mass(ratings, mass)
        best_utility = bipartite_utility(response, mass, ratings) / visit
        # deviation that also endorses the other established players
        trial = profile.copy()
        trial[player] = 0.0
        trial[player, :m] = 0.8 * nr
        peers = [m + t for t in range(k) if t != player] or [m + t for t in range(k)]
        trial[player, peers] = 0.2 / len(peers)
        best_utility = max(best_utility, expected_utilities(trial, ratings, cfg)[player])
        gains[player] = max(0.0, best_utility - base)
    return gains
