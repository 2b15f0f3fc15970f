"""Equilibrium computation and verification for the reputation game.

At the unique Nash equilibrium every player endorses servers proportionally
to trust.  The best response against aggregate opponent server mass b solves
a waterfilling problem: maximize sum_j R_j x_j / (x_j + b_j) on the simplex,
whose KKT solution is x_j = sqrt(R_j b_j / lambda) - b_j on the active set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import _check_trust, bipartite_utility, f1
from .pagerank import tour_counts
from .repgraph import Config, _profile_graph
from .rng import substream

# Free servers (positive trust, no opponent mass) are captured by an
# arbitrarily small stake; the supremum is not attained, so we fix one.
FREE_SERVER_STAKE = 1e-12


class DegenerateBelief(ValueError):
    """Trust and belief have disjoint support; the best response is undefined."""


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


def truth_telling_profile(belief: np.ndarray, n: int) -> np.ndarray:
    """Each of n players endorses servers by N(belief); with belief = trust
    this is the perfect-information equilibrium."""
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    nr = f1(belief)
    if nr.ndim != 1:
        raise ValueError("belief must be a vector")
    profile = np.zeros((n, nr.size + n))
    profile[:, : nr.size] = nr
    return profile


def hierarchy_profile(trust: np.ndarray, fresh_weights: np.ndarray) -> np.ndarray:
    """The k established players (rows 0..k-1) endorse servers by N(trust);
    fresh player k + i endorses established ones by row i of fresh_weights,
    whose (n - k) x k shape fixes k and n."""
    ratings = _check_trust(trust)
    w = np.asarray(fresh_weights, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise ValueError(f"fresh_weights must be a nonempty matrix, got shape {w.shape}")
    if not (np.all(w >= 0) and np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError("fresh_weights rows must be distributions")
    k, m = w.shape[1], ratings.size
    n = w.shape[0] + k
    profile = np.zeros((n, m + n))
    profile[:k, :m] = f1(ratings)
    profile[k:, m : m + k] = w
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


def measure_epsilon_prime(
    trust: np.ndarray, belief: np.ndarray, n: int, epsilon: float
) -> EquilibriumReport:
    """Equilibrium defect when all n players endorse the common noisy belief.

    Reports the best unilateral gain over the truthful-belief profile and the
    theoretical bound m^2 (n-1) / n^2 * (1+eps) / (1-eps).
    """
    ratings = _check_trust(trust)
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    if not epsilon >= 0:  # negated so NaN is rejected
        raise ValueError("epsilon must be nonnegative")
    belief = np.asarray(belief, dtype=float)
    if belief.shape != ratings.shape:
        raise ValueError("belief and trust must have the same shape")
    if not (np.all(belief >= 0) and np.any(belief > 0)):
        raise ValueError("belief must be nonnegative with positive mass")
    m = ratings.size
    report = _common_belief_defect(ratings, belief, n)
    bound = m * m * (n - 1) / n**2
    if epsilon > 0:
        if epsilon >= 1:
            bound = np.inf
        else:
            bound *= (1 + epsilon) / (1 - epsilon)
    report.bound = float(bound)
    return report


def _server_only_reduction(
    profile: np.ndarray, ratings: np.ndarray, k: int, cfg: Config
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visit totals, effective opponent masses and probe utilities of the
    established players (rows 0..k-1, which own no user edges), from one
    tour_counts solve.

    With N the fundamental matrix of tour_counts, v_t = sum_i N[i, t] counts
    the visits to user t over all sources, and server j receives
    (1 - alpha) sum_t v_t E_s[t, j] visits.  An established player p owns no
    user edges, so N does not depend on p's server row x, and p's expected
    utility is exactly bipartite_utility(x, b_p, R) / v_p with opponent mass
    b_p = sum_{t != p} v_t E_s[t, :] / v_p.

    p's probe row endorses servers by 0.8 N(R) and puts user mass d = 0.2
    on the other established players (on p itself when k = 1).  Giving p the
    user row d is a rank-one update of I - (1 - alpha) E_u, so, with r = d^T N
    and q = (1 - alpha) / (1 - (1 - alpha) r_p) (Sherman & Morrison, 1950),
    row p of the new N is N[p] + q N[p, p] r and its column sums are
    v + q v_p r.  d sits on established players, whose rows of N are unit
    rows, so r_p <= 0.2 and the denominator is at least 1 - 0.2 (1 - alpha).
    The probe utility is then p's contribution shares, as in
    expected_utilities, with row p of E_s swapped for 0.8 N(R).
    """
    graph = _profile_graph(profile)
    n, m = graph.n, graph.m
    keep = 1.0 - cfg.alpha
    fundamental = tour_counts(graph, cfg)[:, m:]
    visits = fundamental.sum(axis=0)
    servers = graph.edges[:, :m]
    masses = np.empty((k, m))
    for player in range(k):
        others = np.arange(n) != player
        masses[player] = visits[others] @ servers[others] / visits[player]

    probe_users = np.full((k, k), 0.2 / max(k - 1, 1))  # row p holds p's d
    if k > 1:
        np.fill_diagonal(probe_users, 0.0)
    r = probe_users @ fundamental[:k]
    q = keep / (1.0 - keep * r.diagonal())
    rows = fundamental[:k] + (q * fundamental.diagonal()[:k])[:, None] * r
    totals = visits + (q * visits[:k])[:, None] * r
    swap = 0.8 * f1(ratings) - servers[:k]  # row p of E_s becomes 0.8 N(R)
    own = rows @ servers + rows.diagonal()[:, None] * swap
    pots = totals @ servers + totals.diagonal()[:, None] * swap
    shares = np.divide(own, pots, out=np.zeros_like(own), where=pots > 0)
    return visits[:k], masses, shares @ ratings


def hierarchy_best_response_gains(
    trust: np.ndarray, fresh_weights: np.ndarray, config: Config | None = None
) -> np.ndarray:
    """Best-response gains of the established players in hierarchy_profile().

    Everything comes from one _server_only_reduction, that is one tour_counts
    solve: the base utility of the player's row N(R); the exact server-only
    best response, which best_response_to_mass solves; and the utility of a
    probe row that also endorses the other established players, exact
    through a rank-one update of the fundamental matrix.  Other deviations
    that endorse users are not searched, so that part of each gain is a
    lower bound.  At the proportional-to-trust profile all gains should
    vanish regardless of how the fresh players split their endorsements.
    """
    cfg = config or Config()
    profile = hierarchy_profile(trust, fresh_weights)
    ratings = np.asarray(trust, dtype=float)
    k = np.shape(fresh_weights)[1]
    nr = f1(ratings)
    visits, masses, probe = _server_only_reduction(profile, ratings, k, cfg)
    gains = np.zeros(k)
    for player in range(k):
        mass, visit = masses[player], visits[player]
        base = bipartite_utility(nr, mass, ratings) / visit
        response = best_response_to_mass(ratings, mass)
        best_utility = max(bipartite_utility(response, mass, ratings) / visit, probe[player])
        gains[player] = max(0.0, best_utility - base)
    return gains
