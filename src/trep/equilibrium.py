"""Equilibrium computation and verification for the reputation game.

At the unique Nash equilibrium every player endorses servers proportionally
to trust.  The best response against aggregate opponent server mass b solves
a waterfilling problem: maximize sum_j R_j x_j / (x_j + b_j) on the simplex,
whose KKT solution is x_j = sqrt(R_j b_j / lambda) - b_j on the active set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import _bipartite_utility, _check_trust, f1
from .repgraph import Config

# Free servers (positive trust, no opponent mass) are captured by an
# arbitrarily small stake; the supremum is not attained, so we fix one.
FREE_SERVER_STAKE = 1e-12


class DegenerateBelief(ValueError):
    """Trust and belief have disjoint support; the best response is undefined."""


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of an equilibrium verification run.

    Every player plays the same row, so utility is each player's payoff;
    probe_min is the least payoff of that row against any opponent play.
    """

    epsilon_prime: float
    closed_form_deviation: float
    utility: float
    expected_value: float
    probe_min: float


def truth_telling_profile(belief: np.ndarray, n: int) -> np.ndarray:
    """Each of n players endorses servers by N(belief); with belief = trust
    this is the perfect-information equilibrium."""
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    nr = f1(belief)
    profile = np.zeros((n, nr.size + n))
    profile[:, : nr.size] = nr
    return profile


def _check_hierarchy(trust: np.ndarray, fresh_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trust and fresh weights of a hierarchy as float arrays, or ValueError:
    the weights must be a nonempty matrix of distributions."""
    ratings = _check_trust(trust)
    w = np.asarray(fresh_weights, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise ValueError(f"fresh_weights must be a nonempty matrix, got shape {w.shape}")
    if not (np.all(w >= 0) and np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError("fresh_weights rows must be distributions")
    return ratings, w


def hierarchy_profile(trust: np.ndarray, fresh_weights: np.ndarray) -> np.ndarray:
    """The k established players (rows 0..k-1) endorse servers by N(trust);
    fresh player k + i endorses established ones by row i of fresh_weights,
    whose (n - k) x k shape fixes k and n."""
    ratings, weights = _check_hierarchy(trust, fresh_weights)
    return _hierarchy_profile(f1(ratings), weights)


def _hierarchy_profile(nr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """hierarchy_profile on nr = N(trust) and checked fresh weights."""
    k, m = weights.shape[1], nr.size
    n = weights.shape[0] + k
    profile = np.zeros((n, m + n))
    profile[:k, :m] = nr
    profile[k:, m : m + k] = weights
    return profile


def best_response_to_mass(trust: np.ndarray, opponent_mass: np.ndarray) -> np.ndarray:
    """Exact waterfilling allocation against fixed aggregate opponent mass.

    Free servers (positive trust, no opponent mass) get FREE_SERVER_STAKE.
    Sorted by decreasing R_j / b_j, the contested servers are active on a
    prefix (Boyd & Vandenberghe, Convex Optimization, 5.5.3): the longest
    prefix whose last server still gets a positive KKT share at that prefix's
    water level.  Checks its inputs, then runs _waterfill.
    """
    ratings = np.asarray(trust, dtype=float)
    mass = np.asarray(opponent_mass, dtype=float)
    if ratings.shape != mass.shape or ratings.ndim != 1 or ratings.size == 0:
        raise ValueError("trust and opponent mass must be nonempty vectors of equal length")
    if not _finite_nonnegative(ratings, mass):
        raise ValueError("trust and opponent mass must be finite and nonnegative")
    return _waterfill(ratings, mass)


def _finite_nonnegative(*vectors: np.ndarray) -> bool:
    """Whether every entry of the nonempty vectors lies in [0, inf); min() >= 0
    is false for a NaN as for a negative entry."""
    return all(v.min() >= 0 and v.max() < np.inf for v in vectors)


def _waterfill(ratings: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """best_response_to_mass on nonempty float vectors of one shape, both nonnegative."""
    m = ratings.size
    allocation = np.zeros(m)
    supported = ratings > 0
    free = supported & (mass <= 0)
    free_count = int(np.count_nonzero(free))
    budget = 1.0 - FREE_SERVER_STAKE * free_count
    if free_count:
        allocation[free] = FREE_SERVER_STAKE
        contested = (supported & (mass > 0)).nonzero()[0]
    else:  # every supported server holds opponent mass
        contested = supported.nonzero()[0]
    if contested.size == 0:
        if free_count:
            allocation[free] += budget / free_count
        else:
            allocation += budget / m  # nothing is worth anything; split evenly
        return allocation

    order = contested[(-(ratings[contested] / mass[contested])).argsort(kind="stable")]
    opponents = mass[order]
    # sqrt(R) * sqrt(b), not sqrt(R * b): the product R * b can underflow to 0.
    sqrt_gain = np.sqrt(ratings[order]) * np.sqrt(opponents)
    sqrt_level = sqrt_gain.cumsum() / (budget + opponents.cumsum())
    positive = (sqrt_gain / sqrt_level > opponents).nonzero()[0]
    if positive.size == 0:  # the budget is below the rounding of b: no share registers
        allocation[order[0]] += budget
        return allocation
    size = positive[-1] + 1
    spread = np.maximum(sqrt_gain[:size] / sqrt_level[size - 1] - opponents[:size], 0.0)
    allocation[order[:size]] = spread * (budget / spread.sum())
    return allocation


def best_response_closed_form(trust: np.ndarray, belief: np.ndarray, n: int) -> np.ndarray:
    """Interior best response x_j = n sqrt(R_j R'_j) / sum_k sqrt(R_k R'_k) - (n-1) N(R')_j.

    Negative coordinates are clamped to zero and the rest renormalized; the
    numeric route remains authoritative whenever clamping kicks in.
    """
    ratings = np.asarray(trust, dtype=float)
    belief = np.asarray(belief, dtype=float)
    if ratings.shape != belief.shape or ratings.ndim != 1 or ratings.size == 0:
        raise ValueError("trust and belief must be nonempty vectors of equal length")
    if not _finite_nonnegative(ratings, belief):
        raise ValueError("trust and belief must be finite and nonnegative")
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    closed = _closed_form(ratings, belief, n)
    if closed is None:
        raise DegenerateBelief("trust and belief share no supported server")
    return closed


def _closed_form(
    ratings: np.ndarray, belief: np.ndarray, n: int, mass: np.ndarray | None = None
) -> np.ndarray | None:
    """best_response_closed_form on float vectors of one shape, or None where
    trust and belief share no supported server.  mass is the opponent mass
    (n - 1) N(belief), computed here when not given."""
    # sqrt(R) * sqrt(R'), not sqrt(R * R'): the product can underflow to 0.
    cross = np.sqrt(ratings) * np.sqrt(belief)
    total = cross.sum()
    if total <= 0:
        return None
    x = n * cross / total - ((n - 1) * f1(belief) if mass is None else mass)
    x = np.maximum(x, 0.0)
    return x / x.sum()


def _common_belief_defect(
    ratings: np.ndarray, belief: np.ndarray, nr_belief: np.ndarray, n: int
) -> tuple[float, float, np.ndarray, np.ndarray | None]:
    """Best unilateral gain when every player endorses the normalized belief,
    the base utility of playing N(belief), the exact best response and the
    closed form (None where it is undefined).

    Each player faces opponent mass (n - 1) N(belief); the gain is the exact
    best response's utility, or the closed form's when that is higher, over
    the base.  The inputs are checked float vectors of one shape, belief
    nonnegative with positive, finite mass and nr_belief = N(belief).
    """
    mass = (n - 1) * nr_belief
    response = _waterfill(ratings, mass)
    closed = _closed_form(ratings, belief, n, mass)
    rows = (nr_belief, response) if closed is None else (nr_belief, response, closed)
    base, *utilities = _bipartite_utility(np.array(rows), mass, ratings).tolist()
    return max(0.0, max(utilities) - base), base, response, closed


def verify_unique_nash(trust: np.ndarray, n: int) -> EquilibriumReport:
    """Check that proportional-to-trust endorsement is a Nash equilibrium.

    Computes the exact best response against the equilibrium profile (its
    gain bounds the equilibrium defect) and compares the closed form with
    the waterfilling solver.  probe_min, the least utility of x = N(R) against
    any opponent play, is the expected value sum(R) / n: sum_j R_j x_j /
    (x_j + b_j) is convex in the opponent mass b >= 0, sum(b) = n - 1, and
    its KKT point is b = (n - 1) N(R) (Boyd & Vandenberghe, 5.5.3).
    """
    ratings = _check_trust(trust)
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    gain, base, response, closed = _common_belief_defect(ratings, ratings, f1(ratings), n)
    deviation = np.nan if closed is None else float(np.abs(response - closed).max())
    value = ratings.sum() / n
    return EquilibriumReport(gain, deviation, base, value, value)


def measure_epsilon_prime(trust: np.ndarray, belief: np.ndarray, n: int) -> float:
    """Equilibrium defect when all n players endorse the common noisy belief:
    the best unilateral gain over the truthful-belief profile."""
    ratings = _check_trust(trust)
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    belief = np.asarray(belief, dtype=float)
    if belief.shape != ratings.shape:
        raise ValueError("belief and trust must have the same shape")
    # negated so NaN is rejected; before the sum, which warns on inf - inf
    if not belief.min() >= 0:
        raise ValueError("belief must be nonnegative with positive mass")
    total = belief.sum()
    if not total > 0:  # entries are nonnegative: a zero total means none is positive
        raise ValueError("belief must be nonnegative with positive mass")
    if not total < np.inf:  # f1's message
        raise ValueError("cannot normalize a vector without positive, finite mass")
    return _common_belief_defect(ratings, belief, belief / total, n)[0]


def epsilon_prime_bound(m: int, n: int, epsilon: float) -> float:
    """The bound m^2 (n-1) / n^2 * (1+eps) / (1-eps) on measure_epsilon_prime
    for beliefs within eps of trust; infinite once eps reaches 1."""
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    if not epsilon >= 0:  # negated so NaN is rejected
        raise ValueError("epsilon must be nonnegative")
    bound = m * m * (n - 1) / n**2
    if epsilon > 0:
        bound = np.inf if epsilon >= 1 else bound * ((1 + epsilon) / (1 - epsilon))
    return float(bound)


def _hierarchy_reduction(
    ratings: np.ndarray, weights: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Probe utilities and best-response gains of the established players of
    hierarchy_profile(ratings, weights), for one (n - k, k) matrix of fresh
    weights or for each draw of a (draws, n - k, k) stack: shape (k,) each,
    with the stack's leading axis in front.

    Established rows endorse no users and fresh rows endorse only established
    ones, so E_u^2 = 0 and the fundamental matrix of tour_counts is exactly
    N = I + (1 - alpha) E_u: established player t gets v_t = 1 + (1 - alpha)
    sum_i w[i, t] visits, and fresh players own no server mass.  N does not
    depend on established player p's server row x, so p's expected utility is
    bipartite_utility(x, b_p, R) / v_p, with b_p = (V - v_p) / v_p N(R) and
    V = sum_t v_t: sum(R) / V for its row N(R), which is also its server-only
    best response (see _hierarchy_gains).

    p's probe row keeps 0.8 N(R) on the servers and puts user mass d = 0.2 on
    the other established players (on p itself when k = 1): a rank-one update
    of I - (1 - alpha) E_u on unit rows of N, so (Sherman & Morrison, 1950)
    row p of the new N is e_p + q d and its column sums are v + q v_p d, with
    q = (1 - alpha) / (1 - (1 - alpha) d_p).  Every endorsed server splits
    its pot alike, so the probe utility is sum(R) own / (own v_p + V - v_p)
    with own = 0.8 (1 + q d_p) + q (0.2 - d_p).  Its gain over sum(R) / V,
    sum(R) (own - 1) (V - v_p) / (V (own v_p + V - v_p)), is taken in that
    factored form, clamped at +0.0: it is exactly 0 at k = 1, where V = v_p,
    and negative for k >= 2, where own = 1 - 0.2 alpha < 1.
    """
    keep = 1.0 - alpha
    visits = 1.0 + keep * weights.sum(axis=-2)
    total = visits.sum(axis=-1, keepdims=True)
    others = total - visits  # exactly 0 when k = 1
    self_mass = 0.2 if visits.shape[-1] == 1 else 0.0  # d_p
    q = keep / (1.0 - keep * self_mass)
    own = 0.8 * (1.0 + q * self_mass) + q * (0.2 - self_mass)
    reach = own * visits + others
    value = ratings.sum()
    # np.maximum(x, 0.0), not (0.0, x): the latter keeps the -0.0 of k = 1
    gains = np.maximum(value * (own - 1.0) * others / (total * reach), 0.0)
    return value * own / reach, gains


def hierarchy_best_response_gains(
    trust: np.ndarray, fresh_weights: np.ndarray, config: Config | None = None
) -> np.ndarray:
    """Best-response gains of the established players in hierarchy_profile().

    Everything comes from _hierarchy_reduction, with no graph and no solve.
    Established player p faces opponent server mass b_p = (V - v_p) / v_p
    N(R), proportional to R, so R_j / b_pj is the same on every trusted
    server and N(R) meets the KKT conditions of the waterfill (Boyd &
    Vandenberghe, 5.5.3): the server-only best response is the player's own
    row N(R), whose gain is exactly 0 (at k = 1, b_p = 0 and N(R) takes
    every pot).  What is left is the utility of a probe row that also
    endorses the other established players.  Other deviations that endorse
    users are not searched, so that part of each gain is a lower bound.  At
    the proportional-to-trust profile all gains vanish regardless of how the
    fresh players split their endorsements.
    """
    ratings, weights = _check_hierarchy(trust, fresh_weights)
    return _hierarchy_gains(ratings, weights[None], (config or Config()).alpha)[0]


def _hierarchy_gains(ratings: np.ndarray, weights: np.ndarray, alpha: float) -> np.ndarray:
    """hierarchy_best_response_gains for every draw of a (draws, n - k, k)
    stack of checked fresh weights, on checked trust, as a (draws, k) array.

    No best response is solved: against b_p proportional to N(R), the KKT
    point of sum_j R_j x_j / (x_j + b_pj) on the simplex has every
    R_j b_pj / (x_j + b_pj)^2 equal on the trusted servers, which x = N(R)
    meets, so the server-only gain is 0 and each gain is the probe's
    max(0, probe - base), read from the visit totals alone.
    """
    return _hierarchy_reduction(ratings, weights, alpha)[1]
