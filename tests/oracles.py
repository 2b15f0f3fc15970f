"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own solvers: best responses are
recomputed with projected-gradient ascent and brute-force grid refinement so
the exact waterfill solver in the package is checked against something that
shares none of its code, and by trying every active-set size where the
package picks the size from the KKT condition.  Tour counts are rebuilt one
source at a time from the explicit restarted chain and its dense
least-squares stationary vector, which shares nothing with the
fundamental-matrix solve.  Scores are checked against one dense linear solve
on the user block, which shares nothing with the power iteration.  Ranking
inversions are counted pair by pair, and all at once as the package did
before it compared them in blocks of rows.  Scenario files are parsed by the
line-by-line loop into a dense matrix that `load` used before it parsed edge
lines in bulk into an edge list.
Hierarchy gains are recomputed by the per-player loop that gave each probe
row its own profile and tour-count solve, where the package updates one
solve by a rank-one term per probe row, and by a waterfill per player
against the opponent masses b_p, which the package does not build: it reads
a server-only gain of exactly 0.  Row totals, for row violations and
for renormalization, add each dense row's entries left to right in a loop,
where `validate` and `load` take every total from one bincount over the edge
list; adding a zero is exact, so the two agree bit for bit.  A bootstrap
run is stepped round by round, polling every committee member in every
round, where the package computes each schedule pass's first fault in
closed form.  The waterfill solver, the closed-form best response and the
common-belief defect are kept verbatim as they stood before the package ran
them as kernels behind one check per call, so the kernels can be held to
them bit for bit.  The least equilibrium utility over opponent plays is
sampled by the probe loop the package ran before it reported the minimum
in closed form.  The belief-mass drift is counted by the separate trial
loop that measured it before f2_check counted it from the beliefs it
decodes.  Tests read a graph as a dense matrix through `dense`, which the
package no longer builds, and the dense forms of the designated chain, tour
counts and contribution shares are kept as they stood before the package
filled their blocks from the edge list.
"""

import math
from pathlib import Path

import numpy as np

from trep.decoder import noisy_belief_two_point
from trep.equilibrium import (
    FREE_SERVER_STAKE,
    DegenerateBelief,
    _hierarchy_reduction,
    best_response_to_mass,
    hierarchy_profile,
)
from trep.game import _check_trust, bipartite_utility, expected_utilities, f1, sample_nature
from trep.pagerank import StationaryDistribution, _check_stochastic, tour_counts
from trep.repgraph import ROW_SUM_RENORM, ROW_SUM_TOL, ParseError, RepGraph, validate
from trep.rng import substream

ORACLE_MAX_STATES = 200


def dense(graph):
    """The graph's dense n x (m + n) matrix, filled from its edge list."""
    edges = np.zeros((graph.n, graph.m + graph.n))
    edges[graph.rows, graph.cols] = graph.weights
    return edges


def designated_chain_dense(graph, config):
    """build_designated_chain as it stood on the dense matrix, verbatim."""
    n, m = graph.n, graph.m
    size = m + n
    chain = np.zeros((size, size))
    chain[:m, m:] = 1.0 / n
    chain[m:] = (1.0 - config.alpha) * dense(graph)
    chain[m:, m:] += config.alpha / n
    return chain


def tour_counts_dense(graph, config):
    """tour_counts as it stood on the dense matrix: N = (I - (1 - alpha) E_u)^-1
    against the identity, then server visits (1 - alpha) N E_s as a product."""
    n, m = graph.n, graph.m
    keep = 1.0 - config.alpha
    edges = dense(graph)
    visits = np.linalg.solve(np.eye(n) - keep * edges[:, m:], np.eye(n))
    return np.hstack([keep * visits @ edges[:, :m], visits])


def contribution_matrix_dense(graph, config):
    """contribution_matrix as it stood: the server columns of tour_counts_dense,
    normalized per column, with unendorsed servers' columns left zero."""
    counts = tour_counts_dense(graph, config)[:, : graph.m]
    totals = counts.sum(axis=0)
    shares = np.zeros_like(counts)
    endorsed = totals > 0
    shares[:, endorsed] = counts[:, endorsed] / totals[endorsed]
    return shares


def stationary_oracle(chain):
    """Stationary distribution via a dense least-squares solve.

    Solves pi (P - I) = 0 subject to sum(pi) = 1 and verifies both that the
    solution is unique (system has full rank) and that it is consistent.
    Intended as an independent cross-check for small chains.
    """
    chain = np.asarray(chain, dtype=float)
    _check_stochastic(chain)
    size = chain.shape[0]
    if size > ORACLE_MAX_STATES:
        raise ValueError(f"oracle supports up to {ORACLE_MAX_STATES} states, got {size}")
    system = np.vstack([chain.T - np.eye(size), np.ones((1, size))])
    rhs = np.zeros(size + 1)
    rhs[-1] = 1.0
    solution, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if rank < size:
        raise ValueError("stationary distribution is not unique for this chain")
    if np.max(np.abs(system @ solution - rhs)) > 1e-8:
        raise ValueError("no consistent stationary distribution found")
    pi = np.clip(solution, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ chain - pi).sum())
    return StationaryDistribution(pi, 0, residual)


def project_to_simplex(v):
    """Euclidean projection of v onto the probability simplex (sort/cumsum)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1))[0][-1]
    theta = (css[rho] - 1) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def share_utility(x, opponent_mass, trust):
    """sum_j trust_j * x_j / (x_j + opponent_mass_j), with 0/0 treated as 0."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(opponent_mass, dtype=float)
    total = x + b
    out = np.zeros_like(x)
    hit = total > 0
    out[hit] = x[hit] / total[hit]
    return float(np.dot(trust, out))


def pg_best_response(trust, opponent_mass, iters=40000, step0=0.5):
    """Projected-gradient ascent maximizer of share_utility over the simplex.

    Uncontested coordinates (opponent_mass == 0) earn their full trust term
    for any positive mass, so the gradient there is 0 beyond the first step;
    the projection keeps whatever small mass they pick up.
    """
    R = np.asarray(trust, dtype=float)
    b = np.asarray(opponent_mass, dtype=float)
    m = len(R)
    x = np.full(m, 1.0 / m)
    for t in range(iters):
        denom = np.maximum(x + b, 1e-300)
        grad = R * b / denom**2
        x = project_to_simplex(x + step0 / (1.0 + 0.01 * t) * grad)
    return x


def grid_best_response(trust, opponent_mass, passes=4, coarse=101):
    """Brute-force maximizer via nested grid refinement (m = 2 or 3 only)."""
    R = np.asarray(trust, dtype=float)
    b = np.asarray(opponent_mass, dtype=float)
    m = len(R)
    assert m in (2, 3), "grid oracle only supports m in {2, 3}"

    if m == 2:
        lo, hi = 0.0, 1.0
        best_t = 0.5
        for _ in range(passes):
            ts = np.linspace(lo, hi, coarse)
            vals = [share_utility(np.array([t, 1.0 - t]), b, R) for t in ts]
            best_t = ts[int(np.argmax(vals))]
            width = (hi - lo) / (coarse - 1)
            lo, hi = max(0.0, best_t - width), min(1.0, best_t + width)
        return np.array([best_t, 1.0 - best_t])

    lo = np.zeros(2)
    hi = np.ones(2)
    best = np.array([1 / 3, 1 / 3])
    for _ in range(passes):
        t1s = np.linspace(lo[0], hi[0], coarse)
        t2s = np.linspace(lo[1], hi[1], coarse)
        best_val = -np.inf
        for t1 in t1s:
            for t2 in t2s:
                if t1 + t2 > 1.0:
                    continue
                x = np.array([t1, t2, 1.0 - t1 - t2])
                val = share_utility(x, b, R)
                if val > best_val:
                    best_val = val
                    best = x
        w1 = (hi[0] - lo[0]) / (coarse - 1)
        w2 = (hi[1] - lo[1]) / (coarse - 1)
        lo = np.maximum(0.0, np.array([best[0] - w1, best[1] - w2]))
        hi = np.minimum(1.0, np.array([best[0] + w1, best[1] + w2]))
    return best


def best_response_by_enumeration(trust, opponent_mass, stake=1e-12):
    """Waterfilling best response that tries every active-set size.

    Each prefix of the contested servers, in decreasing R_j / b_j order, gets
    its KKT allocation with negative shares clipped; the candidate with the
    highest share_utility wins.  Free servers get the stake, as in the
    package.
    """
    ratings = np.asarray(trust, dtype=float)
    mass = np.asarray(opponent_mass, dtype=float)
    m = ratings.size
    allocation = np.zeros(m)
    free = (mass <= 0) & (ratings > 0)
    allocation[free] = stake
    budget = 1.0 - stake * int(free.sum())
    contested = np.where((mass > 0) & (ratings > 0))[0]
    if contested.size == 0:
        if free.any():
            allocation[free] += budget / int(free.sum())
        else:
            allocation += budget / m
        return allocation
    order = contested[np.argsort(-(ratings[contested] / mass[contested]), kind="stable")]
    sqrt_gain = np.sqrt(ratings[order]) * np.sqrt(mass[order])
    prefix_gain = np.cumsum(sqrt_gain)
    prefix_mass = np.cumsum(mass[order])
    best = None
    best_utility = -np.inf
    for size in range(1, order.size + 1):
        sqrt_level = prefix_gain[size - 1] / (budget + prefix_mass[size - 1])
        active = order[:size]
        spread = np.maximum(sqrt_gain[:size] / sqrt_level - mass[active], 0.0)
        total = spread.sum()
        if total <= 0:
            continue
        candidate = allocation.copy()
        candidate[active] = spread * (budget / total)
        utility = share_utility(candidate, mass, ratings)
        if utility > best_utility:
            best_utility = utility
            best = candidate
    return best


def best_response_to_mass_reference(trust, opponent_mass):
    """best_response_to_mass as it stood before the waterfill kernel, verbatim."""
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


def best_response_closed_form_reference(trust, belief, n):
    """best_response_closed_form as it stood before the kernels, verbatim."""
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


def bipartite_utility_reference(own, opponent_mass, trust):
    """bipartite_utility as it stood before the utility kernel, verbatim
    save its last sum, NumPy's own reduce as in the package, not BLAS's dot."""
    own = np.asarray(own, dtype=float)
    opponent_mass = np.asarray(opponent_mass, dtype=float)
    trust = np.asarray(trust, dtype=float)
    totals = own + opponent_mass
    shares = np.divide(own, totals, out=np.zeros_like(own), where=totals > 0)
    return float(np.add.reduce(shares * trust))


def common_belief_defect_reference(ratings, belief, n):
    """equilibrium._common_belief_defect as it stood before the kernels,
    verbatim, on the references above: (gain, deviation, base)."""
    nr_belief = f1(belief)
    mass = (n - 1) * nr_belief
    base = bipartite_utility_reference(nr_belief, mass, ratings)
    response = best_response_to_mass_reference(ratings, mass)
    best_utility = bipartite_utility_reference(response, mass, ratings)
    deviation = np.nan
    try:
        closed = best_response_closed_form_reference(ratings, belief, n)
    except DegenerateBelief:
        pass
    else:
        deviation = float(np.max(np.abs(response - closed)))
        closed_utility = bipartite_utility_reference(closed, mass, ratings)
        best_utility = max(best_utility, closed_utility)
    return max(0.0, best_utility - base), deviation, base


def probe_min_sampled(ratings, n, probes, rng):
    """Least utility of N(ratings) against sampled opponent plays: the probe
    loop verify_unique_nash ran before it reported the exact minimum, with
    its draws from rng unchanged, followed by the m vertices b = (n - 1) e_j
    where every opponent endorses server j alone.  A sample can only
    overstate the minimum sum(ratings) / n."""
    nr = f1(ratings)
    probe_min = np.inf
    for _ in range(probes):
        opponents = rng.dirichlet(np.ones(ratings.size), size=n - 1).sum(axis=0)
        probe_min = min(probe_min, bipartite_utility_reference(nr, opponents, ratings))
    for vertex in (n - 1) * np.eye(ratings.size):
        probe_min = min(probe_min, bipartite_utility_reference(nr, vertex, ratings))
    return probe_min


def hierarchy_masses(trust, fresh_weights, cfg):
    """Visit totals v and opponent server masses b_p = (V - v_p) / v_p N(R)
    of the established players of hierarchy_profile(trust, fresh_weights),
    built as the package built them before it read the gains in closed form."""
    visits = 1.0 + (1.0 - cfg.alpha) * np.asarray(fresh_weights, dtype=float).sum(axis=0)
    others = visits.sum() - visits
    return visits, (others / visits)[:, None] * f1(trust)


def hierarchy_gains_reference(trust, fresh_weights, cfg):
    """hierarchy_best_response_gains' per-player loop as it stood before the
    kernels, verbatim, on the references above: a waterfill per player, where
    the package reads a server-only gain of exactly 0."""
    ratings = np.asarray(trust, dtype=float)
    weights = np.asarray(fresh_weights, dtype=float)
    nr = f1(ratings)
    visits, masses = hierarchy_masses(ratings, weights, cfg)
    probe = _hierarchy_reduction(ratings, weights, cfg.alpha)[0]
    gains = np.zeros(visits.size)
    for player, (mass, visit) in enumerate(zip(masses, visits)):
        base = bipartite_utility_reference(nr, mass, ratings) / visit
        response = best_response_to_mass_reference(ratings, mass)
        best_utility = max(bipartite_utility_reference(response, mass, ratings) / visit, probe[player])
        gains[player] = max(0.0, best_utility - base)
    return gains


def hoeffding_check_reference(
    trust: np.ndarray,
    epsilon: float,
    delta: float,
    trials: int,
    rng: np.random.Generator | None = None,
    generator=noisy_belief_two_point,
) -> dict:
    """Empirical tail of the belief-mass drift against its Hoeffding bound.

    Measures how often |  ||R'||_1 - ||R||_1  | reaches delta; the bound is
    q = exp(-delta^2 / (4 epsilon^2 m)).

    trep.decoder.hoeffding_check as it stood before f2_check counted the
    drift, verbatim.
    """
    trust = _check_trust(trust)
    m = trust.size
    if trials < 1:
        raise ValueError("need at least one trial")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    q = math.exp(-(delta**2) / (4.0 * epsilon**2 * m)) if epsilon > 0 else 0.0
    rng = rng or substream(0, "hoeffding")
    total = trust.sum()
    hits = 0
    for _ in range(trials):
        belief = generator(trust, epsilon, rng)
        if abs(belief.sum() - total) >= delta:
            hits += 1
    return {"empirical_prob": hits / trials, "q": q}


def best_response_numeric(profile, trust, player):
    """Best server allocation for one player against a server-only profile.

    Not an oracle: the package's waterfill solver applied to the opponents'
    summed server rows, for tests that start from a whole profile.
    """
    profile = np.asarray(profile, dtype=float)
    trust = np.asarray(trust, dtype=float)
    m = trust.size
    n = profile.shape[0]
    violations = validate(RepGraph(n=n, m=m, edges=profile))
    if violations:
        raise ValueError("; ".join(violations))
    if not 0 <= player < n:
        raise ValueError(f"player index {player} out of range 0..{n - 1}")
    others = np.arange(n) != player
    if np.max(np.abs(profile[others, m:])) > 1e-12:
        raise ValueError("opponents endorse users; the reduced best response does not apply")
    return best_response_to_mass(trust, profile[others, :m].sum(axis=0))


def bipartite_expected_utilities(profile, trust):
    """Expected utilities of a server-only profile (E_u = 0) in closed form.

    With no user endorsements an excursion visits at most one server, so a
    user's share of a server's pot is its share of that server's endorsements.
    """
    profile = np.asarray(profile, dtype=float)
    n = profile.shape[0]
    m = profile.shape[1] - n
    assert not np.any(profile[:, m:]), "profile endorses users"
    server_mass = profile[:, :m]
    totals = server_mass.sum(axis=0, keepdims=True)
    shares = np.divide(server_mass, totals, out=np.zeros_like(server_mass), where=totals > 0)
    return shares @ np.asarray(trust, dtype=float)


def probe_profile(profile, player, k, m):
    """profile with player's row swapped for the probe row of
    hierarchy_best_response_gains: 0.8 of its server row N(R) kept on the
    servers, 0.2 spread over the other established players (over player
    itself when k = 1)."""
    trial = profile.copy()
    trial[player] = 0.0
    trial[player, :m] = 0.8 * profile[player, :m]
    peers = [m + t for t in range(k) if t != player] or [m + t for t in range(k)]
    trial[player, peers] = 0.2 / len(peers)
    return trial


def hierarchy_gains_oracle(trust, fresh_weights, cfg):
    """hierarchy_best_response_gains by a loop over the established players:
    one tour-count solve for the visits and opponent masses, then one more
    per player, whose probe row expected_utilities scores on an explicit
    copy of the profile."""
    profile = hierarchy_profile(trust, fresh_weights)
    ratings = np.asarray(trust, dtype=float)
    n, k, m = profile.shape[0], fresh_weights.shape[1], ratings.size
    nr = f1(ratings)
    visits = tour_counts(RepGraph(n=n, m=m, edges=profile), cfg)[:, m:].sum(axis=0)
    gains = np.zeros(k)
    for player in range(k):
        others = np.arange(n) != player
        mass = visits[others] @ profile[others, :m] / visits[player]
        base = bipartite_utility(nr, mass, ratings) / visits[player]
        response = best_response_to_mass(ratings, mass)
        best_utility = bipartite_utility(response, mass, ratings) / visits[player]
        trial = probe_profile(profile, player, k, m)
        best_utility = max(best_utility, expected_utilities(trial, ratings, cfg)[player])
        gains[player] = max(0.0, best_utility - base)
    return gains


def restarted_chain(edges, m, alpha, source):
    """Transition matrix of the walk that restarts at one user.

    Users follow their edges with probability 1 - alpha and restart at the
    source with probability alpha; servers always restart.
    """
    n = edges.shape[0]
    restart = np.zeros(m + n)
    restart[m + source] = 1.0
    chain = np.empty((m + n, m + n))
    chain[:m] = restart
    chain[m:] = (1.0 - alpha) * edges + alpha * restart
    return chain


def single_source_tour_counts(edges, m, alpha, source):
    """Visits per excursion from one user: the restarted chain's stationary
    vector divided by its regeneration rate (restarts per step)."""
    pi = stationary_oracle(restarted_chain(edges, m, alpha, source)).pi
    regen = alpha * pi[m:].sum() + pi[:m].sum()
    return pi / regen


def designated_user_mass(edges, m, alpha):
    """Users' stationary mass in the designated walk, up to scale.

    Solves (I - (1 - alpha) E_u)^T x = 1: a uniform restart, and every
    server jump, lands on each user with the same probability, so x is the
    expected visits to each user per unit of restart mass.
    """
    n = edges.shape[0]
    system = np.eye(n) - (1.0 - alpha) * np.asarray(edges, dtype=float)[:, m:]
    return np.linalg.solve(system.T, np.ones(n))


def _left_to_right(row):
    """The row's entries added one at a time from the left; builtin sum would
    not do, as it compensates on Python >= 3.12."""
    total = 0.0
    for value in row.tolist():
        total += value
    return total


def row_violations(edges):
    """Row messages of repgraph.validate, found one dense row at a time.

    A row's total adds its entries left to right, zeros included.
    """
    violations = []
    for i, row in enumerate(edges, start=1):
        if np.any(row < 0):
            j = int(np.argmin(row))
            violations.append(f"row {i} column {j + 1}: negative weight {row[j]:.12g}")
            continue
        total = _left_to_right(row)
        if total == 0.0:
            violations.append(f"row {i} is all zeros: every user must endorse someone")
        elif not abs(total - 1.0) <= 1e-12:
            violations.append(f"row {i} sums to {total:.12g}, expected 1")
    return violations


def count_inversions_pairwise(rho, trust):
    """count_inversions by a loop over the pairs: a pair with strictly
    different trust is whole when the scores rank it the other way and half
    when they tie; halves round up in total."""
    whole = 0
    halves = 0
    m = len(rho)
    for i in range(m):
        for j in range(i + 1, m):
            if trust[i] == trust[j]:
                continue
            hi, lo = (i, j) if trust[i] > trust[j] else (j, i)
            if rho[hi] < rho[lo]:
                whole += 1
            elif rho[hi] == rho[lo]:
                halves += 1
    return whole + (halves + 1) // 2


def count_inversions_broadcast(rho, trust):
    """count_inversions as it stood before it compared the pairs in blocks of
    rows: every pair at once in m x m arrays."""
    above = trust[:, None] > trust[None, :]
    whole = int(np.count_nonzero(above & (rho[:, None] < rho[None, :])))
    halves = int(np.count_nonzero(above & (rho[:, None] == rho[None, :])))
    return whole + (halves + 1) // 2


def _oracle_int(token, what, lineno):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", lineno) from None


def _oracle_float(token, what, lineno):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{what} must be a number, got {token!r}", lineno) from None


def load_oracle(path):
    """repgraph.load as a line-by-line loop into a dense matrix.

    Returns (n, m, alpha, trust, edges) or raises what load raises: the
    ParseError with its line number, or the ValueError of validate.
    """
    text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    n = m = None
    alpha: float | None = None
    trust: np.ndarray | None = None
    entries: dict[tuple[int, int], float] = {}
    declared: set[str] = set()
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "trep v1":
                raise ParseError(f"expected 'trep v1' header, got {line!r}", lineno)
            header_seen = True
            continue
        fields = line.split()
        key, args = fields[0], fields[1:]
        if key in ("users", "servers", "alpha", "trust"):
            if key in declared:
                raise ParseError(f"repeated {key} declaration", lineno)
            declared.add(key)
        if key in ("users", "servers"):
            if len(args) != 1:
                raise ParseError(f"{key} takes exactly one value", lineno)
            count = _oracle_int(args[0], key, lineno)
            if count < 0:
                raise ParseError(f"{key} must be nonnegative, got {count}", lineno)
            if key == "users":
                n = count
            else:
                m = count
            if n is not None and m is not None and n * (m + n) >= 2**62:
                raise ParseError(f"users {n} and servers {m} are too many: n * (m + n) >= 2**62", lineno)
        elif key == "alpha":
            if len(args) != 1:
                raise ParseError("alpha takes exactly one value", lineno)
            alpha = _oracle_float(args[0], "alpha", lineno)
            if not 0.0 < alpha < 1.0:
                raise ParseError(f"alpha must lie strictly between 0 and 1, got {alpha}", lineno)
        elif key == "trust":
            if m is None:
                raise ParseError("trust must follow the servers declaration", lineno)
            if len(args) != m:
                raise ParseError(f"trust takes {m} values, got {len(args)}", lineno)
            values = [_oracle_float(a, "trust", lineno) for a in args]
            for value in values:
                if not 0.0 <= value <= 1.0:
                    raise ParseError(f"trust value {value} lies outside [0, 1]", lineno)
            if not any(v > 0 for v in values):
                raise ParseError("trust has no positive entry", lineno)
            trust = np.array(values)
        elif key == "edge":
            if n is None or m is None:
                raise ParseError("edges must follow the users/servers declarations", lineno)
            if len(args) != 3:
                raise ParseError("edge takes three values: user, target, weight", lineno)
            i = _oracle_int(args[0], "edge source", lineno)
            j = _oracle_int(args[1], "edge target", lineno)
            w = _oracle_float(args[2], "edge weight", lineno)
            if not 1 <= i <= n:
                raise ParseError(f"edge source {i} out of range 1..{n}", lineno)
            if not 1 <= j <= m + n:
                raise ParseError(f"edge target {j} out of range 1..{m + n}", lineno)
            if w < 0:
                raise ParseError(f"edge weight must be nonnegative, got {w}", lineno)
            if (i, j) in entries:
                raise ParseError(f"duplicate edge {i} -> {j}", lineno)
            entries[(i, j)] = w
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if not header_seen:
        raise ParseError("missing 'trep v1' header", 1)
    if n is None or m is None:
        raise ParseError("missing users/servers declaration")
    if alpha is None:
        raise ParseError("missing alpha declaration")
    edges = np.zeros((n, m + n))
    for (i, j), w in entries.items():
        edges[i - 1, j - 1] = w
    for i in range(n):
        total = _left_to_right(edges[i])
        if total > 0 and ROW_SUM_TOL < abs(total - 1.0) < ROW_SUM_RENORM:
            edges[i] /= total
    violations = [f"n must be at least 2, got {n}"] if n < 2 else []
    violations += [f"m must be at least 1, got {m}"] if m < 1 else []
    violations += row_violations(edges)
    if violations:
        raise ValueError("; ".join(violations))
    return n, m, alpha, trust, edges


def bootstrap_oracle(trust, bcfg, rng):
    """One bootstrap run stepped round by round, with the same draws as
    `run_bootstrap`: (event log, restarts, detected, honest, survivors), the
    log rendered line by line as `trace_event_log` writes it."""
    m = np.asarray(trust).size
    honest = sample_nature(trust, rng)
    fault_round = rng.integers(1, bcfg.lam + 1, size=m)
    excluded: set[int] = set()
    lines: list[str] = []
    restarts = 0
    for _ in range(m + 1):
        active = [j for j in range(m) if j not in excluded]
        if not active:
            break
        blocks = math.ceil(len(active) / bcfg.committee_size)
        violated = False
        for t in range(1, bcfg.lam + blocks):
            start = ((t - 1) % blocks) * bcfg.committee_size
            committee = tuple(active[start : start + bcfg.committee_size])
            faulty = [j for j in committee if honest[j] == 0 and fault_round[j] <= t]
            culprit = min(faulty) if faulty else None
            polled = ",".join(str(j + 1) for j in committee)
            if culprit is None:
                lines.append(f"round {t} committee {polled} fault none detect none restart false")
            else:
                c = culprit + 1
                lines.append(f"round {t} committee {polled} fault {c} detect {c} restart true")
                excluded.add(culprit)
                restarts += 1
                violated = True
                break
        if not violated:
            break
    else:
        raise RuntimeError("bootstrap exceeded its restart budget; this is a bug")
    survivors = np.array([0 if j in excluded else int(honest[j]) for j in range(m)])
    log = "".join(line + "\n" for line in lines)
    return log, restarts, tuple(sorted(excluded)), honest, survivors
