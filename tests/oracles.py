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
inversions are counted pair by pair, where the package compares all pairs at
once.  Scenario files are parsed by the line-by-line loop into a dense
matrix that `load` used before it parsed edge lines in bulk into an edge list.
"""

from pathlib import Path

import numpy as np

from trep.equilibrium import best_response_to_mass
from trep.pagerank import StationaryDistribution, _check_stochastic
from trep.repgraph import ROW_SUM_RENORM, ROW_SUM_TOL, ParseError, RepGraph, validate

ORACLE_MAX_STATES = 200


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


def row_violations(edges):
    """Row messages of repgraph.validate, found one row at a time."""
    violations = []
    for i, row in enumerate(edges, start=1):
        if np.any(row < 0):
            j = int(np.argmin(row))
            violations.append(f"row {i} column {j + 1}: negative weight {row[j]:.12g}")
            continue
        total = row.sum()
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
    text = Path(path).read_text(encoding="utf-8")
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
        total = edges[i].sum()
        if total > 0 and ROW_SUM_TOL < abs(total - 1.0) < ROW_SUM_RENORM:
            edges[i] /= total
    violations = [f"n must be at least 2, got {n}"] if n < 2 else []
    violations += [f"m must be at least 1, got {m}"] if m < 1 else []
    violations += row_violations(edges)
    if violations:
        raise ValueError("; ".join(violations))
    return n, m, alpha, trust, edges
