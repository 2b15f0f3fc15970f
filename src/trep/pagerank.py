"""Random-walk machinery over endorsement graphs.

States are ordered servers first (0..m-1), then users (m..m+n-1).  The
designated walk follows endorsement edges with probability 1 - alpha and
teleports to a uniformly random user with probability alpha; servers, which
own no edges, always jump to a uniformly random user.  Reputation scores are
the stationary endorsement mass received by each server, normalized.

Tour counts restart the walk at one fixed user instead of a uniform one and
count the visits made during a single excursion from that user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .repgraph import Config, RepGraph, _require_valid


class NonConvergence(RuntimeError):
    """Power iteration exhausted its budget before reaching tolerance."""


class AllServersUntrusted(ValueError):
    """No server receives any endorsement mass, so scores are undefined."""


@dataclass(frozen=True)
class StationaryDistribution:
    """A stationary probability vector with solver diagnostics."""

    pi: np.ndarray
    iterations_used: int
    residual: float


def _check_stochastic(chain: np.ndarray) -> None:
    chain = np.asarray(chain)
    if chain.ndim != 2 or chain.shape[0] != chain.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {chain.shape}")
    if np.any(chain < 0):
        raise ValueError("transition matrix has negative entries")
    if not np.max(np.abs(chain.sum(axis=1) - 1.0)) <= 1e-9:
        raise ValueError("transition matrix rows must sum to 1")


def build_designated_chain(graph: RepGraph, config: Config) -> np.ndarray:
    """Return the (m+n) x (m+n) transition matrix of the designated walk."""
    _require_valid(graph)
    n, m = graph.n, graph.m
    size = m + n
    chain = np.zeros((size, size))
    chain[:m, m:] = 1.0 / n
    chain[m:] = (1.0 - config.alpha) * graph.edges
    chain[m:, m:] += config.alpha / n
    return chain


def clique_chain(ratings: np.ndarray) -> np.ndarray:
    """Chain of servers recommending each other proportionally to ratings.

    Every row is the normalized rating vector, so the stationary distribution
    equals it exactly and all pairwise ratios are preserved.
    """
    ratings = np.asarray(ratings, dtype=float)
    if ratings.ndim != 1 or ratings.size < 2:
        raise ValueError("ratings must be a vector of at least two entries")
    if np.any(ratings < 0) or not np.any(ratings > 0):
        raise ValueError("ratings must be nonnegative with a positive entry")
    row = ratings / ratings.sum()
    return np.tile(row, (ratings.size, 1))


def stationary(chain, config: Config) -> StationaryDistribution:
    """Stationary distribution by power iteration from the uniform vector.

    chain is a dense transition matrix, or the _UserChain operator, whose
    rows are stochastic by construction.
    """
    if not isinstance(chain, _UserChain):
        chain = np.asarray(chain, dtype=float)
        _check_stochastic(chain)
    pi = np.full(chain.shape[0], 1.0 / chain.shape[0])
    residual = np.inf
    for iteration in range(1, config.max_iters + 1):
        nxt = pi @ chain
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual <= config.tol:
            return StationaryDistribution(pi / pi.sum(), iteration, residual)
    raise NonConvergence(
        f"residual {residual:.3e} above tolerance {config.tol:.3e} "
        f"after {config.max_iters} iterations"
    )


class _UserChain:
    """The n x n user chain P_U of a valid graph, never formed as a matrix.

    pi @ chain is one matrix-free step on the graph's nonzeros:
        pi P_U = (1 - alpha) pi E_u + (pi . c) 1^T,  c = (alpha + (1 - alpha) s) / n,
    with s = E_s 1 (Langville & Meyer, "Deeper inside PageRank", 2004).
    """

    __array_ufunc__ = None  # makes `pi @ chain` call __rmatmul__

    def __init__(self, graph: RepGraph, config: Config):
        keep = 1.0 - config.alpha
        n, m, rows, cols, weights = graph.n, graph.m, graph.rows, graph.cols, graph.weights
        to_user = cols >= m
        self.shape, self.src, self.dst = (n, n), rows[to_user], cols[to_user] - m
        self.follow = keep * weights[to_user]
        server_mass = np.bincount(rows, np.where(to_user, 0.0, weights), n)
        self.jump = (config.alpha + keep * server_mass) / n

    def __rmatmul__(self, pi: np.ndarray) -> np.ndarray:
        return np.bincount(self.dst, pi[self.src] * self.follow, self.shape[0]) + pi.dot(self.jump)


def reputation_scores(graph: RepGraph, config: Config) -> np.ndarray:
    """Normalized stationary endorsement mass received by each server.

    The dangling servers are eliminated: the users' stationary mass pi_U is
    that of the n x n stochastic complement of the user block,
        P_U = (1 - alpha) E_u + ((alpha + (1 - alpha) s) / n) 1^T,  s = E_s 1,
    whose row i sums to (1 - alpha)(1 - s_i) + alpha + (1 - alpha) s_i = 1.
    P_U is never formed: `stationary` steps on the graph's nonzeros through
    _UserChain.  The scores are E_s^T pi_U, normalized.
    """
    _require_valid(graph)
    pi = stationary(_UserChain(graph, config), config).pi
    n, m = graph.n, graph.m  # the bins from m on, user targets, are dropped
    received = np.bincount(graph.cols, graph.weights * pi[graph.rows], m + n)[:m]
    if not np.any(received > 0):
        raise AllServersUntrusted("no server receives any endorsement mass")
    return received / received.sum()


def tour_counts(graph: RepGraph, config: Config) -> np.ndarray:
    """Expected visits per excursion, for every source user at once.

    Row i holds, for each state, the expected number of visits during a
    single excursion of the walk restarted at user i (the excursion ends at
    a restart, taken with probability alpha from users and certainly from
    servers).  With E_u the user-to-user and E_s the user-to-server block,
    user visits are the fundamental matrix N = (I - (1 - alpha) E_u)^-1 and
    server visits are (1 - alpha) N E_s.  User rows of E sum to one, so
    I - (1 - alpha) E_u is strictly diagonally dominant and never singular.
    """
    _require_valid(graph)
    n, m = graph.n, graph.m
    keep = 1.0 - config.alpha
    edges = graph.edges  # the solve is dense anyway
    visits = np.linalg.solve(np.eye(n) - keep * edges[:, m:], np.eye(n))
    return np.hstack([keep * visits @ edges[:, :m], visits])


def contribution_matrix(graph: RepGraph, config: Config) -> np.ndarray:
    """Each user's share of the per-tour visits every server receives.

    Entry (i, j) is user i's fraction of all expected visits to server j per
    excursion; columns of endorsed servers sum to one, columns of unendorsed
    servers are zero.
    """
    counts = tour_counts(graph, config)[:, : graph.m]
    totals = counts.sum(axis=0)
    shares = np.zeros_like(counts)
    endorsed = totals > 0
    shares[:, endorsed] = counts[:, endorsed] / totals[endorsed]
    return shares
