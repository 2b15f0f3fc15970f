import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trep.pagerank import (
    AllServersUntrusted,
    NonConvergence,
    _UserChain,
    build_designated_chain,
    clique_chain,
    contribution_matrix,
    reputation_scores,
    stationary,
    tour_counts,
)
from trep.equilibrium import hierarchy_profile, truth_telling_profile
from trep.repgraph import Config, RepGraph, _profile_graph

from oracles import (
    contribution_matrix_dense,
    dense,
    designated_chain_dense,
    designated_user_mass,
    single_source_tour_counts,
    stationary_oracle,
    tour_counts_dense,
)

CFG = Config()


def two_users_one_server(alpha=0.2):
    # Both users endorse the single server with weight 1.
    edges = np.zeros((2, 3))
    edges[:, 0] = 1.0
    return RepGraph(n=2, m=1, edges=edges), Config(alpha=alpha)


def random_graph(rng, n=None, m=None):
    n = n or int(rng.integers(2, 8))
    m = m or int(rng.integers(2, 6))
    edges = rng.dirichlet(np.ones(m + n), size=n)
    return RepGraph(n=n, m=m, edges=edges)


# ----------------------------------------------------------- chain structure

def test_designated_chain_layout():
    # State order is servers first (0..m-1), then users (m..m+n-1).
    graph, cfg = two_users_one_server(alpha=0.2)
    chain = build_designated_chain(graph, cfg)
    np.testing.assert_allclose(chain[0], [0.0, 0.5, 0.5])  # server row: uniform over users
    np.testing.assert_allclose(chain[1], [0.8, 0.1, 0.1])  # user rows: 0.8 to server, alpha/n to users
    np.testing.assert_allclose(chain[2], [0.8, 0.1, 0.1])


def test_designated_chain_rows_stochastic():
    rng = np.random.default_rng(0)
    for _ in range(20):
        chain = build_designated_chain(random_graph(rng), CFG)
        np.testing.assert_allclose(chain.sum(axis=1), 1.0, atol=1e-12)


def test_designated_chain_user_to_user_entry():
    edges = np.zeros((2, 4))
    edges[0, 2] = 1.0  # user 1 endorses user 1 (self) with weight 1
    edges[1, :2] = 0.5
    graph = RepGraph(n=2, m=2, edges=edges)
    chain = build_designated_chain(graph, Config(alpha=0.2))
    assert chain[2, 2] == pytest.approx(0.8 + 0.1)


def test_designated_chain_rejects_invalid_graph():
    edges = np.zeros((2, 3))
    edges[0, 0] = 1.0  # second row all zeros
    graph = RepGraph(n=2, m=1, edges=edges)
    with pytest.raises(ValueError):
        build_designated_chain(graph, CFG)


def test_server_rows_place_no_mass_on_servers():
    rng = np.random.default_rng(1)
    graph = random_graph(rng)
    chain = build_designated_chain(graph, CFG)
    assert np.all(chain[: graph.m, : graph.m] == 0.0)
    np.testing.assert_allclose(chain[: graph.m, graph.m :], 1.0 / graph.n)


# ------------------------------------------------------------- stationarity

def test_stationary_two_users_one_server():
    graph, cfg = two_users_one_server(alpha=0.2)
    dist = stationary(build_designated_chain(graph, cfg), cfg)
    np.testing.assert_allclose(dist.pi, [4 / 9, 5 / 18, 5 / 18], atol=1e-11)
    assert dist.residual <= cfg.tol


def test_stationary_symmetric_users_equal_mass():
    profile = np.zeros((3, 5))
    profile[:, :2] = [0.7, 0.3]
    graph = RepGraph(n=3, m=2, edges=profile)
    dist = stationary(build_designated_chain(graph, CFG), CFG)
    users = dist.pi[2:]
    assert np.ptp(users) <= 1e-12


def test_transient_server_mass_vanishes():
    profile = np.zeros((2, 5))
    profile[:, 0] = 1.0  # nobody endorses servers 2 and 3
    graph = RepGraph(n=2, m=3, edges=profile)
    dist = stationary(build_designated_chain(graph, CFG), CFG)
    assert dist.pi[1] <= 1e-12 and dist.pi[2] <= 1e-12


def test_power_iteration_matches_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        chain = build_designated_chain(random_graph(rng), CFG)
        a = stationary(chain, CFG).pi
        b = stationary_oracle(chain).pi
        assert np.max(np.abs(a - b)) <= 1e-10


def test_nonconvergence_reports_residual():
    rng = np.random.default_rng(3)
    chain = build_designated_chain(random_graph(rng), CFG)
    with pytest.raises(NonConvergence, match=r"residual"):
        stationary(chain, Config(tol=1e-15, max_iters=2))


def test_oracle_two_state_swap():
    chain = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(stationary_oracle(chain).pi, [0.5, 0.5], atol=1e-12)


def test_oracle_rejects_non_unique_stationary():
    with pytest.raises(ValueError):
        stationary_oracle(np.eye(2))


def test_oracle_on_clique_returns_normalized_trust():
    r = np.array([0.9, 0.3, 0.6])
    pi = stationary_oracle(clique_chain(r)).pi
    np.testing.assert_allclose(pi, r / r.sum(), atol=1e-12)


def test_clique_ratio_preservation_spot():
    rng = np.random.default_rng(5)
    r = rng.uniform(0.05, 1.0, size=6)
    pi = stationary(clique_chain(r), CFG).pi
    ratios = pi[:, None] / pi[None, :]
    truth = r[:, None] / r[None, :]
    assert np.max(np.abs(ratios / truth - 1.0)) <= 1e-9


# ------------------------------------------------------------- reputation

def test_reputation_two_users_one_server():
    graph, cfg = two_users_one_server()
    np.testing.assert_allclose(reputation_scores(graph, cfg), [1.0])


def test_reputation_equals_normalized_trust_at_truth_telling():
    r = np.array([0.9, 0.3, 0.6])
    nr = r / r.sum()
    profile = np.zeros((4, 7))
    profile[:, :3] = nr
    graph = RepGraph(n=4, m=3, edges=profile)
    np.testing.assert_allclose(reputation_scores(graph, CFG), nr, atol=1e-10)


def test_reputation_symmetric_split():
    # One user endorses server 1, the other server 2; scores split evenly.
    edges = np.zeros((2, 4))
    edges[0, 0] = 1.0
    edges[1, 1] = 1.0
    graph = RepGraph(n=2, m=2, edges=edges)
    np.testing.assert_allclose(reputation_scores(graph, CFG), [0.5, 0.5], atol=1e-12)


def test_reputation_hierarchy_matches_normalized_trust():
    # 2 perfect users play N(R); 3 fresh users endorse only perfect users.
    nr = np.array([0.75, 0.25])
    rng = np.random.default_rng(11)
    profile = np.zeros((5, 7))
    profile[:2, :2] = nr
    for i in range(2, 5):
        w = rng.dirichlet(np.ones(2))
        profile[i, 2:4] = w
    graph = RepGraph(n=5, m=2, edges=profile)
    rho = reputation_scores(graph, CFG)
    np.testing.assert_allclose(rho, nr, atol=1e-10)
    oracle_pi = stationary_oracle(build_designated_chain(graph, CFG)).pi
    impl_pi = stationary(build_designated_chain(graph, CFG), CFG).pi
    assert np.max(np.abs(oracle_pi - impl_pi)) <= 1e-10


def test_reputation_alpha_invariant_for_symmetric_strategies():
    profile = np.zeros((3, 5))
    profile[:, :2] = [0.6, 0.4]
    graph = RepGraph(n=3, m=2, edges=profile)
    scores = [reputation_scores(graph, Config(alpha=a)) for a in (0.05, 0.15, 0.5)]
    for rho in scores[1:]:
        np.testing.assert_allclose(rho, scores[0], atol=1e-12)


def test_reputation_all_servers_untrusted():
    edges = np.zeros((2, 4))
    edges[0, 3] = 1.0  # endorse user 2
    edges[1, 2] = 1.0  # endorse user 1
    graph = RepGraph(n=2, m=2, edges=edges)
    with pytest.raises(AllServersUntrusted):
        reputation_scores(graph, CFG)


def test_transient_server_gets_zero_score():
    edges = np.zeros((2, 4))
    edges[:, 0] = 1.0
    graph = RepGraph(n=2, m=2, edges=edges)
    rho = reputation_scores(graph, CFG)
    np.testing.assert_allclose(rho, [1.0, 0.0])


# ------------------------------------------------------------- personalized

def personalized(graph, cfg, source):
    """Stationary distribution of the walk restarted at one user."""
    row = tour_counts(graph, cfg)[source]
    return row / row.sum()


def test_personalized_single_source_frozen():
    graph, cfg = two_users_one_server(alpha=0.2)
    np.testing.assert_allclose(personalized(graph, cfg, 0), [4 / 9, 5 / 9, 0.0], atol=1e-11)


def test_personalized_matches_dense_solve():
    graph, cfg = two_users_one_server(alpha=0.2)
    # Dense route: solve pi = pi M for the explicit restarted chain.
    M = np.array([[0.0, 1.0, 0.0], [0.8, 0.2, 0.0], [0.8, 0.2, 0.0]])
    pi = stationary_oracle(M).pi
    np.testing.assert_allclose(personalized(graph, cfg, 0), pi, atol=1e-11)


def test_personalized_support_respects_reachability():
    edges = np.zeros((3, 5))
    edges[0, :2] = 0.5       # user 1 endorses both servers
    edges[1, 1] = 1.0        # user 2 endorses server 2 only
    edges[2, 3] = 1.0        # user 3 endorses user 2
    graph = RepGraph(n=3, m=2, edges=edges)
    assert personalized(graph, CFG, 0)[0] > 0
    assert personalized(graph, CFG, 1)[0] == pytest.approx(0.0, abs=1e-15)
    assert personalized(graph, CFG, 2)[0] == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------------- contribution

def test_contribution_bipartite_identity():
    s = np.array([[0.2, 0.8], [0.5, 0.5]])
    profile = np.zeros((2, 4))
    profile[:, :2] = s
    graph = RepGraph(n=2, m=2, edges=profile)
    omega = contribution_matrix(graph, CFG)
    expected = s / s.sum(axis=0, keepdims=True)
    np.testing.assert_allclose(omega, expected, atol=1e-10)


def test_contribution_sole_contributor():
    edges = np.zeros((2, 4))
    edges[0, :2] = 0.5   # user 1 endorses both servers
    edges[1, 3] = 1.0    # user 2 endorses only itself
    graph = RepGraph(n=2, m=2, edges=edges)
    omega = contribution_matrix(graph, CFG)
    np.testing.assert_allclose(omega, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)


def test_contribution_hierarchy_frozen_shares():
    # 2 perfect users playing N(R), 1 fresh user endorsing the perfect users:
    # per-tour visits give perfect users 1/(3-alpha) of each column and the
    # fresh user (1-alpha)/(3-alpha), independent of its split.
    alpha = 0.15
    nr = np.array([0.75, 0.25])
    profile = np.zeros((3, 5))
    profile[:2, :2] = nr
    profile[2, 2:4] = [0.3, 0.7]
    graph = RepGraph(n=3, m=2, edges=profile)
    omega = contribution_matrix(graph, Config(alpha=alpha))
    perfect_share = 1.0 / (3.0 - alpha)
    fresh_share = (1.0 - alpha) / (3.0 - alpha)
    np.testing.assert_allclose(omega[:2], perfect_share, atol=1e-10)
    np.testing.assert_allclose(omega[2], fresh_share, atol=1e-10)


def test_contribution_columns_sum_to_one_or_zero():
    rng = np.random.default_rng(21)
    for _ in range(10):
        graph = random_graph(rng)
        omega = contribution_matrix(graph, CFG)
        sums = omega.sum(axis=0)
        for s in sums:
            assert s == pytest.approx(1.0, abs=1e-9) or s == 0.0


def test_contribution_zero_column_for_unendorsed_server():
    edges = np.zeros((2, 4))
    edges[:, 0] = 1.0
    graph = RepGraph(n=2, m=2, edges=edges)
    omega = contribution_matrix(graph, CFG)
    np.testing.assert_array_equal(omega[:, 1], [0.0, 0.0])


@st.composite
def walk_graphs(draw, max_n=6, max_m=4):
    """Random graphs where some users endorse no server, some endorse no user,
    and some users are endorsed by nobody, so no other source can reach them."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, max_m))
    weight = st.floats(0.0, 1.0, allow_subnormal=False)
    edges = np.array(draw(st.lists(weight, min_size=n * (m + n), max_size=n * (m + n))))
    edges = edges.reshape(n, m + n)
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    edges[np.array(draw(flags)), :m] = 0.0
    edges[np.array(draw(flags)), m:] = 0.0
    edges[:, m:][:, np.array(draw(flags))] = 0.0
    empty = edges.sum(axis=1) == 0.0
    edges[empty, m + np.flatnonzero(empty)] = 1.0
    edges /= edges.sum(axis=1, keepdims=True)
    return RepGraph(n=n, m=m, edges=edges)


@settings(max_examples=150, deadline=None)
@given(walk_graphs(max_n=12, max_m=6), st.sampled_from([0.05, 0.15, 0.5]))
def test_reputation_scores_match_full_chain(graph, alpha):
    # Scores from the n-state user chain must equal those of a dense
    # user-block solve and those read off the full (m+n)-state chain.  The
    # power loop stops on its step size, and its error can be (1 - alpha) /
    # alpha times that (19x at alpha = 0.05, on users that endorse only
    # themselves), so tol is set below the 1e-12 compared here.
    cfg = Config(alpha=alpha, tol=1e-14)
    m, edges = graph.m, dense(graph)
    server_edges = edges[:, :m]
    if not server_edges.any():
        with pytest.raises(AllServersUntrusted):
            reputation_scores(graph, cfg)
        return
    full = build_designated_chain(graph, cfg)
    rho = reputation_scores(graph, cfg)
    received = server_edges.T @ designated_user_mass(edges, m, alpha)
    np.testing.assert_allclose(rho, received / received.sum(), rtol=0, atol=1e-12)
    # Compared on the full chain's scale: the least-squares oracle resolves
    # each entry to ~1e-16, so its server mass cannot be renormalized when
    # the servers hold almost none of it (weights like 1e-230).
    server_pi = stationary_oracle(full).pi[:m]
    np.testing.assert_allclose(rho * server_pi.sum(), server_pi, rtol=0, atol=1e-12)
    # Servers receive (1 - alpha) E_s^T pi_U; the lifted vector is stationary.
    pi_users = stationary(_UserChain(graph, cfg), cfg).pi
    lifted = np.concatenate([(1.0 - alpha) * server_edges.T @ pi_users, pi_users])
    lifted /= lifted.sum()
    assert np.abs(lifted @ full - lifted).sum() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(walk_graphs(), st.sampled_from([0.05, 0.15, 0.5]))
def test_tour_counts_match_single_runs(graph, alpha):
    # Each row must match the explicit chain restarted at that user, solved
    # densely and rescaled by its regeneration rate.
    cfg = Config(alpha=alpha)
    counts, edges = tour_counts(graph, cfg), dense(graph)
    for i in range(graph.n):
        expected = single_source_tour_counts(edges, graph.m, alpha, i)
        np.testing.assert_allclose(counts[i], expected, rtol=1e-9, atol=1e-9)
    # Every excursion ends exactly once: by a restart from a user, or at a server.
    regen = alpha * counts[:, graph.m :].sum(axis=1) + counts[:, : graph.m].sum(axis=1)
    np.testing.assert_allclose(regen, 1.0, atol=1e-12)


def test_tour_counts_renewal_identity():
    # Summing per-tour counts over sources recovers the designated
    # stationary distribution up to normalization.
    rng = np.random.default_rng(37)
    graph = random_graph(rng, n=5, m=3)
    counts = tour_counts(graph, CFG).sum(axis=0)
    pi = stationary(build_designated_chain(graph, CFG), CFG).pi
    np.testing.assert_allclose(counts / counts.sum(), pi, atol=1e-9)


def oracle_graphs():
    """Seeded valid graphs with sparse random rows, cycling through four
    kinds: plain, every user endorsing itself, server 0 endorsed by nobody,
    and E_u = 0."""
    rng = np.random.default_rng(2027)
    for case in range(80):
        n, m, kind = int(rng.integers(2, 41)), int(rng.integers(1, 8)), case % 4
        edges = rng.random((n, m + n)) * (rng.random((n, m + n)) < 0.5)
        if kind == 1:
            edges[np.arange(n), m + np.arange(n)] += rng.random(n)
        elif kind == 2:
            edges[:, 0] = 0.0
        elif kind == 3:
            edges[:, m:] = 0.0
        empty = np.flatnonzero(edges.sum(axis=1) == 0.0)
        edges[empty, (m + empty) if kind == 2 else m - 1] = 1.0
        edges /= edges.sum(axis=1, keepdims=True)
        yield RepGraph(n=n, m=m, edges=edges)


@pytest.mark.parametrize("alpha", [0.05, 0.15, 0.5])
def test_dense_solves_match_their_dense_forms(alpha):
    # The blocks filled from the edge list give the chain of the dense
    # matrix bit for bit, and the tour counts and shares of its solves.
    cfg = Config(alpha=alpha)
    for graph in oracle_graphs():
        chain = build_designated_chain(graph, cfg)
        assert chain.tobytes() == designated_chain_dense(graph, cfg).tobytes()
        counts, shares = tour_counts(graph, cfg), contribution_matrix(graph, cfg)
        np.testing.assert_allclose(counts, tour_counts_dense(graph, cfg), rtol=0, atol=1e-14)
        np.testing.assert_allclose(shares, contribution_matrix_dense(graph, cfg), rtol=0, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.05, 0.15, 0.5])
def test_user_chain_takes_one_step_on_hierarchy_profiles(alpha):
    # Newcomers endorse only established players, who endorse only servers,
    # so E_u^2 = 0 and the start vector 1^T (I + (1 - alpha) E_u) is exact.
    cfg = Config(alpha=alpha, tol=1e-14)
    rng = np.random.default_rng(12)
    for n in range(3, 9):
        for k in range(1, n):
            trust = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 7)))
            graph = _profile_graph(hierarchy_profile(trust, rng.dirichlet(np.ones(k), size=n - k)))
            result = stationary(_UserChain(graph, cfg), cfg)
            assert result.iterations_used == 1
            expected = designated_user_mass(dense(graph), graph.m, alpha)
            np.testing.assert_allclose(result.pi, expected / expected.sum(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6, 7, 2000])
def test_user_chain_starts_uniform_without_user_edges(n):
    rng = np.random.default_rng(n)
    graph = _profile_graph(truth_telling_profile(rng.uniform(0.1, 1.0, size=5), n))
    np.testing.assert_array_equal(_UserChain(graph, CFG).start, np.full(n, 1 / n))
