import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trep import equilibrium, pagerank
from trep.decoder import f1
from trep.equilibrium import (
    DegenerateBelief,
    GameScenario,
    _server_only_reduction,
    best_response_closed_form,
    best_response_to_mass,
    hierarchy_best_response_gains,
    measure_epsilon_prime,
    truth_telling_profile,
    verify_unique_nash,
)
from trep.game import bipartite_utility, expected_utilities
from trep.repgraph import Config

from oracles import (
    best_response_by_enumeration,
    best_response_numeric,
    grid_best_response,
    pg_best_response,
    share_utility,
)

CFG = Config()


def bipartite_rows(server_rows):
    s = np.asarray(server_rows, dtype=float)
    n, m = s.shape
    out = np.zeros((n, m + n))
    out[:, :m] = s
    return out


# ------------------------------------------------------------ closed form

def test_closed_form_exact_belief_recovers_normalized_trust():
    trust = np.array([0.9, 0.3, 0.6])
    for n in (2, 5, 11):
        x = best_response_closed_form(trust, trust, n)
        np.testing.assert_allclose(x, trust / trust.sum(), atol=1e-12)


def test_closed_form_symmetric_two_servers():
    x = best_response_closed_form(np.array([0.4, 0.4]), np.array([0.4, 0.4]), n=3)
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)


def test_closed_form_degenerate_belief_raises():
    with pytest.raises(DegenerateBelief):
        best_response_closed_form(np.array([1.0, 0.0]), np.array([0.0, 1.0]), n=2)


def test_closed_form_survives_underflowing_products():
    # R_j * R'_j underflows to 0 here; sqrt(R_j) * sqrt(R'_j) does not.
    tiny = np.array([1e-200, 1e-200])
    np.testing.assert_array_equal(best_response_closed_form(tiny, tiny, 3), [0.5, 0.5])
    assert np.isfinite(verify_unique_nash(tiny, 3).closed_form_deviation)


def test_closed_form_clamps_negative_coordinates():
    trust = np.array([0.01, 0.99])
    belief = np.array([0.99, 0.01])
    x = best_response_closed_form(trust, belief, n=10)
    assert np.all(x >= 0)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert x[0] == pytest.approx(0.0, abs=1e-12)


def test_closed_form_agrees_with_numeric_interior():
    trust = np.array([0.8, 0.4])
    belief = np.array([0.85, 0.35])
    n = 10
    closed = best_response_closed_form(trust, belief, n)
    assert np.all(closed > 0)  # interior, no clamping
    numeric = best_response_to_mass(trust, (n - 1) * f1(belief))
    np.testing.assert_allclose(closed, numeric, atol=1e-6)


# -------------------------------------------------------------- waterfill

def test_best_response_fixed_point_at_normalized_trust():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 8))
        trust = rng.uniform(0.1, 1.0, size=m)
        nr = trust / trust.sum()
        x = best_response_to_mass(trust, (n - 1) * nr)
        np.testing.assert_allclose(x, nr, atol=1e-6)
        # the stationary point is recovered to solver precision, not just 1e-6
        np.testing.assert_allclose(x, nr, atol=1e-10)


def test_best_response_beats_gradient_oracle():
    rng = np.random.default_rng(12)
    for _ in range(12):
        m = int(rng.integers(2, 5))
        trust = rng.uniform(0.05, 1.0, size=m)
        mass = rng.uniform(0.05, 2.0, size=m)
        x = best_response_to_mass(trust, mass)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        u_impl = share_utility(x, mass, trust)
        x_pg = pg_best_response(trust, mass)
        u_pg = share_utility(x_pg, mass, trust)
        assert u_impl >= u_pg - 1e-7


def test_best_response_matches_grid_oracle():
    rng = np.random.default_rng(13)
    for _ in range(6):
        m = int(rng.integers(2, 4))
        trust = rng.uniform(0.05, 1.0, size=m)
        mass = rng.uniform(0.05, 2.0, size=m)
        x = best_response_to_mass(trust, mass)
        u_impl = share_utility(x, mass, trust)
        x_grid = grid_best_response(trust, mass)
        u_grid = share_utility(x_grid, mass, trust)
        assert u_impl >= u_grid - 1e-9
        assert abs(u_impl - u_grid) <= 1e-5


# Zero trust, free servers (no opponent mass) and opponent masses from 1e-300 to 1e3.
RATING = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
MASS = st.one_of(st.just(0.0), st.floats(-300.0, 3.0).map(lambda e: 10.0**e))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 25).flatmap(lambda m: st.tuples(
    st.lists(RATING, min_size=m, max_size=m), st.lists(MASS, min_size=m, max_size=m)
)))
def test_best_response_matches_enumeration(case):
    trust, mass = (np.array(v) for v in case)
    x = best_response_to_mass(trust, mass)
    assert np.all(x >= 0)
    assert abs(x.sum() - 1.0) <= 1e-12
    u_oracle = share_utility(best_response_by_enumeration(trust, mass), mass, trust)
    assert abs(share_utility(x, mass, trust) - u_oracle) <= 1e-15 * max(1.0, u_oracle)
    # KKT: no contested server left out has a ratio above the water level.
    contested = (mass > 0) & (trust > 0)
    active = contested & (x > 0)
    if active.any():
        budget = x[contested].sum()
        sqrt_level = (np.sqrt(trust[active]) * np.sqrt(mass[active])).sum() / (
            budget + mass[active].sum()
        )
        left_out = contested & ~active
        ratio = np.sqrt(trust[left_out]) / np.sqrt(mass[left_out])
        assert np.all(ratio <= sqrt_level * (1 + 1e-12))


def test_best_response_starves_uncontested_server():
    # Against an opponent parked entirely on server 2, the optimum leaves the
    # uncontested server 1 with vanishing mass: any epsilon there already
    # captures the whole pot, so nearly everything fights for server 2.
    trust = np.array([0.5, 0.5])
    profile = bipartite_rows([[0.5, 0.5], [0.0, 1.0]])
    x = best_response_numeric(profile, trust, player=0)
    nr = f1(trust)
    assert x[0] < nr[0]
    assert x[0] <= 1e-9
    u_dev = share_utility(x, np.array([0.0, 1.0]), trust)
    u_old = share_utility(np.array([0.5, 0.5]), np.array([0.0, 1.0]), trust)
    assert u_dev > u_old
    u_grid = share_utility(grid_best_response(trust, np.array([0.0, 1.0])), np.array([0.0, 1.0]), trust)
    assert u_dev >= u_grid - 1e-6


def test_best_response_ignores_worthless_server():
    x = best_response_to_mass(np.array([0.0, 0.8]), np.array([0.3, 0.5]))
    assert x[0] == 0.0
    assert x[1] == pytest.approx(1.0)


def test_best_response_survives_underflowing_products():
    # R_j * b_j underflows to 0 here; the allocation does not depend on the
    # scale of R, so it must equal the response for ratings [1, 1].
    tiny = np.array([1e-200, 1e-200])
    x = best_response_to_mass(tiny, tiny)
    assert np.all(np.isfinite(x))
    assert x.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(x, best_response_to_mass(np.array([1.0, 1.0]), tiny), rtol=1e-12)


def test_best_response_gives_budget_to_best_ratio_when_mass_swamps_it():
    # b_j = 1e20 hides a budget of 1 below rounding: no KKT share registers.
    x = best_response_to_mass(np.array([0.5, 1.0]), np.array([1e20, 1e20]))
    np.testing.assert_array_equal(x, [0.0, 1.0])
    np.testing.assert_array_equal(best_response_to_mass(np.array([1.0]), np.array([1e20])), [1.0])


def test_best_response_rejects_nan_input():
    with pytest.raises(ValueError):
        best_response_to_mass(np.array([0.5, 0.5]), np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        best_response_to_mass(np.array([np.nan, 0.5]), np.array([0.5, 1.0]))


def test_best_response_numeric_rejects_nonbipartite_opponents():
    profile = np.zeros((2, 4))
    profile[0, :2] = 0.5
    profile[1, 2] = 1.0  # opponent endorses a user
    with pytest.raises(ValueError):
        best_response_numeric(profile, np.array([0.5, 0.5]), player=0)


# ------------------------------------------------------------ equilibrium

def test_verify_unique_nash_two_servers():
    report = verify_unique_nash(np.array([1.0, 0.5]), n=2)
    np.testing.assert_allclose(report.utility, 0.75, atol=1e-10)
    assert report.epsilon_prime <= 1e-8
    assert report.closed_form_deviation <= 1e-8


def test_verify_unique_nash_uniform_trust():
    m, n = 4, 5
    trust = np.full(m, 0.6)
    report = verify_unique_nash(trust, n=n)
    np.testing.assert_allclose(report.utility, m * 0.6 / n, atol=1e-10)
    assert report.epsilon_prime <= 1e-8


def test_verify_unique_nash_probes_never_beat_equilibrium_value():
    trust = np.array([0.9, 0.2, 0.5, 0.7, 0.1])
    report = verify_unique_nash(trust, n=5, probes=200)
    level = trust.sum() / 5
    assert report.expected_value == pytest.approx(level, abs=1e-12)
    assert report.probe_min >= level - 1e-8


def test_verify_unique_nash_rejects_no_probes():
    with pytest.raises(ValueError):
        verify_unique_nash(np.array([0.9, 0.2]), n=3, probes=0)


def test_verify_unique_nash_deterministic():
    trust = np.array([0.9, 0.2, 0.5])
    a = verify_unique_nash(trust, n=4, probes=50)
    b = verify_unique_nash(trust, n=4, probes=50)
    assert a.probe_min == b.probe_min
    assert a.epsilon_prime == b.epsilon_prime


# -------------------------------------------------------- truth telling

def test_truth_telling_perfect():
    sc = GameScenario(kind="perfect", trust=np.array([0.5, 0.25, 0.25]), n=2)
    profile = truth_telling_profile(sc)
    np.testing.assert_allclose(profile[:, :3], np.tile([0.5, 0.25, 0.25], (2, 1)), atol=1e-15)
    assert np.all(profile[:, 3:] == 0)


def test_truth_telling_noisy_uses_belief():
    sc = GameScenario(kind="noisy", trust=np.array([0.8, 0.4]), n=3, belief=np.array([0.9, 0.3]))
    profile = truth_telling_profile(sc)
    np.testing.assert_allclose(profile[:, :2], np.tile([0.75, 0.25], (3, 1)), atol=1e-12)


def test_truth_telling_hierarchy_rows():
    sc = GameScenario(kind="hierarchy", trust=np.array([0.6, 0.2]), n=4, k=2)
    profile = truth_telling_profile(sc)
    np.testing.assert_allclose(profile[:2, :2], np.tile([0.75, 0.25], (2, 1)), atol=1e-12)
    # fresh players endorse the established players uniformly
    np.testing.assert_allclose(profile[2:, 2:4], 0.5, atol=1e-15)
    assert np.all(profile[2:, :2] == 0)
    assert np.all(profile[2:, 4:] == 0)


def test_truth_telling_hierarchy_custom_weights():
    w = np.array([[0.3, 0.7], [0.9, 0.1]])
    sc = GameScenario(kind="hierarchy", trust=np.array([0.6, 0.2]), n=4, k=2, fresh_weights=w)
    profile = truth_telling_profile(sc)
    np.testing.assert_allclose(profile[2:, 2:4], w, atol=1e-15)


def test_hierarchy_k_bounds():
    trust = np.array([0.6, 0.2])
    with pytest.raises(ValueError):
        GameScenario(kind="hierarchy", trust=trust, n=4, k=0)
    with pytest.raises(ValueError):
        GameScenario(kind="hierarchy", trust=trust, n=4, k=4)


def test_scenario_validation():
    with pytest.raises(ValueError):
        GameScenario(kind="mystery", trust=np.array([0.5, 0.5]), n=2)
    with pytest.raises(ValueError):
        GameScenario(kind="noisy", trust=np.array([0.5, 0.5]), n=2)  # missing belief


def test_noisy_scenario_rejects_nan_belief_and_epsilon():
    trust = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        GameScenario(kind="noisy", trust=trust, n=2, belief=np.array([np.nan, 0.5]))
    with pytest.raises(ValueError):
        GameScenario(kind="noisy", trust=trust, n=2, belief=trust, epsilon=np.nan)


def test_hierarchy_scenario_rejects_nan_fresh_weights():
    with pytest.raises(ValueError):
        GameScenario(
            kind="hierarchy", trust=np.array([0.5, 0.5]), n=3, k=2,
            fresh_weights=np.array([[np.nan, 1.0]]),
        )


# ------------------------------------------------------------- epsilon'

def test_epsilon_prime_zero_noise():
    trust = np.array([0.7, 0.3, 0.5])
    sc = GameScenario(kind="noisy", trust=trust, n=4, belief=trust.copy())
    report = measure_epsilon_prime(sc)
    assert report.epsilon_prime <= 1e-8


def test_epsilon_prime_against_grid_oracle():
    trust = np.array([0.8, 0.4])
    belief = np.array([0.85, 0.35])
    n = 4
    sc = GameScenario(kind="noisy", trust=trust, n=n, belief=belief, epsilon=0.05)
    report = measure_epsilon_prime(sc)
    mass = (n - 1) * f1(belief)
    base = share_utility(f1(belief), mass, trust)
    x_grid = grid_best_response(trust, mass)
    gain_grid = max(0.0, share_utility(x_grid, mass, trust) - base)
    assert report.epsilon_prime == pytest.approx(gain_grid, abs=1e-5)
    assert report.epsilon_prime <= report.bound


def test_epsilon_prime_shrinks_with_noise():
    trust = np.array([0.8, 0.4])
    gains = []
    for eps in (0.05, 0.001):
        belief = trust + np.array([eps, -eps])
        sc = GameScenario(kind="noisy", trust=trust, n=4, belief=belief, epsilon=eps)
        gains.append(measure_epsilon_prime(sc).epsilon_prime)
    assert gains[1] < gains[0]
    assert gains[1] <= 1e-4


def test_epsilon_prime_bound_formula():
    sc = GameScenario(
        kind="noisy",
        trust=np.array([0.8, 0.4]),
        n=4,
        belief=np.array([0.82, 0.38]),
        epsilon=0.02,
    )
    report = measure_epsilon_prime(sc)
    m, n, eps = 2, 4, 0.02
    expected = m * m * (n - 1) / n**2 * (1 + eps) / (1 - eps)
    assert report.bound == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------- hierarchy

def test_hierarchy_gains_vanish():
    trust = np.array([0.6, 0.3, 0.3])
    sc = GameScenario(kind="hierarchy", trust=trust, n=4, k=2)
    gains = hierarchy_best_response_gains(sc, CFG)
    assert gains.shape == (2,)
    assert np.all(gains <= 1e-8)


def test_hierarchy_gains_invariant_across_fresh_draws():
    trust = np.array([0.6, 0.3, 0.3])
    rng = np.random.default_rng(22)
    seen = []
    for d in range(5):
        w = rng.dirichlet(np.ones(2), size=2)
        sc = GameScenario(kind="hierarchy", trust=trust, n=4, k=2, fresh_weights=w)
        gains = hierarchy_best_response_gains(sc, CFG)
        seen.append(gains.max())
    assert np.ptp(seen) <= 1e-8


def test_hierarchy_single_established_player():
    trust = np.array([0.5, 0.5])
    sc = GameScenario(kind="hierarchy", trust=trust, n=3, k=1)
    gains = hierarchy_best_response_gains(sc, CFG)
    assert gains.shape == (1,)
    assert np.all(gains <= 1e-8)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hierarchy_gains_solve_tour_counts_once_per_probe_row_plus_one(k, monkeypatch):
    solves = []
    original = pagerank.tour_counts

    def counting(graph, config):
        solves.append(graph.n)
        return original(graph, config)

    monkeypatch.setattr(pagerank, "tour_counts", counting)
    monkeypatch.setattr(equilibrium, "tour_counts", counting)
    sc = GameScenario(kind="hierarchy", trust=np.array([0.6, 0.3, 0.1]), n=5, k=k)
    gains = hierarchy_best_response_gains(sc, CFG)
    assert np.all(gains <= 1e-8)
    assert len(solves) == k + 1


WEIGHT = st.floats(0.0, 1.0, allow_subnormal=False)


def _distributions(draw, rows, size):
    """Random rows on the simplex; some entries are zero, all-zero rows are uniform."""
    values = np.array(draw(st.lists(WEIGHT, min_size=rows * size, max_size=rows * size)))
    values = values.reshape(rows, size)
    values[values.sum(axis=1) == 0.0] = 1.0
    return values / values.sum(axis=1, keepdims=True)


@st.composite
def hierarchy_cases(draw):
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, n - 1))
    m = draw(st.integers(2, 6))
    trust = np.array(draw(st.lists(WEIGHT, min_size=m, max_size=m)))
    assume(trust.any())
    scenario = GameScenario(
        kind="hierarchy", trust=trust, n=n, k=k, fresh_weights=_distributions(draw, n - k, k)
    )
    alpha = draw(st.sampled_from([0.05, 0.15, 0.5]))
    return scenario, Config(alpha=alpha), _distributions(draw, 3, m)


@settings(max_examples=60, deadline=None)
@given(hierarchy_cases())
def test_server_only_reduction_matches_expected_utilities(case):
    # An established player's utility over its own server row is
    # bipartite_utility(x, b_p, R) / v_p, so the best response to b_p must beat
    # every server-only row under the real expected utilities.
    scenario, cfg, rows = case
    profile = truth_telling_profile(scenario)
    trust, k = scenario.trust, scenario.k
    m = trust.size
    visits, masses = _server_only_reduction(profile, k, cfg)
    for player in range(k):

        def utility(row):
            trial = profile.copy()
            trial[player, :m] = row
            return expected_utilities(trial, trust, cfg)[player]

        for row in np.vstack([f1(trust), rows]):
            reduced = bipartite_utility(row, masses[player], trust) / visits[player]
            assert abs(reduced - utility(row)) <= 1e-12
        best = utility(best_response_to_mass(trust, masses[player]))
        assert all(best >= utility(row) - 1e-12 for row in rows)
