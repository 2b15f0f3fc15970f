import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trep.decoder import f1
from trep.equilibrium import (
    DegenerateBelief,
    _common_belief_defect,
    _hierarchy_gains,
    _hierarchy_reduction,
    best_response_closed_form,
    best_response_to_mass,
    epsilon_prime_bound,
    hierarchy_best_response_gains,
    hierarchy_profile,
    measure_epsilon_prime,
    truth_telling_profile,
    verify_unique_nash,
)
from trep.game import _bipartite_utility, bipartite_utility, expected_utilities
from trep.pagerank import tour_counts
from trep.repgraph import Config, RepGraph
from trep.rng import substream

from oracles import (
    best_response_by_enumeration,
    best_response_numeric,
    best_response_to_mass_reference,
    bipartite_utility_reference,
    common_belief_defect_reference,
    grid_best_response,
    hierarchy_gains_oracle,
    hierarchy_gains_reference,
    hierarchy_masses,
    pg_best_response,
    probe_min_sampled,
    probe_profile,
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


# Entries for the bit-for-bit properties: exact zeros (worthless and free
# servers), 1e-200 (whose products underflow), ordinary values, and opponent
# masses from 1e-300 up to 1e20, which swamps the budget.
TINY = 1e-200
KERNEL_RATING = st.one_of(st.just(0.0), st.just(TINY), st.floats(0.0, 1.0))
KERNEL_MASS = st.one_of(
    st.just(0.0), st.just(TINY), st.just(1e20), st.floats(-300.0, 3.0).map(lambda e: 10.0**e)
)


@st.composite
def paired_vectors(draw, first, second):
    """Two vectors of one length in 1..25, with ties in first / second: some
    pairs repeat, some halved (exact unless subnormal)."""
    pairs = draw(st.lists(st.tuples(first, second), min_size=1, max_size=25))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=25 - len(pairs)))
    halve = draw(st.lists(st.booleans(), min_size=len(repeats), max_size=len(repeats)))
    pairs += [(a / 2, b / 2) if h else (a, b) for (a, b), h in zip(repeats, halve)]
    pairs = draw(st.permutations(pairs))
    return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])


def same_bits(got, expected):
    return got.dtype == expected.dtype and np.array_equal(got, expected)


@settings(max_examples=300, deadline=None)
@given(paired_vectors(KERNEL_RATING, KERNEL_MASS))
@example((np.array([0.0, 0.0]), np.array([0.5, 0.3])))  # nothing is worth anything
@example((np.array([0.5, 0.0]), np.array([0.0, 0.3])))  # free servers, nothing contested
@example((np.array([0.5, 0.4, 0.2]), np.array([0.0, 0.3, 0.1])))  # free and contested
@example((np.array([0.5, 1.0]), np.array([1e20, 1e20])))  # no share registers
@example((np.array([1.0, 0.01]), np.array([0.1, 5.0])))  # a contested server left out
@example((np.array([TINY, TINY]), np.array([TINY, TINY])))  # underflowing products
@example((np.array([0.5, 0.25, 0.5]), np.array([0.2, 0.1, 0.2])))  # ties in R / b
@example((np.array([0.7]), np.array([0.2])))
def test_best_response_matches_the_reference_bit_for_bit(vectors):
    trust, mass = vectors
    got = best_response_to_mass(trust, mass)
    assert same_bits(got, best_response_to_mass_reference(trust, mass))


@st.composite
def utility_stacks(draw):
    """A stack of 1..8 candidate rows over m servers, m in 1..300 (across
    NumPy's 8-wide unroll and its 128-element pairwise block), with opponent
    masses per row or one vector for all, and sometimes a leading axis of two
    stacks, as the hierarchy gains score them.  Entries come from small
    palettes of KERNEL_RATING and KERNEL_MASS values plus exact zeros, so
    empty pots (0/0) occur."""
    rows, m = draw(st.integers(1, 8)), draw(st.integers(1, 300))
    shares = draw(st.lists(KERNEL_RATING, min_size=1, max_size=6)) + [0.0]
    masses = draw(st.lists(KERNEL_MASS, min_size=1, max_size=6)) + [0.0]
    ratings = draw(st.lists(KERNEL_RATING, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    own = rng.choice(shares, size=(2, rows, m) if draw(st.booleans()) else (rows, m))
    mass = rng.choice(masses, size=(rows, m) if draw(st.booleans()) else m)
    return own, mass, rng.choice(ratings, size=m)


def fixed_stack(m, rows=3, mass=(0.0, TINY, 1e20, 0.3), share=(0.0, 0.25, TINY)):
    """A fixed (rows, m) stack that cycles through the given entries."""
    own = np.resize(np.array(share), rows * m).reshape(rows, m)
    return own, np.resize(np.array(mass), m), np.resize(np.array([0.9, 0.0, 0.4]), m)


@settings(max_examples=200, deadline=None)
@given(utility_stacks())
@example(fixed_stack(1))
@example(fixed_stack(8))
@example(fixed_stack(9))
@example(fixed_stack(128, rows=8))
@example(fixed_stack(129))
@example(fixed_stack(300, rows=8))
@example(fixed_stack(5, mass=(0.0,), share=(0.0,)))  # every pot empty
def test_stacked_utility_matches_the_reference_per_row_bit_for_bit(case):
    own, mass, trust = case
    got = _bipartite_utility(own, mass, trust)
    mass = np.broadcast_to(mass, own.shape)
    expected = np.array(
        [bipartite_utility_reference(own[i], mass[i], trust) for i in np.ndindex(own.shape[:-1])]
    ).reshape(own.shape[:-1])
    assert same_bits(got, expected)


# No entry near the subnormals, where R_j / b_j overflows for both codes alike
BELIEF = st.one_of(st.just(0.0), st.just(TINY), st.floats(-150.0, 0.3).map(lambda e: 10.0**e))


@settings(max_examples=300, deadline=None)
@given(paired_vectors(KERNEL_RATING, BELIEF), st.integers(2, 20))
@example((np.array([0.5, 0.0]), np.array([0.0, 0.3])), 3)  # no shared support: no closed form
@example((np.array([0.8, 0.4]), np.array([0.85, 0.0])), 4)  # a free server
@example((np.array([0.8, TINY]), np.array([TINY, 0.35])), 2)  # underflowing products
@example((np.array([0.8, 0.4, 0.4]), np.array([0.7, 0.5, 0.5])), 6)  # ties
@example((np.array([0.9, 0.05, 0.05]), np.array([0.05, 0.9, 0.9])), 2)  # clamped closed form
def test_common_belief_defect_matches_the_reference_bit_for_bit(vectors, n):
    trust, belief = vectors
    assume(trust.any() and belief.any())
    gain, deviation, base = common_belief_defect_reference(trust, belief, n)
    got_gain, got_base, response, closed = _common_belief_defect(trust, belief, f1(belief), n)
    assert got_gain == gain and got_base == base
    # verify_unique_nash's deviation, taken from these rows
    if closed is None:
        assert np.isnan(deviation)
    else:
        assert float(np.abs(response - closed).max()) == deviation
    assert measure_epsilon_prime(trust, belief, n) == gain


DYNAMICS_DISTANCE = 1e-12  # fixed before any run; never loosened to pass


def test_best_response_dynamics_reach_proportional_endorsement():
    """Gauss-Seidel best-response dynamics of the server-only game, from
    random Dirichlet starts, reach N(R): each player in turn plays
    best_response_to_mass against the others' summed rows, until no entry
    moves by more than 1e-15.

    The server-only game is a lottery contest on each server with one shared
    budget per player.  Rosen's diagonal strict concavity holds strictly
    wherever no server is held by a single player, and there it makes N(R)
    the unique equilibrium; the dynamics check the waterfill solver against
    it.  The bound goes slack where one player alone holds a server, where
    the utility jumps at T_j = 0 (FREE_SERVER_STAKE); Dirichlet starts hold
    every server by every player.  The full game, with user endorsements, is
    not covered.
    """
    rng = np.random.default_rng(20261019)
    worst = 0.0
    for _ in range(40):
        m, n = int(rng.integers(2, 11)), int(rng.integers(2, 13))
        trust = rng.uniform(0.05, 1.0, size=m)
        x = rng.dirichlet(np.ones(m), size=n)
        for _ in range(2000):
            moved = 0.0
            for player in range(n):
                row = best_response_to_mass(trust, np.delete(x, player, axis=0).sum(axis=0))
                moved = max(moved, float(np.max(np.abs(row - x[player]))))
                x[player] = row
            if moved <= 1e-15:
                break
        assert moved <= 1e-15, f"no convergence at m={m}, n={n}"
        worst = max(worst, float(np.max(np.abs(x - f1(trust)))))
    print(f"worst distance from N(R): {worst:.3g}")
    assert worst <= DYNAMICS_DISTANCE


# Both fixed before any run; never loosened to pass.
JACOBIAN_RELATIVE_ERROR = 1e-7  # central differences against the analytic block
MONOTONE_SLACK = 1e-12  # rounding allowance, relative to the two sides


def pseudo_gradient(x, trust):
    """g_ij = R_j (T_j - x_ij) / T_j^2, the gradient of player i's server-only
    utility sum_j R_j x_ij / T_j in its own entry x_ij, with T_j = sum_i x_ij."""
    totals = x.sum(axis=0)
    return trust * (totals - x) / totals**2


def jacobian_block(x_j, rating):
    """Server j's block (R_j / T_j^3)(2 x_j 1^T - T_j 1 1^T - T_j I) of the
    pseudo-gradient's Jacobian; blocks of different servers do not interact."""
    n, total = x_j.size, x_j.sum()
    ones = np.ones((n, n))
    return rating / total**3 * (2.0 * x_j[:, None] * ones - total * ones - total * np.eye(n))


def interior_profiles(rng, count):
    """Random server-only profiles whose every player holds every server."""
    for _ in range(count):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        x = rng.uniform(0.05, 1.0, size=(n, m))
        yield rng.uniform(0.05, 1.0, size=m), x / x.sum(axis=1, keepdims=True)


def test_pseudo_gradient_jacobian_matches_central_differences():
    """The analytic Jacobian block of g_ij = R_j (T_j - x_ij) / T_j^2 equals
    central finite differences of g at random interior profiles, and entries
    across servers vanish; g itself is the derivative of bipartite_utility in
    the player's own entry."""
    rng = np.random.default_rng(20261020)
    step = 1e-6
    worst = 0.0
    for trust, x in interior_profiles(rng, 40):
        n, m = x.shape
        numeric = np.empty((n, m, n, m))  # d g_ij / d x_kl
        for k in range(n):
            for l in range(m):
                up, down = x.copy(), x.copy()
                up[k, l] += step
                down[k, l] -= step
                difference = pseudo_gradient(up, trust) - pseudo_gradient(down, trust)
                numeric[:, :, k, l] = difference / (2 * step)
        analytic = np.zeros_like(numeric)
        for j in range(m):
            analytic[:, j, :, j] = jacobian_block(x[:, j], trust[j])
        worst = max(worst, float(np.abs(numeric - analytic).max() / np.abs(analytic).max()))
        # g is the utility's gradient: differentiate player 0's own row
        others = x[1:].sum(axis=0)
        for l in range(m):
            up, down = x[0].copy(), x[0].copy()
            up[l] += step
            down[l] -= step
            utilities = [bipartite_utility(row, others, trust) for row in (up, down)]
            slope = (utilities[0] - utilities[1]) / (2 * step)
            assert slope == pytest.approx(pseudo_gradient(x, trust)[0, l], rel=1e-6)
    print(f"worst relative Jacobian error: {worst:.3g}")
    assert worst <= JACOBIAN_RELATIVE_ERROR


def test_pseudo_gradient_is_strictly_monotone_at_interior_profiles():
    """v^T (J + J^T) v <= -2 (R_j / T_j^3)(T_j - ||x_j||_2) ||v||^2 on every
    server's block, for random and for adversarial directions v, which is
    Rosen's diagonal strict concavity (1965) of the server-only game.

    Cauchy-Schwarz and 2ab <= a^2 + b^2 give the bound.  It goes slack where
    a single player holds a server: then T_j = ||x_j||_2 and the right side is
    0, and the utility jumps at T_j = 0 (FREE_SERVER_STAKE), so uniqueness is
    only claimed where no server is held by one player alone.
    """
    rng = np.random.default_rng(20261021)
    tightest = np.inf  # smallest v^T (J + J^T) v over its bound, which is negative
    for trust, x in interior_profiles(rng, 40):
        n, m = x.shape
        for j in range(m):
            block = jacobian_block(x[:, j], trust[j])
            total = x[:, j].sum()
            rate = -2.0 * trust[j] / total**3 * (total - np.linalg.norm(x[:, j]))
            assert rate < 0
            # along x_j, along 1, one player alone, a zero-sum move, one against the rest
            first, ones = np.eye(n)[0], np.ones(n)
            structured = [x[:, j], ones, first, x[:, j] - x[:, j].mean(), ones - 2 * first]
            for v in [*structured, *rng.standard_normal((75, n))]:
                lhs = v @ (block + block.T) @ v
                rhs = rate * (v @ v)
                assert lhs <= rhs + MONOTONE_SLACK * (abs(lhs) + abs(rhs))
                tightest = min(tightest, lhs / rhs)
    # both sides are negative, so the bound holds where the ratio is at least 1
    print(f"smallest v^T (J + J^T) v over its bound: {tightest:.6g}")


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
    # probe_min is the closed-form minimum sum(R) / n; sampled opponent
    # plays and the vertices where they pile on one server never go below it.
    trust = np.array([0.9, 0.2, 0.5, 0.7, 0.1])
    report = verify_unique_nash(trust, n=5)
    level = trust.sum() / 5
    assert report.expected_value == pytest.approx(level, abs=1e-12)
    assert report.probe_min == report.expected_value
    assert probe_min_sampled(trust, 5, 200, substream(0, "nash-probes")) >= report.probe_min - 1e-8


def test_verify_unique_nash_deterministic():
    trust = np.array([0.9, 0.2, 0.5])
    a = verify_unique_nash(trust, n=4)
    b = verify_unique_nash(trust, n=4)
    assert a.probe_min == b.probe_min
    assert a.epsilon_prime == b.epsilon_prime


def test_verify_unique_nash_report_is_built_once():
    report = verify_unique_nash(np.array([0.9, 0.2, 0.5]), n=4)
    assert None not in dataclasses.astuple(report)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.probe_min = 0.0


# -------------------------------------------------------- truth telling

def test_truth_telling_perfect():
    profile = truth_telling_profile(np.array([0.5, 0.25, 0.25]), n=2)
    np.testing.assert_allclose(profile[:, :3], np.tile([0.5, 0.25, 0.25], (2, 1)), atol=1e-15)
    assert np.all(profile[:, 3:] == 0)


def test_truth_telling_noisy_uses_belief():
    profile = truth_telling_profile(np.array([0.9, 0.3]), n=3)
    np.testing.assert_allclose(profile[:, :2], np.tile([0.75, 0.25], (3, 1)), atol=1e-12)


def test_truth_telling_hierarchy_rows():
    profile = hierarchy_profile(np.array([0.6, 0.2]), np.full((2, 2), 1 / 2))
    np.testing.assert_allclose(profile[:2, :2], np.tile([0.75, 0.25], (2, 1)), atol=1e-12)
    # fresh players endorse the established players uniformly
    np.testing.assert_allclose(profile[2:, 2:4], 0.5, atol=1e-15)
    assert np.all(profile[2:, :2] == 0)
    assert np.all(profile[2:, 4:] == 0)


def test_truth_telling_hierarchy_custom_weights():
    w = np.array([[0.3, 0.7], [0.9, 0.1]])
    profile = hierarchy_profile(np.array([0.6, 0.2]), w)
    np.testing.assert_allclose(profile[2:, 2:4], w, atol=1e-15)


@pytest.mark.parametrize("fresh, k", [(1, 1), (3, 1), (1, 3), (2, 4)])
def test_hierarchy_profile_takes_k_and_n_from_the_weight_shape(fresh, k):
    trust = np.array([0.6, 0.3, 0.1])
    w = np.full((fresh, k), 1 / k)
    profile = hierarchy_profile(trust, w)
    n, m = fresh + k, trust.size
    assert profile.shape == (n, m + n)
    np.testing.assert_array_equal(profile[:k, :m], np.tile(f1(trust), (k, 1)))
    assert np.all(profile[:k, m:] == 0)
    np.testing.assert_array_equal(profile[k:, m : m + k], w)
    assert np.all(profile[k:, :m] == 0) and np.all(profile[k:, m + k :] == 0)


# empty and NaN weights: test_hierarchy_k_bounds, test_hierarchy_scenario_rejects_nan_fresh_weights
@pytest.mark.parametrize(
    "weights",
    [np.array([0.5, 0.5]), np.array([[1.5, -0.5]]), np.array([[0.5, 0.4]])],
    ids=["1-D", "negative", "row-sum-0.9"],
)
def test_hierarchy_profile_rejects_bad_weights(weights):
    for callee in (hierarchy_profile, hierarchy_best_response_gains):
        with pytest.raises(ValueError):
            callee(np.array([0.6, 0.2]), weights)


def test_hierarchy_profile_checks_trust():
    with pytest.raises(ValueError):
        hierarchy_profile(np.array([0.6, 1.2]), np.full((2, 2), 1 / 2))
    with pytest.raises(ValueError):
        hierarchy_best_response_gains(np.zeros(2), np.full((2, 2), 1 / 2), CFG)


def test_hierarchy_k_bounds():
    trust = np.array([0.6, 0.2])
    for callee in (hierarchy_profile, hierarchy_best_response_gains):
        with pytest.raises(ValueError):
            callee(trust, np.zeros((4, 0)))  # k = 0
        with pytest.raises(ValueError):
            callee(trust, np.zeros((0, 4)))  # k = n = 4


def test_scenario_validation():
    trust = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        measure_epsilon_prime(trust, None, n=2)  # missing belief
    with pytest.raises(ValueError):
        truth_telling_profile(trust, n=1)
    with pytest.raises(ValueError):
        truth_telling_profile(np.ones((1, 2)), n=2)  # a row is not a belief vector
    with pytest.raises(ValueError):
        measure_epsilon_prime(trust, trust, n=1)


def test_noisy_scenario_rejects_nan_belief_and_epsilon():
    trust = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        measure_epsilon_prime(trust, np.array([np.nan, 0.5]), n=2)
    with pytest.raises(ValueError):
        truth_telling_profile(np.array([np.nan, 0.5]), n=2)
    for eps in (np.nan, -0.01):
        with pytest.raises(ValueError, match="^epsilon must be nonnegative$"):
            epsilon_prime_bound(2, 2, eps)


def test_hierarchy_scenario_rejects_nan_fresh_weights():
    with pytest.raises(ValueError):
        hierarchy_profile(np.array([0.5, 0.5]), np.array([[np.nan, 1.0]]))


# ------------------------------------------------------------- epsilon'

def test_epsilon_prime_zero_noise():
    trust = np.array([0.7, 0.3, 0.5])
    assert measure_epsilon_prime(trust, trust.copy(), n=4) <= 1e-8


def test_epsilon_prime_against_grid_oracle():
    trust = np.array([0.8, 0.4])
    belief = np.array([0.85, 0.35])
    n = 4
    gain = measure_epsilon_prime(trust, belief, n)
    mass = (n - 1) * f1(belief)
    base = share_utility(f1(belief), mass, trust)
    x_grid = grid_best_response(trust, mass)
    gain_grid = max(0.0, share_utility(x_grid, mass, trust) - base)
    assert gain == pytest.approx(gain_grid, abs=1e-5)
    assert gain <= epsilon_prime_bound(trust.size, n, 0.05)


def test_epsilon_prime_shrinks_with_noise():
    trust = np.array([0.8, 0.4])
    gains = []
    for eps in (0.05, 0.001):
        belief = trust + np.array([eps, -eps])
        gains.append(measure_epsilon_prime(trust, belief, n=4))
    assert gains[1] < gains[0]
    assert gains[1] <= 1e-4


def test_epsilon_prime_bound_formula():
    m, n, eps = 2, 4, 0.02
    expected = m * m * (n - 1) / n**2 * (1 + eps) / (1 - eps)
    assert epsilon_prime_bound(m, n, eps) == pytest.approx(expected, rel=1e-12)
    assert epsilon_prime_bound(m, n, 0.0) == m * m * (n - 1) / n**2
    assert epsilon_prime_bound(m, n, 1.0) == np.inf


# ------------------------------------------------------------- hierarchy

def test_hierarchy_gains_vanish():
    trust = np.array([0.6, 0.3, 0.3])
    gains = hierarchy_best_response_gains(trust, np.full((2, 2), 1 / 2), CFG)
    assert gains.shape == (2,)
    assert np.all(gains <= 1e-8)


def test_hierarchy_gains_invariant_across_fresh_draws():
    trust = np.array([0.6, 0.3, 0.3])
    rng = np.random.default_rng(22)
    seen = []
    for d in range(5):
        w = rng.dirichlet(np.ones(2), size=2)
        gains = hierarchy_best_response_gains(trust, w, CFG)
        seen.append(gains.max())
    assert np.ptp(seen) <= 1e-8


def test_hierarchy_single_established_player():
    trust = np.array([0.5, 0.5])
    gains = hierarchy_best_response_gains(trust, np.ones((2, 1)), CFG)
    assert gains.shape == (1,)
    assert np.all(gains <= 1e-8)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hierarchy_gains_build_no_graph_and_solve_nothing(k, count_calls):
    solves = count_calls("trep.pagerank", "tour_counts")
    profile_graphs = count_calls("trep.repgraph", "_profile_graph")
    graphs = count_calls(RepGraph, "_fill")  # every RepGraph construction
    trust, n = np.array([0.6, 0.3, 0.1]), 5
    gains = hierarchy_best_response_gains(trust, np.full((n - k, k), 1 / k), CFG)
    assert np.all(gains <= 1e-8)
    assert solves == [] and profile_graphs == [] and graphs == []


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
    m = draw(st.integers(2, 20))  # rows of 8 or more: np.add.reduce's unrolled order
    trust = np.array(draw(st.lists(WEIGHT, min_size=m, max_size=m)))
    assume(trust.any())
    fresh_weights = _distributions(draw, n - k, k)
    alpha = draw(st.sampled_from([0.05, 0.15, 0.5]))
    return trust, fresh_weights, Config(alpha=alpha), _distributions(draw, 3, m)


@settings(max_examples=60, deadline=None)
@given(hierarchy_cases())
def test_hierarchy_reduction_matches_expected_utilities(case):
    # An established player's utility over its own server row is
    # bipartite_utility(x, b_p, R) / v_p, so the best response to b_p must beat
    # every server-only row under the real expected utilities, and N(R)
    # itself is that best response (KKT, with b_p proportional to N(R)).
    trust, fresh_weights, cfg, rows = case
    profile = hierarchy_profile(trust, fresh_weights)
    k, m = fresh_weights.shape[1], trust.size
    visits, masses = hierarchy_masses(trust, fresh_weights, cfg)
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
        assert best <= utility(f1(trust)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(hierarchy_cases())
def test_hierarchy_gains_match_the_per_player_loop(case):
    # The probe rows come from a rank-one update of the closed-form
    # fundamental matrix; the oracle scores each on its own profile.
    trust, fresh_weights, cfg, _ = case
    gains = hierarchy_best_response_gains(trust, fresh_weights, cfg)
    expected = hierarchy_gains_oracle(trust, fresh_weights, cfg)
    np.testing.assert_allclose(gains, expected, rtol=0, atol=1e-12)
    profile = hierarchy_profile(trust, fresh_weights)
    k, m = fresh_weights.shape[1], trust.size
    probe = _hierarchy_reduction(trust, fresh_weights, cfg.alpha)[0]
    for player in range(k):
        trial = probe_profile(profile, player, k, m)
        assert abs(probe[player] - expected_utilities(trial, trust, cfg)[player]) <= 1e-12


@st.composite
def hierarchy_stacks(draw):
    """Trust, a stack of 1..6 draws of fresh weights and a config.  n runs to
    24, so that sums over the fresh players or the established ones can pass
    NumPy's 8-wide unroll."""
    n = draw(st.integers(2, 24))
    k = draw(st.integers(1, n - 1))
    m = draw(st.integers(1, 20))
    trust = np.array(draw(st.lists(WEIGHT, min_size=m, max_size=m)))
    assume(trust.any())
    stack = np.array([_distributions(draw, n - k, k) for _ in range(draw(st.integers(1, 6)))])
    return trust, stack, Config(alpha=draw(st.sampled_from([0.05, 0.15, 0.5])))


@settings(max_examples=60, deadline=None)
@given(hierarchy_stacks())
def test_hierarchy_gains_match_the_reference_bit_for_bit(case):
    # One stacked call scores every draw as the public function scores each;
    # N(R) is the server-only best response and the probe never beats it, so
    # every gain is +0.0, and the per-player waterfill loop agrees.
    trust, stack, cfg = case
    gains = _hierarchy_gains(trust, stack, cfg.alpha)
    assert same_bits(gains, np.array([hierarchy_best_response_gains(trust, w, cfg) for w in stack]))
    assert np.all(gains == 0.0) and not np.signbit(gains).any()
    expected = np.array([hierarchy_gains_reference(trust, w, cfg) for w in stack])
    np.testing.assert_allclose(gains, expected, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(hierarchy_cases())
def test_hierarchy_fundamental_matrix_is_one_step(case):
    # The premise of _hierarchy_reduction: E_u^2 = 0, so N = I + (1 - alpha) E_u.
    trust, fresh_weights, cfg, _ = case
    profile = hierarchy_profile(trust, fresh_weights)
    n, m = profile.shape[0], trust.size
    users = profile[:, m:]
    assert np.all(users @ users == 0.0)
    fundamental = tour_counts(RepGraph(n=n, m=m, edges=profile), cfg)[:, m:]
    np.testing.assert_allclose(fundamental, np.eye(n) + (1 - cfg.alpha) * users, rtol=0, atol=1e-12)
