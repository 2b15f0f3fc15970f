import re

import numpy as np
import pytest

from trep.game import (
    _check_trust,
    bipartite_utility,
    expected_utilities,
    realized_utilities,
    sample_nature,
)
from trep.repgraph import Config, RepGraph, validate
from trep.rng import substream

from oracles import bipartite_expected_utilities

CFG = Config()


def bipartite_profile(server_rows, n_users=None):
    s = np.asarray(server_rows, dtype=float)
    n = n_users or s.shape[0]
    profile = np.zeros((s.shape[0], s.shape[1] + n))
    profile[:, : s.shape[1]] = s
    return profile


# ------------------------------------------------------------------- nature

def test_sample_nature_degenerate_probabilities():
    rng = substream(0, "nature")
    trust = np.array([1.0, 0.0, 1.0])
    for _ in range(50):
        h = sample_nature(trust, rng)
        np.testing.assert_array_equal(h, [1, 0, 1])


def test_sample_nature_binomial_mean():
    rng = substream(1, "nature")
    draws = np.array([sample_nature(np.array([0.5, 0.5]), rng) for _ in range(10**5)])
    mean = draws.mean(axis=0)
    assert np.all(mean > 0.49) and np.all(mean < 0.51)


def test_sample_nature_deterministic_per_stream():
    a = np.array([sample_nature(np.array([0.3, 0.7]), substream(9, "t", i)) for i in range(20)])
    b = np.array([sample_nature(np.array([0.3, 0.7]), substream(9, "t", i)) for i in range(20)])
    np.testing.assert_array_equal(a, b)


def test_sample_nature_rejects_bad_trust():
    with pytest.raises(ValueError):
        sample_nature(np.array([0.5, 1.5]), substream(0))


@pytest.mark.parametrize(
    "trust, message",
    [
        ([0.5, np.nan], "trust values must lie in [0, 1]"),
        ([np.nan, np.nan], "trust values must lie in [0, 1]"),
        ([0.5, np.inf], "trust values must lie in [0, 1]"),
        ([-np.inf, 0.5], "trust values must lie in [0, 1]"),
        ([0.5, -0.1], "trust values must lie in [0, 1]"),
        ([1.5, 0.5], "trust values must lie in [0, 1]"),
        ([0.0, 0.0], "trust has no positive entry"),
        ([], "trust must be a nonempty vector"),
        ([[0.5, 0.5]], "trust must be a nonempty vector"),
        (0.5, "trust must be a nonempty vector"),
    ],
    ids=["nan", "all-nan", "inf", "-inf", "negative", "above-one", "all-zero",
         "empty", "2-d", "scalar"],
)
def test_check_trust_rejects_each_bad_vector_with_its_message(trust, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _check_trust(trust)


# ----------------------------------------------------------------- utilities

def test_realized_all_failures_zero():
    profile = bipartite_profile([[0.5, 0.5], [0.5, 0.5]])
    u = realized_utilities(profile, np.array([0, 0]), CFG)
    np.testing.assert_array_equal(u, [0.0, 0.0])


def test_realized_sole_contributor_collects_pot():
    profile = np.zeros((2, 4))
    profile[0, :2] = 0.5  # endorses both servers
    profile[1, 3] = 1.0   # self-loop, contributes nothing
    u = realized_utilities(profile, np.array([1, 1]), CFG)
    np.testing.assert_allclose(u, [2.0, 0.0], atol=1e-10)


def test_realized_symmetric_split():
    profile = bipartite_profile([[2 / 3, 1 / 3], [2 / 3, 1 / 3]])
    u = realized_utilities(profile, np.array([1, 1]), CFG)
    np.testing.assert_allclose(u, [1.0, 1.0], atol=1e-10)


def test_expected_value_at_normalized_trust():
    trust = np.array([1.0, 0.5])
    nr = trust / trust.sum()
    profile = bipartite_profile([nr, nr])
    u = expected_utilities(profile, trust, CFG)
    np.testing.assert_allclose(u, [0.75, 0.75], atol=1e-10)


def test_expected_symmetric_full_support_equal():
    rng = np.random.default_rng(2)
    row = rng.dirichlet(np.ones(3))
    profile = bipartite_profile([row, row, row])
    u = expected_utilities(profile, np.array([0.9, 0.5, 0.2]), CFG)
    assert np.ptp(u) <= 1e-10


def test_closed_form_matches_full_machinery_on_bipartite():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        s = rng.dirichlet(np.ones(m), size=n)
        trust = rng.uniform(0.1, 1.0, size=m)
        profile = bipartite_profile(s)
        full = expected_utilities(profile, trust, CFG)
        closed = bipartite_expected_utilities(profile, trust)
        np.testing.assert_allclose(full, closed, atol=1e-9)


def test_constant_sum_at_full_support():
    rng = np.random.default_rng(4)
    trust = np.array([0.8, 0.3, 0.6])
    s = rng.uniform(0.05, 1.0, size=(4, 3))
    s /= s.sum(axis=1, keepdims=True)
    u = expected_utilities(bipartite_profile(s), trust, CFG)
    assert u.sum() == pytest.approx(trust.sum(), abs=1e-9)


def test_monte_carlo_realized_matches_expected():
    rng = substream(5, "mc")
    trust = np.array([0.7, 0.4])
    s = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])
    profile = bipartite_profile(s)
    expected = expected_utilities(profile, trust, CFG)
    trials = 4000
    samples = np.array(
        [realized_utilities(profile, sample_nature(trust, rng), CFG) for _ in range(trials)]
    )
    sem = samples.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(samples.mean(axis=0) - expected) <= 3 * sem + 1e-12)


def test_bipartite_utility_zero_over_zero():
    assert bipartite_utility(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])) == pytest.approx(0.25)


# ----------------------------------------------------------------- dominance

def test_moving_user_mass_onto_servers_never_hurts():
    # Reallocating endorsement mass delta from user u onto the servers as
    # delta * ((1-alpha) * u's server row + alpha * w) raises the deviator's
    # effective endorsement of every server, so utility cannot drop.
    rng = np.random.default_rng(6)
    alpha = CFG.alpha
    for _ in range(8):
        n, m = 3, int(rng.integers(2, 4))
        trust = rng.uniform(0.2, 1.0, size=m)
        s = rng.dirichlet(np.ones(m), size=n)
        profile = bipartite_profile(s)
        delta = 0.3
        target = 1  # endorse user 2
        profile[0, :m] *= 1.0 - delta
        profile[0, m + target] = delta
        before = expected_utilities(profile, trust, CFG)[0]
        w = trust / trust.sum()
        moved = profile.copy()
        moved[0, m + target] = 0.0
        moved[0, :m] += delta * ((1.0 - alpha) * s[target] + alpha * w)
        after = expected_utilities(moved, trust, CFG)[0]
        assert after >= before - 1e-12
        assert after > before  # strict: teleport share is recaptured


def test_moving_user_mass_to_single_weak_server_can_hurt():
    # Documented counterexample: dumping the user-endorsement mass onto one
    # weak server severs a stronger indirect contribution and lowers utility.
    trust = np.array([0.05, 1.0])
    profile = np.zeros((3, 5))
    profile[0, 1] = 0.5
    profile[0, 3] = 0.5   # half the mass endorses user 2
    profile[1, 1] = 1.0   # user 2 endorses the strong server
    profile[2, :2] = 0.5
    before = expected_utilities(profile, trust, CFG)[0]

    alpha = CFG.alpha
    a = 1.0 - alpha
    c02 = a * (0.5 + a * 0.5)
    d2 = c02 + a * 1.0 + a * 0.5
    np.testing.assert_allclose(before, 1.0 * c02 / d2, atol=1e-10)

    moved = profile.copy()
    moved[0, 3] = 0.0
    moved[0, 0] = 0.5  # everything onto the weak server
    after = expected_utilities(moved, trust, CFG)[0]
    assert after < before


# ------------------------------------------------------------------- types

def test_utilities_reject_invalid_profiles():
    trust = np.array([0.5, 0.5])
    good = bipartite_profile([[0.5, 0.5], [0.5, 0.5]])
    assert validate(RepGraph(n=2, m=2, edges=good)) == []
    with pytest.raises(ValueError):
        expected_utilities(good * 1.1, trust, CFG)
    with pytest.raises(ValueError):
        RepGraph(n=2, m=3, edges=good)
    bad = good.copy()
    bad[0, 0] = -0.5
    bad[0, 1] = 1.5
    with pytest.raises(ValueError):
        realized_utilities(bad, np.array([1, 0]), CFG)


def test_utilities_reject_nan_profiles():
    trust = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        expected_utilities(np.array([[np.nan, 0, 1, 0], [1, 0, 0, 0]]), trust, CFG)
    with pytest.raises(ValueError):
        realized_utilities(np.array([[0.5, 0.5, 0, 0], [1, np.nan, 0, 0]]), np.array([1, 1]), CFG)


@pytest.mark.parametrize(
    "profile, message",
    [(np.array([0.5, 0.5, 0.0, 0.0]), "must be a matrix"), (np.eye(2), "no server columns")],
    ids=["1-D", "no server column"],
)
def test_utilities_reject_a_profile_without_a_graph_shape(profile, message):
    with pytest.raises(ValueError, match=message):
        expected_utilities(profile, np.array([1.0]), CFG)
    with pytest.raises(ValueError, match=message):
        realized_utilities(profile, np.array([1.0]), CFG)
