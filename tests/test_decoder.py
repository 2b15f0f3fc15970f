import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trep.decoder import (
    count_inversions,
    decode,
    f1,
    f2_check,
    hoeffding_check,
    noisy_belief_gaussian,
    noisy_belief_two_point,
)
from trep.cli import decode_result_csv
from trep.equilibrium import GameScenario, truth_telling_profile
from trep.repgraph import Config
from trep.rng import substream

from oracles import count_inversions_pairwise

CFG = Config()


# ------------------------------------------------------------------- f1

def test_f1_fixed_points_and_scaling():
    np.testing.assert_allclose(f1(np.array([0.5, 0.25, 0.25])), [0.5, 0.25, 0.25], atol=1e-15)
    np.testing.assert_allclose(f1(np.array([0.9, 0.3])), [0.75, 0.25], atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6))
def test_f1_preserves_ratios(values):
    u = np.array(values)
    out = f1(u)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.outer(out, 1 / out), np.outer(u, 1 / u), rtol=1e-9)


def test_f1_rejects_bad_input():
    with pytest.raises(ValueError):
        f1(np.zeros(3))
    with pytest.raises(ValueError):
        f1(np.array([0.5, -0.1]))


# ----------------------------------------------------------------- decode

def test_decode_equilibrium_profile_recovers_normalized_trust():
    trust = np.array([0.8, 0.2, 0.5])
    sc = GameScenario(kind="perfect", trust=trust, n=3)
    result = decode(truth_telling_profile(sc), CFG, trust=trust)
    np.testing.assert_allclose(result.rho, trust / trust.sum(), atol=1e-10)
    assert result.inversions == 0
    assert result.linf_error <= 1e-10


def test_decode_noisy_profile_recovers_normalized_belief():
    trust = np.array([0.8, 0.4])
    belief = np.array([0.84, 0.36])
    sc = GameScenario(kind="noisy", trust=trust, n=4, belief=belief)
    result = decode(truth_telling_profile(sc), CFG)
    np.testing.assert_allclose(result.rho, belief / belief.sum(), atol=1e-10)


def test_decode_hierarchy_matches_normalized_trust_for_any_fresh_weights():
    trust = np.array([0.6, 0.2, 0.2])
    rng = np.random.default_rng(31)
    reference = None
    for _ in range(10):
        w = rng.dirichlet(np.ones(2), size=3)
        sc = GameScenario(kind="hierarchy", trust=trust, n=5, k=2, fresh_weights=w)
        rho = decode(truth_telling_profile(sc), CFG).rho
        np.testing.assert_allclose(rho, trust / trust.sum(), atol=1e-9)
        if reference is None:
            reference = rho
        np.testing.assert_allclose(rho, reference, atol=1e-9)


def test_decode_invariant_to_uniform_user_mass():
    # every player moves the same fraction of mass to a uniform endorsement of
    # all users: scores are unchanged
    trust = np.array([0.7, 0.3])
    n, m = 3, 2
    nr = trust / trust.sum()
    pure = np.zeros((n, m + n))
    pure[:, :m] = nr
    mixed = pure.copy()
    beta = 0.2
    mixed[:, :m] *= 1 - beta
    mixed[:, m:] = beta / n
    np.testing.assert_allclose(decode(pure, CFG).rho, decode(mixed, CFG).rho, atol=1e-10)


def test_decode_unendorsed_server_scores_zero():
    profile = np.zeros((2, 4))
    profile[:, 0] = 1.0
    result = decode(profile, CFG)
    np.testing.assert_allclose(result.rho, [1.0, 0.0], atol=1e-12)


# -------------------------------------------------------------- inversions

def test_count_inversions_cases():
    assert count_inversions(np.array([0.5, 0.3, 0.2]), np.array([0.9, 0.5, 0.1])) == 0
    # fully reversed order on three distinct scores: all three pairs inverted
    assert count_inversions(np.array([0.1, 0.3, 0.6]), np.array([0.9, 0.5, 0.1])) == 3
    # tied trust never counts, whatever the scores do
    assert count_inversions(np.array([0.1, 0.9]), np.array([0.5, 0.5])) == 0
    # tied scores across a strict trust gap count half, rounded up
    assert count_inversions(np.array([0.5, 0.5]), np.array([0.8, 0.2])) == 1
    # two tied-score pairs -> two halves -> one whole inversion
    assert (
        count_inversions(
            np.array([0.5, 0.5, 0.3, 0.3]), np.array([0.9, 0.8, 0.2, 0.1])
        )
        == 1
    )


ties = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 25).flatmap(
        lambda m: st.tuples(
            st.lists(ties, min_size=m, max_size=m), st.lists(ties, min_size=m, max_size=m)
        )
    )
)
def test_count_inversions_matches_pairwise_loop(pair):
    rho, trust = (np.array(values) for values in pair)
    assert count_inversions(rho, trust) == count_inversions_pairwise(rho, trust)


# -------------------------------------------------------------- generators

def test_two_point_noise_support_and_mean():
    trust = np.array([0.5, 0.3, 0.7])
    eps = 0.05
    rng = substream(41, "tp")
    draws = np.array([noisy_belief_two_point(trust, eps, rng) for _ in range(4000)])
    assert np.all(np.isin(np.round(np.abs(draws - trust), 12), eps))
    mean = draws.mean(axis=0)
    sem = eps / np.sqrt(4000)
    assert np.all(np.abs(mean - trust) <= 4 * sem)


def test_gaussian_noise_truncated_and_centered():
    trust = np.array([0.5, 0.3])
    eps = 0.04
    rng = substream(42, "g")
    draws = np.array([noisy_belief_gaussian(trust, eps, rng) for _ in range(4000)])
    assert np.all(np.abs(draws - trust) <= eps + 1e-15)
    sem = (eps / 2) / np.sqrt(4000)
    assert np.all(np.abs(draws.mean(axis=0) - trust) <= 4 * sem)


def test_generators_reject_trust_near_boundary():
    rng = substream(43)
    with pytest.raises(ValueError):
        noisy_belief_two_point(np.array([0.005, 0.5]), 0.01, rng)
    with pytest.raises(ValueError):
        noisy_belief_gaussian(np.array([0.5, 0.995]), 0.01, rng)


def test_generators_reject_nan_epsilon():
    rng = substream(43)
    with pytest.raises(ValueError):
        noisy_belief_two_point(np.array([0.4, 0.6]), np.nan, rng)
    with pytest.raises(ValueError):
        noisy_belief_gaussian(np.array([0.4, 0.6]), np.nan, rng)


def test_zero_noise_returns_trust():
    trust = np.array([0.4, 0.6])
    rng = substream(44)
    np.testing.assert_array_equal(noisy_belief_two_point(trust, 0.0, rng), trust)
    np.testing.assert_array_equal(noisy_belief_gaussian(trust, 0.0, rng), trust)


# ------------------------------------------------------------------- f2

def test_f2_check_small_sweep_beats_bound():
    trust = np.array([0.5, 0.3, 0.7, 0.4, 0.6])
    report = f2_check(
        trust,
        epsilon=0.02,
        p=0.0,
        delta=0.05,
        trials=300,
        config=CFG,
        rng=substream(45, "f2"),
    )
    assert report["bound"] == pytest.approx(1 - np.exp(-(0.05**2) / (4 * 0.02**2 * 5)))
    assert report["empirical_prob"] >= report["bound"]
    nr = trust / trust.sum()
    expected_threshold = (0.02 + 0.05 * nr.max()) / (trust.sum() - 0.05)
    assert report["threshold"] == pytest.approx(expected_threshold, rel=1e-12)


def test_f2_check_zero_noise_always_succeeds():
    trust = np.array([0.5, 0.3, 0.7])
    report = f2_check(
        trust, epsilon=0.0, p=0.0, delta=0.05, trials=50, config=CFG, rng=substream(46, "f2")
    )
    assert report["empirical_prob"] == 1.0
    assert report["q"] == 0.0


def test_hoeffding_tail_within_bound():
    trust = np.array([0.5, 0.3, 0.7, 0.4, 0.6])
    report = hoeffding_check(
        trust, epsilon=0.02, delta=0.05, trials=500, rng=substream(47, "hoeff")
    )
    # two-point noise: the drift is (2h - 5) * 0.02 for h positive signs out
    # of 5, and |drift| >= 0.05 needs |2h - 5| >= 3, i.e. h in {0, 1, 4, 5},
    # which has probability 12/32
    assert report["q"] == pytest.approx(np.exp(-(0.05**2) / (4 * 0.02**2 * 5)))
    assert report["empirical_prob"] <= report["q"]
    assert abs(report["empirical_prob"] - 12 / 32) <= 0.07


@pytest.mark.parametrize("delta", [np.nan, 0.0, -0.05])
def test_hoeffding_rejects_nonpositive_delta(delta):
    with pytest.raises(ValueError):
        hoeffding_check(np.array([0.5, 0.3]), epsilon=0.02, delta=delta, trials=10)


# ------------------------------------------------------------------- csv

def test_decode_result_csv_layout():
    trust = np.array([0.8, 0.2])
    sc = GameScenario(kind="perfect", trust=trust, n=2)
    result = decode(truth_telling_profile(sc), CFG, trust=trust)
    text = decode_result_csv(result, trust=trust)
    lines = text.splitlines()
    assert lines[0] == "server_index,rho,trust"
    assert lines[1].startswith("1,") and lines[2].startswith("2,")
    decoded = [float(ln.split(",")[1]) for ln in lines[1:3]]
    np.testing.assert_allclose(decoded, [0.8, 0.2], atol=1e-12)
    assert float(lines[1].split(",")[2]) == 0.8  # full-precision round trip
    footer = [ln for ln in lines if ln.startswith("#")]
    assert any("inversions,0" in ln for ln in footer)
    assert any("linf_error," in ln for ln in footer)


def test_decode_result_csv_without_trust_marks_metrics_na():
    profile = np.zeros((2, 4))
    profile[:, :2] = 0.5
    result = decode(profile, CFG)
    text = decode_result_csv(result)
    lines = text.splitlines()
    assert lines[0] == "server_index,rho"
    assert any(ln == "# inversions,n/a" for ln in lines)
    assert text == decode_result_csv(result)  # deterministic bytes
