import numpy as np
import pytest

from trep.bootstrap import (
    BootstrapConfig,
    distribute_rewards,
    honest_majority_check,
    run_bootstrap,
    select_committee,
    trace_event_log,
)
from trep.game import TRepGame, expected_utilities, realized_utilities
from trep.repgraph import Config
from trep.rng import substream

CFG = Config()


def make_game(trust, n):
    trust = np.asarray(trust, dtype=float)
    return TRepGame(n=n, m=len(trust), trust=trust, config=CFG)


def truthful_profile(trust, n):
    trust = np.asarray(trust, dtype=float)
    m = len(trust)
    profile = np.zeros((n, m + n))
    profile[:, :m] = trust / trust.sum()
    return profile


# ----------------------------------------------------------- happy path

def test_all_honest_completes_without_restart():
    trust = [1.0, 1.0, 1.0, 1.0, 1.0]
    game = make_game(trust, n=4)
    profile = truthful_profile(trust, n=4)
    bcfg = BootstrapConfig(lam=6, committee_size=2, ell=5, fraction=0.9)
    trace = run_bootstrap(game, profile, bcfg, substream(51, "boot"))
    assert trace.restarts == 0
    assert trace.detected == ()
    np.testing.assert_array_equal(trace.final_outcome, np.ones(5, dtype=int))
    # 5 nodes in committees of 2 -> 3 blocks; the schedule runs lam + blocks - 1
    # rounds so even a node that faults at round lam is observed afterwards
    assert len(trace.events) == 6 + 3 - 1
    assert all(e.culprit is None for e in trace.events)


def test_committee_blocks_cycle_lexicographically():
    trust = [1.0] * 5
    game = make_game(trust, n=4)
    bcfg = BootstrapConfig(lam=4, committee_size=2, ell=5, fraction=1.0)
    trace = run_bootstrap(game, truthful_profile(trust, 4), bcfg, substream(52, "boot"))
    committees = [e.committee for e in trace.events]
    assert committees[:3] == [(0, 1), (2, 3), (4,)]
    assert committees[3] == (0, 1)  # wraps around


def test_zero_trust_server_is_detected_and_silenced():
    game = make_game([1.0, 0.0, 1.0], n=3)
    profile = truthful_profile([0.9, 0.2, 0.8], n=3)
    bcfg = BootstrapConfig(lam=3, committee_size=3, ell=3, fraction=1.0)
    trace = run_bootstrap(game, profile, bcfg, substream(53, "boot"))
    assert trace.detected == (1,)
    assert trace.restarts == 1
    np.testing.assert_array_equal(trace.final_outcome, [1, 0, 1])


def test_outcome_equals_sampled_honesty():
    # whenever every node is scheduled at or after its fault round, the final
    # outcome must reproduce the sampled honesty vector exactly
    trust = np.array([0.8, 0.5, 0.3, 0.9])
    game = make_game(trust, n=3)
    profile = truthful_profile(trust, n=3)
    bcfg = BootstrapConfig(lam=5, committee_size=2, ell=4, fraction=0.9)
    for t in range(200):
        trace = run_bootstrap(game, profile, bcfg, substream(54, "boot", t))
        np.testing.assert_array_equal(trace.final_outcome, trace.honest)


def test_detection_is_lexicographic_within_committee():
    # both corrupted nodes sit in the first committee and fault immediately
    game = make_game([0.0, 0.0, 1.0, 1.0], n=3)
    profile = truthful_profile([0.5, 0.5, 0.9, 0.9], n=3)
    bcfg = BootstrapConfig(lam=1, committee_size=4, ell=4, fraction=1.0)
    trace = run_bootstrap(game, profile, bcfg, substream(55, "boot"))
    detects = [e.culprit for e in trace.events if e.culprit is not None]
    assert detects == [0, 1]
    assert trace.detected == (0, 1)
    assert trace.restarts == 2


def test_restart_count_grows_with_corruption():
    profile = truthful_profile([0.9, 0.8, 0.7, 0.6], n=3)
    bcfg = BootstrapConfig(lam=4, committee_size=2, ell=4, fraction=0.9)

    def restarts(trust, tag):
        game = make_game(trust, n=3)
        return run_bootstrap(game, profile, bcfg, substream(56, "boot", tag)).restarts

    assert restarts([1.0, 1.0, 1.0, 1.0], 0) == 0
    assert restarts([1.0, 1.0, 0.0, 1.0], 1) == 1
    assert restarts([0.0, 0.0, 0.0, 1.0], 2) == 3


def test_rewards_equal_realized_utilities():
    trust = np.array([0.9, 0.1, 0.7])
    game = make_game(trust, n=3)
    profile = truthful_profile(trust, n=3)
    bcfg = BootstrapConfig(lam=4, committee_size=2, ell=3, fraction=0.9)
    trace = run_bootstrap(game, profile, bcfg, substream(57, "boot"))
    rewards = distribute_rewards(trace, profile, CFG)
    expected = realized_utilities(profile, trace.final_outcome, CFG)
    np.testing.assert_array_equal(rewards, expected)


def test_all_honest_rewards_match_certain_utilities():
    trust = np.ones(3)
    game = make_game(trust, n=2)
    profile = truthful_profile(trust, n=2)
    bcfg = BootstrapConfig(lam=2, committee_size=2, ell=3, fraction=1.0)
    trace = run_bootstrap(game, profile, bcfg, substream(58, "boot"))
    rewards = distribute_rewards(trace, profile, CFG)
    np.testing.assert_allclose(rewards, expected_utilities(profile, trust, CFG), atol=1e-12)


def test_deterministic_given_stream():
    trust = np.array([0.8, 0.5, 0.3, 0.9])
    game = make_game(trust, n=3)
    profile = truthful_profile(trust, n=3)
    bcfg = BootstrapConfig(lam=5, committee_size=2, ell=4, fraction=0.9)
    t1 = run_bootstrap(game, profile, bcfg, substream(59, "boot"))
    t2 = run_bootstrap(game, profile, bcfg, substream(59, "boot"))
    assert trace_event_log(t1) == trace_event_log(t2)
    np.testing.assert_array_equal(t1.final_outcome, t2.final_outcome)


# ----------------------------------------------------------- committees

def test_select_committee_orders_and_truncates():
    rho = np.array([0.5, 0.3, 0.2])
    assert select_committee(rho, ell=2, fraction=1.0) == [0, 1]
    assert select_committee(rho, ell=3, fraction=0.9) == [0, 1, 2]  # ceil(2.7)


def test_select_committee_breaks_ties_by_index():
    rho = np.array([0.4, 0.4, 0.2])
    assert select_committee(rho, ell=1, fraction=1.0) == [0]
    assert select_committee(rho, ell=2, fraction=1.0) == [0, 1]


def test_select_committee_fraction_rounds_up():
    rho = np.linspace(1.0, 0.1, num=12)
    picked = select_committee(rho, ell=10, fraction=0.9)
    assert len(picked) == 9
    assert picked == list(range(9))


def test_select_committee_rejects_oversized_request():
    with pytest.raises(ValueError):
        select_committee(np.array([0.5, 0.5]), ell=3, fraction=0.9)


def test_honest_majority_check():
    honest = np.array([1, 1, 0, 0, 1])
    ok, margin = honest_majority_check([0, 1, 4], honest)
    assert ok and margin == 3
    ok, margin = honest_majority_check([1, 2, 3], honest)
    assert not ok and margin == -1
    ok, margin = honest_majority_check([0, 2], honest)
    assert not ok and margin == 0  # a tie is not a majority


# ------------------------------------------------------------ event log

def test_event_log_line_format():
    trust = np.ones(4)
    game = make_game(trust, n=3)
    profile = truthful_profile(trust, n=3)
    bcfg = BootstrapConfig(lam=2, committee_size=2, ell=4, fraction=0.9)
    trace = run_bootstrap(game, profile, bcfg, substream(60, "boot"))
    lines = trace_event_log(trace).splitlines()
    assert lines[0] == "round 1 committee 1,2 fault none detect none restart false"
    assert lines[1] == "round 2 committee 3,4 fault none detect none restart false"


def test_event_log_reports_fault_and_restart():
    game = make_game([0.0, 1.0, 1.0], n=3)
    profile = truthful_profile([0.5, 0.9, 0.9], n=3)
    bcfg = BootstrapConfig(lam=1, committee_size=3, ell=3, fraction=1.0)
    trace = run_bootstrap(game, profile, bcfg, substream(61, "boot"))
    lines = trace_event_log(trace).splitlines()
    assert lines[0] == "round 1 committee 1,2,3 fault 1 detect 1 restart true"
    # after the restart the surviving pair finishes cleanly
    assert lines[1] == "round 1 committee 2,3 fault none detect none restart false"


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(lam=0, committee_size=2, ell=3, fraction=0.9)
    with pytest.raises(ValueError):
        BootstrapConfig(lam=2, committee_size=0, ell=3, fraction=0.9)
    with pytest.raises(ValueError):
        BootstrapConfig(lam=2, committee_size=2, ell=3, fraction=1.5)
