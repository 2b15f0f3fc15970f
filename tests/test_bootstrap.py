import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trep.bootstrap import (
    BootstrapConfig,
    honest_majority_check,
    run_bootstrap,
    select_committee,
    trace_event_log,
)
from trep.game import expected_utilities, realized_utilities
from trep.repgraph import Config
from trep.rng import substream

from oracles import bootstrap_oracle

CFG = Config()


def truthful_profile(trust, n):
    trust = np.asarray(trust, dtype=float)
    m = len(trust)
    profile = np.zeros((n, m + n))
    profile[:, :m] = trust / trust.sum()
    return profile


# ----------------------------------------------------------- happy path

def test_all_honest_completes_without_restart():
    bcfg = BootstrapConfig(lam=6, committee_size=2)
    trace = run_bootstrap(np.ones(5), bcfg, substream(51, "boot"))
    assert trace.restarts == 0
    assert trace.detected == ()
    np.testing.assert_array_equal(trace.honest, np.ones(5, dtype=int))
    # 5 nodes in committees of 2 -> 3 blocks; the schedule runs lam + blocks - 1
    # rounds so even a node that faults at round lam is observed afterwards
    lines = trace_event_log(trace).splitlines()
    assert trace.rounds == len(lines) == 6 + 3 - 1
    assert all(line.endswith(" fault none detect none restart false") for line in lines)


def test_committee_blocks_cycle_lexicographically():
    bcfg = BootstrapConfig(lam=4, committee_size=2)
    trace = run_bootstrap(np.ones(5), bcfg, substream(52, "boot"))
    committees = [line.split()[3] for line in trace_event_log(trace).splitlines()]
    assert committees[:3] == ["1,2", "3,4", "5"]
    assert committees[3] == "1,2"  # wraps around


def test_zero_trust_server_is_detected_and_silenced():
    bcfg = BootstrapConfig(lam=3, committee_size=3)
    trace = run_bootstrap([1.0, 0.0, 1.0], bcfg, substream(53, "boot"))
    assert trace.detected == (1,)
    assert trace.restarts == 1
    np.testing.assert_array_equal(trace.honest, [1, 0, 1])


def test_detection_is_lexicographic_within_committee():
    # both corrupted nodes sit in the first committee and fault immediately
    bcfg = BootstrapConfig(lam=1, committee_size=4)
    trace = run_bootstrap([0.0, 0.0, 1.0, 1.0], bcfg, substream(55, "boot"))
    detects = [culprit for _, _, culprit in trace.passes if culprit is not None]
    assert detects == [0, 1]
    assert trace.detected == (0, 1)
    assert trace.restarts == 2


def test_restart_count_grows_with_corruption():
    bcfg = BootstrapConfig(lam=4, committee_size=2)

    def restarts(trust, tag):
        return run_bootstrap(trust, bcfg, substream(56, "boot", tag)).restarts

    assert restarts([1.0, 1.0, 1.0, 1.0], 0) == 0
    assert restarts([1.0, 1.0, 0.0, 1.0], 1) == 1
    assert restarts([0.0, 0.0, 0.0, 1.0], 2) == 3


def test_all_honest_rewards_match_certain_utilities():
    trust = np.ones(3)
    profile = truthful_profile(trust, n=2)
    bcfg = BootstrapConfig(lam=2, committee_size=2)
    trace = run_bootstrap(trust, bcfg, substream(58, "boot"))
    rewards = realized_utilities(profile, trace.honest, CFG)
    np.testing.assert_allclose(rewards, expected_utilities(profile, trust, CFG), atol=1e-12)


def test_deterministic_given_stream():
    trust = np.array([0.8, 0.5, 0.3, 0.9])
    bcfg = BootstrapConfig(lam=5, committee_size=2)
    t1 = run_bootstrap(trust, bcfg, substream(59, "boot"))
    t2 = run_bootstrap(trust, bcfg, substream(59, "boot"))
    assert trace_event_log(t1) == trace_event_log(t2)
    np.testing.assert_array_equal(t1.honest, t2.honest)


@st.composite
def bootstrap_cases(draw):
    m = draw(st.integers(2, 12))
    trust = draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=m, max_size=m
    ))
    assume(any(t > 0 for t in trust))
    bcfg = BootstrapConfig(lam=draw(st.integers(1, 10)), committee_size=draw(st.integers(1, m)))
    return np.array(trust), bcfg, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(bootstrap_cases())
def test_closed_form_passes_match_round_by_round_oracle(case):
    trust, bcfg, seed = case
    trace = run_bootstrap(trust, bcfg, substream(seed, "boot"))
    log, restarts, detected, honest, survivors = bootstrap_oracle(
        trust, bcfg, substream(seed, "boot")
    )
    assert trace_event_log(trace) == log
    assert trace.rounds == len(log.splitlines())
    assert trace.restarts == restarts
    assert trace.detected == detected
    np.testing.assert_array_equal(trace.honest, honest)
    # every corrupted server is detected, so nature's draw is the survivor set
    np.testing.assert_array_equal(trace.honest, survivors)
    assert trace.honest.dtype == survivors.dtype


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
    assert len(select_committee(rho, ell=10, fraction=1.0)) == 10
    # 0.28 * 25 and 0.56 * 25 land just above 7 and 14 in floating point
    rho = np.linspace(1.0, 0.1, num=25)
    assert len(select_committee(rho, ell=25, fraction=0.28)) == 7
    assert len(select_committee(rho, ell=25, fraction=0.56)) == 14
    assert len(select_committee(rho, ell=25, fraction=0.29)) == 8  # ceil(7.25)


def test_select_committee_rejects_oversized_request():
    with pytest.raises(ValueError):
        select_committee(np.array([0.5, 0.5]), ell=3, fraction=0.9)
    with pytest.raises(ValueError):
        select_committee(np.array([0.5, 0.5]), ell=2, fraction=1.5)


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
    bcfg = BootstrapConfig(lam=2, committee_size=2)
    trace = run_bootstrap(np.ones(4), bcfg, substream(60, "boot"))
    lines = trace_event_log(trace).splitlines()
    assert lines[0] == "round 1 committee 1,2 fault none detect none restart false"
    assert lines[1] == "round 2 committee 3,4 fault none detect none restart false"


def test_event_log_reports_fault_and_restart():
    bcfg = BootstrapConfig(lam=1, committee_size=3)
    trace = run_bootstrap([0.0, 1.0, 1.0], bcfg, substream(61, "boot"))
    lines = trace_event_log(trace).splitlines()
    assert lines[0] == "round 1 committee 1,2,3 fault 1 detect 1 restart true"
    # after the restart the surviving pair finishes cleanly
    assert lines[1] == "round 1 committee 2,3 fault none detect none restart false"


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(lam=0, committee_size=2)
    with pytest.raises(ValueError):
        BootstrapConfig(lam=2, committee_size=0)


def test_run_bootstrap_validation():
    bcfg = BootstrapConfig(lam=2, committee_size=2)
    with pytest.raises(ValueError, match="at least 2 servers"):
        run_bootstrap([0.5], BootstrapConfig(lam=2, committee_size=1), substream(62, "boot"))
    with pytest.raises(ValueError, match="exceeds server count"):
        run_bootstrap([0.5, 0.5], BootstrapConfig(lam=2, committee_size=3), substream(62, "boot"))
    with pytest.raises(ValueError, match="trust values"):
        run_bootstrap([0.5, 1.5], bcfg, substream(62, "boot"))
    with pytest.raises(ValueError, match="no positive entry"):
        run_bootstrap([0.0, 0.0], bcfg, substream(62, "boot"))
