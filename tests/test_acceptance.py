"""Acceptance suite: one test per advertised guarantee, each printing a
[PASS]/[FAIL] line with the criterion it certifies."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from trep.bootstrap import BootstrapConfig, distribute_rewards, run_bootstrap
from trep.cli import main
from trep.decoder import (
    count_inversions,
    decode,
    f2_check,
    hoeffding_check,
    noisy_belief_gaussian,
    noisy_belief_two_point,
)
from trep.equilibrium import (
    GameScenario,
    hierarchy_best_response_gains,
    measure_epsilon_prime,
    truth_telling_profile,
    verify_unique_nash,
)
from trep.game import TRepGame, realized_utilities
from trep.pagerank import (
    build_designated_chain,
    clique_chain,
    reputation_scores,
    stationary,
    stationary_oracle,
)
from trep.repgraph import Config, RepGraph
from trep.rng import substream

SEED = 20260819
CFG = Config()


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def random_graph(rng, n, m):
    return RepGraph(n=n, m=m, edges=rng.dirichlet(np.ones(m + n), size=n))


def bipartite_profile(row, n):
    m = row.size
    profile = np.zeros((n, m + n))
    profile[:, :m] = row
    return profile


def test_stationary_power_matches_dense_oracle():
    with criterion(1, "power iteration matches the dense solver within 1e-10 in under 10 s"):
        rng = substream(SEED, "oracle-equivalence")
        started = time.perf_counter()
        worst = 0.0
        for index in range(200):
            n = int(rng.integers(2, 26))
            m = int(rng.integers(2, 26))
            alpha = (0.05, 0.15, 0.5)[index % 3]
            chain = build_designated_chain(random_graph(rng, n, m), Config(alpha=alpha))
            power = stationary(chain, Config(alpha=alpha)).pi
            dense = stationary_oracle(chain).pi
            worst = max(worst, float(np.max(np.abs(power - dense))))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-10, f"worst L-infinity gap {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_clique_scores_preserve_rating_ratios():
    with criterion(2, "clique walk preserves all rating ratios within relative 1e-9"):
        rng = substream(SEED, "clique-ratios")
        for _ in range(100):
            m = int(rng.integers(2, 21))
            ratings = rng.uniform(0.05, 1.0, size=m)
            pi = stationary(clique_chain(ratings), CFG).pi
            ratios = pi[:, None] / pi[None, :]
            truth = ratings[:, None] / ratings[None, :]
            assert np.max(np.abs(ratios / truth - 1.0)) <= 1e-9


def test_informed_endorsement_preserves_rating_ratios():
    # Every user splits its server mass proportionally to the ratings while
    # endorsing other users arbitrarily; score ratios must equal rating ratios.
    with criterion(3, "informed endorsement preserves rating ratios within relative 1e-9"):
        rng = substream(SEED, "designated-ratios")
        for _ in range(100):
            m = int(rng.integers(2, 11))
            n = int(rng.integers(3, 101))
            ratings = rng.uniform(0.05, 1.0, size=m)
            normalized = ratings / ratings.sum()
            server_mass = rng.uniform(0.2, 1.0, size=n)
            edges = np.zeros((n, m + n))
            edges[:, :m] = server_mass[:, None] * normalized
            edges[:, m:] = (1.0 - server_mass)[:, None] * rng.dirichlet(np.ones(n), size=n)
            rho = reputation_scores(RepGraph(n=n, m=m, edges=edges), CFG)
            ratios = rho[:, None] / rho[None, :]
            truth = ratings[:, None] / ratings[None, :]
            assert np.max(np.abs(ratios / truth - 1.0)) <= 1e-9


NASH_INSTANCES = 100


def _nash_instances():
    rng = substream(SEED, "nash-instances")
    for _ in range(NASH_INSTANCES):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 21))
        ratings = rng.uniform(0.05, 1.0, size=m)
        yield n, ratings, rng


def test_proportional_profile_is_nash():
    with criterion(
        4,
        "proportional endorsement is a Nash equilibrium: utilities sum(R)/n "
        "within 1e-10, gains <= 1e-8, probes never pay below the value",
    ):
        for n, ratings, rng in _nash_instances():
            report = verify_unique_nash(ratings, n, probes=100, rng=rng)
            level = ratings.sum() / n
            np.testing.assert_allclose(report.utility, level, atol=1e-10)
            assert report.epsilon_prime <= 1e-8
            assert report.probe_min >= level - 1e-8


def test_equilibrium_profile_decodes_to_normalized_trust():
    with criterion(5, "decoding the equilibrium profile recovers normalized trust within 1e-10"):
        for n, ratings, _ in _nash_instances():
            profile = bipartite_profile(ratings / ratings.sum(), n)
            rho = decode(profile, CFG).rho
            np.testing.assert_allclose(rho, ratings / ratings.sum(), atol=1e-10)


def test_newcomer_strategies_cannot_move_scores_or_gains():
    with criterion(
        6,
        "newcomer endorsement choices leave scores (1e-9) and established "
        "players' gains (1e-8) unchanged over 50 draws per hierarchy",
    ):
        ratings = np.array([0.8, 0.5, 0.3])
        n = 5
        rng = substream(SEED, "hierarchy-draws")
        for k in range(1, n):
            scores = []
            gain_maxima = []
            for draw in range(50):
                weights = rng.dirichlet(np.ones(k), size=n - k)
                scenario = GameScenario(
                    kind="hierarchy", trust=ratings, n=n, k=k, fresh_weights=weights
                )
                scores.append(decode(truth_telling_profile(scenario), CFG).rho)
                gains = hierarchy_best_response_gains(scenario, CFG)
                assert np.all(gains <= 1e-8)
                gain_maxima.append(float(gains.max()))
            scores = np.asarray(scores)
            assert float(np.max(scores.max(axis=0) - scores.min(axis=0))) <= 1e-9
            assert float(np.ptp(gain_maxima)) <= 1e-8


def test_noisy_defect_within_theoretical_bound():
    with criterion(
        7,
        "common-belief noise keeps the defect within m^2 (n-1)/n^2 * (1+eps)/(1-eps) "
        "across 500 trials, and vanishes (<= 1e-8) at zero noise",
    ):
        rng = substream(SEED, "noisy-defect")
        cells = [(m, n) for m in (2, 3, 5) for n in (50, 100, 500)]
        trials_per_cell = 500 // len(cells) + 1
        for m, n in cells:
            for _ in range(trials_per_cell):
                ratings = rng.uniform(0.2, 1.0, size=m)
                eps = float(rng.uniform(0.0, 1.0 / (2 * n)))
                belief = np.clip(ratings + rng.uniform(-eps, eps, size=m), 0.0, 1.0)
                scenario = GameScenario(
                    kind="noisy", trust=ratings, n=n, belief=belief, epsilon=eps
                )
                report = measure_epsilon_prime(scenario)
                assert report.epsilon_prime <= report.bound
            ratings = rng.uniform(0.2, 1.0, size=m)
            exact = GameScenario(kind="noisy", trust=ratings, n=n, belief=ratings.copy())
            assert measure_epsilon_prime(exact).epsilon_prime <= 1e-8


F2_GRID = [(m, eps) for m in (5, 10, 20) for eps in (0.01, 0.02)]
F2_TRIALS = 10_000
F2_DELTA = 0.05


@pytest.fixture(scope="module")
def noisy_trust_vectors():
    rng = substream(SEED, "f2-trust")
    return {m: rng.uniform(0.1, 0.9, size=m) for m in (5, 10, 20)}


def test_noisy_decode_success_rate_beats_bound(noisy_trust_vectors):
    with criterion(
        8,
        "decode error under noisy beliefs stays below the slack threshold at a "
        "rate of at least 1 - m p - q (10^4 trials per cell, < 5 min each)",
    ):
        for generator, tag in (
            (noisy_belief_two_point, "two-point"),
            (noisy_belief_gaussian, "gaussian"),
        ):
            for index, (m, eps) in enumerate(F2_GRID):
                trust = noisy_trust_vectors[m]
                started = time.perf_counter()
                report = f2_check(
                    trust,
                    epsilon=eps,
                    p=0.0,
                    delta=F2_DELTA,
                    trials=F2_TRIALS,
                    config=CFG,
                    rng=substream(SEED, "f2", tag, index),
                    generator=generator,
                )
                elapsed = time.perf_counter() - started
                assert elapsed < 300.0, f"cell ({tag}, m={m}, eps={eps}) took {elapsed:.1f} s"
                assert report["empirical_prob"] >= report["bound"], (
                    f"cell ({tag}, m={m}, eps={eps}): "
                    f"{report['empirical_prob']:.4f} < {report['bound']:.4f}"
                )


def test_belief_mass_drift_within_hoeffding_bound():
    with criterion(
        9,
        "belief-mass drift reaches delta no more often than exp(-delta^2/(4 eps^2 m)) "
        "on the same grid",
    ):
        rng_vectors = substream(SEED, "f2-trust")
        trust_vectors = {m: rng_vectors.uniform(0.1, 0.9, size=m) for m in (5, 10, 20)}
        for generator, tag in (
            (noisy_belief_two_point, "two-point"),
            (noisy_belief_gaussian, "gaussian"),
        ):
            for index, (m, eps) in enumerate(F2_GRID):
                report = hoeffding_check(
                    trust_vectors[m],
                    epsilon=eps,
                    delta=F2_DELTA,
                    trials=F2_TRIALS,
                    rng=substream(SEED, "f2", tag, index),
                    generator=generator,
                )
                assert report["empirical_prob"] <= report["q"], (
                    f"cell ({tag}, m={m}, eps={eps}): "
                    f"{report['empirical_prob']:.4f} > {report['q']:.4f}"
                )


BOOT_RUNS = 10_000


def test_bootstrap_outcomes_match_trust_statistics():
    with criterion(
        10,
        "bootstrap outcomes are binomial in each server's trust (3-sigma over "
        "10^4 runs), rewards equal realized utilities exactly, and well-separated "
        "trust decodes with zero inversions and the true top committee",
    ):
        trust = np.array([0.9, 0.75, 0.6, 0.45, 0.3])
        n, m = 6, trust.size
        game = TRepGame(n=n, m=m, trust=trust, config=CFG)
        profile = bipartite_profile(trust / trust.sum(), n)
        bcfg = BootstrapConfig(lam=8, committee_size=2, ell=3, fraction=1.0)
        outcomes = np.empty((BOOT_RUNS, m), dtype=np.int64)
        for run in range(BOOT_RUNS):
            trace = run_bootstrap(game, profile, bcfg, substream(SEED, "boot", run))
            outcomes[run] = trace.final_outcome
            rewards = distribute_rewards(trace, profile, CFG)
            np.testing.assert_array_equal(
                rewards, realized_utilities(profile, trace.final_outcome, CFG)
            )
            assert count_inversions(trace.rho, trust) == 0
            assert trace.committee == [0, 1, 2]
        empirical = outcomes.mean(axis=0)
        sigma = np.sqrt(trust * (1.0 - trust) / BOOT_RUNS)
        assert np.all(np.abs(empirical - trust) <= 3.0 * sigma), (
            f"empirical {empirical} vs trust {trust}"
        )


SCENARIO_TEXT = """trep v1
users 3
servers 2
alpha 0.15
trust 0.8 0.4
edge 1 1 0.6666666666666666
edge 1 2 0.3333333333333333
edge 2 1 0.6666666666666666
edge 2 2 0.3333333333333333
edge 3 1 0.6666666666666666
edge 3 2 0.3333333333333333
"""


def test_same_seed_gives_byte_identical_outputs(tmp_path):
    with criterion(
        11,
        "repeated runs with one seed produce byte-identical CSVs, including "
        "with --parallel 8, which is accepted and ignored",
    ):
        scenario = tmp_path / "scenario.trep"
        scenario.write_text(SCENARIO_TEXT, encoding="utf-8")
        commands = {
            "decode": ["decode", str(scenario), "--seed", "5"],
            "nash": ["nash", str(scenario), "--seed", "5", "--trials", "25"],
            "noisy": [
                "noisy", str(scenario), "--seed", "5", "--trials", "6",
                "--epsilon", "0.005", "--epsilon", "0.01", "--delta", "0.05",
            ],
            "bootstrap": [
                "bootstrap", str(scenario), "--seed", "5", "--trials", "8",
                "--lambda", "4", "--committee", "2",
            ],
        }
        outputs = {
            "decode": ["decode.csv"],
            "nash": ["nash.csv"],
            "noisy": ["noisy.csv", "f2.csv"],
            "bootstrap": ["bootstrap.csv", "bootstrap.log"],
        }
        for name, args in commands.items():
            runs = []
            variants = [args, args]
            if name in ("noisy", "bootstrap"):
                variants.append(args + ["--parallel", "8"])
            for v, variant in enumerate(variants):
                out = tmp_path / f"{name}-{v}"
                assert main(variant + ["--out", str(out)]) == 0
                runs.append([
                    (out / filename).read_bytes() for filename in outputs[name]
                ])
            for later in runs[1:]:
                assert later == runs[0], f"{name} output differs between runs"
