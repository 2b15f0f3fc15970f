"""Decoding reputation scores back out of strategy profiles.

At equilibrium the score vector equals normalized trust, so normalization
(f1) decodes the perfect-information game; under common noisy beliefs the
scores recover the normalized belief, and a tolerance argument bounds how
often the decoded ranking stays within a computable threshold of the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import GameScenario, truth_telling_profile
from .game import f1
from .pagerank import reputation_scores
from .repgraph import Config, RepGraph, _profile_graph
from .rng import substream


@dataclass
class DecodeResult:
    """Decoded scores plus optional accuracy metrics against known trust."""

    rho: np.ndarray
    inversions: int | None = None
    linf_error: float | None = None


def decode(
    profile: np.ndarray, config: Config | None = None, trust: np.ndarray | None = None
) -> DecodeResult:
    """Recover server scores from a strategy profile.

    When the true trust vector is supplied the result also carries ranking
    inversions and the sup-norm error against normalized trust.
    """
    return decode_graph(_profile_graph(profile), config, trust)


def decode_graph(
    graph: RepGraph, config: Config | None = None, trust: np.ndarray | None = None
) -> DecodeResult:
    """decode() for a graph that is already built, such as one read by load()."""
    rho = reputation_scores(graph, config or Config())
    inversions = None
    linf = None
    if trust is not None:
        trust = np.asarray(trust, dtype=float)
        inversions = count_inversions(rho, trust)
        linf = float(np.max(np.abs(rho - f1(trust))))
    return DecodeResult(rho=rho, inversions=inversions, linf_error=linf)


def count_inversions(rho: np.ndarray, trust: np.ndarray) -> int:
    """Pairs ranked against the trust order; score ties across a strict trust
    gap count half an inversion each, rounded up in total.  Trust ties never
    count."""
    rho = np.asarray(rho, dtype=float)
    trust = np.asarray(trust, dtype=float)
    if rho.shape != trust.shape or rho.ndim != 1:
        raise ValueError("rho and trust must be vectors of equal length")
    above = trust[:, None] > trust[None, :]  # (i, j) with i strictly more trusted
    whole = int(np.count_nonzero(above & (rho[:, None] < rho[None, :])))
    halves = int(np.count_nonzero(above & (rho[:, None] == rho[None, :])))
    return whole + (halves + 1) // 2


def _check_noise_margin(trust: np.ndarray, epsilon: float) -> np.ndarray:
    trust = np.asarray(trust, dtype=float)
    if not epsilon >= 0:  # negated so NaN is rejected
        raise ValueError("epsilon must be nonnegative")
    if np.any(trust < epsilon) or np.any(trust > 1.0 - epsilon):
        raise ValueError(
            f"trust values within {epsilon} of 0 or 1 cannot take symmetric noise"
        )
    return trust


def noisy_belief_two_point(
    trust: np.ndarray, epsilon: float, rng: np.random.Generator
) -> np.ndarray:
    """Perturb each trust entry by exactly +-epsilon with equal probability."""
    trust = _check_noise_margin(trust, epsilon)
    if epsilon == 0.0:
        return trust.copy()
    signs = rng.integers(0, 2, size=trust.size) * 2 - 1
    return trust + signs * epsilon


def noisy_belief_gaussian(
    trust: np.ndarray, epsilon: float, rng: np.random.Generator
) -> np.ndarray:
    """Perturb each trust entry by centered Gaussian noise truncated to +-epsilon.

    The standard deviation is epsilon / 2 and draws beyond two standard
    deviations are rejected, so the perturbation never exceeds epsilon.
    """
    trust = _check_noise_margin(trust, epsilon)
    if epsilon == 0.0:
        return trust.copy()
    sigma = epsilon / 2.0
    noise = rng.normal(0.0, sigma, size=trust.size)
    while True:
        outside = np.abs(noise) > 2.0 * sigma
        if not outside.any():
            break
        noise[outside] = rng.normal(0.0, sigma, size=int(outside.sum()))
    return trust + noise


def f2_check(
    trust: np.ndarray,
    epsilon: float,
    p: float,
    delta: float,
    trials: int,
    config: Config | None = None,
    rng: np.random.Generator | None = None,
    generator=noisy_belief_two_point,
    n: int = 6,
) -> dict:
    """Empirical decodability of normalized trust under noisy common beliefs.

    For each trial a noisy belief is drawn, all players endorse its
    normalization, and the decoded scores are compared against normalized
    trust in sup norm.  A trial succeeds if the error stays below the
    threshold (epsilon + delta * max N(R)) / (||R||_1 - delta), which holds
    whenever the belief is epsilon-accurate and its total mass drifted less
    than delta.  The success probability is bounded below by 1 - m p - q with
    q = exp(-delta^2 / (4 epsilon^2 m)).
    """
    cfg = config or Config()
    trust = np.asarray(trust, dtype=float)
    m = trust.size
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    total = trust.sum()
    if not 0 < delta < total:
        raise ValueError(f"delta must lie strictly between 0 and ||trust||_1 = {total}")
    nr = f1(trust)
    threshold = (epsilon + delta * nr.max()) / (total - delta)
    q = math.exp(-(delta**2) / (4.0 * epsilon**2 * m)) if epsilon > 0 else 0.0
    bound = max(0.0, 1.0 - m * p - q)
    rng = rng or substream(0, "f2")
    errors = np.empty(trials)
    for t in range(trials):
        belief = generator(trust, epsilon, rng)
        scenario = GameScenario(kind="noisy", trust=trust, n=n, belief=belief, epsilon=epsilon)
        rho = decode(truth_telling_profile(scenario), cfg).rho
        errors[t] = np.max(np.abs(rho - nr))
    successes = int(np.count_nonzero(errors <= threshold))
    return {
        "empirical_prob": successes / trials,
        "bound": bound,
        "q": q,
        "threshold": threshold,
    }


def hoeffding_check(
    trust: np.ndarray,
    epsilon: float,
    delta: float,
    trials: int,
    rng: np.random.Generator | None = None,
    generator=noisy_belief_two_point,
) -> dict:
    """Empirical tail of the belief-mass drift against its Hoeffding bound.

    Measures how often |  ||R'||_1 - ||R||_1  | reaches delta; the bound is
    q = exp(-delta^2 / (4 epsilon^2 m)).
    """
    trust = np.asarray(trust, dtype=float)
    m = trust.size
    if trials < 1:
        raise ValueError("need at least one trial")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    q = math.exp(-(delta**2) / (4.0 * epsilon**2 * m)) if epsilon > 0 else 0.0
    rng = rng or substream(0, "hoeffding")
    total = trust.sum()
    hits = 0
    for _ in range(trials):
        belief = generator(trust, epsilon, rng)
        if abs(belief.sum() - total) >= delta:
            hits += 1
    return {"empirical_prob": hits / trials, "q": q}
