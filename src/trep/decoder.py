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

from .equilibrium import truth_telling_profile
from .game import _check_trust, f1
from .pagerank import reputation_scores
from .repgraph import Config, RepGraph, _profile_graph
from .rng import substream


@dataclass(frozen=True)
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
    block = max(1, 2**20 // max(rho.size, 1))  # rows per block: memory stays near a megabyte
    whole = halves = 0
    for start in range(0, rho.size, block):
        rows = slice(start, start + block)
        above = trust[rows, None] > trust[None, :]  # (i, j) with i strictly more trusted
        whole += int(np.count_nonzero(above & (rho[rows, None] < rho[None, :])))
        halves += int(np.count_nonzero(above & (rho[rows, None] == rho[None, :])))
    return whole + (halves + 1) // 2


def _check_noise_margin(trust: np.ndarray, epsilon: float) -> np.ndarray:
    trust = np.asarray(trust, dtype=float)
    if trust.ndim != 1 or trust.size == 0:
        raise ValueError("trust must be a nonempty vector")
    if not epsilon >= 0:  # negated so NaN is rejected
        raise ValueError("epsilon must be nonnegative")
    # min() and max() are NaN for a NaN entry, which fails both comparisons
    if not (trust.min() >= epsilon and trust.max() <= 1.0 - epsilon):
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


@dataclass(frozen=True)
class F2Report:
    """Outcome of f2_check: how often the decoded scores stayed within the
    threshold of normalized trust, against its lower bound, and how often the
    belief mass drifted by delta or more, against its Hoeffding bound q."""

    empirical_prob: float
    bound: float
    drift_prob: float
    q: float
    threshold: float


def _check_p(p: float) -> None:
    """Reject a per-entry failure probability outside [0, 1], NaN included."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


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
) -> F2Report:
    """Empirical decodability of normalized trust under noisy common beliefs.

    For each trial a noisy belief is drawn, all players endorse its
    normalization, and the decoded scores are compared against normalized
    trust in sup norm.  A trial succeeds if the error stays below the
    threshold (epsilon + delta * max N(R)) / (||R||_1 - delta), which holds
    whenever the belief is epsilon-accurate and its total mass drifted less
    than delta.  The success probability is bounded below by 1 - m p - q,
    where q = exp(-delta^2 / (4 epsilon^2 m)) bounds the probability that
    | ||R'||_1 - ||R||_1 | reaches delta (Hoeffding, 1963); the same beliefs
    measure that drift too.
    """
    cfg = config or Config()
    trust = _check_trust(trust)
    m = trust.size
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_p(p)
    total = trust.sum()
    if not 0 < delta < total:
        raise ValueError(f"delta must lie strictly between 0 and ||trust||_1 = {total}")
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    nr = f1(trust)
    threshold = (epsilon + delta * nr.max()) / (total - delta)
    q = math.exp(-(delta**2) / (4.0 * epsilon**2 * m)) if epsilon > 0 else 0.0
    bound = max(0.0, 1.0 - m * p - q)
    rng = rng or substream(0, "f2")
    beliefs, scores = [], []
    for _ in range(trials):
        belief = generator(trust, epsilon, rng)
        beliefs.append(belief)
        scores.append(decode(truth_telling_profile(belief, n), cfg).rho)
    masses = np.add.reduce(beliefs, axis=1)  # row by row, the bits of each belief.sum()
    errors = np.abs(np.array(scores) - nr).max(axis=1)
    successes = int(np.count_nonzero(errors <= threshold))
    drifts = int(np.count_nonzero(np.abs(masses - total) >= delta))
    return F2Report(successes / trials, bound, drifts / trials, q, threshold)
