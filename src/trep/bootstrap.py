"""Committee-based bootstrapping of a reputation system from scratch.

Servers are probed in small committees over repeated rounds.  Nature decides
up front which servers are honest (each with its trust probability); a
corrupted server behaves correctly until its fault round and misbehaves from
then on, in every iteration.  A violation exposes the lexicographically first
faulty committee member, which is excluded, and the whole schedule restarts
with the survivors.  The schedule is long enough that every corrupted active
server is observed at or after its fault round, so the surviving set equals
the honest set exactly.  Each pass is computed in closed form, not stepped
round by round (see `run_bootstrap`).  The final committee comes from the
scores of the fixed endorsement profile, so it is picked once, not per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import _check_trust, _draw_nature


@dataclass(frozen=True)
class BootstrapConfig:
    """Schedule parameters: rounds per pass and probing committee size."""

    lam: int
    committee_size: int

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError(f"lam must be at least 1, got {self.lam}")
        if self.committee_size < 1:
            raise ValueError(f"committee size must be at least 1, got {self.committee_size}")


@dataclass(frozen=True)
class BootstrapTrace:
    """Complete record of one bootstrapping run.

    Each schedule pass is kept as (active servers, rounds run, culprit), the
    culprit None on the final clean pass; `rounds` is their total.  Every
    corrupted server is detected, so `honest`, nature's draw, is also the
    set of surviving servers: their pots are the ones paid out, as
    realized_utilities(profile, trace.honest, config).
    """

    passes: tuple[tuple[tuple[int, ...], int, int | None], ...]
    committee_size: int
    rounds: int
    detected: tuple[int, ...]
    honest: np.ndarray

    @property
    def restarts(self) -> int:
        return len(self.detected)


def run_bootstrap(
    trust: np.ndarray, bcfg: BootstrapConfig, rng: np.random.Generator
) -> BootstrapTrace:
    """Probe servers in committees until a full schedule passes cleanly.

    Checks the trust vector against the schedule, then runs the kernel
    `_run_bootstrap`; the CLI makes the check once per command and runs the
    kernel for every trial.

    Each pass is found in closed form, in one scan of its active servers A
    (ascending) with c = committee size and B = ceil(|A|/c) blocks.  Round t
    probes block (t-1) mod B, so the server at position p of A is probed at
    every round t = p//c + 1 (mod B), and a corrupted server j with fault
    round f_j first misbehaves under probe at
    t_j = f_j + ((p_j//c + 1 - f_j) mod B) <= lam + B - 1.  The pass ends at
    T = min t_j, exposing the smallest j with t_j = T (the lexicographically
    first faulty member of round T's committee); with no corrupted active
    server it runs clean for lam + B - 1 rounds.
    """
    return _run_bootstrap(_check_bootstrap(trust, bcfg), bcfg, rng)


def _check_bootstrap(trust: np.ndarray, bcfg: BootstrapConfig) -> np.ndarray:
    """Trust as float ratings, checked: at least 2 servers, a committee no
    larger than their count, and values `_check_trust` accepts."""
    m = np.asarray(trust).size
    if m < 2:
        raise ValueError(f"need at least 2 servers, got {m}")
    size = bcfg.committee_size
    if size > m:
        raise ValueError(f"committee size {size} exceeds server count {m}")
    return _check_trust(trust)


def _run_bootstrap(
    ratings: np.ndarray, bcfg: BootstrapConfig, rng: np.random.Generator
) -> BootstrapTrace:
    """`run_bootstrap` on ratings that `_check_bootstrap` returned."""
    m = ratings.size
    size = bcfg.committee_size
    honest = _draw_nature(ratings, rng)
    fault_round = rng.integers(1, bcfg.lam + 1, size=m).tolist()
    good = honest.tolist()
    active = list(range(m))
    passes = []
    detected = []
    rounds = 0
    while active:
        blocks = math.ceil(len(active) / size)
        end, culprit = bcfg.lam + blocks - 1, None  # a clean pass's length
        for p, j in enumerate(active):
            if not good[j]:
                f = fault_round[j]
                t = f + (p // size + 1 - f) % blocks  # never past a clean pass
                if culprit is None or t < end:
                    end, culprit = t, j
        passes.append((tuple(active), end, culprit))
        rounds += end
        if culprit is None:
            break
        active.remove(culprit)
        detected.append(culprit)
    return BootstrapTrace(tuple(passes), size, rounds, tuple(sorted(detected)), honest)


def select_committee(rho: np.ndarray, ell: int, fraction: float) -> list[int]:
    """Top servers by score: sort descending (ties by index), keep ceil(fraction * ell).

    A product within 1e-9 above an integer counts as that integer, so float
    rounding (0.28 * 25 = 7.000000000000001) does not add a member.
    """
    rho = np.asarray(rho, dtype=float)
    m = rho.size
    if not 1 <= ell <= m:
        raise ValueError(f"ell must lie in 1..{m}, got {ell}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    size = max(1, math.ceil(fraction * ell - 1e-9))
    order = sorted(range(m), key=lambda j: (-rho[j], j))
    return order[:size]


def honest_majority_check(committee, honest) -> tuple[bool, int]:
    """Whether honest members form a strict majority, and by what margin."""
    honest = np.asarray(honest)
    members = list(committee)
    if not members:
        raise ValueError("committee is empty")
    good = int(sum(int(honest[j]) for j in members))
    bad = len(members) - good
    return good > len(members) / 2, good - bad


def trace_event_log(trace: BootstrapTrace) -> str:
    """Render the event log, one line per probing round: round t of a pass
    probes block (t-1) mod B of its active servers, and only its last round
    can expose a culprit."""
    size = trace.committee_size
    lines = []
    for active, rounds, culprit in trace.passes:
        blocks = math.ceil(len(active) / size)
        for t in range(1, rounds + 1):
            start = ((t - 1) % blocks) * size
            committee = ",".join(str(j + 1) for j in active[start : start + size])
            outcome = "fault none detect none restart false"
            if t == rounds and culprit is not None:
                outcome = f"fault {culprit + 1} detect {culprit + 1} restart true"
            lines.append(f"round {t} committee {committee} {outcome}")
    return "\n".join(lines) + ("\n" if lines else "")
