"""Committee-based bootstrapping of a reputation system from scratch.

Servers are probed in small committees over repeated rounds.  Nature decides
up front which servers are honest (each with its trust probability); a
corrupted server behaves correctly until its fault round and misbehaves from
then on, in every iteration.  A violation exposes the lexicographically first
faulty committee member, which is excluded, and the whole schedule restarts
with the survivors.  The schedule is long enough that every corrupted active
server is observed at or after its fault round, so the surviving set equals
the honest set exactly.  The final committee comes from the scores of the
fixed endorsement profile, so it is picked once, not per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import realized_utilities, sample_nature
from .repgraph import Config


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
class RoundEvent:
    """One probing round: committee polled and the faulty member it exposed.

    A culprit is the fault seen, the server detected and the cause of a
    restart all at once; None means the round passed cleanly.
    """

    round: int
    committee: tuple[int, ...]
    culprit: int | None


@dataclass(frozen=True)
class BootstrapTrace:
    """Complete record of one bootstrapping run."""

    events: list[RoundEvent]
    restarts: int
    detected: tuple[int, ...]
    honest: np.ndarray
    final_outcome: np.ndarray


def run_bootstrap(
    trust: np.ndarray, bcfg: BootstrapConfig, rng: np.random.Generator
) -> BootstrapTrace:
    """Probe servers in committees until a full schedule passes cleanly."""
    m = np.asarray(trust).size
    if m < 2:
        raise ValueError(f"need at least 2 servers, got {m}")
    if bcfg.committee_size > m:
        raise ValueError(f"committee size {bcfg.committee_size} exceeds server count {m}")
    honest = sample_nature(trust, rng)
    fault_round = rng.integers(1, bcfg.lam + 1, size=m)
    excluded: set[int] = set()
    events: list[RoundEvent] = []
    restarts = 0
    for _ in range(m + 1):
        active = [j for j in range(m) if j not in excluded]
        if not active:
            break
        blocks = math.ceil(len(active) / bcfg.committee_size)
        violated = False
        for t in range(1, bcfg.lam + blocks):
            start = ((t - 1) % blocks) * bcfg.committee_size
            committee = tuple(active[start : start + bcfg.committee_size])
            faulty = [j for j in committee if honest[j] == 0 and fault_round[j] <= t]
            culprit = min(faulty) if faulty else None
            events.append(RoundEvent(round=t, committee=committee, culprit=culprit))
            if culprit is not None:
                excluded.add(culprit)
                restarts += 1
                violated = True
                break
        if not violated:
            break
    else:
        raise RuntimeError("bootstrap exceeded its restart budget; this is a bug")
    outcome = np.array([0 if j in excluded else int(honest[j]) for j in range(m)])
    return BootstrapTrace(events, restarts, tuple(sorted(excluded)), honest, outcome)


def distribute_rewards(
    trace: BootstrapTrace, profile: np.ndarray, config: Config
) -> np.ndarray:
    """Pay every user its contribution share of the surviving servers' pots."""
    return realized_utilities(profile, trace.final_outcome, config)


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
    """Render the round-by-round event log, one line per probing round."""
    lines = []
    for event in trace.events:
        committee = ",".join(str(j + 1) for j in event.committee)
        if event.culprit is None:
            outcome = "fault none detect none restart false"
        else:
            culprit = event.culprit + 1
            outcome = f"fault {culprit} detect {culprit} restart true"
        lines.append(f"round {event.round} committee {committee} {outcome}")
    return "\n".join(lines) + ("\n" if lines else "")
