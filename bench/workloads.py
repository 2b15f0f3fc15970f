"""The four benchmark workloads: input generation and output checks.

Every workload is a closed loop over CLI commands. Commands come in blocks;
a block holds one command per stratum of the workload (a grid cell, an
(n, k) pair, a graph size), so every block does the same mix of work and
the run-to-run spread comes from the program, not from the draw of inputs.
Each command gets fresh inputs drawn from the workload seed, so nothing
repeats across commands: a cache that outlives one command would see no
hits that a user running the CLI would not see too.

Inputs are written as scenario files; the program receives nothing else.
Checks read the command's stdout and output files and return a list of
error messages, empty when the output is correct. They compare numbers with
tolerances, never bytes, so a solver that changes the last printed digits
still passes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ALPHA = 0.15
LINE_FMT = "%.17g"


@dataclass
class Command:
    """One CLI invocation with its expected-output check.

    argv excludes --out; the runner adds it. check(stdout, files) gets the
    text of each output file named in Workload.outputs (None when missing).
    stratum names the size class of the command, for per-size notes.
    """

    argv: list[str]
    trials: int
    check: Callable[[str, dict], list[str]]
    stratum: str = ""


def stream(seed: int, *path: str | int) -> np.random.Generator:
    """Independent generator for the benchmark's own draws."""
    keys = [seed] + [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(keys))


def scenario_text(n: int, m: int, trust: np.ndarray, edges) -> str:
    """Render a trep v1 scenario; edges yields (user, target, weight), 1-based."""
    lines = [
        "trep v1",
        f"users {n}",
        f"servers {m}",
        f"alpha {ALPHA}",
        "trust " + " ".join(LINE_FMT % t for t in trust),
    ]
    lines.extend(f"edge {i} {j} {LINE_FMT % w}" for i, j, w in edges)
    return "\n".join(lines) + "\n"


def proportional_edges(n: int, trust: np.ndarray):
    """Every user endorses servers proportionally to trust: the equilibrium."""
    row = trust / trust.sum()
    return [(i + 1, j + 1, w) for i in range(n) for j, w in enumerate(row)]


def _csv_rows(text: str | None, header: str) -> list[list[str]] | None:
    if text is None:
        return None
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        return None
    return [ln.split(",") for ln in lines[1:]]


# ------------------------------------------------------------------ noisy-f2

NOISY_SERVERS = (5, 10, 20)
NOISY_EPSILONS = (0.01, 0.02)
NOISY_DELTA = 0.05
NOISY_PLAYERS = 6
# 30 trials keep the worst cell (m=20, eps=0.02: success rate about 0.49
# against a bound of 0.075) from failing the f2 check by chance: P < 1e-6.
NOISY_TRIALS = 30


def check_noisy(stdout: str, files: dict, trials: int) -> list[str]:
    errors = []
    rows = _csv_rows(files.get("noisy.csv"), "epsilon,epsilon_prime,bound")
    if rows is None or len(rows) != trials:
        errors.append(f"noisy.csv: expected {trials} rows under the header")
    else:
        for eps, gain, bound in ((float(v) for v in row) for row in rows):
            if not gain <= bound:
                errors.append(f"noisy.csv: epsilon_prime {gain!r} exceeds bound {bound!r}")
    rows = _csv_rows(files.get("f2.csv"), "epsilon,empirical_prob,bound,q,threshold")
    if rows is None or len(rows) != 1:
        errors.append("f2.csv: expected one row under the header")
    else:
        prob, bound = float(rows[0][1]), float(rows[0][2])
        if not prob >= bound:
            errors.append(f"f2.csv: empirical_prob {prob!r} below bound {bound!r}")
    return errors


class NoisyF2:
    """`trep noisy --n 6 --epsilon e --delta 0.05` over the criterion 8 grid."""

    name = "noisy-f2"
    outputs = ("noisy.csv", "f2.csv")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def block(self, tag: str, index: int) -> list[Command]:
        rng = stream(self.seed, self.name, tag, index)
        cells = [(m, eps) for m in NOISY_SERVERS for eps in NOISY_EPSILONS]
        commands = []
        for cell in rng.permutation(len(cells)):
            m, eps = cells[cell]
            trust = rng.uniform(0.1, 0.9, size=m)
            path = self.workdir / f"noisy-{tag}-{index}-{cell}.trep"
            path.write_text(scenario_text(NOISY_PLAYERS, m, trust, proportional_edges(NOISY_PLAYERS, trust)))
            argv = [
                "noisy", str(path), "--n", str(NOISY_PLAYERS), "--epsilon", repr(eps),
                "--delta", repr(NOISY_DELTA), "--trials", str(NOISY_TRIALS),
                "--seed", str(int(rng.integers(2**31))),
            ]
            commands.append(Command(
                argv, NOISY_TRIALS, lambda out, files: check_noisy(out, files, NOISY_TRIALS), f"m={m}"
            ))
        return commands

    def warmup(self) -> list[Command]:
        return self.block("warm", 0)

    def finish(self) -> list[str]:
        return []


# ----------------------------------------------------------------- hierarchy

HIERARCHY_PLAYERS = (5, 6, 7, 8)
HIERARCHY_SERVERS = 5
# Two newcomer draws per command, so that max_rho_drift compares the scores
# under two different newcomer weightings; with one draw it is always 0.
HIERARCHY_DRAWS = 2
GAIN_TOL = 1e-8    # criterion 6
DRIFT_TOL = 1e-9   # criterion 6


def check_hierarchy(stdout: str, files: dict, draws: int) -> list[str]:
    errors = []
    summary = [ln.split() for ln in stdout.splitlines() if ln.startswith("hierarchy ")]
    if len(summary) != 1 or len(summary[0]) != 7:
        errors.append("stdout: expected one 'hierarchy ... max_gain G max_rho_drift D' line")
    else:
        gain, drift = float(summary[0][4]), float(summary[0][6])
        if not gain <= GAIN_TOL:
            errors.append(f"stdout: max_gain {gain!r} above {GAIN_TOL}")
        if not drift <= DRIFT_TOL:
            errors.append(f"stdout: max_rho_drift {drift!r} above {DRIFT_TOL}")
    rows = _csv_rows(files.get("nash.csv"), "draw,max_gain,rho_drift")
    if rows is None or len(rows) != draws:
        errors.append(f"nash.csv: expected {draws} rows under the header")
    else:
        for draw, gain, drift in rows:
            if not float(gain) <= GAIN_TOL or not float(drift) <= DRIFT_TOL:
                errors.append(f"nash.csv: draw {draw} gain {gain} drift {drift} out of tolerance")
    return errors


class Hierarchy:
    """`trep nash --n N --k K`: newcomers endorse established users."""

    name = "hierarchy"
    outputs = ("nash.csv",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def _command(self, rng, tag: str, index: int, n: int, k: int) -> Command:
        trust = rng.uniform(0.1, 0.9, size=HIERARCHY_SERVERS)
        path = self.workdir / f"hier-{tag}-{index}-{n}-{k}.trep"
        path.write_text(scenario_text(n, HIERARCHY_SERVERS, trust, proportional_edges(n, trust)))
        argv = [
            "nash", str(path), "--n", str(n), "--k", str(k), "--trials", str(HIERARCHY_DRAWS),
            "--seed", str(int(rng.integers(2**31))),
        ]
        return Command(
            argv, HIERARCHY_DRAWS, lambda out, files: check_hierarchy(out, files, HIERARCHY_DRAWS), f"n={n}"
        )

    def block(self, tag: str, index: int) -> list[Command]:
        # Every (n, k) pair once, in seed-drawn order: the cost of a command
        # grows with k, so a block of random pairs would make p50 jump
        # between k-clusters from one seed to the next.
        rng = stream(self.seed, self.name, tag, index)
        pairs = [(n, k) for n in HIERARCHY_PLAYERS for k in range(1, n)]
        return [self._command(rng, tag, index, *pairs[p]) for p in rng.permutation(len(pairs))]

    def warmup(self) -> list[Command]:
        rng = stream(self.seed, self.name, "warm", 0)
        return [self._command(rng, "warm", 0, n, 2) for n in HIERARCHY_PLAYERS]

    def finish(self) -> list[str]:
        return []


# ----------------------------------------------------------------- bootstrap

# Three m=5 commands to two m=10 ones per block, so that p50 falls inside one
# size's cluster of command times rather than on the gap between two.
BOOT_BLOCK = (5, 5, 5, 10, 10)
BOOT_PLAYERS = 6
BOOT_TRIALS = 10
DETECTION_SIGMAS = 4.0


def check_bootstrap(stdout: str, files: dict, trials: int, m: int) -> tuple[list[str], np.ndarray]:
    """Row checks; also returns the per-trial detection indicators (trials x m)."""
    errors = []
    detected = np.zeros((trials, m))
    rows = _csv_rows(files.get("bootstrap.csv"), "trial,restarts,rounds,detected,majority,margin")
    if rows is None or len(rows) != trials:
        return [f"bootstrap.csv: expected {trials} rows under the header"], detected
    for row in rows:
        trial, restarts, servers = int(row[0]), int(row[1]), row[3]
        found = [] if servers == "none" else [int(s) - 1 for s in servers.split(";")]
        if restarts != len(found):
            errors.append(f"bootstrap.csv: trial {trial} has {restarts} restarts, {len(found)} detected")
        if any(not 0 <= j < m for j in found):
            errors.append(f"bootstrap.csv: trial {trial} detects an unknown server")
            continue
        detected[trial, found] = 1.0
    if files.get("bootstrap.log") is None:
        errors.append("bootstrap.log: missing")
    return errors, detected


@dataclass
class DetectionTally:
    """Pooled detections per server slot, against the 1 - trust expectation.

    A corrupted server is always detected, so each trial detects server j
    with probability 1 - trust_j. Slots are pooled over commands of one
    server count, each command with its own trust vector.
    """

    detected: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    variance: dict = field(default_factory=dict)

    def add(self, m: int, trust: np.ndarray, indicators: np.ndarray) -> None:
        if m not in self.detected:
            self.detected[m] = np.zeros(m)
            self.expected[m] = np.zeros(m)
            self.variance[m] = np.zeros(m)
        trials = indicators.shape[0]
        self.detected[m] += indicators.sum(axis=0)
        self.expected[m] += trials * (1.0 - trust)
        self.variance[m] += trials * trust * (1.0 - trust)

    def errors(self, sigmas: float = DETECTION_SIGMAS) -> list[str]:
        errors = []
        for m in sorted(self.detected):
            gap = np.abs(self.detected[m] - self.expected[m])
            limit = sigmas * np.sqrt(self.variance[m])
            for j in np.nonzero(gap > limit)[0]:
                errors.append(
                    f"bootstrap m={m} server {j + 1}: {self.detected[m][j]:.0f} detections, "
                    f"expected {self.expected[m][j]:.1f} +- {limit[j]:.1f}"
                )
        return errors


class Bootstrap:
    """`trep bootstrap --trials 10 --lambda 8 --committee 2` on n=6 scenarios."""

    name = "bootstrap"
    outputs = ("bootstrap.csv", "bootstrap.log")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tally = DetectionTally()

    def prepare(self) -> None:
        pass

    def _command(self, rng, tag: str, index: int, slot: int, m: int, pooled: bool) -> Command:
        trust = rng.uniform(0.2, 0.9, size=m)
        path = self.workdir / f"boot-{tag}-{index}-{slot}.trep"
        path.write_text(scenario_text(BOOT_PLAYERS, m, trust, proportional_edges(BOOT_PLAYERS, trust)))
        argv = [
            "bootstrap", str(path), "--trials", str(BOOT_TRIALS), "--lambda", "8",
            "--committee", "2", "--seed", str(int(rng.integers(2**31))),
        ]

        def check(out: str, files: dict) -> list[str]:
            errors, indicators = check_bootstrap(out, files, BOOT_TRIALS, m)
            if pooled and not errors:
                self.tally.add(m, trust, indicators)
            return errors

        return Command(argv, BOOT_TRIALS, check, f"m={m}")

    def block(self, tag: str, index: int) -> list[Command]:
        rng = stream(self.seed, self.name, tag, index)
        return [
            self._command(rng, tag, index, slot, BOOT_BLOCK[slot], pooled=tag != "warm")
            for slot in rng.permutation(len(BOOT_BLOCK))
        ]

    def warmup(self) -> list[Command]:
        rng = stream(self.seed, self.name, "warm", 0)
        return [self._command(rng, "warm", 0, i, m, pooled=False) for i, m in enumerate(sorted(set(BOOT_BLOCK)))]

    def finish(self) -> list[str]:
        return self.tally.errors()


# -------------------------------------------------------------- decode-large

# One n=1000 graph to two n=2000 graphs, so that p50 and p90 both fall inside
# the n=2000 cluster of command times rather than on the gap below it.
LARGE_USERS = (1000, 2000, 2000)
LARGE_SERVERS = 20
LARGE_DEGREE = 10
SCORE_TOL = 1e-9


def random_graph(rng: np.random.Generator, n: int, m: int, degree: int = LARGE_DEGREE):
    """Sparse endorsement graph: each user endorses 1-4 servers and other users.

    Returns (rows, cols, weights) with 0-based targets (servers first).
    """
    degree = min(degree, m + n - 1)
    rows, cols, weights = [], [], []
    for i in range(n):
        servers = int(rng.integers(1, min(4, m) + 1))
        users = min(degree - servers, n - 1)
        targets = list(rng.choice(m, size=servers, replace=False))
        peers = rng.choice(n - 1, size=users, replace=False)
        targets += [m + (p if p < i else p + 1) for p in peers]
        rows.extend([i] * len(targets))
        cols.extend(targets)
        weights.extend(rng.dirichlet(np.ones(len(targets))))
    return np.array(rows), np.array(cols), np.array(weights)


def dense_scores(n: int, m: int, rows, cols, weights, alpha: float = ALPHA) -> np.ndarray:
    """Scores from the n x n user block by one dense solve.

    The user part of the stationary vector is proportional to x with
    (I - (1 - alpha) E_u)^T x = 1, and scores are E_s^T x normalized.
    """
    user = cols >= m
    system = np.eye(n)
    np.add.at(system, (cols[user] - m, rows[user]), -(1.0 - alpha) * weights[user])
    x = np.linalg.solve(system, np.ones(n))
    received = np.zeros(m)
    np.add.at(received, cols[~user], weights[~user] * x[rows[~user]])
    return received / received.sum()


def check_decode(stdout: str, files: dict, expected: np.ndarray) -> list[str]:
    errors = []
    printed = [ln.split()[1:] for ln in stdout.splitlines() if ln.startswith("rho ")]
    if len(printed) != 1 or len(printed[0]) != expected.size:
        errors.append(f"stdout: expected one 'rho' line with {expected.size} scores")
    else:
        gap = float(np.max(np.abs(np.array(printed[0], dtype=float) - expected)))
        if not gap <= SCORE_TOL:
            errors.append(f"stdout: scores differ from the dense solve by {gap:.3e}")
    rows = _csv_rows(files.get("decode.csv"), "server_index,rho,trust")
    if rows is None or len(rows) != expected.size:
        errors.append(f"decode.csv: expected {expected.size} rows under the header")
    else:
        gap = float(np.max(np.abs(np.array([float(r[1]) for r in rows]) - expected)))
        if not gap <= SCORE_TOL:
            errors.append(f"decode.csv: scores differ from the dense solve by {gap:.3e}")
    return errors


class DecodeLarge:
    """`trep decode` on n in {1000, 2000}, m=20 graphs, ~10 endorsements per user.

    A few base graphs are drawn per seed and solved densely once, in a
    separate interpreter (bench/child.py) so the solve does not count in this
    interpreter's peak memory. Every command scores a fresh relabelling of
    a base graph (users and servers permuted), whose scores are the
    permuted reference scores.
    """

    name = "decode-large"
    outputs = ("decode.csv",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.bases = []

    def base_graphs(self):
        rng = stream(self.seed, self.name, "graphs")
        return [(n, random_graph(rng, n, LARGE_SERVERS)) for n in LARGE_USERS]

    @property
    def reference_path(self) -> Path:
        return self.workdir / "decode-large-reference.npz"

    def write_reference(self) -> None:
        scores = [dense_scores(n, LARGE_SERVERS, *graph) for n, graph in self.base_graphs()]
        np.savez(self.reference_path, *scores)

    def prepare(self) -> None:
        with np.load(self.reference_path) as data:
            scores = [data[f"arr_{i}"] for i in range(len(LARGE_USERS))]
        for (n, (rows, cols, weights)), ref in zip(self.base_graphs(), scores):
            text = [LINE_FMT % w for w in weights]
            self.bases.append((n, rows, cols, text, ref))

    def _command(self, rng, tag: str, index: int, base: int) -> Command:
        n, rows, cols, text, ref = self.bases[base]
        m = LARGE_SERVERS
        users = rng.permutation(n)
        servers = rng.permutation(m)
        targets = np.where(cols < m, servers[np.minimum(cols, m - 1)], m + users[np.maximum(cols - m, 0)])
        trust = rng.uniform(0.1, 0.9, size=m)
        lines = [
            "trep v1", f"users {n}", f"servers {m}", f"alpha {ALPHA}",
            "trust " + " ".join(LINE_FMT % t for t in trust),
        ]
        lines.extend(
            f"edge {u} {t} {w}" for u, t, w in zip((users[rows] + 1).tolist(), (targets + 1).tolist(), text)
        )
        path = self.workdir / f"large-{tag}-{index}-{base}.trep"
        path.write_text("\n".join(lines) + "\n")
        expected = np.empty(m)
        expected[servers] = ref
        return Command(["decode", str(path)], 1, lambda out, files: check_decode(out, files, expected), f"n={n}")

    def block(self, tag: str, index: int) -> list[Command]:
        rng = stream(self.seed, self.name, tag, index)
        return [self._command(rng, tag, index, b) for b in rng.permutation(len(self.bases))]

    def warmup(self) -> list[Command]:
        # One graph of each size, the largest first. The heap then grows once
        # to what the largest command needs; a smaller command run before
        # the first large one leaves the heap in a state that raises the
        # peak memory by about 6 MB, so the peak would depend on the order
        # in which the seed puts the sizes.
        rng = stream(self.seed, self.name, "warm", 0)
        sizes = sorted(set(LARGE_USERS), reverse=True)
        return [self._command(rng, "warm", 0, LARGE_USERS.index(n)) for n in sizes]

    def finish(self) -> list[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (NoisyF2, Hierarchy, Bootstrap, DecodeLarge)}
