"""Endorsement graphs, solver configuration, and the on-disk scenario format.

An endorsement graph has n users and m servers.  Each user i owns a row of
m + n nonnegative weights summing to one: the first m columns endorse servers,
the remaining n columns endorse users.  Servers own no edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-12       # row sums within this of 1 are accepted verbatim
ROW_SUM_RENORM = 1e-9     # drift below this is renormalized, above is rejected


class ParseError(ValueError):
    """A scenario file violates the format grammar."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass(frozen=True)
class Config:
    """Numerical parameters shared by every solver.

    alpha is the restart probability of the random walk, max_iters the
    iteration budget, and tol the L1 step at which power iteration stops.
    tol bounds the last step, not the error: on the user chain, which
    contracts by 1 - alpha per step, the L1 error is bounded only by
    (1 - alpha) / alpha * tol, that is 19 * tol at alpha = 0.05.
    """

    alpha: float = 0.15
    tol: float = 1e-12
    max_iters: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly between 0 and 1, got {self.alpha}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass
class RepGraph:
    """An endorsement graph, optionally annotated with server trust levels.

    Construction never validates; call validate() to collect violations.
    """

    n: int
    m: int
    edges: np.ndarray
    trust: np.ndarray | None = None

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        if self.trust is not None:
            self.trust = np.asarray(self.trust, dtype=float)


def validate(graph: RepGraph) -> list[str]:
    """Return all invariant violations of the graph (empty list when valid)."""
    violations: list[str] = []
    n, m = graph.n, graph.m
    if n < 2:
        violations.append(f"n must be at least 2, got {n}")
    if m < 1:
        violations.append(f"m must be at least 1, got {m}")
    edges = graph.edges
    if edges.ndim != 2 or edges.shape != (n, m + n):
        violations.append(
            f"edge matrix shape {edges.shape} does not match n={n}, m={m} "
            f"(expected {(n, m + n)})"
        )
        return violations
    negative = np.any(edges < 0, axis=1)
    totals = edges.sum(axis=1)
    bad_sum = ~(np.abs(totals - 1.0) <= ROW_SUM_TOL)  # negated so NaN rows are flagged
    for i in np.flatnonzero(negative | bad_sum):
        if negative[i]:
            j = int(np.argmin(edges[i]))
            violations.append(f"row {i + 1} column {j + 1}: negative weight {edges[i, j]:.12g}")
        elif totals[i] == 0.0:
            violations.append(f"row {i + 1} is all zeros: every user must endorse someone")
        else:
            violations.append(f"row {i + 1} sums to {totals[i]:.12g}, expected 1")
    if graph.trust is not None:
        trust = graph.trust
        if trust.shape != (m,):
            violations.append(f"trust vector has shape {trust.shape}, expected ({m},)")
        else:
            for j, value in enumerate(trust, start=1):
                if not 0.0 <= value <= 1.0:
                    violations.append(f"trust[{j}] = {value:.12g} lies outside [0, 1]")
            if trust.size and not np.any(trust > 0):
                violations.append("trust has no positive entry")
    return violations


def _require_valid(graph: RepGraph) -> None:
    violations = validate(graph)
    if violations:
        raise ValueError("; ".join(violations))


def from_strategies(profile: np.ndarray, m: int, n: int) -> RepGraph:
    """Build the endorsement graph induced by a strategy profile.

    Row i of the profile is user i's mixed strategy over the m + n actions;
    action j < m endorses server j, action m + t endorses user t.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 2 or profile.shape != (n, m + n):
        raise ValueError(
            f"profile shape {profile.shape} does not match n={n}, m={m} "
            f"(expected {(n, m + n)})"
        )
    return RepGraph(n=n, m=m, edges=profile.copy())


# ---------------------------------------------------------------- file format

_FLOAT = "%.17g"


def _fmt(value: float) -> str:
    return _FLOAT % float(value)


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", lineno) from None


def _parse_float(token: str, what: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{what} must be a number, got {token!r}", lineno) from None


def load(path: str | Path) -> tuple[RepGraph, Config]:
    """Parse a scenario file; returns the graph and solver configuration.

    Grammar violations raise ParseError with the offending line number;
    structural violations (bad row sums, dangling users) raise ValueError.
    Row sums drifting from 1 by less than 1e-9 are silently renormalized.
    """
    text = Path(path).read_text(encoding="utf-8")
    n = m = None
    alpha: float | None = None
    trust: np.ndarray | None = None
    entries: dict[tuple[int, int], float] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "trep v1":
                raise ParseError(f"expected 'trep v1' header, got {line!r}", lineno)
            header_seen = True
            continue
        fields = line.split()
        key, args = fields[0], fields[1:]
        if key == "users":
            if len(args) != 1:
                raise ParseError("users takes exactly one value", lineno)
            n = _parse_int(args[0], "users", lineno)
        elif key == "servers":
            if len(args) != 1:
                raise ParseError("servers takes exactly one value", lineno)
            m = _parse_int(args[0], "servers", lineno)
        elif key == "alpha":
            if len(args) != 1:
                raise ParseError("alpha takes exactly one value", lineno)
            alpha = _parse_float(args[0], "alpha", lineno)
            if not 0.0 < alpha < 1.0:
                raise ParseError(f"alpha must lie strictly between 0 and 1, got {alpha}", lineno)
        elif key == "trust":
            if m is None:
                raise ParseError("trust must follow the servers declaration", lineno)
            if len(args) != m:
                raise ParseError(f"trust takes {m} values, got {len(args)}", lineno)
            values = [_parse_float(a, "trust", lineno) for a in args]
            for value in values:
                if not 0.0 <= value <= 1.0:
                    raise ParseError(f"trust value {value} lies outside [0, 1]", lineno)
            if not any(v > 0 for v in values):
                raise ParseError("trust has no positive entry", lineno)
            trust = np.array(values)
        elif key == "edge":
            if n is None or m is None:
                raise ParseError("edges must follow the users/servers declarations", lineno)
            if len(args) != 3:
                raise ParseError("edge takes three values: user, target, weight", lineno)
            i = _parse_int(args[0], "edge source", lineno)
            j = _parse_int(args[1], "edge target", lineno)
            w = _parse_float(args[2], "edge weight", lineno)
            if not 1 <= i <= n:
                raise ParseError(f"edge source {i} out of range 1..{n}", lineno)
            if not 1 <= j <= m + n:
                raise ParseError(f"edge target {j} out of range 1..{m + n}", lineno)
            if w < 0:
                raise ParseError(f"edge weight must be nonnegative, got {w}", lineno)
            if (i, j) in entries:
                raise ParseError(f"duplicate edge {i} -> {j}", lineno)
            entries[(i, j)] = w
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if not header_seen:
        raise ParseError("missing 'trep v1' header", 1)
    if n is None or m is None:
        raise ParseError("missing users/servers declaration")
    if alpha is None:
        raise ParseError("missing alpha declaration")
    edges = np.zeros((n, m + n))
    for (i, j), w in entries.items():
        edges[i - 1, j - 1] = w
    for i in range(n):
        total = edges[i].sum()
        if total > 0 and ROW_SUM_TOL < abs(total - 1.0) < ROW_SUM_RENORM:
            edges[i] /= total
    graph = RepGraph(n=n, m=m, edges=edges, trust=trust)
    _require_valid(graph)
    return graph, Config(alpha=alpha)


def save(graph: RepGraph, config: Config, path: str | Path) -> None:
    """Write the scenario so that load() restores it bit-for-bit."""
    _require_valid(graph)
    lines = [
        "trep v1",
        f"users {graph.n}",
        f"servers {graph.m}",
        f"alpha {_fmt(config.alpha)}",
    ]
    if graph.trust is not None:
        lines.append("trust " + " ".join(_fmt(v) for v in graph.trust))
    for i in range(graph.n):
        for j in range(graph.m + graph.n):
            w = graph.edges[i, j]
            if w != 0.0:
                lines.append(f"edge {i + 1} {j + 1} {_fmt(w)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
