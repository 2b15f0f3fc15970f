"""Endorsement graphs, solver configuration, and the on-disk scenario format.

An endorsement graph has n users and m servers.  Each user i owns a row of
m + n nonnegative weights summing to one: the first m columns endorse servers,
the remaining n columns endorse users.  Servers own no edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-12       # row sums within this of 1 are accepted verbatim
ROW_SUM_RENORM = 1e-9     # drift below this is renormalized, above is rejected
_EPS = float(np.finfo(float).eps)


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


class RepGraph:
    """An endorsement graph, optionally annotated with server trust levels.

    The graph is stored as an edge list: `rows` (users), `cols` (targets,
    servers first) and `weights`, 0-based, sorted by row then column, with
    zero weights dropped.  `edges` is the dense n x (m + n) matrix, built on
    first access unless the graph was built from it.  All arrays are
    read-only, and a graph is not changed after construction, so it is
    validated once.  Construction never validates; call validate() to collect
    violations.
    """

    __slots__ = ("n", "m", "rows", "cols", "weights", "trust", "_valid", "_dense")

    def __init__(self, n: int, m: int, edges: np.ndarray, trust: np.ndarray | None = None):
        dense = np.array(edges, dtype=float)  # kept as the dense view
        if dense.shape != (n, m + n):
            raise ValueError(f"edge matrix shape {dense.shape} does not match n={n}, m={m}")
        rows, cols = dense.nonzero()
        self._fill(n, m, rows, cols, dense[rows, cols], trust, dense)

    @classmethod
    def from_coo(cls, n, m, rows, cols, weights, trust=None) -> RepGraph:
        """Graph from 0-based edge arrays sorted by row then column, each
        (row, column) pair at most once; zero weights are dropped."""
        keep = np.asarray(weights) != 0
        graph = cls.__new__(cls)
        rows, cols = np.asarray(rows, dtype=np.intp)[keep], np.asarray(cols, dtype=np.intp)[keep]
        graph._fill(n, m, rows, cols, np.asarray(weights, dtype=float)[keep], trust, None)
        return graph

    def _fill(self, n, m, rows, cols, weights, trust, dense) -> None:
        # rows, cols, weights and dense are fresh arrays; trust is the caller's
        if trust is not None:
            trust = np.array(trust, dtype=float)
            trust.flags.writeable = False
        if dense is not None:
            dense.flags.writeable = False
        rows.flags.writeable = cols.flags.writeable = weights.flags.writeable = False
        self.n, self.m, self.rows, self.cols, self.weights = n, m, rows, cols, weights
        self.trust, self._valid, self._dense = trust, False, dense

    @property
    def edges(self) -> np.ndarray:
        if self._dense is None:
            dense = np.zeros((self.n, self.m + self.n))
            dense[self.rows, self.cols] = self.weights
            dense.flags.writeable = False
            self._dense = dense
        return self._dense


def _dense_row(width: int, rows, cols, weights, i: int) -> tuple[np.ndarray, slice]:
    """Dense row i of a row-sorted edge list, and the slice that holds it."""
    lo, hi = np.searchsorted(rows, [i, i + 1])
    row = np.zeros(width)
    row[cols[lo:hi]] = weights[lo:hi]
    return row, slice(lo, hi)


def _slack(rows: np.ndarray) -> float:
    """How far a bincount row total may lie from the dense row sum.

    bincount adds a row's weights in turn, a dense sum adds them pairwise;
    for rows summing to less than 2 the two differ by less than this.  Rows
    this close to a tolerance are decided on the dense row sum, so every
    decision is the dense one, bit for bit.
    """
    return (np.bincount(rows).max(initial=0) + 128) * 2 * _EPS


def validate(graph: RepGraph) -> list[str]:
    """Return all invariant violations of the graph (empty list when valid).

    O(n + nnz): rows are screened with bincount sums; flagged rows with
    edges are built densely, for their messages.
    """
    violations: list[str] = []
    n, m = graph.n, graph.m
    if n < 2:
        violations.append(f"n must be at least 2, got {n}")
    if m < 1:
        violations.append(f"m must be at least 1, got {m}")
    rows, weights = graph.rows, graph.weights
    accept = np.abs(np.bincount(rows, weights, minlength=n) - 1.0) <= ROW_SUM_TOL - _slack(rows)
    if np.any(weights < 0):
        accept &= np.bincount(rows, weights < 0, minlength=n) == 0
    edgeless = np.bincount(rows, minlength=n) == 0
    for i in np.flatnonzero(~accept):  # NaN totals are not accepted either
        if edgeless[i]:  # stored weights are nonzero, so only an edgeless row is all zeros
            violations.append(f"row {i + 1} is all zeros: every user must endorse someone")
            continue
        row = _dense_row(m + n, rows, graph.cols, weights, i)[0]
        total = row.sum()
        if np.any(row < 0):
            j = int(np.argmin(row))
            violations.append(f"row {i + 1} column {j + 1}: negative weight {row[j]:.12g}")
        elif not abs(total - 1.0) <= ROW_SUM_TOL:
            violations.append(f"row {i + 1} sums to {total:.12g}, expected 1")
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
    """Raise ValueError on any violation; a graph is checked once."""
    if graph._valid:
        return
    violations = validate(graph)
    if violations:
        raise ValueError("; ".join(violations))
    graph._valid = True


def _profile_graph(profile: np.ndarray) -> RepGraph:
    """The endorsement graph induced by a strategy profile.

    Row i of the profile is user i's mixed strategy over the m + n actions;
    action j < m endorses server j, action m + t endorses user t.  So the
    shape fixes the graph: n is the row count, m the column count less n.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 2:
        raise ValueError("profile must be a matrix")
    n = profile.shape[0]
    m = profile.shape[1] - n
    if m < 1:
        raise ValueError(f"profile shape {profile.shape} leaves no server columns")
    return RepGraph(n=n, m=m, edges=profile)


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
    No dense matrix is built: the edge lines go straight to the edge list.
    """
    text = Path(path).read_text(encoding="utf-8")
    n, m, alpha, trust, rows, cols, weights = _parse_bulk(text) or _parse_lines(text)
    drift, slack = np.abs(np.bincount(rows, weights, minlength=n) - 1.0), _slack(rows)
    for i in np.flatnonzero((drift > ROW_SUM_TOL - slack) & (drift < ROW_SUM_RENORM + slack)):
        row, span = _dense_row(m + n, rows, cols, weights, i)
        total = row.sum()
        if total > 0 and ROW_SUM_TOL < abs(total - 1.0) < ROW_SUM_RENORM:
            weights[span] /= total
    graph = RepGraph.from_coo(n, m, rows, cols, weights, trust)
    _require_valid(graph)
    return graph, Config(alpha=alpha)


def _parse_bulk(text: str) -> tuple | None:
    """_parse_lines for a file whose edge lines are all valid, or None.

    The declarations go through the line loop on their own; the edge lines
    are split as one text and converted in bulk with the same int and float
    builtins.  Any failed check returns None, so that the line loop parses
    the whole file again and reports the first error at its line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    is_edge = [line.lstrip().startswith("edge") for line in lines]
    count = sum(is_edge)
    first = is_edge.index(True) if count else len(lines)
    try:
        n, m, alpha, trust, *_ = _parse_lines("\n".join(l for l, e in zip(lines, is_edge) if not e))
    except ParseError:
        return None
    declared = {line.split()[0] for line in lines[:first] if line.strip()}
    if not {"users", "servers"} <= declared or n * (m + n) >= 2**62:  # 2**62: keys overflow
        return None
    tokens = "\n".join(l for l, e in zip(lines, is_edge) if e).split()
    # The k edge lines give 4k tokens.  Were one of another length, the first
    # token of a later line, which starts with "edge", would fall into a
    # number field, where int or float rejects it.
    if len(tokens) != 4 * count or tokens[::4] != ["edge"] * count:
        return None
    try:
        rows = np.fromiter(map(int, tokens[1::4]), np.intp, count) - 1
        cols = np.fromiter(map(int, tokens[2::4]), np.intp, count) - 1
        weights = np.fromiter(map(float, tokens[3::4]), float, count)
    except (ValueError, OverflowError):
        return None
    keys = rows * (m + n) + cols
    order = np.argsort(keys)
    keys = keys[order]
    in_range = not count or (rows.min() >= 0 and rows.max() < n and cols.min() >= 0 and cols.max() < m + n)
    if not in_range or np.any(weights < 0) or np.any(keys[1:] == keys[:-1]):
        return None
    return n, m, alpha, trust, rows[order], cols[order], weights[order]


def _parse_lines(text: str) -> tuple:
    """n, m, alpha, trust and the row-sorted edge list of a scenario file.

    Parses line by line; every grammar violation raises ParseError with its
    line number.
    """
    n = m = None
    alpha: float | None = None
    trust: np.ndarray | None = None
    entries: dict[tuple[int, int], float] = {}
    declared: set[str] = set()
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
        if key in ("users", "servers", "alpha", "trust"):
            if key in declared:
                raise ParseError(f"repeated {key} declaration", lineno)
            declared.add(key)
        if key in ("users", "servers"):
            if len(args) != 1:
                raise ParseError(f"{key} takes exactly one value", lineno)
            count = _parse_int(args[0], key, lineno)
            if count < 0:
                raise ParseError(f"{key} must be nonnegative, got {count}", lineno)
            if key == "users":
                n = count
            else:
                m = count
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
    keys = sorted(entries)
    rows = np.array([i for i, _ in keys], dtype=np.intp) - 1
    cols = np.array([j for _, j in keys], dtype=np.intp) - 1
    return n, m, alpha, trust, rows, cols, np.array([entries[k] for k in keys], dtype=float)


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
    for i, j, w in zip(graph.rows.tolist(), graph.cols.tolist(), graph.weights.tolist()):
        lines.append(f"edge {i + 1} {j + 1} {_fmt(w)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
