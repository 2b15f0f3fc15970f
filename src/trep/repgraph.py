"""Endorsement graphs, solver configuration, and the on-disk scenario format.

An endorsement graph has n users and m servers.  Each user i owns a row of
m + n nonnegative weights summing to one: the first m columns endorse servers,
the remaining n columns endorse users.  Servers own no edges.
"""

from __future__ import annotations

import codecs
import contextlib
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-12       # row sums within this of 1 are accepted verbatim
ROW_SUM_RENORM = 1e-9     # drift below this is renormalized, above is rejected
LISTED_ROWS = 10          # bad rows a load error lists when users outnumber the edges


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

    The graph is its edge list: `rows` (users), `cols` (targets, servers
    first) and `weights`, 0-based, sorted by row then column, with zero
    weights dropped.  All arrays are read-only, and a graph is not changed
    after construction, so it is validated once.  Construction never
    validates; call validate() to collect violations.
    """

    __slots__ = ("n", "m", "rows", "cols", "weights", "trust", "_valid")

    def __init__(self, n: int, m: int, edges: np.ndarray, trust: np.ndarray | None = None):
        edges = np.asarray(edges, dtype=float)
        if edges.shape != (n, m + n):
            raise ValueError(f"edge matrix shape {edges.shape} does not match n={n}, m={m}")
        rows, cols = edges.nonzero()
        self._fill(n, m, rows, cols, edges[rows, cols], trust)

    @classmethod
    def from_coo(cls, n, m, rows, cols, weights, trust=None) -> RepGraph:
        """Graph from 0-based edge arrays sorted by row then column, each
        (row, column) pair at most once; zero weights are dropped."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        weights = np.asarray(weights, dtype=float)
        if rows.ndim != 1 or not rows.shape == cols.shape == weights.shape:
            raise ValueError("rows, cols and weights must be vectors of equal length")
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= m + n)):
            raise ValueError(f"edge index out of range for n={n}, m={m}")
        step = np.diff(rows)
        if np.any((step < 0) | ((step == 0) & (np.diff(cols) <= 0))):
            raise ValueError("edges must be sorted by row then column, each pair at most once")
        keep = weights != 0
        graph = cls.__new__(cls)
        graph._fill(n, m, rows[keep], cols[keep], weights[keep], trust)
        return graph

    def _fill(self, n, m, rows, cols, weights, trust) -> None:
        # rows, cols and weights are fresh arrays; trust is the caller's
        if trust is not None:
            trust = np.array(trust, dtype=float)
            trust.flags.writeable = False
        rows.flags.writeable = cols.flags.writeable = weights.flags.writeable = False
        self.n, self.m, self.rows, self.cols, self.weights = n, m, rows, cols, weights
        self.trust, self._valid = trust, False


def validate(graph: RepGraph) -> list[str]:
    """Return all invariant violations of the graph (empty list when valid).

    O(n + nnz).  A row's total is its weights added one at a time in column
    order, as bincount adds them over the sorted edge list.  A row with no
    negative weight is accepted when its total lies within ROW_SUM_TOL of 1;
    otherwise its message prints that total.  _row_violations words every
    row message, also those load lists when it refuses many edgeless users.
    """
    violations: list[str] = []
    n, m = graph.n, graph.m
    if n < 2:
        violations.append(f"n must be at least 2, got {n}")
    if m < 1:
        violations.append(f"m must be at least 1, got {m}")
    violations += _row_violations(n, graph.rows, graph.cols, graph.weights)
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


def _row_violations(n, rows, cols, weights, limit=None) -> list[str]:
    """validate's messages for rows 0..n-1 of this edge list, the first
    limit of them (all when limit is None), in row order."""
    violations: list[str] = []
    totals = np.bincount(rows, weights, minlength=n)
    accept = np.abs(totals - 1.0) <= ROW_SUM_TOL
    negative = None
    if weights.size and not weights.min() >= 0:  # NaN too, which leaves negative all False
        negative = np.bincount(rows, weights < 0, minlength=n) > 0
        accept &= ~negative
    for i in (~accept).nonzero()[0][:limit].tolist():  # NaN totals are not accepted either
        lo, hi = np.searchsorted(rows, [i, i + 1]).tolist()
        if lo == hi:  # stored weights are nonzero, so only an edgeless row is all zeros
            violations.append(f"row {i + 1} is all zeros: every user must endorse someone")
            continue
        if negative is not None and negative[i]:
            edge = weights[lo:hi]
            k = int(np.argmin(edge))  # cols are sorted: the dense row's first minimum (or NaN)
            violations.append(f"row {i + 1} column {cols[lo + k] + 1}: negative weight {edge[k]:.12g}")
            continue
        violations.append(f"row {i + 1} sums to {totals[i]:.12g}, expected 1")
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

def _fmt(value: float) -> str:
    """The number format of every file trep writes: round-trips a float."""
    return "%.17g" % float(value)


def _parse_number(kind: type, token: str, what: str, lineno: int):
    """kind(token) for kind int or float, or a ParseError naming the field."""
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParseError(f"{what} must be {noun}, got {token!r}", lineno) from None


# An edge line for NumPy's text reader, which cuts a longer key to 5 characters
_EDGE_LINE = np.dtype([("key", "U5"), ("source", np.intp), ("target", np.intp), ("weight", float)])
_FOREIGN = re.compile(r"[^#]*?[^\x01-\x7f\s]")  # before any #: NUL, or non-ASCII and not whitespace


def load(path: str | Path) -> tuple[RepGraph, Config]:
    """Parse a scenario file; returns the graph and solver configuration.

    Grammar violations raise ParseError with the offending line number;
    structural violations (bad row sums, dangling users) raise ValueError.
    A row whose total (as validate() adds it) lies between ROW_SUM_TOL and
    ROW_SUM_RENORM from 1 is silently divided by that total.  No dense matrix
    is built.  A file that leaves more than LISTED_ROWS users without an edge
    is refused before any array of n entries is built: its error lists
    validate's messages for the first LISTED_ROWS bad rows, computed from
    arrays of the edges' size, and counts the rest.
    """
    with open(path, "rb", buffering=0) as fh:  # one read, no text layer
        data = fh.readall()
    # A leading byte-order mark is dropped.  splitlines ends a line at \r\n
    # and at a lone \r, as a text-mode read would; such a read also takes a
    # file holding no more than the start of a mark for an empty one.
    text = "" if codecs.BOM_UTF8.startswith(data) else data.decode("utf-8-sig")
    n, m, alpha, trust, rows, cols, weights = _parse(text)
    keep = weights != 0  # zeros add nothing to a row's total; the copies are the graph's own
    rows, cols, weights = rows[keep], cols[keep], weights[keep]
    edged = np.count_nonzero(rows[1:] > rows[:-1]) + 1 if rows.size else 0  # rows are sorted
    wide = n - edged > LISTED_ROWS
    # each edge's row, or if wide its rank among the edged users (no array of n entries)
    index = np.cumsum(np.diff(rows, prepend=-1) != 0) - 1 if wide else rows
    totals = np.bincount(index, weights)
    drift = np.abs(totals - 1.0)
    exact = (drift <= ROW_SUM_TOL).all()  # a NaN total is not
    if not exact:
        drifting = ((drift > ROW_SUM_TOL) & (drift < ROW_SUM_RENORM))[index]
        weights[drifting] /= totals[index[drifting]]
    if wide:  # the first LISTED_ROWS + edged rows hold the first LISTED_ROWS bad rows
        cut = np.searchsorted(rows, LISTED_ROWS + edged)
        listed = _row_violations(LISTED_ROWS + edged, rows[:cut], cols[:cut], weights[:cut], LISTED_ROWS)
        bad = np.count_nonzero(~(np.abs(np.bincount(index, weights) - 1.0) <= ROW_SUM_TOL))  # NaN too
        listed.append(f"{n - edged + bad - LISTED_ROWS} more rows are all zeros or do not sum to 1")
        raise ValueError("; ".join(([] if m >= 1 else [f"m must be at least 1, got {m}"]) + listed))
    # _parse proved the edges in range, sorted by row then column and each
    # pair at most once, so from_coo would only check that again
    graph = RepGraph.__new__(RepGraph)
    graph._fill(n, m, rows, cols, weights, trust)
    # validate adds the same totals over these arrays, and _parse refused
    # negative weights and every bad trust line: when each of the n rows
    # sums to 1 as written, validate would find nothing
    graph._valid = bool(exact) and n >= 2 and m >= 1 and totals.size == n
    _require_valid(graph)
    return graph, Config(alpha=alpha)


def _parse(text: str) -> tuple:
    """n, m, alpha, trust and the edge list of a scenario, sorted by row then column.

    One pass: the line loop reads the lines before the first edge line,
    NumPy's text reader converts the edge block, comments and all, in one
    call, and should it refuse the block (a declaration among the edges;
    1_0, non-ASCII digits, a NaN weight or any error: see _read_edges) the
    line loop, the only error reporter, resumes at the first edge line.
    Apart from load so that the lines and the reader's table die before
    validate runs: alive, they cost a 2,000-user decode ~0.6 ms and 0.5 MB.
    """
    lines = text.splitlines()
    first = next((k for k, line in enumerate(lines) if line.lstrip().startswith("edge")), len(lines))
    state = _scan_lines(lines[:first], 1, (None, None, None, None, {}, set(), False))
    n, m = state[:2]
    bulk = n is not None and m is not None and first < len(lines)
    table = _read_edges(lines[first:], n, m, text) if bulk else None
    if table is None:
        state = _scan_lines(lines[first:], first + 1, state)
    n, m, alpha, trust, entries, _, header_seen = state
    if not header_seen:
        raise ParseError("missing 'trep v1' header", 1)
    if n is None or m is None:
        raise ParseError("missing users/servers declaration")
    if alpha is None:
        raise ParseError("missing alpha declaration")
    if table is not None:
        return (n, m, alpha, trust, *table)
    keys = sorted(entries)
    rows = np.array([i for i, _ in keys], dtype=np.intp) - 1
    cols = np.array([j for _, j in keys], dtype=np.intp) - 1
    return n, m, alpha, trust, rows, cols, np.array([entries[k] for k in keys], dtype=float)


def _read_edges(lines: list[str], n: int, m: int, text: str) -> tuple | None:
    """rows, cols and weights of the edge block, sorted by row then column; or None.

    NumPy's text reader converts the lines in one call, skipping blank lines
    and each line's text from its first #.  It reads integers as a sign and
    ASCII digits and floats with the routine float uses, so each token it
    accepts gets the builtins' value.  None, so that the line loop reads the
    block and reports the first error at its line, when the reader refuses a
    line, a key is not edge (a declaration follows the first edge line), an
    index is out of range, a weight is negative or NaN, or a pair repeats;
    so too for tokens the reader rejects but the builtins accept (1_0,
    non-ASCII digits), and for edge lines holding, before any #, a NUL or a
    non-ASCII character other than whitespace (looked for only when text,
    the whole file, holds one): the reader drops a key's trailing NULs and
    takes some such characters for digits.  Only NumPy < 2 warns (it reads
    1.0 as an integer), so only there are warnings errors.
    """
    try:
        with _READER_GUARD():
            table = np.loadtxt(lines, _EDGE_LINE, comments="#", ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    if not (table["key"] == "edge").all():
        return None
    if ("\0" in text or not text.isascii()) and any(map(_FOREIGN.match, lines)):
        return None
    rows, cols, weights = table["source"] - 1, table["target"] - 1, table["weight"]
    # a negative index reads as a huge unsigned one, so one maximum per array
    # checks its range; a NaN weight fails the sign test
    in_range = rows.view(np.uintp).max() < n and cols.view(np.uintp).max() < m + n
    if not (in_range and weights.min() >= 0):
        return None
    keys = rows * (m + n) + cols  # below n * (m + n), which the line loop bounds below 2**62
    if not (keys[1:] > keys[:-1]).all():  # a file save() wrote is sorted: one pass proves it
        order = np.argsort(keys)
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            return None
        rows, cols, weights = rows[order], cols[order], weights[order]
    return rows, cols, weights


@contextlib.contextmanager
def _warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


_READER_GUARD = (
    _warnings_as_errors if np.lib.NumpyVersion(np.__version__) < "2.0.0" else contextlib.nullcontext
)


def _scan_lines(lines: list[str], lineno: int, state: tuple) -> tuple:
    """The line loop: reads these lines, the first at lineno, on from state.

    The state, returned after the last line, is (n, m, alpha, trust, entries,
    declared keys, header seen), the edges in entries as a dict by 1-based
    (source, target), unsorted.  Every grammar violation raises ParseError
    with its line number.
    """
    n, m, alpha, trust, entries, declared, header_seen = state
    for lineno, raw in enumerate(lines, start=lineno):
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
            if key != "trust" and len(args) != 1:
                raise ParseError(f"{key} takes exactly one value", lineno)
        if key in ("users", "servers"):
            count = _parse_number(int, args[0], key, lineno)
            if count < 0:
                raise ParseError(f"{key} must be nonnegative, got {count}", lineno)
            if key == "users":
                n = count
            else:
                m = count
            if n is not None and m is not None and n * (m + n) >= 2**62:  # edge keys would overflow
                raise ParseError(f"users {n} and servers {m} are too many: n * (m + n) >= 2**62", lineno)
        elif key == "alpha":
            alpha = _parse_number(float, args[0], "alpha", lineno)
            if not 0.0 < alpha < 1.0:
                raise ParseError(f"alpha must lie strictly between 0 and 1, got {alpha}", lineno)
        elif key == "trust":
            if m is None:
                raise ParseError("trust must follow the servers declaration", lineno)
            if len(args) != m:
                raise ParseError(f"trust takes {m} values, got {len(args)}", lineno)
            values = [_parse_number(float, a, "trust", lineno) for a in args]
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
            i = _parse_number(int, args[0], "edge source", lineno)
            j = _parse_number(int, args[1], "edge target", lineno)
            w = _parse_number(float, args[2], "edge weight", lineno)
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
    return n, m, alpha, trust, entries, declared, header_seen


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
