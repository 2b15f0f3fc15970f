import codecs
import contextlib
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trep import repgraph
from trep.repgraph import (
    LISTED_ROWS,
    Config,
    ParseError,
    RepGraph,
    load,
    save,
    validate,
)

from oracles import dense, load_oracle, row_violations


@contextlib.contextmanager
def traced_load():
    """Records what load does while open: `readers`, the NumPy text reader
    calls; `tables`, whether each _read_edges call returned the edge list;
    and `scans`, the line numbers each line-loop call reads, as ranges."""
    trace = SimpleNamespace(readers=0, tables=[], scans=[])
    loadtxt, read_edges, scan_lines = np.loadtxt, repgraph._read_edges, repgraph._scan_lines

    def reader(*args, **kwargs):
        trace.readers += 1
        return loadtxt(*args, **kwargs)

    def read(*args):
        table = read_edges(*args)
        trace.tables.append(table is not None)
        return table

    def scan(lines, lineno, state):
        trace.scans.append(range(lineno, lineno + len(lines)))
        return scan_lines(lines, lineno, state)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", reader)
        patch.setattr(repgraph, "_read_edges", read)
        patch.setattr(repgraph, "_scan_lines", scan)
        yield trace


def assert_one_pass(trace):
    """The reader ran at most once, and the line loop read no line twice:
    its calls took consecutive ranges from line 1."""
    assert trace.readers <= 1
    assert [scan.start for scan in trace.scans] == [1] + [scan.stop for scan in trace.scans[:-1]]


def bipartite_edges(n=2, m=2, row=(0.5, 0.5)):
    edges = np.zeros((n, m + n))
    edges[:, :m] = np.asarray(row)
    return edges


def bipartite_graph(n=2, m=2, row=(0.5, 0.5)):
    return RepGraph(n=n, m=m, edges=bipartite_edges(n, m, row))


# ---------------------------------------------------------------- validation

def test_validate_accepts_simple_bipartite():
    assert validate(bipartite_graph()) == []


def test_validate_reports_bad_row_sum():
    edges = bipartite_edges()
    edges[0, 1] = 0.6  # row sums to 1.1
    violations = validate(RepGraph(n=2, m=2, edges=edges))
    assert any("row 1" in v and "1.1" in v for v in violations)


def test_validate_reports_negative_weight():
    edges = bipartite_edges()
    edges[0, 0] = -0.1
    edges[0, 1] = 1.1
    assert any("negative" in v for v in validate(RepGraph(n=2, m=2, edges=edges)))


def test_validate_reports_all_zero_row():
    edges = bipartite_edges()
    edges[1, :] = 0.0
    assert any("row 2" in v for v in validate(RepGraph(n=2, m=2, edges=edges)))


def test_validate_reports_every_bad_row_in_order():
    edges = np.array([
        [0.5, -0.25, 0.75, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.25, 0.25, 0.0, 0.5, 0.0, 0.0, 0.0],  # valid
        [0.5, 0.25, 0.0, 0.0, 0.5, 0.0, 0.0],
        [np.nan, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
    ])
    assert validate(RepGraph(n=5, m=2, edges=edges)) == [
        "row 1 column 2: negative weight -0.25",
        "row 2 is all zeros: every user must endorse someone",
        "row 4 sums to 1.25, expected 1",
        "row 5 sums to nan, expected 1",
    ]
    # The whole-matrix checks report what a row-by-row loop reports.
    rng = np.random.default_rng(8)
    for _ in range(200):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        edges = rng.dirichlet(np.ones(m + n), size=n)
        for i in rng.integers(0, n, size=3):
            kind = rng.integers(4)
            if kind == 0:
                edges[i, rng.integers(m + n)] = -rng.random()
            elif kind == 1:
                edges[i] = 0.0
            elif kind == 2:
                edges[i] *= 1.0 + rng.choice([1e-13, 1e-11, 1e-3])
            else:
                edges[i, rng.integers(m + n)] = np.nan
        assert validate(RepGraph(n=n, m=m, edges=edges)) == row_violations(edges)


def test_validate_rejects_small_counts():
    edges = np.zeros((1, 3))
    edges[0, :2] = 0.5
    g = RepGraph(n=1, m=2, edges=edges)
    assert any("n" in v for v in validate(g))


def test_validate_checks_trust_range():
    g = bipartite_graph()
    bad = RepGraph(n=g.n, m=g.m, edges=dense(g), trust=np.array([1.5, 0.5]))
    assert any("trust" in v for v in validate(bad))
    zero = RepGraph(n=g.n, m=g.m, edges=dense(g), trust=np.array([0.0, 0.0]))
    assert any("trust" in v for v in validate(zero))


def test_validate_reports_no_servers_and_a_trust_vector_of_the_wrong_shape():
    users_only = RepGraph(n=2, m=0, edges=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert validate(users_only) == ["m must be at least 1, got 0"]
    g = bipartite_graph()
    three = RepGraph(n=g.n, m=g.m, edges=dense(g), trust=np.array([0.5, 0.5, 0.5]))
    assert validate(three) == ["trust vector has shape (3,), expected (2,)"]


def test_validate_builds_no_dense_row_for_an_edgeless_user():
    n = 50_000
    graph = RepGraph.from_coo(n, 1, [0], [0], [1.0])
    assert validate(graph) == [
        f"row {i} is all zeros: every user must endorse someone" for i in range(2, n + 1)
    ]


def _capped(violations, m=1):
    """validate's messages as load lists them for a file that leaves more
    than LISTED_ROWS users without an edge."""
    listed = LISTED_ROWS + (m < 1)  # m's message comes first
    rest = len(violations) - listed
    return "; ".join(violations[:listed] + [f"{rest} more rows are all zeros or do not sum to 1"])


def test_load_refuses_more_users_than_its_edges_cover_in_a_short_message(tmp_path, monkeypatch):
    # validate lists all 199,999 edgeless rows (11 MB of text); load lists
    # ten and counts the rest, and allocates far less than one float a user.
    n = 200_000
    path = tmp_path / "wide.trep"
    path.write_text(f"trep v1\nusers {n}\nservers 1\nalpha 0.15\nedge 1 1 0.5\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == _capped(validate(RepGraph.from_coo(n, 1, [0], [0], [0.5])))
    assert len(str(info.value)) < 1_000
    assert peak < n
    # 50,000 rows that sum to 1.25, then 11 edgeless users: validate's row
    # check words the ten listed rows and is never asked for more of them
    edged = 50_000
    lines = ["trep v1", f"users {edged + 11}", "servers 1", "alpha 0.15"]
    lines += [f"edge {i} 1 1.25" for i in range(1, edged + 1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    counts = []
    row_violations = repgraph._row_violations

    def counted(*args, **kwargs):
        violations = row_violations(*args, **kwargs)
        counts.append(len(violations))
        return violations

    monkeypatch.setattr(repgraph, "_row_violations", counted)
    with pytest.raises(ValueError) as info:
        load(path)
    monkeypatch.undo()
    graph = RepGraph.from_coo(edged + 11, 1, np.arange(edged), np.zeros(edged), np.full(edged, 1.25))
    assert str(info.value) == _capped(validate(graph))
    assert counts and max(counts) <= LISTED_ROWS


def test_load_lists_the_first_bad_rows_of_a_file_with_many_edgeless_users(tmp_path):
    # Edgeless users among rows that sum to 1, drift within the renormalized
    # band, drift beyond it or hold a NaN weight; the list is validate's, cut
    # after LISTED_ROWS rows (m = 0 adds its own message first).
    rng = np.random.default_rng(29)
    path = tmp_path / "sparse.trep"
    for _ in range(60):
        n, m = int(rng.integers(LISTED_ROWS + 1, 60)), int(rng.integers(0, 4))
        edged = np.sort(rng.choice(n, size=int(rng.integers(0, n - LISTED_ROWS)), replace=False))
        lines = ["trep v1", f"users {n}", f"servers {m}", "alpha 0.15"]
        for i in edged.tolist():
            targets = np.sort(rng.choice(m + n, size=int(rng.integers(1, 4)), replace=False))
            weights = rng.dirichlet(np.ones(targets.size)) * rng.choice([1.0, 1.0 + 5e-10, 1.25, np.nan])
            lines += [f"edge {i + 1} {j + 1} {w!r}" for j, w in zip(targets.tolist(), weights.tolist())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as expected:
            load_oracle(path)
        with pytest.raises(ValueError) as got:
            load(path)
        assert str(got.value) == _capped(str(expected.value).split("; "), m)


def test_validate_matches_the_dense_row_oracle_on_wide_sparse_rows():
    # Up to 40 edges in rows up to 400 wide, where the oracle adds each dense
    # row left to right, zeros included.  Totals lie within a few ulps of the
    # tolerance or of a rounding boundary of the 12 digits printed
    # (1 + 5e-12), or far off; rows hold negative or NaN weights or no edges.
    targets = [1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 5e-12, 0.5 + 5e-13, 1.001, 3.0]
    rng = np.random.default_rng(21)
    for _ in range(40):
        n, m = int(rng.integers(2, 300)), int(rng.integers(1, 100))
        rows, cols, weights = [], [], []
        for i in range(n):
            kind = int(rng.integers(8))
            k = 0 if kind == 0 else int(rng.integers(1, min(40, m + n) + 1))
            w = rng.dirichlet(np.ones(k)) * targets[int(rng.integers(len(targets)))] if k else []
            if kind == 1:
                w[rng.integers(k)] = -rng.random()
            elif kind == 2:
                w[rng.integers(k)] = np.nan
            rows += [i] * k
            cols += sorted(rng.choice(m + n, size=k, replace=False).tolist())
            weights += list(w)
        graph = RepGraph.from_coo(n, m, rows, cols, weights)
        assert validate(graph) == row_violations(dense(graph))


# ---------------------------------------------------- strategy profiles as graphs

def test_dense_graph_copies_rows():
    profile = np.zeros((2, 4))
    profile[:, 0] = 2 / 3
    profile[:, 1] = 1 / 3
    g = RepGraph(n=2, m=2, edges=profile)
    assert g.n == 2 and g.m == 2
    np.testing.assert_array_equal(dense(g), profile)


def test_dense_graph_user_action_maps_to_user_edge():
    profile = np.zeros((2, 4))
    profile[0, 2] = 1.0  # action m+1 endorses user 1
    profile[1, 0] = 1.0
    g = RepGraph(n=2, m=2, edges=profile)
    assert dense(g)[0, 2] == 1.0


def test_dense_graph_pure_strategy():
    profile = np.zeros((2, 4))
    profile[:, 0] = 1.0
    g = RepGraph(n=2, m=2, edges=profile)
    row = dense(g)[0]
    assert row[0] == 1.0 and row[1:].sum() == 0.0


def test_dense_graph_dimension_mismatch():
    with pytest.raises(ValueError):
        RepGraph(n=2, m=3, edges=np.ones((2, 4)) / 4)
    with pytest.raises(ValueError):
        RepGraph(n=2, m=2, edges=np.ones((3, 4)) / 4)


# ------------------------------------------------------------------- file IO

MINIMAL = """trep v1
users 2
servers 2
alpha 0.15
edge 1 1 0.5
edge 1 2 0.5
edge 2 1 0.5
edge 2 2 0.5
"""


def test_load_minimal(tmp_path):
    path = tmp_path / "g.trep"
    path.write_text(MINIMAL)
    graph, config = load(path)
    assert graph.n == 2 and graph.m == 2
    assert graph.trust is None
    assert config.alpha == 0.15
    np.testing.assert_allclose(dense(graph)[:, :2], 0.5)


def test_load_trust_line(tmp_path):
    path = tmp_path / "g.trep"
    path.write_text(MINIMAL.replace("alpha 0.15\n", "alpha 0.15\ntrust 0.9 0.4\n"))
    graph, _ = load(path)
    np.testing.assert_array_equal(graph.trust, [0.9, 0.4])


def test_load_rejects_bad_alpha(tmp_path):
    path = tmp_path / "g.trep"
    path.write_text(MINIMAL.replace("alpha 0.15", "alpha 1.5"))
    with pytest.raises(ParseError, match=r"alpha"):
        load(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "g.trep"
    path.write_text("trep v2\nusers 2\n")
    with pytest.raises(ParseError):
        load(path)


def test_load_drops_a_leading_byte_order_mark(tmp_path):
    # Some editors start a UTF-8 file with a byte-order mark.
    text = MINIMAL.replace("alpha 0.15\n", "alpha 0.15\ntrust 0.9 0.4\n")
    plain, marked = tmp_path / "plain.trep", tmp_path / "marked.trep"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    with traced_load() as trace:
        (graph, cfg), (expected, expected_cfg) = load(marked), load(plain)
    assert trace.tables == [True, True]  # the bulk path, not the line loop
    assert (graph.n, graph.m, cfg) == (expected.n, expected.m, expected_cfg)
    np.testing.assert_array_equal(graph.trust, expected.trust)
    np.testing.assert_array_equal(dense(graph), dense(expected))
    np.testing.assert_array_equal(load_oracle(marked)[4], dense(expected))


GOLDEN_SCENARIO = Path(__file__).parent / "golden" / "decode" / "criterion11" / "scenario.trep"
LINE_ENDS = {
    "lf": lambda data: data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "cr": lambda data: data.replace(b"\n", b"\r"),
    "bom": lambda data: codecs.BOM_UTF8 + data,
    "bom-crlf": lambda data: codecs.BOM_UTF8 + data.replace(b"\n", b"\r\n"),
}


def test_load_reads_crlf_cr_and_marked_copies_as_the_plain_file(tmp_path):
    # load reads bytes and splits lines with splitlines, which ends a line at
    # \r\n and at a lone \r as a text-mode read does: every copy loads to the
    # same arrays, and fails at the same line when one line is bad
    data = GOLDEN_SCENARIO.read_bytes()
    bad = data.replace(b"edge 2 2 ", b"edge 2 x ")
    plain, plain_cfg = load(GOLDEN_SCENARIO)
    for name, convert in LINE_ENDS.items():
        path = tmp_path / f"{name}.trep"
        path.write_bytes(convert(data))
        graph, cfg = load(path)
        assert (graph.n, graph.m, cfg) == (plain.n, plain.m, plain_cfg), name
        for field in ("rows", "cols", "weights", "trust"):
            assert getattr(graph, field).tobytes() == getattr(plain, field).tobytes(), (name, field)
        path.write_bytes(convert(bad))
        with pytest.raises(ParseError) as got:
            load(path)
        assert (str(got.value), got.value.lineno) == ("line 9: edge target must be an integer, got 'x'", 9), name


@pytest.mark.parametrize("data", [b"", b"\xef", b"\xef\xbb", b"\xef\xbb\xbf"], ids=["empty", "1", "2", "3"])
def test_load_reads_a_file_of_at_most_a_byte_order_mark_as_empty(tmp_path, data):
    # A text-mode read keeps the start of a mark back for the next chunk and
    # so returns an empty text at the end of the file; a strict decode of b"\xef"
    # would raise UnicodeDecodeError instead of the missing-header error
    path = tmp_path / "g.trep"
    path.write_bytes(data)
    with pytest.raises(ParseError) as got:
        load(path)
    assert (str(got.value), got.value.lineno) == ("line 1: missing 'trep v1' header", 1)


@pytest.mark.parametrize(
    "text",
    [
        "\ufeff\ufeff" + MINIMAL,
        MINIMAL.replace("users 2", "\ufeffusers 2"),
        MINIMAL.replace("edge 2 1", "\ufeffedge 2 1"),
        MINIMAL.replace("edge 2 1 0.5", "edge 2 1 0.5\ufeff"),
        MINIMAL + "\ufeff\n",
    ],
    ids=["second-mark", "declaration", "edge-key", "edge-weight", "own-line"],
)
def test_load_rejects_a_byte_order_mark_after_the_start(tmp_path, text):
    path = tmp_path / "g.trep"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as got:
        load(path)
    with pytest.raises(ParseError) as expected:
        load_oracle(path)
    assert (str(got.value), got.value.lineno) == (str(expected.value), expected.value.lineno)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "g.trep"
    path.write_text(MINIMAL + "edge 1 9 0.5\n")
    with pytest.raises(ParseError, match=r"line 9"):
        load(path)


def test_load_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "g.trep"
    path.write_text(MINIMAL + "edge 1 1 0.25\n")
    with pytest.raises(ParseError, match=r"duplicate"):
        load(path)


@pytest.mark.parametrize(
    "extra, lineno",
    [("users 2", 9), ("servers 2", 9), ("alpha 0.2", 9), ("trust 0.5 0.5\ntrust 0.5 0.5", 10)],
    ids=["users", "servers", "alpha", "trust"],
)
def test_load_rejects_repeated_declaration(tmp_path, extra, lineno):
    # the repeat follows the edges: a second servers line would silently
    # change what their targets mean
    path = tmp_path / "g.trep"
    path.write_text(MINIMAL + extra + "\n")
    key = extra.split()[0]
    with pytest.raises(ParseError, match=rf"line {lineno}: repeated {key}") as exc:
        load(path)
    assert exc.value.lineno == lineno


@pytest.mark.parametrize("key", ["users", "servers"])
def test_load_rejects_negative_count(tmp_path, key):
    path = tmp_path / "g.trep"
    path.write_text(MINIMAL.replace(f"{key} 2", f"{key} -2"))
    with pytest.raises(ParseError, match=rf"line [23]: {key} must be nonnegative, got -2"):
        load(path)


def test_load_ignores_comments_and_blank_lines(tmp_path):
    text = MINIMAL.replace("users 2", "users 2  # two endorsers\n\n# blank above")
    path = tmp_path / "g.trep"
    path.write_text(text)
    graph, _ = load(path)
    assert graph.n == 2


def test_load_renormalizes_tiny_row_drift(tmp_path):
    drift = MINIMAL.replace("edge 1 2 0.5", "edge 1 2 0.5000000001")  # off by 1e-10
    path = tmp_path / "g.trep"
    path.write_text(drift)
    graph, _ = load(path)
    assert abs(dense(graph)[0].sum() - 1.0) <= 1e-12


def test_load_rejects_large_row_drift(tmp_path):
    drift = MINIMAL.replace("edge 1 2 0.5", "edge 1 2 0.51")
    path = tmp_path / "g.trep"
    path.write_text(drift)
    with pytest.raises(ValueError):
        load(path)


def test_load_renormalizes_every_drifting_row_in_bulk(tmp_path):
    # one edge of weight 1.0000000001 per user: each row is divided by its
    # total, its one weight, so every weight reads exactly 1
    n = 20_000
    text = f"trep v1\nusers {n}\nservers 1\nalpha 0.15\n" + "".join(
        f"edge {i} 1 1.0000000001\n" for i in range(1, n + 1)
    )
    path = tmp_path / "drift.trep"
    path.write_text(text, encoding="utf-8")
    with traced_load() as trace:
        graph, _ = load(path)
    assert trace.tables == [True]
    np.testing.assert_array_equal(graph.rows, np.arange(n))
    np.testing.assert_array_equal(graph.cols, np.zeros(n))
    assert np.all(graph.weights == 1.0)


def test_load_renormalizes_wide_rows_of_several_edges_as_the_oracle_does(tmp_path):
    # 3 to 8 edges in rows 16 wide, each row off by 2e-12 to 9e-10 either
    # way; NumPy's pairwise sum of a dense row this wide adds the weights in
    # another order than left to right
    rng = np.random.default_rng(14)
    n, m = 40, 4
    lines = ["trep v1", f"users {n}", f"servers {m}", "alpha 0.15"]
    for i in range(1, n + 1):
        k = int(rng.integers(3, 9))
        targets = np.sort(rng.choice(m + n, size=k, replace=False)) + 1
        drift = rng.uniform(2e-12, 9e-10) * rng.choice([-1.0, 1.0])
        weights = rng.dirichlet(np.ones(k)) * (1.0 + drift)
        lines += [f"edge {i} {j} {w!r}" for j, w in zip(targets.tolist(), weights.tolist())]
    path = tmp_path / "wide.trep"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    graph, _ = load(path)
    *_, edges = load_oracle(path)
    np.testing.assert_array_equal(dense(graph), edges)


def test_load_rejects_dangling_user(tmp_path):
    text = "trep v1\nusers 2\nservers 2\nalpha 0.15\nedge 1 1 1\n"
    path = tmp_path / "g.trep"
    path.write_text(text)
    with pytest.raises(ValueError):
        load(path)


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    n, m = 3, 2
    edges = rng.dirichlet(np.ones(m + n), size=n)
    g = RepGraph(n=n, m=m, edges=edges, trust=np.array([1 / 3, 2 / 3]))
    cfg = Config(alpha=1 / 7)
    path = tmp_path / "g.trep"
    save(g, cfg, path)
    g2, cfg2 = load(path)
    np.testing.assert_array_equal(dense(g), dense(g2))
    np.testing.assert_array_equal(g.trust, g2.trust)
    assert cfg2.alpha == cfg.alpha
    save(g2, cfg2, tmp_path / "h.trep")
    assert (tmp_path / "g.trep").read_bytes() == (tmp_path / "h.trep").read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_graphs(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 5))
    edges = rng.dirichlet(np.ones(m + n), size=n)
    g = RepGraph(n=n, m=m, edges=edges)
    path = tmp_path_factory.mktemp("rt") / "g.trep"
    save(g, Config(), path)
    g2, _ = load(path)
    np.testing.assert_array_equal(dense(g), dense(g2))


# ------------------------------------------------------------ edge storage

def test_dense_to_edge_list_and_back_is_bit_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        edges = rng.dirichlet(np.ones(m + n), size=n)
        edges[rng.random(edges.shape) < 0.5] = 0.0
        g = RepGraph(n=n, m=m, edges=edges)
        assert np.all(g.weights != 0)
        assert list(zip(g.rows, g.cols)) == sorted(zip(g.rows, g.cols))
        back = dense(RepGraph.from_coo(n, m, g.rows, g.cols, g.weights))
        assert back.tobytes() == edges.tobytes() == dense(g).tobytes()


def test_graph_keeps_no_copy_of_the_callers_matrix():
    # The edge list is the whole graph: changing the matrix afterwards changes
    # nothing, and a -0.0 entry is dropped, so it reads back +0.0.
    edges = np.array([[0.5, -0.0, 0.5], [1.0, 0.0, 0.0]])
    g = RepGraph(n=2, m=1, edges=edges)
    edges[0, 0] = 0.25
    assert dense(g).tobytes() == np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]).tobytes()


@pytest.mark.parametrize(
    "rows, cols, weights, message",
    [
        ([0, 1, 1], [0, 0, 0], [1.0, 0.5, 0.5], "sorted"),  # (1, 0) twice
        ([1, 0], [0, 0], [1.0, 1.0], "sorted"),  # rows out of order
        ([0, 0, 1], [1, 0, 0], [0.5, 0.5, 1.0], "sorted"),  # columns out of order
        ([0, 1, 5], [0, 0, 0], [1.0, 1.0, 1.0], "out of range"),  # row 5 of 2 users
        ([0, -1], [0, 0], [1.0, 1.0], "out of range"),
        ([0, 1], [0, 3], [1.0, 1.0], "out of range"),  # column 3 of m + n = 3
        ([0, 1], [0, 0], [1.0], "equal length"),
        ([[0, 1]], [[0, 0]], [[1.0, 1.0]], "equal length"),  # not vectors
    ],
)
def test_from_coo_checks_its_preconditions(rows, cols, weights, message):
    with pytest.raises(ValueError, match=message):
        RepGraph.from_coo(2, 1, rows, cols, weights)


def test_zero_weight_edges_are_dropped(tmp_path):
    path = tmp_path / "g.trep"
    path.write_text(MINIMAL + "edge 1 3 0\nedge 2 4 0.0\n")
    graph, cfg = load(path)
    assert graph.weights.size == 4 and np.all(graph.weights != 0)
    save(graph, cfg, tmp_path / "with_zeros.trep")
    path.write_text(MINIMAL)
    save(*load(path), tmp_path / "without.trep")
    assert (tmp_path / "with_zeros.trep").read_bytes() == (tmp_path / "without.trep").read_bytes()


def test_graph_is_read_only():
    g = bipartite_graph()
    with pytest.raises(ValueError, match="read-only"):
        g.weights[0] = 0.6


# ------------------------------------------------------ parser equivalence

BAD_INDICES = ("-1", "x", "1.0", "+1", "1_0", "9" * 30, "")
BAD_WEIGHTS = ("abc", "nan", "inf", "-0", "0", "1e400", "0x1p-1", "1_0")
CORRUPTIONS = (
    "comment", "comment_line", "blank", "early_edge", "drop_field", "extra_field", "join",
    "whitespace", "keyword", "duplicate", "repeat", "directive", "source", "target",
    "source_range", "target_range", "weight", "negative_weight",
)
DECLARATIONS = (["users"], ["servers"], ["alpha"], ["trust"])


def _token_edits(kind, n, m):
    """The field a corruption replaces in an edge line, and its choices."""
    return {
        "source": (1, BAD_INDICES),
        "target": (2, BAD_INDICES),
        "source_range": (1, ("0", str(n + 1))),
        "target_range": (2, ("0", str(m + n + 1))),
        "weight": (3, BAD_WEIGHTS),
        "negative_weight": (3, ("-0.5", "-inf", "-1e-300")),
    }[kind]


@st.composite
def scenario_files(draw):
    """Scenario text, valid or corrupted in the ways load must report."""
    n, m = draw(st.sampled_from([2, 3, 4, 5, 1])), draw(st.integers(1, 4))  # n = 1 is invalid
    lines = ["trep v1", f"users {n}", f"servers {m}", f"alpha {draw(st.sampled_from(['0.15', '0.5']))}"]
    if draw(st.booleans()):
        lines.append("trust " + " ".join(["0.75"] + ["0.25"] * (m - 1)))
    fmt = draw(st.sampled_from(["%r", "%r", "%.12g", "%.6g"]))
    edges = []
    for i in range(1, n + 1):
        size = draw(st.integers(1, m + n)) if draw(st.sampled_from([True] * 9 + [False])) else 0
        targets = draw(st.permutations(range(1, m + n + 1)))[:size]
        raw = [draw(st.floats(0.01, 1.0)) for _ in targets]
        # size 0 leaves a dangling user; row sums are off by nothing, by less
        # than the 1e-9 that load renormalizes, or by more
        drift = draw(st.sampled_from([0.0] * 4 + [2e-13, 5e-12, 1e-10, 5e-10, 2e-9, 1e-6]))
        edges += [[i, j, fmt % (w / sum(raw) * (1.0 + drift))] for j, w in zip(targets, raw)]
    lines += [f"edge {i} {j} {w}" for i, j, w in draw(st.permutations(edges))]
    # mostly one corruption, so that the fast path sees each kind on its own
    for _ in range(draw(st.sampled_from([1, 1, 0, 2]))):
        kind = draw(st.sampled_from(CORRUPTIONS))
        at = draw(st.integers(0, len(lines)))
        edge_at = [k for k, line in enumerate(lines) if line.startswith("edge")]
        e = draw(st.sampled_from(edge_at)) if edge_at else None
        if kind == "comment_line":
            lines.insert(at, "# comment")
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "repeat":
            declarations = [line for line in lines if line.split()[:1] in DECLARATIONS]
            lines.insert(at, draw(st.sampled_from(declarations)))
        elif kind == "directive":
            lines.insert(at, draw(st.sampled_from(["users", "servers 2 3", "nodes 3"])))
        elif e is None:
            continue
        elif kind == "comment":
            lines[e] += draw(st.sampled_from(["  # note", "# edge 1 1 1"]))
        elif kind == "early_edge":
            lines.insert(draw(st.integers(0, 3)), lines.pop(e))
        elif kind == "drop_field":
            lines[e] = lines[e].rsplit(" ", 1)[0]
        elif kind == "extra_field":
            lines[e] += " 1"
        elif kind == "join":
            lines[e] += " " + lines[draw(st.sampled_from(edge_at))]
        elif kind == "keyword":
            lines[e] = draw(st.sampled_from(["edges", "edgeX", "Edge", "edge:"])) + lines[e][4:]
        elif kind == "whitespace":
            lines[e] = draw(st.sampled_from(["  ", "\t", " \t "])).join(lines[e].split(" ")) + " "
        elif kind == "duplicate":
            lines.insert(at, lines[e].rsplit(" ", 1)[0] + draw(st.sampled_from([" 0.5", " 0"])))
        else:
            field, choices = _token_edits(kind, n, m)
            tokens = lines[e].split(" ")
            if field < len(tokens):
                tokens[field] = draw(st.sampled_from(choices))
                lines[e] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:  # ParseError included
        return exc


def _scenario(edges, n=2):
    """A one-server scenario file with these edge lines."""
    return f"trep v1\nusers {n}\nservers 1\nalpha 0.15\n" + "".join(e + "\n" for e in edges)


@settings(max_examples=500, deadline=None)
@given(scenario_files())
# a repeated declaration in a file of edgeless users (the strategy once drew
# a line index past its end here)
@example("trep v1\nusers 2\nservers 3\nalpha 0.5\nalpha 0.5\n")
# where NumPy's text reader and the int and float builtins could differ
@example("trep v1\nusers 2\nservers 1\nedge 1 1 1\nalpha 0.15\nedge 2 1 1\n")  # valid: a late declaration
@example(_scenario(["edge +1 1 1", "edge 02 1 1"]))  # valid: bulk path
@example(_scenario(["edge 1.0 1 1", "edge 2 1 1"]))
@example(_scenario(["edge 1_0 1 1", "edge 2 1 1"]))
@example(_scenario(["edge 1 1 1", "edge 2 1_0 1"]))
@example(_scenario(["edge \u0663 1 1", "edge 2 1 1"]))  # Arabic-Indic three
@example(_scenario(["edge 1 1 1_0", "edge 2 1 1"]))
@example(_scenario(["edge 1 1 nan", "edge 2 1 1"]))
@example(_scenario(["edge 1 1 inf", "edge 2 1 1"]))
@example(_scenario(["edge\t1\t1\t1", "edge\xa02\xa01 \xa01"]))  # valid: bulk path
@example(_scenario(["edge\x00 1 1 1", "edge 2 1 1"]))  # the reader drops a key's trailing NUL
# NumPy's reader takes U+01FE (Ǿ) for a digit and reads this source as 462
@example(_scenario([f"edge {i} 1 1" for i in range(1, 462)] + ["edge \u01fe 1 1"], n=462))
# the reader takes every line from the first edge line on: a four-token
# declaration there reads as a row, and only its key makes the reader refuse
# the block, which the line loop then reads (valid; in the second, the trust
# line read as an edge would complete row 1, which the oracle rejects)
@example("trep v1\nusers 2\nservers 3\nalpha 0.15\nedge 1 1 1\ntrust 1 1 1\nedge 2 2 1\n")
@example("trep v1\nusers 2\nservers 3\nalpha 0.15\nedge 1 2 0.5\ntrust 1 1 0.5\nedge 2 2 1\n")
# \x0b and \x1c end a line for splitlines (valid: bulk path)
@example("trep v1\nusers 2\nservers 1\nalpha 0.15\x0bedge 1 1 1\nedge 2 1 1\n")
@example("trep v1\nusers 2\nservers 1\nalpha 0.15\nedge 1 1 1\x1cedge 2 1 1\n")
# blank, whitespace-only and comment-only lines among the edges (valid: bulk path)
@example(_scenario(["edge 1 1 1", "", " \t", "# note", "  # edge 2 1 1", "edge 2 1 1"]).replace("\n", "\r\n"))
# NumPy's reader skips each line's text from its first #: a # glued to a
# weight, a comment holding a non-ASCII character after an edge, and a
# comment line above the header (valid: bulk path)
@example(_scenario(["edge 1 1 1#x", "edge 2 1 1"]))
@example(_scenario(["edge 1 1 1  # caf\u00e9 \u00fcber", "edge 2 1 1"]))
@example("# generated\n" + _scenario(["edge 1 1 1", "edge 2 1 1"]))
# every ParseError of the declarations, each with its line number, and the
# three missing-declaration errors, which no random file reaches
@example("trep v1\nusers 2 3\nservers 1\nalpha 0.15\n")
@example("trep v1\nusers 2\nservers\nalpha 0.15\n")
@example("trep v1\nusers 2\nservers 1\nalpha 0.1 0.2\n")
@example("trep v1\nusers 2\ntrust 0.5\nservers 1\nalpha 0.15\n")
@example("trep v1\nusers 2\nservers 2\ntrust 0.5\nalpha 0.15\n")
@example("trep v1\nusers 2\nservers 1\ntrust 1.5\nalpha 0.15\n")
@example("trep v1\nusers 2\nservers 2\ntrust 0 0\nalpha 0.15\n")
@example("")
@example("trep v1\nusers 2\nalpha 0.15\n")
@example("trep v1\nusers 2\nservers 1\nedge 1 1 1\nedge 2 1 1\n")
# already sorted, as every file save() writes, so one diff proves the order:
# a zero weight (dropped; valid: bulk path) and a target out of range, which
# the line loop still reports at its line
@example(_scenario(["edge 1 1 1", "edge 2 1 1", "edge 2 3 0"]))
@example(_scenario(["edge 1 1 1", "edge 2 4 1"]))
# no servers: validate's message, after the bulk path read the user edges
@example("trep v1\nusers 2\nservers 0\nalpha 0.15\nedge 1 2 1\nedge 2 1 1\n")
# the range and sign checks of the bulk path: a NaN weight must refuse the
# table too, or validate would report its row before the line loop reports
# the negative weight below it; a negative index must not pass as in range
@example(_scenario(["edge 1 1 nan", "edge 2 1 -1"]))
@example(_scenario(["edge 1 1 1", "edge 2 -1 1"]))
@example(_scenario(["edge -1 1 1", "edge 2 1 1"]))
# counts whose edge keys would overflow, n * (m + n) >= 2**62, refused at the
# line that completes the pair, in either order and at the bound itself
@example("trep v1\nusers 100000000000000000000\nservers 1\nalpha 0.15\nedge 1 1 1\n")
@example("trep v1\nservers 100000000000000000000\nusers 2\nalpha 0.15\nedge 1 1 1\nedge 2 1 1\n")
@example("trep v1\nusers 2147483648\nservers 0\nalpha 0.15\nedge 1 1 1\n")
# load marks a graph valid without validate when each of its n rows sums to
# 1 as written; these files it must still refuse with validate's message: a
# row that drifts past renormalization, an edgeless last row (every other
# row sums to 1) and one user whose row sums to 1 (the NaN weight and the no
# servers examples above are two more)
@example(_scenario(["edge 1 1 1.000001", "edge 2 1 1"]))
@example(_scenario(["edge 1 1 1", "edge 2 1 1"], n=3))
@example(_scenario(["edge 1 1 1"], n=1))
def test_load_matches_line_by_line_oracle(tmp_path_factory, text):
    # load converts the edge block in bulk and, should that fail, resumes the
    # line loop there; either way it must agree with the dense line-by-line
    # oracle: the same graph (weights bit-equal; a -0.0 weight reads +0.0, as
    # zero weights are dropped), or the same error type, message and line
    # number.  Either way it reads the file in one pass, and validate finds
    # nothing wrong with a graph it returns.
    path = tmp_path_factory.getbasetemp() / "property.trep"
    path.write_text(text, encoding="utf-8")
    expected = _outcome(load_oracle, path)
    with traced_load() as trace:
        got = _outcome(load, path)
    assert_one_pass(trace)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        assert getattr(got, "lineno", None) == getattr(expected, "lineno", None)
        return
    assert not isinstance(got, Exception), got
    n, m, alpha, trust, edges = expected
    graph, cfg = got
    assert validate(graph) == []
    assert (graph.n, graph.m, cfg.alpha) == (n, m, alpha)
    assert (graph.trust is None) == (trust is None)
    if trust is not None:
        np.testing.assert_array_equal(graph.trust, trust)
    np.testing.assert_array_equal(dense(graph), edges)
    # every file the oracle accepts takes the bulk path, unless a declaration
    # follows its first edge line: then the reader refuses the edge block and
    # the line loop resumes there
    lines = text.splitlines()
    first = next(k for k, line in enumerate(lines) if line.lstrip().startswith("edge"))
    header, block = range(1, first + 1), range(first + 1, len(lines) + 1)
    if any(line.split("#", 1)[0].split()[:1] in DECLARATIONS for line in lines[first:]):
        assert (trace.tables, trace.scans) == ([False], [header, block])
    else:
        assert (trace.tables, trace.scans) == ([True], [header])


@pytest.mark.parametrize(
    "text, tables, scans",
    [
        (_scenario(["edge 1 1 1", "edge 2 1 1"]), [True], [range(1, 5)]),
        (_scenario(["edge 1 1 1", "edge 2 1 nan"]), [False], [range(1, 5), range(5, 7)]),
        (
            "trep v1\nusers 2\nservers 1\nedge 1 1 1\nedge 2 1 1\nalpha 0.15\n",
            [False],
            [range(1, 4), range(4, 7)],
        ),
    ],
    ids=["sorted", "last-weight-nan", "late-alpha"],
)
def test_load_reads_each_line_once(tmp_path, text, tables, scans):
    # The reader converts the edge block once, and should it refuse the block
    # the line loop resumes at its first line instead of starting over.
    path = tmp_path / "g.trep"
    path.write_text(text, encoding="utf-8")
    with traced_load() as trace:
        got = _outcome(load, path)
    assert (trace.readers, trace.tables, trace.scans) == (1, tables, scans)
    expected = _outcome(load_oracle, path)
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        np.testing.assert_array_equal(dense(got[0]), expected[-1])


def _unchecked(text):
    """The graph of a sorted scenario file with one-token declarations,
    built without a check."""
    fields = [line.split() for line in text.splitlines()]
    counts = {key: int(value) for key, value in (f for f in fields if f[0] in ("users", "servers"))}
    edges = [(int(i) - 1, int(j) - 1, float(w)) for key, i, j, w in (f for f in fields if f[0] == "edge")]
    rows, cols, weights = zip(*edges)
    return RepGraph.from_coo(counts["users"], counts["servers"], rows, cols, weights)


@pytest.mark.parametrize(
    "text, message",
    [
        (_scenario(["edge 1 1 1.000001", "edge 2 1 1"]), "row 1 sums to 1.000001, expected 1"),
        (_scenario(["edge 1 1 1", "edge 2 1 1"], n=3), "row 3 is all zeros: every user must endorse someone"),
        (_scenario(["edge 1 1 nan", "edge 2 1 1"]), "row 1 sums to nan, expected 1"),
        (_scenario(["edge 1 1 1"], n=1), "n must be at least 2, got 1"),
        ("trep v1\nusers 2\nservers 0\nalpha 0.15\nedge 1 2 1\nedge 2 1 1\n", "m must be at least 1, got 0"),
    ],
    ids=["drifting-row", "edgeless-last-row", "nan-weight", "one-user", "no-servers"],
)
def test_load_refuses_what_validate_refuses_with_its_message(tmp_path, text, message):
    path = tmp_path / "g.trep"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as got:
        load(path)
    assert type(got.value) is ValueError
    assert str(got.value) == message == "; ".join(validate(_unchecked(text)))


@pytest.mark.parametrize(
    "text, calls",
    [
        (MINIMAL, 0),
        (MINIMAL.replace("edge 1 2 0.5", "edge 1 2 0.5000000001"), 1),  # renormalized
        (MINIMAL.replace("users 2", "users 3"), 1),  # an edgeless last row
    ],
    ids=["exact", "renormalized", "edgeless-last-row"],
)
def test_load_calls_validate_only_when_a_row_does_not_sum_to_one(tmp_path, monkeypatch, text, calls):
    # load adds each row's total once; a file whose rows all sum to 1 as
    # written needs no second pass, and every other file gets validate's
    seen = []
    monkeypatch.setattr(repgraph, "validate", lambda graph: seen.append(graph) or validate(graph))
    path = tmp_path / "g.trep"
    path.write_text(text, encoding="utf-8")
    with contextlib.suppress(ValueError):
        load(path)
    assert len(seen) == calls


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sorted_and_shuffled_files_load_to_the_same_arrays(tmp_path_factory, seed):
    # A sorted file takes one diff and a shuffled one the argsort; both must
    # drop the same zero weights and renormalize the same drifting rows.
    # The oracle strategy permutes the edges, so it rarely draws a sorted file.
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    edges = []
    for i in range(1, n + 1):
        zeros = int(rng.integers(0, 2))
        k = int(rng.integers(1, m + n + 1 - zeros))
        targets = np.sort(rng.choice(m + n, size=k + zeros, replace=False)) + 1
        drift = rng.choice([0.0, 3e-10, -5e-11])
        weights = rng.permutation(np.append(rng.dirichlet(np.ones(k)) * (1.0 + drift), np.zeros(zeros)))
        edges += [f"edge {i} {j} {w!r}" for j, w in zip(targets.tolist(), weights.tolist())]
    header = f"trep v1\nusers {n}\nservers {m}\nalpha 0.15\n"
    directory = tmp_path_factory.mktemp("order")
    graphs = []
    for name, lines in [("sorted", edges), ("shuffled", rng.permutation(edges).tolist())]:
        text = header + "".join(line + "\n" for line in lines)
        (directory / name).write_text(text, encoding="utf-8")
        with traced_load() as trace:
            graphs.append(load(directory / name)[0])
        assert trace.tables == [True]
    sorted_graph, shuffled_graph = graphs
    for field in ("rows", "cols", "weights"):
        got, expected = getattr(shuffled_graph, field), getattr(sorted_graph, field)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), field
    np.testing.assert_array_equal(dense(sorted_graph), load_oracle(directory / "sorted")[-1])


# -------------------------------------------------------------------- config

def test_config_validates_fields():
    with pytest.raises(ValueError):
        Config(alpha=0.0)
    with pytest.raises(ValueError):
        Config(alpha=1.0)
    with pytest.raises(ValueError):
        Config(tol=0.0)
    with pytest.raises(ValueError):
        Config(max_iters=0)
