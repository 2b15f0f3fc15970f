import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trep import repgraph
from trep.repgraph import (
    Config,
    ParseError,
    RepGraph,
    _parse_bulk,
    load,
    save,
    validate,
)

from oracles import load_oracle, row_violations


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
    bad = RepGraph(n=g.n, m=g.m, edges=g.edges, trust=np.array([1.5, 0.5]))
    assert any("trust" in v for v in validate(bad))
    zero = RepGraph(n=g.n, m=g.m, edges=g.edges, trust=np.array([0.0, 0.0]))
    assert any("trust" in v for v in validate(zero))


def test_validate_builds_no_dense_row_for_an_edgeless_user(monkeypatch):
    dense_rows = []
    original = repgraph._dense_row
    monkeypatch.setattr(
        repgraph, "_dense_row", lambda *args: dense_rows.append(args[-1]) or original(*args)
    )
    n = 50_000
    graph = RepGraph.from_coo(n, 1, [0], [0], [1.0])
    assert validate(graph) == [
        f"row {i} is all zeros: every user must endorse someone" for i in range(2, n + 1)
    ]
    assert dense_rows == []


# ---------------------------------------------------- strategy profiles as graphs

def test_from_strategies_copies_rows():
    profile = np.zeros((2, 4))
    profile[:, 0] = 2 / 3
    profile[:, 1] = 1 / 3
    g = RepGraph(n=2, m=2, edges=profile)
    assert g.n == 2 and g.m == 2
    np.testing.assert_array_equal(g.edges, profile)


def test_from_strategies_user_action_maps_to_user_edge():
    profile = np.zeros((2, 4))
    profile[0, 2] = 1.0  # action m+1 endorses user 1
    profile[1, 0] = 1.0
    g = RepGraph(n=2, m=2, edges=profile)
    assert g.edges[0, 2] == 1.0


def test_from_strategies_pure_strategy():
    profile = np.zeros((2, 4))
    profile[:, 0] = 1.0
    g = RepGraph(n=2, m=2, edges=profile)
    assert g.edges[0, 0] == 1.0 and g.edges[0, 1:].sum() == 0.0


def test_from_strategies_dimension_mismatch():
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
    np.testing.assert_allclose(graph.edges[:, :2], 0.5)


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
    assert abs(graph.edges[0].sum() - 1.0) <= 1e-12


def test_load_rejects_large_row_drift(tmp_path):
    drift = MINIMAL.replace("edge 1 2 0.5", "edge 1 2 0.51")
    path = tmp_path / "g.trep"
    path.write_text(drift)
    with pytest.raises(ValueError):
        load(path)


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
    np.testing.assert_array_equal(g.edges, g2.edges)
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
    np.testing.assert_array_equal(g.edges, g2.edges)


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
        back = RepGraph.from_coo(n, m, g.rows, g.cols, g.weights).edges
        assert back.tobytes() == edges.tobytes() == g.edges.tobytes()


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
        g.edges[0, 1] = 0.6
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
            lines.insert(at, lines[draw(st.integers(1, 4))])
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


@settings(max_examples=500, deadline=None)
@given(scenario_files())
def test_load_matches_line_by_line_oracle(tmp_path_factory, text):
    # load converts edge lines in bulk and falls back to the line loop on any
    # failure; either way it must agree with the dense line-by-line oracle:
    # the same graph (weights bit-equal; a -0.0 weight reads +0.0, as zero
    # weights are dropped), or the same error type, message and line number.
    path = tmp_path_factory.getbasetemp() / "property.trep"
    path.write_text(text, encoding="utf-8")
    expected, got = _outcome(load_oracle, path), _outcome(load, path)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        assert getattr(got, "lineno", None) == getattr(expected, "lineno", None)
        return
    assert not isinstance(got, Exception), got
    n, m, alpha, trust, edges = expected
    graph, cfg = got
    assert (graph.n, graph.m, cfg.alpha) == (n, m, alpha)
    assert (graph.trust is None) == (trust is None)
    if trust is not None:
        np.testing.assert_array_equal(graph.trust, trust)
    np.testing.assert_array_equal(graph.edges, edges)
    # every file the oracle accepts takes the bulk path, not the fallback
    assert _parse_bulk(text) is not None


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
