import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trep.repgraph import Config, ParseError, RepGraph, from_strategies, load, save, validate

from oracles import row_violations


def bipartite_graph(n=2, m=2, row=(0.5, 0.5)):
    edges = np.zeros((n, m + n))
    edges[:, :m] = np.asarray(row)
    return RepGraph(n=n, m=m, edges=edges)


# ---------------------------------------------------------------- validation

def test_validate_accepts_simple_bipartite():
    assert validate(bipartite_graph()) == []


def test_validate_reports_bad_row_sum():
    g = bipartite_graph()
    g.edges[0, 1] = 0.6  # row sums to 1.1
    violations = validate(g)
    assert any("row 1" in v and "1.1" in v for v in violations)


def test_validate_reports_negative_weight():
    g = bipartite_graph()
    g.edges[0, 0] = -0.1
    g.edges[0, 1] = 1.1
    assert any("negative" in v for v in validate(g))


def test_validate_reports_all_zero_row():
    g = bipartite_graph()
    g.edges[1, :] = 0.0
    assert any("row 2" in v for v in validate(g))


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


# ----------------------------------------------------------- from_strategies

def test_from_strategies_copies_rows():
    profile = np.zeros((2, 4))
    profile[:, 0] = 2 / 3
    profile[:, 1] = 1 / 3
    g = from_strategies(profile, m=2, n=2)
    assert g.n == 2 and g.m == 2
    np.testing.assert_array_equal(g.edges, profile)


def test_from_strategies_user_action_maps_to_user_edge():
    profile = np.zeros((2, 4))
    profile[0, 2] = 1.0  # action m+1 endorses user 1
    profile[1, 0] = 1.0
    g = from_strategies(profile, m=2, n=2)
    assert g.edges[0, 2] == 1.0


def test_from_strategies_pure_strategy():
    profile = np.zeros((2, 4))
    profile[:, 0] = 1.0
    g = from_strategies(profile, m=2, n=2)
    assert g.edges[0, 0] == 1.0 and g.edges[0, 1:].sum() == 0.0


def test_from_strategies_dimension_mismatch():
    with pytest.raises(ValueError):
        from_strategies(np.ones((2, 4)) / 4, m=3, n=2)
    with pytest.raises(ValueError):
        from_strategies(np.ones((3, 4)) / 4, m=2, n=2)


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
