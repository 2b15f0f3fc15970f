import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trep.cli
import trep.decoder
import trep.pagerank
from trep.bootstrap import BootstrapConfig, honest_majority_check, run_bootstrap, select_committee
from trep.cli import DEFAULT_EPSILONS, main
from trep.decoder import decode_graph
from trep.repgraph import Config, RepGraph, load, save
from trep.rng import substream

SCENARIO = """trep v1
users 3
servers 2
alpha 0.15
trust 0.8 0.4
edge 1 1 0.6666666666666666
edge 1 2 0.3333333333333333
edge 2 1 0.6666666666666666
edge 2 2 0.3333333333333333
edge 3 1 0.6666666666666666
edge 3 2 0.3333333333333333
"""

NO_TRUST = """trep v1
users 2
servers 2
alpha 0.15
edge 1 1 1
edge 2 2 1
"""

ALL_UNTRUSTED = """trep v1
users 2
servers 2
alpha 0.15
edge 1 3 0.5
edge 1 4 0.5
edge 2 3 0.5
edge 2 4 0.5
"""

NAN_EDGE = """trep v1
users 2
servers 2
alpha 0.15
edge 1 1 nan
edge 2 2 1
"""

ONE_SERVER = """trep v1
users 2
servers 1
alpha 0.15
trust 0.5
edge 1 1 1
edge 2 1 1
"""

USER_EDGES = """trep v1
users 3
servers 2
alpha 0.15
edge 1 1 0.5
edge 1 4 0.5
edge 2 2 0.25
edge 2 5 0.75
edge 3 1 0.2
edge 3 3 0.8
"""


@pytest.fixture
def scenario(tmp_path):
    path = tmp_path / "scenario.trep"
    path.write_text(SCENARIO, encoding="utf-8")
    return path


def test_decode_writes_csv_and_summary(scenario, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["decode", str(scenario), "--out", str(out)])
    assert rc == 0
    text = (out / "decode.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "server_index,rho,trust"
    rho = [float(ln.split(",")[1]) for ln in lines[1:3]]
    np.testing.assert_allclose(rho, [2 / 3, 1 / 3], atol=1e-9)
    captured = capsys.readouterr()
    assert "rho" in captured.out
    assert "inversions 0" in captured.out


def test_decode_reads_a_file_with_a_byte_order_mark(scenario, tmp_path, capsys):
    marked = tmp_path / "marked.trep"
    marked.write_text("\ufeff" + SCENARIO, encoding="utf-8")
    assert main(["decode", str(marked), "--out", str(tmp_path / "marked")]) == 0
    assert main(["decode", str(scenario), "--out", str(tmp_path / "plain")]) == 0
    marked_csv = (tmp_path / "marked" / "decode.csv").read_bytes()
    assert marked_csv == (tmp_path / "plain" / "decode.csv").read_bytes()


COMMANDS = {
    "decode": ["decode"],
    "nash": ["nash", "--trials", "3"],
    "noisy": ["noisy", "--trials", "2", "--delta", "0.05"],
    "bootstrap": ["bootstrap", "--trials", "2", "--committee", "2"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_out_naming_a_file_exits_2_and_writes_nothing(scenario, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_bytes(b"kept\n")
    before = sorted(tmp_path.iterdir())
    name, *args = COMMANDS[command]
    assert main([name, str(scenario), *args, "--out", str(taken)]) == 2
    exists = FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(taken))
    assert capsys.readouterr() == ("", f"error: {exists}\n")
    assert taken.read_bytes() == b"kept\n"
    assert sorted(tmp_path.iterdir()) == before


def test_a_missing_nested_out_is_created(scenario, tmp_path):
    out = tmp_path / "runs" / "seed-17" / "bootstrap"
    name, *args = COMMANDS["bootstrap"]
    assert main([name, str(scenario), *args, "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["bootstrap.csv", "bootstrap.log"]


def test_a_shorter_output_replaces_a_longer_one_byte_for_byte(scenario, tmp_path):
    # The second run writes fewer bytes into the files the first one wrote:
    # each file must hold exactly the new bytes, as in a fresh directory.
    name, *args = COMMANDS["bootstrap"]
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main([name, str(scenario), *args, "--trials", "6", "--out", str(out)]) == 0
    longer = (out / "bootstrap.csv").read_bytes()
    assert main([name, str(scenario), *args, "--trials", "1", "--out", str(out)]) == 0
    assert main([name, str(scenario), *args, "--trials", "1", "--out", str(fresh)]) == 0
    shorter = (fresh / "bootstrap.csv").read_bytes()
    assert len(shorter) < len(longer)
    for file in ("bootstrap.csv", "bootstrap.log"):
        assert (out / file).read_bytes() == (fresh / file).read_bytes()


def test_a_new_output_gets_the_mode_a_binary_open_gives(scenario, tmp_path):
    # 0o666 less the umask, as open(path, "wb") creates a file, in an --out
    # that exists and in one the command makes
    mask = os.umask(0o027)
    try:
        for out in (tmp_path, tmp_path / "made"):
            assert main(["decode", str(scenario), "--out", str(out)]) == 0
        with open(tmp_path / "reference", "wb"):
            pass
    finally:
        os.umask(mask)
    modes = {path.stat().st_mode & 0o777 for path in tmp_path.glob("**/*.csv")}
    assert len(list(tmp_path.glob("**/*.csv"))) == 2
    assert modes == {(tmp_path / "reference").stat().st_mode & 0o777} == {0o640}


def test_the_scenario_config_is_loads_own_unless_an_option_overrides_it(scenario, monkeypatch):
    loaded = []
    monkeypatch.setattr(trep.cli, "load", lambda path: loaded.append(load(path)) or loaded[-1])
    parser = trep.cli.build_parser()
    _, cfg = trep.cli._load_scenario(parser.parse_args(["decode", str(scenario)]))
    assert cfg is loaded[-1][1]
    _, cfg = trep.cli._load_scenario(parser.parse_args(["decode", str(scenario), "--tol", "1e-9"]))
    assert cfg == Config(alpha=0.15, tol=1e-9)


def test_a_file_that_is_not_utf8_exits_2_with_the_decode_error(scenario, tmp_path, capsys):
    bad = tmp_path / "bad.trep"
    bad.write_bytes(scenario.read_bytes().replace(b"users", b"us\xffers"))
    out = tmp_path / "out"
    assert main(["decode", str(bad), "--out", str(out)]) == 2
    message = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "declarations, counts",
    [
        ("users 100000000000000000000\nservers 1", "users 100000000000000000000 and servers 1"),
        ("servers 100000000000000000000\nusers 2", "users 2 and servers 100000000000000000000"),
    ],
    ids=["users", "servers"],
)
def test_oversized_counts_exit_2_and_write_nothing(tmp_path, capsys, declarations, counts):
    # n * (m + n) >= 2**62 would overflow the edge keys (and NumPy's counts
    # before them), so the declaration that completes the pair is refused
    path = tmp_path / "big.trep"
    path.write_text(f"trep v1\n{declarations}\nalpha 0.15\nedge 1 1 1\nedge 2 1 1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["decode", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: line 3: {counts} are too many: n * (m + n) >= 2**62\n")
    assert not out.exists()


def test_decode_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.trep"
    bad.write_text("trep v9\n", encoding="utf-8")
    rc = main(["decode", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_decode_missing_file_exits_2(tmp_path, capsys):
    rc = main(["decode", str(tmp_path / "nope.trep"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err != ""


def test_decode_nan_edge_weight_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.trep"
    path.write_text(NAN_EDGE, encoding="utf-8")
    rc = main(["decode", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "row 1 sums to nan" in capsys.readouterr().err


def test_decode_nan_tol_exits_2(scenario, tmp_path, capsys):
    rc = main(["decode", str(scenario), "--tol", "nan", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "tol must be positive" in capsys.readouterr().err


def test_decode_iteration_budget_exhausted_exits_1(tmp_path, capsys):
    path = tmp_path / "user_edges.trep"
    path.write_text(USER_EDGES, encoding="utf-8")
    assert main(["decode", str(path), "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    rc = main(["decode", str(path), "--max-iters", "1", "--tol", "1e-15", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "residual" in capsys.readouterr().err


NO_MEMORY = "Unable to allocate 671. GiB for an array with shape (300000, 300005) and data type float64"


@pytest.mark.parametrize(
    "argv, owner, builder",
    [
        (["noisy", "--epsilon", "0.01", "--delta", "0.05"], trep.decoder, "truth_telling_profile"),
        (["nash", "--k", "1"], trep.cli, "_hierarchy_profile"),
    ],
)
def test_an_allocation_failure_exits_1_and_writes_nothing(
    scenario, tmp_path, capsys, monkeypatch, argv, owner, builder
):
    # With --n 300000 NumPy raises MemoryError for the dense profile; the
    # builder raises it here without allocating anything.
    def unallocatable(*args):
        raise MemoryError(NO_MEMORY)

    monkeypatch.setattr(owner, builder, unallocatable)
    out = tmp_path / "o"
    rc = main([argv[0], str(scenario), "--n", "300000", *argv[1:], "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {NO_MEMORY}\n"
    assert not out.exists()


def test_decode_all_untrusted_exits_1(tmp_path, capsys):
    path = tmp_path / "untrusted.trep"
    path.write_text(ALL_UNTRUSTED, encoding="utf-8")
    rc = main(["decode", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err != ""


def test_nash_reports_epsilon_prime(scenario, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["nash", str(scenario), "--out", str(out), "--trials", "20", "--seed", "7"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "epsilon_prime" in captured
    lines = (out / "nash.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "player,utility,gain"
    assert len(lines) == 1 + 3
    utility = float(lines[1].split(",")[1])
    assert utility == pytest.approx(1.2 / 3, abs=1e-9)


def test_plain_nash_reads_neither_seed_nor_trials(scenario, tmp_path, capsys):
    # Without --k nash draws nothing: probe_min is exact, so --seed and
    # --trials are accepted and leave stdout and nash.csv alone.
    outputs = []
    for seed, trials in (("1", "3"), ("9", "40")):
        out = tmp_path / seed
        assert main(["nash", str(scenario), "--out", str(out), "--seed", seed, "--trials", trials]) == 0
        outputs.append((capsys.readouterr().out, (out / "nash.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_nash_requires_trust(tmp_path, capsys):
    path = tmp_path / "nt.trep"
    path.write_text(NO_TRUST, encoding="utf-8")
    rc = main(["nash", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "trust" in capsys.readouterr().err


def test_nash_hierarchy_mode(scenario, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["nash", str(scenario), "--out", str(out), "--k", "2", "--trials", "3", "--seed", "5"])
    assert rc == 0
    lines = (out / "nash.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "draw,max_gain,rho_drift"
    assert len(lines) == 1 + 3
    for ln in lines[1:]:
        _, gain, drift = ln.split(",")
        assert float(gain) <= 1e-8
        assert float(drift) <= 1e-9


def test_nash_hierarchy_builds_one_profile_graph_per_draw(scenario, tmp_path, count_calls):
    # The gains need no graph; decode builds the draw's profile graph once.
    graphs = count_calls("trep.repgraph", "_profile_graph")
    args = ["nash", str(scenario), "--out", str(tmp_path / "out"), "--k", "2", "--trials", "10"]
    assert main(args) == 0
    assert len(graphs) == 10


def test_nash_hierarchy_blocks_of_draws_leave_the_bytes(scenario, tmp_path, monkeypatch, capsys):
    # One stacked gains call per block of draws: blocks of one draw, of
    # three and of every draw write the same files and stdout.  A draw of
    # n = 7, k = 2 counts (n - k) k = 10 floats of newcomer weights.
    args = ["nash", str(scenario), "--k", "2", "--n", "7", "--trials", "7", "--seed", "4"]
    outputs = []
    for floats in (1, 3 * 10, trep.cli.HIERARCHY_BLOCK):
        monkeypatch.setattr(trep.cli, "HIERARCHY_BLOCK", floats)
        out = tmp_path / str(floats)
        assert main(args + ["--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, (out / "nash.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_nash_hierarchy_gains_print_exactly_zero_for_every_k(tmp_path):
    # N(R) is each established player's server-only best response and the
    # probe row never beats it, so every gain is +0.0, whatever k; eleven
    # servers, one of them untrusted.
    scenario = Path(__file__).parent / "golden" / "nash" / "hierarchy-k1" / "scenario.trep"
    for k in range(1, 6):
        out = tmp_path / str(k)
        assert main(["nash", str(scenario), "--k", str(k), "--trials", "8", "--out", str(out)]) == 0
        rows = (out / "nash.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0"] * 8


def test_nash_hierarchy_checks_trust_once_per_command(scenario, tmp_path, count_calls):
    # Each draw runs the kernels; the weights are distributions by construction.
    checks = count_calls("trep.game", "_check_trust")
    hierarchy_checks = count_calls("trep.equilibrium", "_check_hierarchy")
    args = ["nash", str(scenario), "--k", "2", "--trials", "5"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert len(checks) == 1
    assert hierarchy_checks == []


def test_commands_never_build_the_dense_matrix(scenario, tmp_path, monkeypatch):
    # Scores, gains and bootstrap runs step on the edge list; the dense
    # blocks of tour counts and contribution shares, and the full chain,
    # are for the library's dense solves and tests only.
    def unbuilt(*args):
        pytest.fail("a command built a dense block of the graph")

    monkeypatch.setattr(trep.pagerank, "_excursion_system", unbuilt)
    monkeypatch.setattr(trep.pagerank, "build_designated_chain", unbuilt)
    commands = [
        ["decode", "--seed", "5"],
        ["nash", "--seed", "5", "--trials", "25"],
        ["nash", "--k", "2", "--trials", "5"],
        ["noisy", "--seed", "5", "--trials", "6", "--epsilon", "0.005", "--epsilon", "0.01",
         "--delta", "0.05"],
        ["bootstrap", "--seed", "5", "--trials", "8", "--lambda", "4", "--committee", "2"],
    ]
    for k, (command, *args) in enumerate(commands):
        assert main([command, str(scenario), *args, "--out", str(tmp_path / str(k))]) == 0


def test_noisy_csv_columns_and_determinism(scenario, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["noisy", str(scenario), "--epsilon", "0.005", "--epsilon", "0.01",
            "--trials", "4", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    text1 = (out1 / "noisy.csv").read_text(encoding="utf-8")
    text2 = (out2 / "noisy.csv").read_text(encoding="utf-8")
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0] == "epsilon,epsilon_prime,bound"
    assert len(lines) == 1 + 2 * 4
    for ln in lines[1:]:
        eps, ep, bound = (float(v) for v in ln.split(","))
        assert eps in (0.005, 0.01)
        assert 0.0 <= ep <= bound


def test_noisy_parallel_matches_serial(scenario, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ["noisy", str(scenario), "--epsilon", "0.01", "--trials", "6", "--seed", "11"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--parallel", "4"]) == 0
    assert (serial / "noisy.csv").read_bytes() == (parallel / "noisy.csv").read_bytes()


def test_noisy_writes_f2_summary_when_delta_given(scenario, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "noisy", str(scenario), "--epsilon", "0.01", "--trials", "30",
        "--delta", "0.05", "--seed", "13", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "f2.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epsilon,empirical_prob,bound,q,threshold"
    eps, emp, bound, q, threshold = (float(v) for v in lines[1].split(","))
    assert eps == 0.01
    assert emp >= bound
    assert 0 < threshold < 1


def test_bootstrap_writes_log_and_csv(scenario, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["bootstrap", str(scenario), "--lambda", "4", "--committee", "2",
            "--trials", "5", "--seed", "17"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    log = (out1 / "bootstrap.log").read_text(encoding="utf-8")
    assert log.splitlines()[0].startswith("round 1 committee ")
    csv_text = (out1 / "bootstrap.csv").read_text(encoding="utf-8")
    assert csv_text == (out2 / "bootstrap.csv").read_text(encoding="utf-8")
    lines = csv_text.splitlines()
    assert lines[0] == "trial,restarts,rounds,detected,majority,margin"
    assert len(lines) == 1 + 5


def test_bootstrap_scores_the_profile_once(scenario, tmp_path, monkeypatch):
    import trep.decoder

    calls = []
    scores = trep.decoder.reputation_scores

    def counted(*args, **kwargs):
        calls.append(1)
        return scores(*args, **kwargs)

    monkeypatch.setattr(trep.decoder, "reputation_scores", counted)
    args = ["bootstrap", str(scenario), "--committee", "2", "--trials", "5"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_bootstrap_renders_the_log_once(scenario, tmp_path, count_calls):
    # Only trial 0's log is written; every other trial needs its round count.
    renders = count_calls("trep.bootstrap", "trace_event_log")
    args = ["bootstrap", str(scenario), "--lambda", "4", "--committee", "2", "--trials", "10"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert len(renders) == 1


@pytest.mark.parametrize(
    "text, extra, message",
    [
        (ONE_SERVER, [], "need at least 2 servers, got 1"),
        (SCENARIO, ["--committee", "3"], "committee size 3 exceeds server count 2"),
    ],
    ids=["one-server", "committee-above-servers"],
)
def test_bootstrap_schedule_check_exits_2(tmp_path, capsys, text, extra, message):
    # The command checks trust against the schedule once, before any trial
    path = tmp_path / "scenario.trep"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["bootstrap", str(path), "--trials", "2", "--out", str(out)] + extra) == 2
    assert message in capsys.readouterr().err
    assert not (out / "bootstrap.csv").exists()
    assert not (out / "bootstrap.log").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--ell", "0"], "ell must lie in 1..2, got 0"),
        (["--ell", "3"], "ell must lie in 1..2, got 3"),
        (["--fraction", "0"], "fraction must lie in (0, 1], got 0.0"),
        (["--fraction", "1.5"], "fraction must lie in (0, 1], got 1.5"),
        (["--fraction", "nan"], "fraction must lie in (0, 1], got nan"),
    ],
    ids=["ell-zero", "ell-above-servers", "fraction-zero", "fraction-above-one", "fraction-nan"],
)
def test_bootstrap_committee_pool_check_exits_2(scenario, tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    assert main(["bootstrap", str(scenario), "--trials", "2", "--out", str(out)] + extra) == 2
    assert message in capsys.readouterr().err
    assert not (out / "bootstrap.csv").exists()
    assert not (out / "bootstrap.log").exists()


def test_bootstrap_majority_is_that_of_the_selected_pool(tmp_path):
    # --ell 3 --fraction 0.5 keeps the two best of six servers, where the
    # defaults keep all six; each row's verdict is that committee's.
    trust = np.array([0.9, 0.2, 0.7, 0.1, 0.8, 0.3])
    n, m, seed = 3, trust.size, 23
    edges = np.zeros((n, m + n))
    edges[:, :m] = trust / trust.sum()
    save(RepGraph(n, m, edges, trust), Config(), tmp_path / "s.trep")
    args = ["bootstrap", str(tmp_path / "s.trep"), "--lambda", "3", "--committee", "2",
            "--trials", "40", "--seed", str(seed), "--ell", "3", "--fraction", "0.5"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    graph, cfg = load(tmp_path / "s.trep")
    rho = decode_graph(graph, cfg).rho
    committee = select_committee(rho, 3, 0.5)
    assert committee == [0, 4] != select_committee(rho, m, 0.9)
    bcfg = BootstrapConfig(lam=3, committee_size=2)
    lines = (tmp_path / "bootstrap.csv").read_text(encoding="utf-8").splitlines()[1:]
    verdicts = set()
    for trial, line in enumerate(lines):
        trace = run_bootstrap(graph.trust, bcfg, substream(seed, "boot", trial))
        majority, margin = honest_majority_check(committee, trace.honest)
        assert line.split(",")[-2:] == [str(majority).lower(), str(margin)]
        verdicts.add(majority)
    assert len(lines) == 40 and verdicts == {True, False}


def test_bootstrap_checks_trust_once_per_command(scenario, tmp_path, count_calls):
    checks = count_calls("trep.game", "_check_trust")
    args = ["bootstrap", str(scenario), "--lambda", "4", "--committee", "2", "--trials", "10"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert len(checks) == 1


@st.composite
def bootstrap_scenarios(draw):
    m = draw(st.integers(2, 12))
    values = st.sampled_from([0.0, 1.0]) if draw(st.booleans()) else st.floats(0.0, 1.0)
    trust = draw(st.lists(values, min_size=m, max_size=m))
    assume(any(t > 0 for t in trust))
    lam, size = draw(st.integers(1, 9)), draw(st.integers(1, m))
    return np.array(trust), lam, size, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(bootstrap_scenarios())
def test_bootstrap_csv_matches_public_run_bootstrap(tmp_path_factory, case):
    # The command runs the private kernel on trust it checked once; each row
    # must equal what the public function and the majority check give.
    trust, lam, size, seed = case
    m, n = trust.size, 3
    edges = np.zeros((n, m + n))
    edges[:, :m] = 1.0 / m
    tmp = tmp_path_factory.mktemp("boot")
    save(RepGraph(n, m, edges, trust), Config(), tmp / "s.trep")
    args = ["bootstrap", str(tmp / "s.trep"), "--lambda", str(lam), "--committee", str(size),
            "--trials", "30", "--seed", str(seed), "--out", str(tmp)]
    assert main(args) == 0
    graph, cfg = load(tmp / "s.trep")
    committee = select_committee(decode_graph(graph, cfg).rho, m, 0.9)
    bcfg = BootstrapConfig(lam=lam, committee_size=size)
    rows = ["trial,restarts,rounds,detected,majority,margin"]
    for trial in range(30):
        trace = run_bootstrap(graph.trust, bcfg, substream(seed, "boot", trial))
        majority, margin = honest_majority_check(committee, trace.honest)
        detected = ";".join(str(j + 1) for j in trace.detected) or "none"
        rows.append(f"{trial},{trace.restarts},{trace.rounds},{detected},"
                    f"{str(majority).lower()},{margin}")
    assert (tmp / "bootstrap.csv").read_text(encoding="utf-8") == "\n".join(rows) + "\n"


def test_bootstrap_parallel_matches_serial(scenario, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ["bootstrap", str(scenario), "--lambda", "3", "--committee", "2",
            "--trials", "6", "--seed", "19"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--parallel", "3"]) == 0
    assert (serial / "bootstrap.csv").read_bytes() == (parallel / "bootstrap.csv").read_bytes()


def test_alpha_override_changes_nothing_at_equilibrium(scenario, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["decode", str(scenario), "--out", str(out1)]) == 0
    assert main(["decode", str(scenario), "--alpha", "0.5", "--out", str(out2)]) == 0
    rho1 = (out1 / "decode.csv").read_text(encoding="utf-8").splitlines()[1:3]
    rho2 = (out2 / "decode.csv").read_text(encoding="utf-8").splitlines()[1:3]
    for a, b in zip(rho1, rho2):
        assert abs(float(a.split(",")[1]) - float(b.split(",")[1])) <= 1e-9


@pytest.mark.parametrize("command, trials", [("nash", "-3"), ("noisy", "-3"), ("bootstrap", "0")])
def test_trials_below_one_exits_2(scenario, tmp_path, command, trials):
    with pytest.raises(SystemExit) as exc:
        main([command, str(scenario), "--trials", trials, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.glob("*.csv")) == []


def test_trials_not_an_integer_exits_2(scenario, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["noisy", str(scenario), "--trials", "x", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("argument --trials: invalid int value: 'x'\n")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "bad",
    [
        ["--delta", "nan"],
        ["--p", "-1", "--delta", "0.05"],
        ["--p", "5", "--delta", "0.05"],
        ["--p", "nan", "--delta", "0.05"],
        # --p enters only the f2 checks, but a bad one fails without --delta too
        ["--p", "-1"],
        ["--p", "5"],
        ["--p", "nan"],
    ],
    ids=[
        "delta-nan", "p-negative", "p-above-1", "p-nan",
        "p-negative-no-delta", "p-above-1-no-delta", "p-nan-no-delta",
    ],
)
def test_noisy_bad_p_or_delta_exits_2(scenario, tmp_path, capsys, bad):
    args = ["noisy", str(scenario), "--trials", "2", "--out", str(tmp_path)]
    assert main(args + bad) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if bad[0] == "--p":
        assert err == f"error: p must lie in [0, 1], got {float(bad[1])}\n"
    assert not (tmp_path / "f2.csv").exists()
    assert not (tmp_path / "noisy.csv").exists()  # checked before the sweep runs


def test_noisy_margin_failure_after_a_good_level_writes_no_file(scenario, tmp_path, capsys):
    # 0.01 runs its f2 check and its sweep before 0.3 fails on trust 0.8
    out = tmp_path / "out"
    args = ["noisy", str(scenario), "--epsilon", "0.01", "--epsilon", "0.3", "--delta", "0.05"]
    assert main(args + ["--trials", "2", "--out", str(out)]) == 2
    message = "trust values within 0.3 of 0 or 1 cannot take symmetric noise"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--delta", "0.05"]], ids=["sweep", "f2"])
def test_noisy_nan_epsilon_exits_2(scenario, tmp_path, capsys, extra):
    args = ["noisy", str(scenario), "--epsilon", "nan", "--trials", "2", "--out", str(tmp_path)]
    assert main(args + extra) == 2
    assert capsys.readouterr().err == "error: epsilon must be nonnegative\n"
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "args",
    [
        ["nash", "--k", "0"], ["nash", "--n", "0"], ["noisy", "--n", "0"],
        ["noisy", "--n", "1", "--delta", "0.05"],  # f2_check's player count
    ],
    ids=["nash-k0", "nash-n0", "noisy-n0", "noisy-n1-f2"],
)
def test_zero_overrides_exit_2(scenario, tmp_path, capsys, args):
    command, *override = args
    argv = [command, str(scenario), "--trials", "2", "--out", str(tmp_path)] + override
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "override, players",
    [(["--k", "-1"], 3), (["--k", "4"], 3), (["--k", "3"], 3), (["--n", "6", "--k", "7"], 6)],
    ids=["k-negative", "k-above-n", "k-equals-n", "k-above-n-override"],
)
def test_nash_k_out_of_range_exits_2_before_any_draw(scenario, tmp_path, capsys, override, players):
    argv = ["nash", str(scenario), "--trials", "2", "--out", str(tmp_path)] + override
    assert main(argv) == 2
    k = override[-1]
    assert f"error: k must lie in 1..{players - 1}, got {k}" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


# ------------------------------------------------------ one parser per process

def test_noisy_default_sweep_after_an_epsilon_call(scenario, tmp_path):
    args = ["noisy", str(scenario), "--trials", "2", "--seed", "3"]
    assert main(args + ["--epsilon", "0.01", "--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "default")]) == 0
    lines = (tmp_path / "default" / "noisy.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [float(ln.split(",")[0]) for ln in lines] == [e for e in DEFAULT_EPSILONS for _ in range(2)]


def test_good_call_after_a_parse_error_matches_a_fresh_process(scenario, tmp_path):
    args = ["bootstrap", str(scenario), "--lambda", "3", "--committee", "2", "--seed", "5"]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--trials", "0", "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert main(args + ["--trials", "3", "--out", str(tmp_path / "shared")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(trep.cli.__file__).parents[1]))
    fresh = [sys.executable, "-m", "trep.cli", *args, "--trials", "3", "--out", str(tmp_path / "fresh")]
    subprocess.run(fresh, env=env, check=True, capture_output=True)
    for name in ("bootstrap.csv", "bootstrap.log"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_alpha_override_does_not_outlive_its_call(scenario, tmp_path, monkeypatch):
    alphas = []
    decode_graph = trep.cli.decode_graph
    monkeypatch.setattr(
        trep.cli, "decode_graph", lambda g, cfg, **kw: alphas.append(cfg.alpha) or decode_graph(g, cfg, **kw)
    )
    assert main(["decode", str(scenario), "--alpha", "0.5", "--out", str(tmp_path)]) == 0
    assert main(["decode", str(scenario), "--out", str(tmp_path)]) == 0
    assert alphas == [0.5, 0.15]


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "s.trep", "--tol", "1e-10"],
        ["nash", "s.trep", "--k", "2", "--trials", "3"],
        ["noisy", "s.trep", "--epsilon", "0.01", "--epsilon", "0.02", "--delta", "0.1"],
        ["bootstrap", "s.trep", "--lambda", "4", "--fraction", "0.5"],
    ],
    ids=["decode", "nash", "noisy", "bootstrap"],
)
def test_shared_parser_parses_as_a_fresh_one(monkeypatch, argv):
    seen = []
    monkeypatch.setattr(trep.cli, f"cmd_{argv[0]}", lambda args: seen.append(vars(args)) or 0)
    assert main(argv) == 0
    assert main(argv) == 0
    expected = vars(trep.cli.build_parser().parse_args(argv))
    assert seen == [expected, expected]


def test_main_builds_its_parser_once(scenario, tmp_path, monkeypatch):
    built = []
    build_parser = trep.cli.build_parser
    monkeypatch.setattr(trep.cli, "_PARSER", None)
    monkeypatch.setattr(trep.cli, "build_parser", lambda: built.append(1) or build_parser())
    for command in ("decode", "nash", "noisy", "bootstrap", "decode"):
        trials = [] if command == "decode" else ["--trials", "2"]
        assert main([command, str(scenario), *trials, "--out", str(tmp_path)]) == 0
    assert built == [1]


def test_rejection_of_every_row_stays_linear(tmp_path, capsys):
    n = 20_000
    path = tmp_path / "half.trep"
    edges = "".join(f"edge {i} 1 0.5\n" for i in range(1, n + 1))
    path.write_text(f"trep v1\nusers {n}\nservers 1\nalpha 0.15\n" + edges, encoding="utf-8")
    assert main(["decode", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: row 1 sums to 0.5, expected 1; row 2 sums to 0.5, expected 1;")
    assert err.count("sums to 0.5, expected 1") == n


# ------------------------------------------------------------ argv dispatch

def _exit(parse, argv, capsys) -> tuple:
    """The exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["nash", "--help"],
        ["nash"],
        ["nash", "s.trep", "--bogus"],
        ["nash", "s.trep", "extra"],
        ["nash", "s.trep", "--trials", "0"],
        ["bogus", "s.trep"],
    ],
    ids=["empty", "help", "nash-help", "nash-no-scenario", "unknown-option", "extra", "bad-value", "bogus"],
)
def test_main_exits_as_the_full_parser_does(capsys, argv):
    # a subcommand's argv skips the top-level parse, with the same exit and text
    assert _exit(main, argv, capsys) == _exit(trep.cli.build_parser().parse_args, argv, capsys)


def test_a_subcommand_argv_skips_the_top_level_parse(scenario, tmp_path, monkeypatch):
    argv = ["decode", str(scenario), "--out", str(tmp_path)]
    assert main(argv) == 0  # builds the shared parser
    parsed = []
    parse_args = trep.cli._PARSER.parse_args
    monkeypatch.setattr(trep.cli._PARSER, "parse_args", lambda a: parsed.append(a) or parse_args(a))
    assert main(argv) == 0
    assert parsed == []
    with pytest.raises(SystemExit):
        main([*argv, "extra"])  # left over: parsed again in full, for the top-level usage
    assert parsed == [[*argv, "extra"]]


def test_main_reads_sys_argv_on_both_paths(scenario, tmp_path, monkeypatch, capsys):
    argv = ["decode", str(scenario), "--out", str(tmp_path)]
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["trep", *argv])
    assert main() == 0
    assert capsys.readouterr() == expected
    monkeypatch.setattr(sys, "argv", ["trep", *argv, "extra"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("\ntrep: error: unrecognized arguments: extra\n")
    monkeypatch.setattr(sys, "argv", ["trep", "--help"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: trep [-h] {decode,nash,noisy,bootstrap} ...\n")
