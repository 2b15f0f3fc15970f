import numpy as np
import pytest

from trep.cli import main

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


def test_bootstrap_one_server_exits_2(tmp_path, capsys):
    path = tmp_path / "one.trep"
    path.write_text(ONE_SERVER, encoding="utf-8")
    assert main(["bootstrap", str(path), "--trials", "2", "--out", str(tmp_path)]) == 2
    assert "at least 2 servers" in capsys.readouterr().err
    assert not (tmp_path / "bootstrap.csv").exists()


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


@pytest.mark.parametrize(
    "bad",
    [["--delta", "nan"], ["--p", "-1"], ["--p", "5"], ["--p", "nan"]],
    ids=["delta-nan", "p-negative", "p-above-1", "p-nan"],
)
def test_noisy_bad_p_or_delta_exits_2(scenario, tmp_path, capsys, bad):
    args = ["noisy", str(scenario), "--trials", "2", "--out", str(tmp_path)]
    if bad[0] == "--p":
        args += ["--delta", "0.05"]
    assert main(args + bad) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "f2.csv").exists()
    assert not (tmp_path / "noisy.csv").exists()  # checked before the sweep runs


@pytest.mark.parametrize(
    "args",
    [["nash", "--k", "0"], ["nash", "--n", "0"], ["noisy", "--n", "0"]],
    ids=["nash-k0", "nash-n0", "noisy-n0"],
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
