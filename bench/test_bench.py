"""Tests of the benchmark itself: every output check fires on a corrupted
output, the tracer sees nested calls and restores the program, the compare
verdicts follow their rules, the calibration allocates nothing per call,
and BENCHMARK.json names what run.py reports.

    PYTHONPATH=src python3 -m pytest bench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import trep.cli  # noqa: E402
import trep.decoder  # noqa: E402
from compare import compare, verdict  # noqa: E402
from run import END_TO_END_UNITS, layer_units  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    HIERARCHY_DRAWS,
    Bootstrap,
    DetectionTally,
    Hierarchy,
    NoisyF2,
    check_decode,
    dense_scores,
    random_graph,
    scenario_text,
    stream,
)


def execute(command, out: Path, outputs) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert trep.cli.main(command.argv + ["--out", str(out)]) == 0
    return buf.getvalue(), {name: (out / name).read_text() for name in outputs}


def corrupt_csv(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units()


@pytest.fixture
def small_decode(tmp_path):
    n, m = 40, 5
    rows, cols, weights = random_graph(stream(3, "test"), n, m)
    trust = np.linspace(0.2, 0.8, m)
    edges = zip((rows + 1).tolist(), (cols + 1).tolist(), weights)
    path = tmp_path / "graph.trep"
    path.write_text(scenario_text(n, m, trust, edges))
    command = type("C", (), {"argv": ["decode", str(path)]})
    stdout, files = execute(command, tmp_path / "out", ("decode.csv",))
    return stdout, files, dense_scores(n, m, rows, cols, weights)


def test_decode_check_passes_on_program_output_and_fires_on_corruption(small_decode):
    stdout, files, expected = small_decode
    assert check_decode(stdout, files, expected) == []
    shifted = expected.copy()
    shifted[2] += 1e-8
    assert len(check_decode(stdout, files, shifted)) == 2
    bad_csv = {"decode.csv": corrupt_csv(files["decode.csv"], 1, 1, "%.17g" % (expected[0] + 1e-8))}
    assert any("decode.csv" in e for e in check_decode(stdout, bad_csv, expected))
    assert any("stdout" in e for e in check_decode(stdout.replace("rho ", "rho 0.5 "), files, expected))


def test_noisy_check_fires_on_defect_above_bound_and_rate_below_bound(tmp_path):
    command = NoisyF2(5, tmp_path).block("test", 0)[0]
    stdout, files = execute(command, tmp_path / "out", NoisyF2.outputs)
    assert command.check(stdout, files) == []
    bound = files["noisy.csv"].splitlines()[1].split(",")[2]
    over = dict(files, **{"noisy.csv": corrupt_csv(files["noisy.csv"], 1, 1, repr(2 * float(bound)))})
    assert any("epsilon_prime" in e for e in command.check(stdout, over))
    f2_bound = float(files["f2.csv"].splitlines()[1].split(",")[2])
    under = dict(files, **{"f2.csv": corrupt_csv(files["f2.csv"], 1, 1, repr(f2_bound - 0.01))})
    assert any("empirical_prob" in e for e in command.check(stdout, under))


def test_hierarchy_check_fires_on_gain_or_drift_over_tolerance(tmp_path):
    workload = Hierarchy(5, tmp_path)
    command = workload._command(stream(5, "test"), "test", 0, 5, 2)
    stdout, files = execute(command, tmp_path / "out", Hierarchy.outputs)
    assert command.check(stdout, files) == []
    words = stdout.split()
    gain_stdout = stdout.replace(f"max_gain {words[4]}", "max_gain 1e-07")
    assert any("max_gain" in e for e in command.check(gain_stdout, files))
    drift_stdout = stdout.replace(f"max_rho_drift {words[6]}", "max_rho_drift 1e-08")
    assert any("max_rho_drift" in e for e in command.check(drift_stdout, files))
    drift_csv = {"nash.csv": corrupt_csv(files["nash.csv"], 1, 2, "1e-08")}
    assert any("nash.csv" in e for e in command.check(stdout, drift_csv))


def test_hierarchy_drift_spans_draws_and_catches_a_draw_dependent_solver(tmp_path, monkeypatch):
    assert HIERARCHY_DRAWS >= 2
    command = Hierarchy(5, tmp_path)._command(stream(5, "test"), "test", 0, 6, 3)
    stdout, files = execute(command, tmp_path / "out", Hierarchy.outputs)
    assert f"draws={HIERARCHY_DRAWS}" in stdout
    assert len(files["nash.csv"].splitlines()) == 1 + HIERARCHY_DRAWS
    assert command.check(stdout, files) == []

    # A solver whose scores depend on the newcomer draw breaks rho invariance;
    # the program's own output must then fail the drift check.
    decode = trep.cli.decode
    calls = []

    def drifting(profile, config, **kwargs):
        result = decode(profile, config, **kwargs)
        calls.append(1)
        result.rho[0] += 1e-8 * len(calls)
        return result

    monkeypatch.setattr(trep.cli, "decode", drifting)
    stdout, files = execute(command, tmp_path / "out", Hierarchy.outputs)
    errors = command.check(stdout, files)
    assert any("max_rho_drift" in e for e in errors)
    assert any("nash.csv" in e for e in errors)


def test_bootstrap_check_fires_when_restarts_differ_from_detections(tmp_path):
    workload = Bootstrap(5, tmp_path)
    command = workload._command(stream(5, "test"), "test", 0, 0, 5, pooled=True)
    stdout, files = execute(command, tmp_path / "out", Bootstrap.outputs)
    assert command.check(stdout, files) == []
    restarts = int(files["bootstrap.csv"].splitlines()[1].split(",")[1])
    bad = dict(files, **{"bootstrap.csv": corrupt_csv(files["bootstrap.csv"], 1, 1, str(restarts + 1))})
    assert any("restarts" in e for e in command.check(stdout, bad))


def test_detection_tally_fires_on_rates_far_from_one_minus_trust():
    trust = np.array([0.9, 0.5, 0.2])
    honest = DetectionTally()
    rng = np.random.default_rng(0)
    for _ in range(100):
        honest.add(3, trust, (rng.random((10, 3)) < 1 - trust).astype(float))
    assert honest.errors() == []
    always = DetectionTally()
    for _ in range(100):
        always.add(3, trust, np.ones((10, 3)))
    assert len(always.errors()) == 3


def test_tracer_sees_nested_calls_and_restores_the_program(small_decode, tmp_path):
    originals = (trep.cli.main, trep.decoder.reputation_scores, trep.decoder.f2_check.__defaults__)
    tracer = Tracer()
    tracer.install()
    try:
        command = NoisyF2(5, tmp_path).block("test", 0)[0]
        execute(command, tmp_path / "out", NoisyF2.outputs)
    finally:
        tracer.uninstall()
    assert (trep.cli.main, trep.decoder.reputation_scores, trep.decoder.f2_check.__defaults__) == originals
    trials = int(command.argv[command.argv.index("--trials") + 1])
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["decoder.decode"] == trials
    assert tracer.calls["pagerank.reputation_scores"] == trials       # bound in trep.decoder
    assert tracer.calls["pagerank.stationary"] == trials
    assert tracer.calls["decoder.noisy_belief_two_point"] == 2 * trials  # also a default argument
    assert tracer.calls["equilibrium.measure_epsilon_prime"] == trials
    total_self = sum(tracer.self_s.values())
    assert 0 < total_self <= tracer.covered * (1 + 1e-9)
    assert all(v >= -1e-6 for v in tracer.self_s.values())


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    assert verdict(base, [130.0 + i for i in range(10)], 0.1, True)[0] == "worse"
    assert verdict(base, [80.0 + i for i in range(10)], 0.1, True)[0] == "better"
    assert verdict(base, [80.0 + i for i in range(10)], 0.1, True, more_failures=True)[0] == "worse"
    assert verdict(base, [101.0 + i for i in range(10)], 0.1, True)[0] == "within bound"
    assert verdict(base[:5], [80.0 + i for i in range(5)], 0.1, True)[0] == "within bound"  # too few pairs
    assert verdict(base, [80.0] * 8 + [200.0] * 2, 0.5, True)[0] == "within bound"  # wins 8 of 10
    assert verdict(base, [100.5 + i for i in range(10)], 0.1, True)[0] == "within bound"  # gap < quartiles
    assert verdict(base, [80.0 + i for i in range(10)], 0.1, False)[0] == "worse"  # higher is better
    wide = [80.0, 100.0, 120.0, 140.0] * 3
    assert verdict(wide, [100.0, 110.0, 120.0, 130.0] * 3, 0.1, True)[0] == "unresolved"
    assert verdict(wide, [10.0, 11.0, 12.0, 13.0] * 3, 0.1, True)[0] == "better"
    assert verdict(wide[:4], [10.0, 11.0, 12.0, 13.0], 0.1, True)[0] == "within bound"  # too few pairs


def test_compare_marks_more_failures_or_incorrect_runs_worse():
    def runs(failed, correct, rate):
        return [
            {"seed": s, "failed": failed, "correct": correct, "metrics": {"trials_per_s": rate + s}}
            for s in range(10)
        ]

    metrics = [{"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]
    base = {"workloads": {"w": runs(0, True, 100.0)}}
    verdicts = {
        label: compare(base, {"workloads": {"w": change}}, metrics)[0][-1]
        for label, change in {
            "same": runs(0, True, 100.0),
            "failed": runs(1, True, 100.0),
            "incorrect": runs(0, False, 100.0),
        }.items()
    }
    assert verdicts == {"same": "within bound", "failed": "worse", "incorrect": "worse"}


def test_calibration_allocates_nothing_per_call():
    import tracemalloc

    from calibration import calibrate

    calibrate()
    tracemalloc.start()
    try:
        calibrate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the 4 MB pass reuses its buffer


def test_run_delay_counts_seconds_and_never_decreases():
    from child import run_delay

    first = run_delay()
    sum(i * i for i in range(200_000))
    assert 0.0 <= first <= run_delay() < 1e6


def test_scaled_times_follow_calibration_and_ignore_one_outlier():
    from calibration import CAL_REF_S, scaled_times

    cals = [2 * CAL_REF_S] * 8 + [50 * CAL_REF_S] + [2 * CAL_REF_S] * 8
    assert scaled_times([1.0] * 16, cals) == [0.5] * 16
