"""Command-line interface: decode scores, verify equilibria, sweep noise,
and simulate bootstrapping runs from scenario files."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    honest_majority_check,
    run_bootstrap,
    select_committee,
    trace_event_log,
)
from .decoder import DecodeResult, decode, decode_graph, f2_check, noisy_belief_two_point
from .equilibrium import (
    DegenerateBelief,
    GameScenario,
    hierarchy_best_response_gains,
    measure_epsilon_prime,
    truth_telling_profile,
    verify_unique_nash,
)
from .pagerank import AllServersUntrusted, NonConvergence
from .repgraph import Config, ParseError, load
from .rng import substream

DEFAULT_EPSILONS = [0.001, 0.005, 0.01, 0.02]
# Trials are small NumPy calls that hold the interpreter lock, so a thread
# pool measured slower than a plain loop; the flag stays for old scripts.
PARALLEL_HELP = "accepted for compatibility and ignored; trials always run serially"


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _trial_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_scenario(args) -> tuple:
    graph, cfg = load(args.scenario)
    cfg = Config(
        alpha=args.alpha if args.alpha is not None else cfg.alpha,
        tol=args.tol if args.tol is not None else cfg.tol,
        max_iters=args.max_iters if args.max_iters is not None else cfg.max_iters,
    )
    return graph, cfg


def _require_trust(graph, command: str) -> np.ndarray:
    if graph.trust is None:
        raise ValueError(f"scenario has no trust line; {command} needs server trust levels")
    return graph.trust


def decode_result_csv(result: DecodeResult, trust: np.ndarray | None = None) -> str:
    """Render a decode result as CSV with a commented metrics footer."""
    lines = []
    if trust is not None:
        trust = np.asarray(trust, dtype=float)
        lines.append("server_index,rho,trust")
        for j, (score, level) in enumerate(zip(result.rho, trust), start=1):
            lines.append(f"{j},{_fmt(score)},{_fmt(level)}")
    else:
        lines.append("server_index,rho")
        for j, score in enumerate(result.rho, start=1):
            lines.append(f"{j},{_fmt(score)}")
    inversions = "n/a" if result.inversions is None else str(result.inversions)
    linf = "n/a" if result.linf_error is None else _fmt(result.linf_error)
    lines.append(f"# inversions,{inversions}")
    lines.append(f"# linf_error,{linf}")
    return "\n".join(lines) + "\n"


def cmd_decode(args) -> int:
    graph, cfg = _load_scenario(args)
    result = decode_graph(graph, cfg, trust=graph.trust)
    _write_text(Path(args.out) / "decode.csv", decode_result_csv(result, trust=graph.trust))
    print("rho " + " ".join(_fmt(v) for v in result.rho))
    print(f"inversions {'n/a' if result.inversions is None else result.inversions}")
    linf = "n/a" if result.linf_error is None else _fmt(result.linf_error)
    print(f"linf_error {linf}")
    return 0


def cmd_nash(args) -> int:
    graph, cfg = _load_scenario(args)
    trust = _require_trust(graph, "nash")
    n = args.n if args.n is not None else graph.n
    if args.k is not None:
        if not 1 <= args.k <= n - 1:  # before rng.dirichlet sees k
            raise ValueError(f"k must lie in 1..{n - 1}, got {args.k}")
        rows = []
        reference = None
        worst_gain = 0.0
        worst_drift = 0.0
        for draw in range(args.trials):
            rng = substream(args.seed, "fresh", draw)
            weights = rng.dirichlet(np.ones(args.k), size=n - args.k)
            scenario = GameScenario(
                kind="hierarchy", trust=trust, n=n, k=args.k, fresh_weights=weights
            )
            gains = hierarchy_best_response_gains(scenario, cfg)
            rho = decode(truth_telling_profile(scenario), cfg).rho
            if reference is None:
                reference = rho
            drift = float(np.max(np.abs(rho - reference)))
            worst_gain = max(worst_gain, float(gains.max()))
            worst_drift = max(worst_drift, drift)
            rows.append(f"{draw},{_fmt(gains.max())},{_fmt(drift)}")
        text = "draw,max_gain,rho_drift\n" + "\n".join(rows) + "\n"
        _write_text(Path(args.out) / "nash.csv", text)
        print(
            f"hierarchy k={args.k} draws={args.trials} "
            f"max_gain {_fmt(worst_gain)} max_rho_drift {_fmt(worst_drift)}"
        )
        return 0
    report = verify_unique_nash(trust, n, probes=args.trials, rng=substream(args.seed, "probes"))
    rows = [f"{i + 1},{_fmt(report.utility)},{_fmt(report.epsilon_prime)}" for i in range(n)]
    text = "player,utility,gain\n" + "\n".join(rows) + "\n"
    _write_text(Path(args.out) / "nash.csv", text)
    print(f"epsilon_prime {_fmt(report.epsilon_prime)}")
    print(f"expected_value {_fmt(report.expected_value)}")
    print(f"probe_min {_fmt(report.probe_min)}")
    print(f"closed_form_deviation {_fmt(report.closed_form_deviation)}")
    return 0


def cmd_noisy(args) -> int:
    graph, cfg = _load_scenario(args)
    trust = _require_trust(graph, "noisy")
    n = args.n if args.n is not None else graph.n
    epsilons = args.epsilon or list(DEFAULT_EPSILONS)
    # The f2 checks run first, so a bad --p or --delta fails before the sweep
    # writes noisy.csv; their "f2" streams are independent of the sweep's.
    f2_rows, f2_lines = [], []
    if args.delta is not None:
        for index, eps in enumerate(epsilons):
            report = f2_check(
                trust,
                epsilon=eps,
                p=args.p,
                delta=args.delta,
                trials=args.trials,
                config=cfg,
                rng=substream(args.seed, "f2", index),
                n=n,
            )
            f2_rows.append(
                f"{_fmt(eps)},{_fmt(report['empirical_prob'])},{_fmt(report['bound'])},"
                f"{_fmt(report['q'])},{_fmt(report['threshold'])}"
            )
            f2_lines.append(
                f"f2 eps {_fmt(eps)} empirical {_fmt(report['empirical_prob'])} "
                f"bound {_fmt(report['bound'])}"
            )
    rows = []
    worst = 0.0
    for index, eps in enumerate(epsilons):
        for trial in range(args.trials):
            rng = substream(args.seed, "noisy", index, trial)
            belief = noisy_belief_two_point(trust, eps, rng)
            scenario = GameScenario(kind="noisy", trust=trust, n=n, belief=belief, epsilon=eps)
            report = measure_epsilon_prime(scenario)
            worst = max(worst, report.epsilon_prime)
            rows.append(f"{_fmt(eps)},{_fmt(report.epsilon_prime)},{_fmt(report.bound)}")
    _write_text(
        Path(args.out) / "noisy.csv", "epsilon,epsilon_prime,bound\n" + "\n".join(rows) + "\n"
    )
    print(f"epsilons {len(epsilons)} trials {args.trials} max_epsilon_prime {_fmt(worst)}")
    if args.delta is not None:
        print("\n".join(f2_lines))
        _write_text(
            Path(args.out) / "f2.csv",
            "epsilon,empirical_prob,bound,q,threshold\n" + "\n".join(f2_rows) + "\n",
        )
    return 0


def cmd_bootstrap(args) -> int:
    graph, cfg = _load_scenario(args)
    trust = _require_trust(graph, "bootstrap")
    size = args.committee if args.committee is not None else min(3, graph.m)
    bcfg = BootstrapConfig(lam=args.lam, committee_size=size)
    # The final committee depends on the scores only, never on the draws
    ell = args.ell if args.ell is not None else graph.m
    committee = select_committee(decode_graph(graph, cfg).rho, ell, args.fraction)
    rows = []
    restarts = majorities = 0
    for trial in range(args.trials):
        trace = run_bootstrap(trust, bcfg, substream(args.seed, "boot", trial))
        if trial == 0:
            log = trace_event_log(trace)
        majority, margin = honest_majority_check(committee, trace.honest)
        detected = ";".join(str(j + 1) for j in trace.detected) or "none"
        rows.append(
            f"{trial},{trace.restarts},{len(trace.events)},{detected},"
            f"{'true' if majority else 'false'},{margin}"
        )
        restarts += trace.restarts
        majorities += majority
    _write_text(Path(args.out) / "bootstrap.log", log)
    header = "trial,restarts,rounds,detected,majority,margin\n"
    _write_text(Path(args.out) / "bootstrap.csv", header + "\n".join(rows) + "\n")
    print(
        f"trials {args.trials} mean_restarts {_fmt(restarts / args.trials)} "
        f"majority_rate {_fmt(majorities / args.trials)}"
    )
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scenario", help="scenario file in the trep v1 format")
    sub.add_argument("--alpha", type=float, default=None, help="restart probability override")
    sub.add_argument("--tol", type=float, default=None, help="convergence tolerance override")
    sub.add_argument("--max-iters", type=int, default=None, help="iteration budget override")
    sub.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    sub.add_argument("--out", default=".", help="directory for output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trep",
        description="Reputation scores over endorsement graphs: decoding, "
        "equilibrium verification, noise sweeps, and bootstrapping.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("decode", help="decode server scores from a scenario")
    _add_common(p)
    p.set_defaults(func=cmd_decode)

    p = commands.add_parser("nash", help="verify the proportional equilibrium")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="player count override")
    p.add_argument("--k", type=int, default=None, help="established player count (hierarchy mode)")
    p.add_argument("--trials", type=_trial_count, default=100, help="probe count or hierarchy draws")
    p.set_defaults(func=cmd_nash)

    p = commands.add_parser("noisy", help="sweep belief noise and measure the defect")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="player count override")
    p.add_argument(
        "--epsilon", type=float, action="append", default=None,
        help="noise level (repeatable; default sweep "
        + ", ".join(str(e) for e in DEFAULT_EPSILONS) + ")",
    )
    p.add_argument("--trials", type=_trial_count, default=20, help="trials per noise level")
    p.add_argument("--p", type=float, default=0.0, help="per-entry failure probability of the noise model")
    p.add_argument("--delta", type=float, default=None, help="belief-mass drift for the decodability check")
    p.add_argument("--parallel", type=int, default=0, help=PARALLEL_HELP)
    p.set_defaults(func=cmd_noisy)

    p = commands.add_parser("bootstrap", help="simulate committee bootstrapping")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=int, default=8, help="rounds per schedule pass")
    p.add_argument("--committee", type=int, default=None, help="probing committee size")
    p.add_argument("--ell", type=int, default=None, help="final committee pool size")
    p.add_argument("--fraction", type=float, default=0.9, help="fraction of the pool selected")
    p.add_argument("--trials", type=_trial_count, default=10, help="independent runs")
    p.add_argument("--parallel", type=int, default=0, help=PARALLEL_HELP)
    p.set_defaults(func=cmd_bootstrap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NonConvergence, AllServersUntrusted, DegenerateBelief) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
