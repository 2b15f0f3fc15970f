"""Command-line interface: decode scores, verify equilibria, sweep noise,
and simulate bootstrapping runs from scenario files."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    _check_bootstrap,
    _run_bootstrap,
    honest_majority_check,
    select_committee,
    trace_event_log,
)
from .decoder import DecodeResult, _check_p, decode, decode_graph, f2_check, noisy_belief_two_point
from .equilibrium import (
    DegenerateBelief,
    _hierarchy_gains,
    _hierarchy_profile,
    epsilon_prime_bound,
    measure_epsilon_prime,
    verify_unique_nash,
)
from .game import _check_trust, f1
from .pagerank import AllServersUntrusted
from .repgraph import Config, _fmt, load
from .rng import substream

DEFAULT_EPSILONS = [0.001, 0.005, 0.01, 0.02]
# Trials are small NumPy calls that hold the interpreter lock, so a thread
# pool measured slower than a plain loop; the flag stays for old scripts.
PARALLEL_HELP = "accepted for compatibility and ignored; trials always run serially"
# Floats a block of hierarchy draws holds in its newcomer weights: the draws
# of a block share one stacked gains call, and the blocks bound its memory
# whatever --trials is.
HIERARCHY_BLOCK = 2**16


def _trial_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _write_text(path: Path, text: str) -> None:
    # One open and one write, with the mode open(path, "wb") gives a new
    # file.  The directory is made only when the open finds it missing, so
    # an --out that names a file still fails in mkdir, with FileExistsError.
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        fd = os.open(path, flags, 0o666)
    except (FileNotFoundError, NotADirectoryError):
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        data = memoryview(text.encode("utf-8"))
        while data:  # a write may take fewer bytes than it is given
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _load_scenario(args) -> tuple:
    graph, cfg = load(args.scenario)
    if args.alpha is None and args.tol is None and args.max_iters is None:
        return graph, cfg
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


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then each row's fields joined by commas."""
    return "".join(line + "\n" for line in [header, *map(",".join, rows)])


def _metrics(result: DecodeResult) -> list[tuple[str, str]]:
    """The accuracy metrics of a decode result as written, "n/a" where unknown."""
    return [
        ("inversions", "n/a" if result.inversions is None else str(result.inversions)),
        ("linf_error", "n/a" if result.linf_error is None else _fmt(result.linf_error)),
    ]


def decode_result_csv(result: DecodeResult, trust: np.ndarray | None = None) -> str:
    """Render a decode result as CSV with a commented metrics footer."""
    columns = [result.rho] if trust is None else [result.rho, np.asarray(trust, dtype=float)]
    rows = [(str(j), *map(_fmt, values)) for j, values in enumerate(zip(*columns), start=1)]
    footer = [("# " + name, value) for name, value in _metrics(result)]
    header = "server_index,rho" if trust is None else "server_index,rho,trust"
    return _csv(header, rows + footer)


def cmd_decode(args) -> int:
    graph, cfg = _load_scenario(args)
    result = decode_graph(graph, cfg, trust=graph.trust)
    _write_text(Path(args.out) / "decode.csv", decode_result_csv(result, trust=graph.trust))
    print("rho " + " ".join(_fmt(v) for v in result.rho))
    for name, value in _metrics(result):
        print(name, value)
    return 0


def cmd_nash(args) -> int:
    graph, cfg = _load_scenario(args)
    trust = _require_trust(graph, "nash")
    n = args.n if args.n is not None else graph.n
    if args.k is not None:
        if not 1 <= args.k <= n - 1:  # before rng.dirichlet sees k
            raise ValueError(f"k must lie in 1..{n - 1}, got {args.k}")
        ratings = _check_trust(trust)  # once: dirichlet rows are distributions by construction
        nr = f1(ratings)
        block = max(1, HIERARCHY_BLOCK // ((n - args.k) * args.k))
        gains, scores = [], []
        for start in range(0, args.trials, block):
            weights = np.array([
                substream(args.seed, "fresh", draw).dirichlet(np.ones(args.k), size=n - args.k)
                for draw in range(start, min(start + block, args.trials))
            ])
            gains.extend(_hierarchy_gains(ratings, weights, cfg.alpha).max(axis=1))
            scores.extend(decode(_hierarchy_profile(nr, w), cfg).rho for w in weights)
        drifts = np.abs(np.array(scores) - scores[0]).max(axis=1)  # against the first draw
        rows = [(str(d), _fmt(g), _fmt(r)) for d, (g, r) in enumerate(zip(gains, drifts))]
        _write_text(Path(args.out) / "nash.csv", _csv("draw,max_gain,rho_drift", rows))
        print(
            f"hierarchy k={args.k} draws={args.trials} "
            f"max_gain {_fmt(max(gains))} max_rho_drift {_fmt(drifts.max())}"
        )
        return 0
    report = verify_unique_nash(trust, n)
    rows = [(str(i + 1), _fmt(report.utility), _fmt(report.epsilon_prime)) for i in range(n)]
    _write_text(Path(args.out) / "nash.csv", _csv("player,utility,gain", rows))
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
    # A bad --p fails before any draw, with or without --delta.  Each noise
    # level runs its f2 check before its sweep trials: the check makes every
    # input check of those trials, at the latest on its first draw, and the
    # "f2" and "noisy" substreams do not depend on the order of the calls, so
    # the bytes and the first error are those of all f2 checks run first.
    _check_p(args.p)
    f2_rows, rows, defects = [], [], []
    for index, eps in enumerate(epsilons):
        if args.delta is not None:
            r = f2_check(
                trust, epsilon=eps, p=args.p, delta=args.delta, trials=args.trials,
                config=cfg, rng=substream(args.seed, "f2", index), n=n,
            )
            f2_rows.append(tuple(map(_fmt, (eps, r.empirical_prob, r.bound, r.q, r.threshold))))
        gains = []
        for trial in range(args.trials):
            belief = noisy_belief_two_point(trust, eps, substream(args.seed, "noisy", index, trial))
            gains.append(measure_epsilon_prime(trust, belief, n))
        # Computed after the trials, so that their input errors are the ones reported
        bound = _fmt(epsilon_prime_bound(trust.size, n, eps))
        rows.extend((_fmt(eps), _fmt(gain), bound) for gain in gains)
        defects.extend(gains)
    _write_text(Path(args.out) / "noisy.csv", _csv("epsilon,epsilon_prime,bound", rows))
    print(f"epsilons {len(epsilons)} trials {args.trials} max_epsilon_prime {_fmt(max(defects))}")
    if args.delta is not None:
        for eps, empirical, bound, *_ in f2_rows:
            print(f"f2 eps {eps} empirical {empirical} bound {bound}")
        header = "epsilon,empirical_prob,bound,q,threshold"
        _write_text(Path(args.out) / "f2.csv", _csv(header, f2_rows))
    return 0


def cmd_bootstrap(args) -> int:
    graph, cfg = _load_scenario(args)
    trust = _require_trust(graph, "bootstrap")
    size = args.committee if args.committee is not None else min(3, graph.m)
    bcfg = BootstrapConfig(lam=args.lam, committee_size=size)
    # The final committee depends on the scores only, never on the draws
    ell = args.ell if args.ell is not None else graph.m
    committee = select_committee(decode_graph(graph, cfg).rho, ell, args.fraction)
    ratings = _check_bootstrap(trust, bcfg)
    rows = []
    restarts = majorities = 0
    for trial in range(args.trials):
        trace = _run_bootstrap(ratings, bcfg, substream(args.seed, "boot", trial))
        if trial == 0:
            log = trace_event_log(trace)
        majority, margin = honest_majority_check(committee, trace.honest)
        detected = ";".join(str(j + 1) for j in trace.detected) or "none"
        verdict = "true" if majority else "false"
        rows.append(tuple(map(str, (trial, trace.restarts, trace.rounds, detected, verdict, margin))))
        restarts += trace.restarts
        majorities += majority
    _write_text(Path(args.out) / "bootstrap.log", log)
    header = "trial,restarts,rounds,detected,majority,margin"
    _write_text(Path(args.out) / "bootstrap.csv", _csv(header, rows))
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

    p = commands.add_parser("nash", help="verify the proportional equilibrium")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="player count override")
    p.add_argument("--k", type=int, default=None, help="established player count (hierarchy mode)")
    p.add_argument("--trials", type=_trial_count, default=100, help="hierarchy draws (read only with --k)")

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

    p = commands.add_parser("bootstrap", help="simulate committee bootstrapping")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=int, default=8, help="rounds per schedule pass")
    p.add_argument("--committee", type=int, default=None, help="probing committee size")
    p.add_argument("--ell", type=int, default=None, help="final committee pool size")
    p.add_argument("--fraction", type=float, default=0.9, help="fraction of the pool selected")
    p.add_argument("--trials", type=_trial_count, default=10, help="independent runs")
    p.add_argument("--parallel", type=int, default=0, help=PARALLEL_HELP)
    return parser


# The parser main() builds on its first call and reuses; argparse keeps no
# state between parses, so one parser serves every call in the process.
_PARSER: argparse.ArgumentParser | None = None


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), mostly without the top-level parse.

    An argv that starts with a subcommand goes straight to that subcommand's
    parser, which is all the top-level parse would hand it to.  Only an argv
    that leaves arguments over is parsed again in full, so that they are
    reported with the top-level usage, as are the errors of every other argv.
    """
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = action.choices.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _parse(_PARSER, sys.argv[1:] if argv is None else list(argv))
    # Looked up by name at each call, not bound in the long-lived parser, so
    # a rebinding of cmd_* in this module (a tracer, a test) takes effect.
    command = globals()[f"cmd_{args.command}"]
    # AllServersUntrusted and DegenerateBelief are ValueErrors, so they are
    # caught first; NonConvergence is a RuntimeError, ParseError a ValueError.
    # A MemoryError is a run-time failure too: NumPy raises it for a dense
    # profile of --n players that cannot be allocated.
    try:
        return command(args)
    except (AllServersUntrusted, DegenerateBelief, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
