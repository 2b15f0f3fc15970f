"""Size sweep of the public layer functions, reported as per-layer metrics only.

Times reputation_scores, decode, tour_counts and best_response_to_mass at
n in {6, 100, 500, 2000} and m in {5, 20}. Beside them it prints the time of
the benchmark's own dense solve of the n x n user block (the direct path of
a size-based solver choice), so the crossover between the direct solve and
power iteration can be read off; that time is no metric, since no change to
trep moves it. tour_counts stops at n = 500: one call at n = 2000 takes
seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from calibration import calibrate, scaled_times
from workloads import ALPHA, dense_scores, random_graph, stream

USERS = (6, 100, 500, 2000)
SERVERS = (5, 20)
TOUR_MAX_USERS = 500
MIN_REPS = 3           # unless one call takes longer than REPS_SECONDS
REPS_SECONDS = 0.25
MIN_SECONDS = 0.05
MAX_REPS = 50

# ROADMAP baseline (2 cores, OpenBLAS 0.3.31), printed beside the sweep.
REFERENCES = {
    ("decode", 6, 5): "1.1 ms, 147 steps (equilibrium profile)",
    ("tour_counts", 6, 5): "4.7 ms",
    ("tour_counts", 6, 20): "4.7 ms",
    ("tour_counts", 500, 20): "173 ms",
}


def _median_ms(call) -> float:
    """Median call time, scaled to the reference machine speed."""
    times = []
    cals = [calibrate()]
    while (len(times) < MIN_REPS and sum(times) < REPS_SECONDS) or (
        sum(times) < MIN_SECONDS and len(times) < MAX_REPS
    ):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
        cals.append(calibrate())
    return statistics.median(scaled_times(times, cals)) * 1e3


def metric_names() -> list[str]:
    names = []
    for fn in ("reputation_scores", "decode", "tour_counts", "best_response_to_mass"):
        for n in USERS:
            for m in SERVERS:
                if fn != "tour_counts" or n <= TOUR_MAX_USERS:
                    names.append(f"sweep.{fn}.n{n}.m{m}.ms")
    return names


def run_sweep(seed: int) -> tuple[dict, list[str]]:
    """Return ({metric: ms}, printable lines)."""
    from trep.decoder import decode
    from trep.equilibrium import best_response_to_mass
    from trep.pagerank import build_designated_chain, reputation_scores, stationary, tour_counts
    from trep.repgraph import Config, RepGraph

    cfg = Config(alpha=ALPHA)
    metrics = {}
    lines = [
        "sweep (median ms per call at the reference speed; "
        "steps = power iterations of the designated chain)"
    ]
    for m in SERVERS:
        for n in USERS:
            rng = stream(seed, "sweep", n, m)
            rows, cols, weights = random_graph(rng, n, m)
            edges = np.zeros((n, m + n))
            edges[rows, cols] = weights
            graph = RepGraph(n=n, m=m, edges=edges)
            trust = rng.uniform(0.1, 0.9, size=m)
            belief = trust + rng.uniform(-0.05, 0.05, size=m)
            mass = (n - 1) * belief / belief.sum()
            steps = stationary(build_designated_chain(graph, cfg), cfg).iterations_used
            timed = {
                "reputation_scores": lambda: reputation_scores(graph, cfg),
                "decode": lambda: decode(edges, cfg),
                "best_response_to_mass": lambda: best_response_to_mass(trust, mass),
                "direct_solve": lambda: dense_scores(n, m, rows, cols, weights),
            }
            if n <= TOUR_MAX_USERS:
                timed["tour_counts"] = lambda: tour_counts(graph, cfg)
            for fn, call in timed.items():
                ms = _median_ms(call)
                if fn != "direct_solve":
                    metrics[f"sweep.{fn}.n{n}.m{m}.ms"] = ms
                note = REFERENCES.get((fn, n, m))
                extra = f"  steps {steps}" if fn == "decode" else ""
                ref = f"  [ROADMAP: {note}]" if note else ""
                if fn == "direct_solve":
                    ref = "  [the benchmark's own dense solve: a reference, not a metric]"
                lines.append(f"  {fn:<22} n={n:<5} m={m:<3} {ms:10.3f} ms{extra}{ref}")
    return metrics, lines
