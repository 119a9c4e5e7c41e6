"""Match-engine throughput on the Figure 14 counting workload.

Times :func:`repro.mining.counting.count_matches_batched` — the single
dispatch point every miner funnels through — for each setting of the
counting engine (``VectorizedBatchEngine`` with one or two workers),
against the per-sequence oracle of ``tests/oracles.py``, on
the same workload ``bench_fig14_performance.py`` mines: the
protein-composition standard database, uniform noise ``alpha = 0.1``,
and a memory capacity of 64 counters per scan.  The pattern set is a
fixed sample of weight-2..8 patterns, the shape of a Phase-2/Phase-3
candidate batch.

Legs are timed in *interleaved* rounds (reference, vectorized,
workers-2, reference, ...) so that machine-load drift hits every leg
equally, and the recorded figure is the best round — the standard way
to measure capability rather than contention.  ``vectorized`` is one
worker and ``workers-2`` the same scan with its chunks counted on a
two-thread pool; both are built with the daemon's pin budget
(``PIN_BYTES``), so their repeat scans are served from the factor pin.
The vectorized leg is additionally timed with a
cleared factor pin every round (``cold``) to separate kernel speed
from factor-row reuse: a one-shot run, whose engine keeps no factor
rows, pays the cold cost on every pass.

Run as a script to write ``BENCH_engine.json`` next to the repo root
(or to ``--out PATH``)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

``--smoke`` runs two quick rounds and skips the 5x speedup gate — a
correctness-only pass for CI, where shared runners make timing
assertions meaningless; it writes only to ``--out``.  Through pytest-benchmark, like the figure
benchmarks::

    pytest benchmarks/bench_engine_throughput.py --benchmark-only
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Dict, List

import numpy as np

from repro import CompatibilityMatrix, Pattern
from repro.datagen.noise import corrupt_uniform
from repro.engine import PIN_BYTES, VectorizedBatchEngine
from repro.mining.counting import count_matches_batched

from _workloads import (
    add_output_argument,
    build_standard_database,
    current_scale,
    run_once,
    write_report,
)

ALPHA = 0.1
MEMORY_CAPACITY = 64
ROUNDS = 12
PATTERNS_PER_LEVEL = 24
MAX_WEIGHT = 8
PARENTS_PER_LEVEL = 6
FREQUENT_SYMBOLS = 12
PATTERN_SEED = 99


def candidate_patterns(m: int) -> List[Pattern]:
    """A fixed sample of level-wise candidate batches (deduplicated).

    Every miner counts batches of rightward extensions of the previous
    level's survivors (the candidate tree), so the throughput workload
    is built the same way: per level, a handful of surviving parents
    is extended by one symbol each and a fixed number of the resulting
    children is drawn.  The batches therefore exhibit the prefix
    sharing real candidate batches have.
    """
    from repro.core.lattice import PatternConstraints, extend_right

    rng = np.random.default_rng(PATTERN_SEED)
    constraints = PatternConstraints(
        max_weight=MAX_WEIGHT, max_span=MAX_WEIGHT, max_gap=0
    )
    symbols = sorted(
        int(d)
        for d in rng.choice(m, size=min(FREQUENT_SYMBOLS, m), replace=False)
    )
    level = [Pattern.single(d) for d in symbols]
    patterns: List[Pattern] = []
    while level and max(p.weight for p in level) < MAX_WEIGHT:
        parents = sorted(level)
        if len(parents) > PARENTS_PER_LEVEL:
            picks = rng.choice(
                len(parents), size=PARENTS_PER_LEVEL, replace=False
            )
            parents = [parents[i] for i in sorted(picks)]
        children = sorted(
            {
                child
                for parent in parents
                for child in extend_right(parent, symbols, constraints)
            }
        )
        if len(children) > PATTERNS_PER_LEVEL:
            picks = rng.choice(
                len(children), size=PATTERNS_PER_LEVEL, replace=False
            )
            children = [children[i] for i in sorted(picks)]
        patterns.extend(children)
        level = children
    return list(dict.fromkeys(patterns))


def build_workload(scale):
    std, _motifs, m = build_standard_database(scale, protein=True)
    rng = np.random.default_rng(scale.noise_seeds[0])
    test = corrupt_uniform(std, m, ALPHA, rng)
    matrix = CompatibilityMatrix.uniform_noise(m, ALPHA)
    return test, matrix, candidate_patterns(m)


def measure(scale, rounds: int = ROUNDS) -> Dict:
    from tests.oracles import ReferenceEngine

    test, matrix, patterns = build_workload(scale)
    engines = {
        "reference": ReferenceEngine(),
        "vectorized": VectorizedBatchEngine(workers=1, pin_bytes=PIN_BYTES),
        "workers-2": VectorizedBatchEngine(workers=2, pin_bytes=PIN_BYTES),
    }

    def count(engine):
        test.reset_scan_count()
        return count_matches_batched(
            patterns, test, matrix, MEMORY_CAPACITY, engine=engine
        )

    # Correctness gate before timing: all engines must agree.
    results = {name: count(engine) for name, engine in engines.items()}
    reference_result = results["reference"]
    for name, result in results.items():
        worst = max(
            abs(result[p] - reference_result[p]) for p in patterns
        )
        if worst > 1e-12:
            raise AssertionError(
                f"engine {name!r} deviates from reference by {worst}"
            )

    timings: Dict[str, List[float]] = {name: [] for name in engines}
    timings["vectorized-cold"] = []
    for _ in range(rounds):
        for name, engine in engines.items():
            started = time.perf_counter()
            count(engine)
            timings[name].append(time.perf_counter() - started)
        cache = getattr(engines["vectorized"], "cache", None)
        if cache is not None:
            cache.clear()
            started = time.perf_counter()
            count(engines["vectorized"])
            timings["vectorized-cold"].append(
                time.perf_counter() - started
            )
    engines["workers-2"].close()

    best_reference = min(timings["reference"])
    report = {
        "workload": {
            "benchmark": "bench_fig14 counting workload",
            "n_sequences": len(test),
            "alphabet": matrix.size,
            "alpha": ALPHA,
            "memory_capacity": MEMORY_CAPACITY,
            "n_patterns": len(patterns),
            "pattern_weights": sorted({p.weight for p in patterns}),
            "rounds": rounds,
            "cores": len(os.sched_getaffinity(0)),
        },
        "engines": {},
    }
    for name, rows in timings.items():
        best = min(rows)
        report["engines"][name] = {
            "best_seconds": best,
            "median_seconds": sorted(rows)[len(rows) // 2],
            "patterns_per_sec": len(patterns) / best,
            "speedup_vs_reference": best_reference / best,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two quick rounds, no speedup gate (CI correctness pass)",
    )
    add_output_argument(parser)
    args = parser.parse_args(argv)
    rounds = 2 if args.smoke else ROUNDS
    report = measure(current_scale(), rounds=rounds)
    report["workload"]["smoke"] = args.smoke
    write_report(report, "BENCH_engine.json", args.out, args.smoke)
    for name, row in report["engines"].items():
        print(
            f"{name:16s} best {row['best_seconds'] * 1000:7.1f} ms   "
            f"{row['patterns_per_sec']:8.0f} patterns/s   "
            f"{row['speedup_vs_reference']:.2f}x vs reference"
        )
    speedup = report["engines"]["vectorized"]["speedup_vs_reference"]
    if args.smoke:
        # The correctness gate inside measure() already ran; timing
        # thresholds are not meaningful on shared CI runners.
        return 0
    if speedup < 5.0:
        print(f"WARNING: vectorized speedup {speedup:.2f}x is below 5x")
        return 1
    return 0


def test_engine_throughput(benchmark, scale):
    """pytest-benchmark entry point mirroring the figure benchmarks."""
    report = run_once(benchmark, lambda: measure(scale, rounds=3))
    assert report["engines"]["vectorized"]["speedup_vs_reference"] > 1.0


if __name__ == "__main__":
    raise SystemExit(main())
