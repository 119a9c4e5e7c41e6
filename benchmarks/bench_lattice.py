"""Lattice kernels: packed batch paths vs the pure-Python oracles.

With the match engines (PR 1) and Phase-2 evaluation (PR 3)
vectorized, the lattice layer dominated what was left of the
wall-clock: the Apriori join + prune that builds every BFS level, and
the Phase-3 label-propagation sweep that subsumption-checks every
undecided pattern against a probe round's fresh decisions.  This
benchmark times both against the packed kernels of
:mod:`repro.core.latticekernels` on realistic inputs:

* **candidate generation** — the per-level survivor sets of one real
  ``classify_on_sample`` run (frequent-or-ambiguous patterns grouped
  by weight) are replayed through the oracle
  ``reference_generate_candidates`` of ``tests/oracles.py`` and
  ``kernel_generate_candidates``;
* **propagation** — the ambiguous band of the same run is collapsed in
  simulated probe rounds (batches drawn by the production
  ``select_probe_batch``, decisions taken from the recorded sample
  matches), and each round's sweep is replayed through the oracle
  pairwise ``is_subpattern_of`` sweep and through ``filter_undecided``
  (signature-prefiltered batch containment).

The recorded figure is the best of interleaved rounds; the gated
number is the **combined** speedup (reference candidate-gen +
propagation time over kernel time), which must hold 3x on the fig14
workload.  Before timing, bit-identity gates check the kernel outputs
per level and per round (whole miners on the kernels vs the oracle
lattice are pinned by ``tests/test_differential.py``).

Run as a script to write ``BENCH_lattice.json`` next to the repo
root (or to ``--out PATH``)::

    PYTHONPATH=src python benchmarks/bench_lattice.py

``--smoke`` runs a tiny workload for two rounds and skips the speedup
gate — a correctness-only pass for CI; it writes only to ``--out``.  Through pytest-benchmark::

    pytest benchmarks/bench_lattice.py --benchmark-only
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Set, Tuple

import numpy as np

from repro import CompatibilityMatrix, Pattern, PatternConstraints
from repro.core.latticekernels import (
    filter_undecided,
    kernel_generate_candidates,
)
from repro.core.sequence import SequenceDatabase
from repro.datagen.noise import corrupt_uniform
from repro.engine import VectorizedBatchEngine
from repro.mining.ambiguous import classify_on_sample
from repro.mining.collapsing import select_probe_batch

from _workloads import (
    BenchScale,
    add_output_argument,
    build_standard_database,
    run_once,
    write_report,
)
# Importing _workloads first puts the repo root on sys.path.
from tests.oracles import (
    reference_filter_undecided,
    reference_generate_candidates,
)

ALPHA = 0.2
DELTA = 1e-4
ROUNDS = 5
SMOKE_ROUNDS = 2
SAMPLE_SEED = 23

#: name -> (scale, min_match, combined speedup gate).  fig14 is the
#: performance-comparison shape of Figure 14 (mean length 30); its BFS
#: produces thousands of candidates per level and an ambiguous band
#: wide enough that both kernel paths matter.  The gate is a
#: regression floor on the combined candidate-gen + propagation
#: speedup.
WORKLOADS: Dict[str, Tuple[BenchScale, float, float]] = {
    "fig14": (BenchScale(400, 200, 30, (1,)), 0.12, 3.0),
}
SMOKE_WORKLOADS: Dict[str, Tuple[BenchScale, float, float]] = {
    "smoke": (BenchScale(60, 40, 12, (1,)), 0.30, 0.0),
}
CONSTRAINTS = PatternConstraints(max_weight=10, max_span=10, max_gap=0)


def build_workload(scale: BenchScale, min_match: float):
    """Realistic lattice inputs from one Phase-2 run.

    Returns the per-level generator inputs (survivor sets), the
    frequent symbols, the recorded propagation rounds and the matrix.
    """
    std, _motifs, m = build_standard_database(scale, protein=True)
    rng = np.random.default_rng(scale.noise_seeds[0])
    noisy = corrupt_uniform(std, m, ALPHA, rng)
    matrix = CompatibilityMatrix.uniform_noise(m, ALPHA)
    rows = [seq for _sid, seq in noisy.scan()]
    sample_rng = np.random.default_rng(SAMPLE_SEED)
    picks = sorted(
        sample_rng.choice(len(rows), size=scale.sample_size, replace=False)
    )
    sample = SequenceDatabase([rows[i] for i in picks])
    symbol_match = VectorizedBatchEngine().symbol_matches(noisy, matrix)
    classification = classify_on_sample(
        sample, matrix, min_match, DELTA, symbol_match, CONSTRAINTS,
        engine=VectorizedBatchEngine(),
    )
    frequent_symbols = [
        d for d in range(m) if symbol_match[d] >= min_match
    ]

    # Per-level generator inputs: Phase 2 extends every pattern that is
    # frequent-or-ambiguous, so the level-k survivor set is exactly the
    # non-infrequent patterns of weight k.
    survivors_by_weight: Dict[int, Set[Pattern]] = {}
    for pattern, label in classification.labels.items():
        if label != "infrequent":
            survivors_by_weight.setdefault(pattern.weight, set()).add(
                pattern
            )
    levels = [
        survivors_by_weight[w] for w in sorted(survivors_by_weight)
        if w < CONSTRAINTS.max_weight
    ]

    rounds = record_propagation_rounds(classification, min_match)
    return levels, frequent_symbols, rounds, matrix


def record_propagation_rounds(classification, min_match):
    """Simulated Phase-3 probe rounds over the real ambiguous band.

    Batches come from the production ``select_probe_batch`` under a
    memory budget that forces several rounds; probe outcomes are the
    recorded sample matches (standing in for full-database matches,
    which only shifts *which* patterns flip, not the sweep's shape).
    Each recorded round is the sweep's input triple.
    """
    undecided = classification.ambiguous_patterns()
    floor_weight = min(
        (p.weight for p in classification.fqt), default=0
    )
    capacity = max(1, len(undecided) // 6)
    rounds = []
    while undecided:
        batch = select_probe_batch(undecided, floor_weight, capacity)
        newly_frequent = sorted(
            p for p in batch
            if classification.sample_matches[p] >= min_match
        )
        newly_infrequent = sorted(
            p for p in batch
            if classification.sample_matches[p] < min_match
        )
        undecided = undecided - set(batch)
        rounds.append((set(undecided), newly_frequent, newly_infrequent))
        undecided = reference_filter_undecided(
            undecided, newly_frequent, newly_infrequent
        )
    return rounds


def verify_kernels(levels, frequent_symbols, rounds) -> Dict:
    """Bit-identity gates: kernel outputs equal the reference's."""
    candidate_counts: List[int] = []
    for level in levels:
        expected = reference_generate_candidates(
            level, frequent_symbols, CONSTRAINTS
        )
        got = kernel_generate_candidates(
            level, frequent_symbols, CONSTRAINTS
        )
        if got != expected:
            raise AssertionError(
                f"kernel candidate generation deviates on a level of "
                f"{len(level)} patterns ({len(got)} vs {len(expected)} "
                "candidates)"
            )
        candidate_counts.append(len(expected))
    for undecided, newly_frequent, newly_infrequent in rounds:
        expected = reference_filter_undecided(
            undecided, newly_frequent, newly_infrequent
        )
        got = filter_undecided(undecided, newly_frequent, newly_infrequent)
        if got != expected:
            raise AssertionError(
                "kernel propagation deviates from the reference sweep "
                f"({len(got)} vs {len(expected)} survivors)"
            )
    return {
        "candidates_per_level": candidate_counts,
        "propagation_rounds": len(rounds),
        "bit_identical_to_reference": True,
    }


def measure_workload(
    name: str, scale: BenchScale, min_match: float, rounds: int,
) -> Dict:
    levels, frequent_symbols, prop_rounds, matrix = build_workload(
        scale, min_match
    )
    equivalence = verify_kernels(levels, frequent_symbols, prop_rounds)

    timings: Dict[str, List[float]] = {
        "reference_candidates": [], "kernel_candidates": [],
        "reference_propagation": [], "kernel_propagation": [],
    }
    generators = {
        "reference_candidates": reference_generate_candidates,
        "kernel_candidates": kernel_generate_candidates,
    }
    sweeps = {
        "reference_propagation": reference_filter_undecided,
        "kernel_propagation": filter_undecided,
    }
    for _ in range(rounds):
        for key, generate in generators.items():
            started = time.perf_counter()
            for level in levels:
                generate(level, frequent_symbols, CONSTRAINTS)
            timings[key].append(time.perf_counter() - started)
        for key, sweep in sweeps.items():
            started = time.perf_counter()
            for undecided, fresh, killers in prop_rounds:
                sweep(undecided, fresh, killers)
            timings[key].append(time.perf_counter() - started)

    best = {key: min(values) for key, values in timings.items()}
    combined_reference = (
        best["reference_candidates"] + best["reference_propagation"]
    )
    combined_kernel = (
        best["kernel_candidates"] + best["kernel_propagation"]
    )
    return {
        "workload": {
            "name": name,
            "n_sequences": scale.n_sequences,
            "sample_size": scale.sample_size,
            "mean_length": scale.mean_length,
            "alphabet": matrix.size,
            "alpha": ALPHA,
            "min_match": min_match,
            "delta": DELTA,
            "levels": [len(level) for level in levels],
            "candidates_per_level":
                equivalence["candidates_per_level"],
            "propagation_rounds": len(prop_rounds),
            "ambiguous_patterns":
                len(prop_rounds[0][0]) if prop_rounds else 0,
            "rounds": rounds,
        },
        "equivalence": equivalence,
        "lattice": {
            "reference": {
                "candidates_seconds": best["reference_candidates"],
                "propagation_seconds": best["reference_propagation"],
                "combined_seconds": combined_reference,
            },
            "kernel": {
                "candidates_seconds": best["kernel_candidates"],
                "propagation_seconds": best["kernel_propagation"],
                "combined_seconds": combined_kernel,
                "candidates_speedup":
                    best["reference_candidates"]
                    / best["kernel_candidates"],
                "propagation_speedup":
                    best["reference_propagation"]
                    / best["kernel_propagation"]
                    if best["kernel_propagation"] else None,
                "combined_speedup":
                    combined_reference / combined_kernel,
            },
        },
    }


def measure(smoke: bool = False) -> Dict:
    workloads = SMOKE_WORKLOADS if smoke else WORKLOADS
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    return {
        "benchmark": "lattice kernels",
        "smoke": smoke,
        "speedup_gates": {
            name: (None if smoke else gate)
            for name, (_scale, _mm, gate) in workloads.items()
        },
        "workloads": {
            name: measure_workload(name, scale, min_match, rounds)
            for name, (scale, min_match, _gate) in workloads.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload, two rounds, no speedup gate "
             "(CI correctness pass)",
    )
    add_output_argument(parser)
    args = parser.parse_args(argv)
    report = measure(smoke=args.smoke)
    write_report(report, "BENCH_lattice.json", args.out, args.smoke)
    failed = False
    for name, row in report["workloads"].items():
        kernel = row["lattice"]["kernel"]
        reference = row["lattice"]["reference"]
        speedup = kernel["combined_speedup"]
        print(
            f"{name:8s} "
            f"{sum(row['workload']['candidates_per_level']):6d} candidates "
            f"in {len(row['workload']['levels'])} levels, "
            f"{row['workload']['ambiguous_patterns']:5d} ambiguous   "
            f"reference {reference['combined_seconds']:7.3f}s   "
            f"kernel {kernel['combined_seconds']:7.3f}s   "
            f"{speedup:.2f}x"
        )
        gate = report["speedup_gates"][name]
        if not args.smoke and gate and speedup < gate:
            print(
                f"WARNING: {name} combined lattice speedup {speedup:.2f}x "
                f"is below {gate}x"
            )
            failed = True
    return 1 if failed else 0


def test_lattice(benchmark):
    """pytest-benchmark entry point (smoke-sized, correctness-gated)."""
    scale, min_match, _gate = SMOKE_WORKLOADS["smoke"]
    report = run_once(
        benchmark,
        lambda: measure_workload(
            "smoke", scale, min_match, rounds=SMOKE_ROUNDS
        ),
    )
    assert report["equivalence"]["bit_identical_to_reference"]


if __name__ == "__main__":
    raise SystemExit(main())
