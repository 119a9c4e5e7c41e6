"""Phase-2 sample counting: resident evaluator legs vs the batched kernel.

Phase 2 counts every BFS level against one fixed in-memory sample, and
is where the bulk of a run's wall-clock goes once Phase-3 scans are
down to a handful.  This benchmark captures the *actual* per-level
candidate batches of one ``classify_on_sample`` run (via a recording
engine), then replays them through
:func:`repro.mining.counting.count_matches_batched` — the same dispatch
point the miners use — per leg:

* ``batched``          — the baseline: the batched prefix-plan kernel
  of ``tests/oracles.py`` (``PrefixPlanEngine``), which evaluates each
  span group flat in a ``(B, W, N)`` score buffer over whole factor
  arrays it keeps between calls;
* ``resident``         — the evaluator: the counting engine with an
  unbudgeted pin, so the sample is keyed once and each factor row
  gathered once, on the first read, counting each batch
  through the engine's one counted scan and prefix-trie walk, each
  child's maxima derived from its parent's score plane in O(W·N), or
  a sibling group's at once in O(W·N + k·(m+1)·N);
* ``resident_float32`` — the same evaluator with float32 factor and
  plane storage and float64 accumulation (error-bounded, halved
  pinned row and plane bytes; ``pinned_bytes`` is the keys and rows
  the pin holds).

The resident legs keep only the sample pin between calls (each call's
walk buffers are its own), so every round derives its planes the way
one real Phase-2 run does; ``plane_stack_bytes`` records the stack
buffers one counting thread held in the last call.  The counting engine walks the same prefix
trie as the resident legs, so the baseline is the batched kernel it
replaced: comparing the walk with itself would gate nothing.

Two workloads bracket the paper's experiments: ``fig9`` (protein
composition, mean length 60 — the long-sequence regime of Figure 9)
and ``fig14`` (mean length 30, the performance-comparison shape of
Figure 14).  Legs are timed in interleaved rounds and the recorded
figure is the best round.  Before timing, a correctness gate checks

* the float64 resident leg is **bit-identical** to the batched
  kernel (equal ``chunk_rows``) on every pattern;
* the float32 leg stays within ``1e-5`` of float64 everywhere;
* a spot check against the per-sequence oracle of ``tests/oracles.py``
  to 1e-12.

Run as a script to write ``BENCH_phase2.json`` next to the repo root
(or to ``--out PATH``)::

    PYTHONPATH=src python benchmarks/bench_phase2_sample.py

``--smoke`` runs a tiny workload for two rounds with every correctness
gate active but no speedup gates — CI's pass, where shared runners
make timing assertions meaningless; it writes only to ``--out``.  Through pytest-benchmark::

    pytest benchmarks/bench_phase2_sample.py --benchmark-only
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Tuple

import numpy as np

from repro import CompatibilityMatrix, Pattern, PatternConstraints
from repro.core.sequence import SequenceDatabase
from repro.datagen.noise import corrupt_uniform
from repro.engine import ResidentSampleEvaluator, VectorizedBatchEngine
from repro.mining.ambiguous import classify_on_sample
from repro.mining.counting import count_matches_batched

from _workloads import (
    BenchScale,
    add_output_argument,
    build_standard_database,
    run_once,
    write_report,
)
# Importing _workloads first puts the repo root on sys.path.
from tests.oracles import PrefixPlanEngine, ReferenceEngine

ALPHA = 0.2
DELTA = 1e-4
ROUNDS = 5
SMOKE_ROUNDS = 2
SAMPLE_SEED = 23
REFERENCE_SPOT_CHECK = 150
FLOAT32_BOUND = 1e-5

#: name -> (scale, min_match, resident-vs-batched gate).  The
#: thresholds are regression floors tuned per regime (see the
#: fig9/fig14 notes in the git history).
WORKLOADS: Dict[str, Tuple[BenchScale, float, float]] = {
    "fig9": (BenchScale(400, 200, 60, (1,)), 0.15, 3.0),
    "fig14": (BenchScale(400, 200, 30, (1,)), 0.12, 2.5),
}
SMOKE_WORKLOADS: Dict[str, Tuple[BenchScale, float, float]] = {
    "smoke": (BenchScale(60, 40, 12, (1,)), 0.30, 0.0),
}
CONSTRAINTS = PatternConstraints(max_weight=10, max_span=10, max_gap=0)


class _RecordingEngine(VectorizedBatchEngine):
    """Counting engine that records every batch it is handed."""

    def __init__(self):
        super().__init__()
        self.batches: List[List[Pattern]] = []

    def database_matches(self, patterns, database, matrix, tracer=None):
        patterns = list(patterns)
        if patterns:
            self.batches.append(patterns)
        return super().database_matches(patterns, database, matrix, tracer)


def build_workload(scale: BenchScale, min_match: float):
    """The Phase-2 inputs: sample, matrix, symbol matches, batches."""
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
    # Symbol matches come from the full database, exactly as Phase 1
    # hands them to Phase 2.
    symbol_match = VectorizedBatchEngine().symbol_matches(noisy, matrix)
    recorder = _RecordingEngine()
    classify_on_sample(
        sample, matrix, min_match, DELTA, symbol_match, CONSTRAINTS,
        engine=recorder,
    )
    return sample, matrix, recorder.batches


def replay(engine, batches, sample, matrix) -> Dict[Pattern, float]:
    result: Dict[Pattern, float] = {}
    for batch in batches:
        result.update(
            count_matches_batched(batch, sample, matrix, engine=engine)
        )
    return result


def verify(batches, sample, matrix, results) -> Dict:
    """The correctness gates (always on, even under ``--smoke``)."""
    batched = results["batched"]
    # Float64 bit-identity, every pattern.
    mismatches = sum(
        1
        for batch in batches
        for p in batch
        if results["resident"][p] != batched[p]
    )
    if mismatches:
        raise AssertionError(
            f"resident deviates from batched on {mismatches} patterns "
            "(bit-identity is part of the evaluator's contract)"
        )
    # Float32: error-bounded everywhere.
    worst_f32 = max(
        abs(results["resident_float32"][p] - batched[p])
        for batch in batches
        for p in batch
    )
    if worst_f32 > FLOAT32_BOUND:
        raise AssertionError(
            f"float32 resident deviates by {worst_f32} "
            f"(bound {FLOAT32_BOUND})"
        )
    largest = max(batches, key=len)
    subset = largest[:REFERENCE_SPOT_CHECK]
    expected = ReferenceEngine().database_matches(subset, sample, matrix)
    worst = max(abs(results["resident"][p] - expected[p]) for p in subset)
    if worst > 1e-12:
        raise AssertionError(
            f"resident deviates from reference by {worst}"
        )
    return {
        "bit_identical_to_batched": True,
        "float32_max_abs_deviation": worst_f32,
        "float32_bound": FLOAT32_BOUND,
        "reference_spot_check_patterns": len(subset),
        "reference_max_abs_deviation": worst,
    }


def _build_legs() -> Dict[str, object]:
    return {
        "batched": PrefixPlanEngine(),
        "resident": ResidentSampleEvaluator(),
        "resident_float32": ResidentSampleEvaluator(score_dtype="float32"),
    }


def measure_workload(
    name: str, scale: BenchScale, min_match: float, rounds: int,
) -> Dict:
    sample, matrix, batches = build_workload(scale, min_match)
    legs = _build_legs()

    results = {
        leg: replay(engine, batches, sample, matrix)
        for leg, engine in legs.items()
    }
    equivalence = verify(batches, sample, matrix, results)

    timings: Dict[str, List[float]] = {leg: [] for leg in legs}
    for _ in range(rounds):
        for leg, engine in legs.items():
            # Both engines' factor pins legitimately persist across
            # rounds.
            started = time.perf_counter()
            replay(engine, batches, sample, matrix)
            timings[leg].append(time.perf_counter() - started)

    best = {leg: min(values) for leg, values in timings.items()}
    n_patterns = sum(len(b) for b in batches)
    engines_report: Dict[str, Dict] = {}
    for leg, engine in legs.items():
        row = {
            "best_seconds": best[leg],
            "median_seconds": sorted(timings[leg])[rounds // 2],
            "patterns_per_sec": n_patterns / best[leg],
        }
        if leg != "batched":
            row["speedup_vs_batched"] = best["batched"] / best[leg]
            row["plane_stack_bytes"] = engine.planes.nbytes
            row["pinned_bytes"] = engine.cache.nbytes
        engines_report[leg] = row
    engines_report["resident_float32"]["speedup_vs_float64_resident"] = (
        best["resident"] / best["resident_float32"]
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
            "levels": [len(b) for b in batches],
            "n_patterns": n_patterns,
            "rounds": rounds,
        },
        "equivalence": equivalence,
        "engines": engines_report,
    }


def measure(smoke: bool = False) -> Dict:
    workloads = SMOKE_WORKLOADS if smoke else WORKLOADS
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    return {
        "benchmark": "phase-2 sample counting",
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
        help="tiny workload, two rounds, correctness gates only "
             "(CI pass; no speedup gates)",
    )
    add_output_argument(parser)
    args = parser.parse_args(argv)
    report = measure(smoke=args.smoke)
    write_report(report, "BENCH_phase2.json", args.out, args.smoke)
    failed = False
    for name, row in report["workloads"].items():
        engines = row["engines"]
        resident = engines["resident"]
        f32 = engines["resident_float32"]
        speedup = resident["speedup_vs_batched"]
        print(
            f"{name:8s} {row['workload']['n_patterns']:6d} candidates in "
            f"{len(row['workload']['levels'])} levels   "
            f"batched {engines['batched']['best_seconds']:7.3f}s   "
            f"resident {resident['best_seconds']:7.3f}s ({speedup:.2f}x)   "
            f"float32 {f32['best_seconds']:7.3f}s "
            f"({f32['speedup_vs_float64_resident']:.2f}x vs float64)"
        )
        gate = report["speedup_gates"][name]
        if gate and speedup < gate:
            print(
                f"WARNING: {name} resident speedup {speedup:.2f}x is "
                f"below {gate}x"
            )
            failed = True
    return 1 if failed else 0


def test_phase2_sample(benchmark):
    """pytest-benchmark entry point (smoke-sized, correctness-gated)."""
    scale, min_match, _gate = SMOKE_WORKLOADS["smoke"]
    report = run_once(
        benchmark,
        lambda: measure_workload(
            "smoke", scale, min_match, rounds=SMOKE_ROUNDS
        ),
    )
    assert report["equivalence"]["bit_identical_to_batched"]


if __name__ == "__main__":
    raise SystemExit(main())
