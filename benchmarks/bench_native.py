"""Compiled kernels vs the numpy kernels of the same engine.

The numpy kernels remove per-pattern Python dispatch but still
materialise the ``(m + 1, L, N)`` factor array and a score plane per
window; the numpy lattice kernels still gather ``(pairs, span)``
blocks per containment sweep.  The compiled kernels fuse those loops
into single compiled passes (:mod:`repro.core._nativekernels`).  This
benchmark gates the whole contract of that path:

* **window scoring** — ``VectorizedBatchEngine(kernels="auto")`` (the
  compiled kernels) vs ``kernels="numpy"`` on the fig14 counting
  workload, gated >= 5x when numba is importable (auto-skipped, with
  the recorded import-failure reason, when it is not);
* **lattice kernels** — batch candidate generation and the Phase-3
  containment sweep with the compiled kernels vs the numpy
  byte-set/gather paths, gated on combined speedup;
* **float32 scoring** — max deviation of ``score_dtype="float32"``
  match values from float64, gated below the documented bound (far
  under every classification tolerance the miners use);
* **six-miner bit-identity** — all six miners end to end on the
  compiled kernels (their interpreted twins without numba) vs the
  numpy kernels: identical frequent sets (float64 bit patterns
  included), identical borders, identical scan counts.

The correctness gates run on every leg — without numba they exercise
the interpreted kernel twins, the exact code numba compiles.  Run as a
script to write ``BENCH_native.json`` next to the repo root::

    PYTHONPATH=src python benchmarks/bench_native.py

``--smoke`` shrinks the workload and skips the speedup gates — a
correctness-only pass for CI.  Through pytest-benchmark::

    pytest benchmarks/bench_native.py --benchmark-only
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    BorderCollapsingMiner,
    CompatibilityMatrix,
    LevelwiseMiner,
    MaxMiner,
    Pattern,
    PatternConstraints,
    SequenceDatabase,
    WILDCARD,
)
from repro.core import _nativekernels as nk
from repro.core import latticekernels as lk
from repro.core.latticekernels import (
    kernel_generate_candidates,
    subsumption_hits,
)
from repro.datagen.noise import corrupt_uniform
from repro.engine import VectorizedBatchEngine
from repro.mining.depthfirst import DepthFirstMiner
from repro.mining.pincer import PincerMiner
from repro.mining.toivonen import ToivonenMiner

from _workloads import (
    BenchScale,
    add_output_argument,
    build_standard_database,
    run_once,
    write_report,
)

ALPHA = 0.2
ROUNDS = 5
SMOKE_ROUNDS = 2
CHUNK_ROWS = 256

#: The float32 gate: maximum allowed |float32 - float64| on any match
#: value.  Window products round once per factor (<= span ulps of
#: float32, ~1e-7 relative) and the cross-sequence accumulation stays
#: float64, so 1e-5 is generous — and still three orders of magnitude
#: below the tightest classification tolerance (delta bands ~1e-2).
FLOAT32_BOUND = 1e-5

#: The miner gate gets its own small-alphabet workload: the point is
#: end-to-end engine interchangeability (every counting pass, every
#: phase), not scale — and it must stay fast through the *interpreted*
#: kernel twins on numba-free legs, where the protein alphabet's wide
#: Chernoff bands would make candidate enumeration explode.
MINER_GATE_SEQUENCES = 40
MINER_GATE_ALPHABET = 6
MINER_GATE_ALPHA = 0.15
MINER_GATE_LENGTH = 12
MINER_GATE_MIN_MATCH = 0.3
MINER_GATE_CONSTRAINTS = PatternConstraints(
    max_weight=4, max_span=6, max_gap=1
)
CONSTRAINTS = PatternConstraints(max_weight=4, max_span=6, max_gap=1)


#: name -> (scale, window-speedup gate, combined lattice-speedup gate).
#: fig14 is the performance-comparison shape of Figure 14 (mean length
#: 30); the batch is a realistic Apriori level (all 2-patterns over the
#: strongest symbols, gapped and ungapped), which is exactly the shape
#: every counting pass evaluates.
WORKLOADS: Dict[str, Tuple[BenchScale, float, float]] = {
    "fig14": (BenchScale(400, 200, 30, (1,)), 5.0, 2.0),
}
SMOKE_WORKLOADS: Dict[str, Tuple[BenchScale, float, float]] = {
    "smoke": (BenchScale(60, 40, 12, (1,)), 0.0, 0.0),
}

#: Batch sizes: the timed batch feeds the compiled kernels; the
#: correctness batch also runs through the *interpreted* twins on
#: numba-free legs, so it is capped to keep the pure-Python pass fast.
TIMED_SYMBOLS = 8
CORRECTNESS_PATTERNS = 24


def build_workload(scale: BenchScale):
    """The fig14 counting inputs: noisy database, matrix, pattern batch."""
    std, _motifs, m = build_standard_database(scale, protein=True)
    rng = np.random.default_rng(scale.noise_seeds[0])
    noisy = corrupt_uniform(std, m, ALPHA, rng)
    matrix = CompatibilityMatrix.uniform_noise(m, ALPHA)
    symbol_match = VectorizedBatchEngine(kernels="numpy").symbol_matches(
        noisy, matrix
    )
    top = list(np.argsort(symbol_match)[::-1][:TIMED_SYMBOLS])
    batch: List[Pattern] = []
    for a in top:
        for b in top:
            batch.append(Pattern([int(a), int(b)]))
            batch.append(Pattern([int(a), WILDCARD, int(b)]))
    triples = [
        Pattern([int(a), int(b), int(c)])
        for a in top[:5] for b in top[:5] for c in top[:5]
    ]
    return noisy, matrix, batch, triples, m


def verify_window_kernels(noisy, matrix, batch) -> Dict:
    """Bit-identity and float32 gates over the scoring kernels.

    Runs the interpreted twins (every leg) and, where numba imports,
    the compiled kernels — both must reproduce the vectorized float64
    bit patterns exactly, and float32 must stay inside
    :data:`FLOAT32_BOUND`.
    """
    correctness = batch[:CORRECTNESS_PATTERNS]
    vec = VectorizedBatchEngine(
        chunk_rows=CHUNK_ROWS, cache_bytes=0, kernels="numpy"
    )
    expected = vec.database_matches(correctness, noisy, matrix)
    engines = {
        "pure": VectorizedBatchEngine(chunk_rows=CHUNK_ROWS, kernels="pure")
    }
    if nk.native_available:
        engines["compiled"] = VectorizedBatchEngine(chunk_rows=CHUNK_ROWS)
    for label, engine in engines.items():
        got = engine.database_matches(correctness, noisy, matrix)
        for pattern in correctness:
            if got[pattern] != expected[pattern]:
                raise AssertionError(
                    f"{label} kernels deviate from numpy on "
                    f"{pattern}: {got[pattern]!r} != "
                    f"{expected[pattern]!r}"
                )
    f32_engine = VectorizedBatchEngine(
        chunk_rows=CHUNK_ROWS, score_dtype="float32",
        kernels="auto" if nk.native_available else "pure",
    )
    f32 = f32_engine.database_matches(correctness, noisy, matrix)
    deviation = max(
        abs(f32[p] - expected[p]) for p in correctness
    )
    if deviation > FLOAT32_BOUND:
        raise AssertionError(
            f"float32 scoring deviates {deviation:.2e} > "
            f"{FLOAT32_BOUND:.0e} bound"
        )
    return {
        "patterns": len(correctness),
        "variants": sorted(engines),
        "bit_identical_to_vectorized": True,
        "float32_max_deviation": deviation,
        "float32_bound": FLOAT32_BOUND,
    }


def verify_lattice_kernels(batch, triples) -> Dict:
    """The native lattice dispatch equals the numpy path exactly."""
    frequent = set(batch)
    symbols = sorted({e for p in batch for e in p.elements if e != WILDCARD})
    dispatches = {
        "numpy": (None, None),
        "pure": (nk.py_containment_sweep, nk.py_rows_in_sorted),
    }
    if nk.native_available:
        dispatches["compiled"] = (nk.containment_sweep, nk.rows_in_sorted)
    candidates = {}
    sweeps = {}
    for label, (sweep, member) in dispatches.items():
        saved = (lk._NATIVE_SWEEP, lk._NATIVE_MEMBER)
        lk._NATIVE_SWEEP, lk._NATIVE_MEMBER = sweep, member
        try:
            candidates[label] = kernel_generate_candidates(
                frequent, symbols, CONSTRAINTS
            )
            inner_any, outer_any = subsumption_hits(
                sorted(frequent), triples
            )
            sweeps[label] = (inner_any.tolist(), outer_any.tolist())
        finally:
            lk._NATIVE_SWEEP, lk._NATIVE_MEMBER = saved
    for label in dispatches:
        if candidates[label] != candidates["numpy"]:
            raise AssertionError(
                f"lattice dispatch {label!r} deviates on candidates"
            )
        if sweeps[label] != sweeps["numpy"]:
            raise AssertionError(
                f"lattice dispatch {label!r} deviates on containment"
            )
    return {
        "candidates": len(candidates["numpy"]),
        "containment_pairs": len(triples) * len(frequent),
        "dispatches": sorted(dispatches),
        "identical_across_dispatches": True,
    }


def verify_miners() -> Dict:
    """Six miners end to end: compiled (or pure) kernels vs numpy."""
    rng = np.random.default_rng(7)
    rows = [
        rng.integers(0, MINER_GATE_ALPHABET, size=MINER_GATE_LENGTH).tolist()
        for _ in range(MINER_GATE_SEQUENCES)
    ]
    matrix = CompatibilityMatrix.uniform_noise(
        MINER_GATE_ALPHABET, MINER_GATE_ALPHA
    )
    min_match = MINER_GATE_MIN_MATCH
    sample_size = max(2, len(rows) // 2)

    def engines():
        return {
            "vectorized": VectorizedBatchEngine(
                chunk_rows=CHUNK_ROWS, kernels="numpy"
            ),
            "native": VectorizedBatchEngine(
                chunk_rows=CHUNK_ROWS,
                kernels="auto" if nk.native_available else "pure",
            ),
        }

    factories = {
        "levelwise": lambda engine: LevelwiseMiner(
            matrix, min_match, constraints=MINER_GATE_CONSTRAINTS,
            engine=engine,
        ),
        "maxminer": lambda engine: MaxMiner(
            matrix, min_match, constraints=MINER_GATE_CONSTRAINTS,
            engine=engine,
        ),
        "pincer": lambda engine: PincerMiner(
            matrix, min_match, constraints=MINER_GATE_CONSTRAINTS,
            engine=engine,
        ),
        "depthfirst": lambda engine: DepthFirstMiner(
            matrix, min_match, constraints=MINER_GATE_CONSTRAINTS,
            engine=engine,
        ),
        "border-collapsing": lambda engine: BorderCollapsingMiner(
            matrix, min_match, sample_size=sample_size,
            constraints=MINER_GATE_CONSTRAINTS,
            rng=np.random.default_rng(11), engine=engine,
        ),
        "toivonen": lambda engine: ToivonenMiner(
            matrix, min_match, sample_size=sample_size,
            constraints=MINER_GATE_CONSTRAINTS,
            rng=np.random.default_rng(11), engine=engine,
        ),
    }
    report = {}
    for name, factory in factories.items():
        results = {}
        for engine_name, engine in engines().items():
            database = SequenceDatabase(list(rows))
            results[engine_name] = factory(engine).mine(database)
        vec, native = results["vectorized"], results["native"]
        if native.frequent != vec.frequent:  # dict ==: bit-identical
            raise AssertionError(
                f"{name}: native frequent set deviates from vectorized"
            )
        if native.border != vec.border:
            raise AssertionError(
                f"{name}: native border deviates from vectorized"
            )
        if native.scans != vec.scans:
            raise AssertionError(
                f"{name}: native scan count {native.scans} != "
                f"vectorized {vec.scans}"
            )
        report[name] = {
            "frequent": len(native.frequent),
            "scans": native.scans,
            "identical": True,
        }
    return report


def time_window_scoring(noisy, matrix, batch, rounds: int) -> Dict:
    """Best-of-rounds timing: compiled vs numpy kernel scoring."""
    native = VectorizedBatchEngine(chunk_rows=CHUNK_ROWS)
    vec = VectorizedBatchEngine(
        chunk_rows=CHUNK_ROWS, cache_bytes=0, kernels="numpy"
    )
    nk.warm_kernels()  # charge JIT outside the timed region
    native.database_matches(batch[:2], noisy, matrix)
    timings: Dict[str, List[float]] = {"native": [], "vectorized": []}
    for _ in range(rounds):
        started = time.perf_counter()
        vec.database_matches(batch, noisy, matrix)
        timings["vectorized"].append(time.perf_counter() - started)
        started = time.perf_counter()
        native.database_matches(batch, noisy, matrix)
        timings["native"].append(time.perf_counter() - started)
    best = {key: min(values) for key, values in timings.items()}
    return {
        "patterns": len(batch),
        "vectorized_seconds": best["vectorized"],
        "native_seconds": best["native"],
        "speedup": best["vectorized"] / best["native"],
        "jit_compile_seconds": nk.jit_compile_seconds(),
    }


def time_lattice(batch, triples, rounds: int) -> Dict:
    """Best-of-rounds timing: compiled lattice dispatch vs numpy."""
    frequent = set(batch)
    symbols = sorted({e for p in batch for e in p.elements if e != WILDCARD})
    inner = sorted(frequent)
    timings: Dict[str, List[float]] = {"numpy": [], "native": []}
    dispatches = {
        "numpy": (None, None),
        "native": (nk.containment_sweep, nk.rows_in_sorted),
    }
    for _ in range(rounds):
        for label, (sweep, member) in dispatches.items():
            saved = (lk._NATIVE_SWEEP, lk._NATIVE_MEMBER)
            lk._NATIVE_SWEEP, lk._NATIVE_MEMBER = sweep, member
            try:
                started = time.perf_counter()
                kernel_generate_candidates(frequent, symbols, CONSTRAINTS)
                subsumption_hits(inner, triples)
                timings[label].append(time.perf_counter() - started)
            finally:
                lk._NATIVE_SWEEP, lk._NATIVE_MEMBER = saved
    best = {key: min(values) for key, values in timings.items()}
    return {
        "numpy_seconds": best["numpy"],
        "native_seconds": best["native"],
        "combined_speedup": best["numpy"] / best["native"],
    }


def measure_workload(
    name: str, scale: BenchScale, rounds: int, smoke: bool
) -> Dict:
    noisy, matrix, batch, triples, m = build_workload(scale)
    report: Dict = {
        "workload": {
            "name": name,
            "n_sequences": scale.n_sequences,
            "mean_length": scale.mean_length,
            "alphabet": m,
            "alpha": ALPHA,
            "batch_patterns": len(batch),
            "rounds": rounds,
        },
        "window": verify_window_kernels(noisy, matrix, batch),
        "lattice": verify_lattice_kernels(batch, triples),
        "miners": verify_miners(),
    }
    if nk.native_available and not smoke:
        report["window"].update(
            time_window_scoring(noisy, matrix, batch, rounds)
        )
        report["lattice"].update(time_lattice(batch, triples, rounds))
    return report


def measure(smoke: bool = False) -> Dict:
    workloads = SMOKE_WORKLOADS if smoke else WORKLOADS
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    return {
        "benchmark": "native kernels",
        "smoke": smoke,
        "native_available": nk.native_available,
        "speedup_skip_reason": (
            None if nk.native_available
            else f"compiled native kernels unavailable: "
                 f"{nk.native_unavailable_reason()}"
        ),
        "speedup_gates": {
            name: (
                None if smoke or not nk.native_available
                else {"window": window_gate, "lattice": lattice_gate}
            )
            for name, (_scale, window_gate, lattice_gate)
            in workloads.items()
        },
        "float32_bound": FLOAT32_BOUND,
        "workloads": {
            name: measure_workload(name, scale, rounds, smoke)
            for name, (scale, _wg, _lg) in workloads.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload, no speedup gates (CI correctness pass)",
    )
    add_output_argument(parser)
    args = parser.parse_args(argv)
    report = measure(smoke=args.smoke)
    write_report(report, "BENCH_native.json", args.out, args.smoke)
    failed = False
    for name, row in report["workloads"].items():
        window = row["window"]
        print(
            f"{name:8s} {window['patterns']:4d} patterns verified, "
            f"float32 deviation {window['float32_max_deviation']:.2e}, "
            f"{len(row['miners'])} miners identical"
        )
        gates: Optional[Dict] = report["speedup_gates"][name]
        if gates is None:
            reason = report["speedup_skip_reason"]
            if reason:
                print(f"         speedup gates skipped: {reason}")
            continue
        window_speedup = row["window"]["speedup"]
        lattice_speedup = row["lattice"]["combined_speedup"]
        print(
            f"         window {row['window']['vectorized_seconds']:.3f}s "
            f"-> {row['window']['native_seconds']:.3f}s "
            f"({window_speedup:.2f}x), lattice {lattice_speedup:.2f}x"
        )
        if window_speedup < gates["window"]:
            print(
                f"WARNING: {name} window speedup {window_speedup:.2f}x "
                f"below {gates['window']}x"
            )
            failed = True
        if lattice_speedup < gates["lattice"]:
            print(
                f"WARNING: {name} lattice speedup {lattice_speedup:.2f}x "
                f"below {gates['lattice']}x"
            )
            failed = True
    return 1 if failed else 0


def test_native(benchmark):
    """pytest-benchmark entry point (smoke-sized, correctness-gated)."""
    scale, _wg, _lg = SMOKE_WORKLOADS["smoke"]
    report = run_once(
        benchmark,
        lambda: measure_workload(
            "smoke", scale, rounds=SMOKE_ROUNDS, smoke=True
        ),
    )
    assert report["window"]["bit_identical_to_vectorized"]
    assert report["lattice"]["identical_across_dispatches"]


if __name__ == "__main__":
    raise SystemExit(main())
