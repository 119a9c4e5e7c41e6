"""Worker-count benchmark: thread-pool counting scaling and identity.

Measures :class:`~repro.engine.VectorizedBatchEngine` with several
workers — one scan whose chunks are counted on a thread pool — against
the same engine with one worker, and enforces the contracts the pool
is built on:

* **bit-identity** (always enforced, including ``--smoke``): totals are
  bit-for-bit identical to one worker for several worker counts, on
  both the packed and the segmented store, over repeated calls (so
  varying completion orders).  No tolerance — the chunk rows are added
  in scan order, the exact accumulation order of one worker.
* **scaling** (full mode only): counting throughput at 4 workers is at
  least 3x the 1-worker throughput on the standard store.  Skipped
  with a recorded reason when the machine exposes fewer than 4 cores,
  because the gate would measure the scheduler's overhead rather than
  its scaling.

Writes ``BENCH_shards.json`` next to the repository root (or to
``--out PATH``).

Usage::

    PYTHONPATH=src python benchmarks/bench_shards.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _workloads import (
    BenchScale,
    add_output_argument,
    build_standard_database,
    current_scale,
    write_report,
)

from repro.core.compatibility import CompatibilityMatrix
from repro.core.pattern import Pattern
from repro.core.sequence import SequenceDatabase
from repro.engine import VectorizedBatchEngine
from repro.io import PackedSequenceStore, SegmentedSequenceStore


ALPHA = 0.1
CHUNK_ROWS = 64
SCALING_GATE = 3.0
SCALING_WORKERS = 4
ROUNDS = 3

#: Worker counts exercised by the identity gate: one, the smallest
#: pool, and two odd counts.
WORKER_COUNTS = (1, 2, 3, 5)

#: Calls per worker count and store in the identity gate.
REPEATS = 3


def _batch(m: int) -> List[Pattern]:
    """A counting batch across span groups: singles, pairs, a triple."""
    singles = [Pattern.single(s) for s in range(min(m, 6))]
    pairs = [Pattern([0, 1]), Pattern([2, 3]), Pattern([1, 0, 2])]
    return singles + pairs


def _build_stores(tmp: Path, smoke: bool):
    scale = (
        BenchScale(n_sequences=90, sample_size=40, mean_length=14,
                   noise_seeds=(1,))
        if smoke else current_scale()
    )
    db, _motifs, m = build_standard_database(scale, alphabet_size=12,
                                             seed=5)
    rows = [list(db.sequence(sid)) for sid in db.ids]
    packed = PackedSequenceStore.from_database(db, tmp / "bench.nmp")
    packed = PackedSequenceStore.open(tmp / "bench.nmp")
    third = len(rows) // 3
    segmented = SequenceDatabase(rows[:third])
    seg_store = SegmentedSequenceStore.create(tmp / "seg", segmented)
    seg_store.append(rows[third : 2 * third])
    seg_store.append(rows[2 * third :])
    return packed, seg_store, m


def check_bit_identity(packed, segmented, matrix) -> Dict:
    """The identity gate: every worker count, repeated calls, both
    stores, database and symbol totals — all bit-identical."""
    batch = _batch(matrix.size)
    vec = VectorizedBatchEngine(chunk_rows=CHUNK_ROWS, workers=1)
    checked = 0
    for store in (packed, segmented):
        want_db = vec.database_matches(batch, store, matrix)
        want_sym = vec.symbol_matches(store, matrix)
        for workers in WORKER_COUNTS:
            with VectorizedBatchEngine(
                chunk_rows=CHUNK_ROWS, workers=workers
            ) as engine:
                for repeat in range(REPEATS):
                    got_db = engine.database_matches(batch, store, matrix)
                    got_sym = engine.symbol_matches(store, matrix)
                    if got_db != want_db:
                        raise AssertionError(
                            f"database totals differ at workers={workers} "
                            f"call {repeat} on {type(store).__name__}"
                        )
                    if not np.array_equal(got_sym, want_sym):
                        raise AssertionError(
                            f"symbol totals differ at workers={workers} "
                            f"call {repeat} on {type(store).__name__}"
                        )
                    checked += 1
    return {
        "identical": True,
        "configs_checked": checked,
        "worker_counts": list(WORKER_COUNTS),
        "repeats": REPEATS,
        "tolerance": "bit-identical (== on floats)",
    }


def check_scaling(packed, matrix, gate: bool) -> Dict:
    """The throughput gate: 4 workers beat 1 worker by >= 3x.  Skipped
    (with the reason recorded) on machines with fewer than 4 cores."""
    cores = len(os.sched_getaffinity(0))
    if cores < SCALING_WORKERS:
        return {
            "skipped": True,
            "reason": (
                f"machine exposes {cores} core(s); the {SCALING_GATE}x "
                f"gate needs >= {SCALING_WORKERS} to measure scaling "
                f"rather than scheduler overhead"
            ),
            "cores": cores,
        }
    batch = _batch(matrix.size)

    def _time(n_workers: int) -> float:
        engine = VectorizedBatchEngine(
            chunk_rows=CHUNK_ROWS, workers=n_workers
        )
        try:
            engine.database_matches(batch, packed, matrix)  # warm-up
            best = float("inf")
            for _ in range(ROUNDS):
                started = time.perf_counter()
                engine.database_matches(batch, packed, matrix)
                best = min(best, time.perf_counter() - started)
            return best
        finally:
            engine.close()

    serial = _time(1)
    parallel = _time(SCALING_WORKERS)
    speedup = serial / max(parallel, 1e-9)
    if gate and speedup < SCALING_GATE:
        raise AssertionError(
            f"{SCALING_WORKERS}-worker speedup {speedup:.2f}x below "
            f"the {SCALING_GATE}x gate"
        )
    return {
        "skipped": False,
        "cores": cores,
        "serial_seconds": serial,
        "parallel_seconds": parallel,
        "workers": SCALING_WORKERS,
        "speedup": speedup,
    }


def measure(smoke: bool = False) -> Dict:
    with tempfile.TemporaryDirectory(prefix="bench_shards_") as tmp:
        packed, segmented, m = _build_stores(Path(tmp), smoke)
        matrix = CompatibilityMatrix.uniform_noise(m, ALPHA)
        try:
            report = {
                "benchmark": "thread-pool chunk counting vs one worker",
                "smoke": smoke,
                "workload": {
                    "n_sequences": len(packed),
                    "segments": len(segmented.segments),
                    "alphabet": m,
                    "alpha": ALPHA,
                    "chunk_rows": CHUNK_ROWS,
                },
                "bit_identity": check_bit_identity(
                    packed, segmented, matrix
                ),
            }
            if not smoke:
                report["scaling"] = check_scaling(
                    packed, matrix, gate=True
                )
            return report
        finally:
            packed.close()
            segmented.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload, identity gate only (CI correctness pass)",
    )
    add_output_argument(parser)
    args = parser.parse_args(argv)
    report = measure(smoke=args.smoke)
    write_report(report, "BENCH_shards.json", args.out, args.smoke)
    identity = report["bit_identity"]
    print(f"bit-identity: {identity['configs_checked']} configs identical")
    if "scaling" in report:
        scaling = report["scaling"]
        if scaling.get("skipped"):
            print(f"scaling gate skipped: {scaling['reason']}")
        else:
            print(
                f"scaling: {scaling['speedup']:.2f}x at "
                f"{scaling['workers']} workers"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
