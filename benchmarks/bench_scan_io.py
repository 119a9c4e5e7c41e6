"""Scan I/O throughput: packed binary store vs text file streaming.

The packed store exists to make disk-resident passes cheap: a text
database re-parses every symbol on every scan (the dominant per-pass
cost once the match kernels are vectorized), while the packed store
serves zero-copy ``int32`` row views out of one memory-mapped buffer.
This benchmark measures that scan layer in isolation on the two tasks
that consume full-database passes:

* **phase1** — the fused Phase-1 pass
  (:func:`repro.core.match.symbol_matches_and_sample`): per-symbol
  matches plus the reservoir sample, one streamed pass;
* **probe** — one replayed Phase-3 probe round: a batch of probe
  patterns counted by ``count_matches_batched`` through the vectorized
  engine (a fresh engine per round, so every round pays the full
  scan).

Because the match arithmetic is identical for every representation,
end-to-end times understate the storage difference.  Each task is
therefore also run on the fully in-memory database, and the **scan
overhead** of a disk representation is its time minus the in-memory
time for the same task — the cost attributable to storage alone.  The
reported throughput is ``total_symbols / overhead``, and the headline
ratio is ``overhead_text / overhead_packed`` summed over both tasks
(floored at ``EPS_SECONDS`` so a hot-cache packed pass cannot divide by
zero).  End-to-end seconds are reported alongside, unsubtracted.

Before any timing, a correctness gate checks on every workload that
the three representations are **bit-identical**: Phase-1 match vectors
and sample ids, probe-round match values, and — on a small slice — the
full frequent-pattern output of all six miners.

Run as a script to write ``BENCH_io.json`` next to the repo root::

    PYTHONPATH=src python benchmarks/bench_scan_io.py

``--smoke`` runs a tiny workload for two rounds and skips the
throughput-ratio gates — a correctness-only pass for CI, where shared
runners make timing assertions meaningless.  Through pytest::

    pytest benchmarks/bench_scan_io.py --benchmark-only
"""

from __future__ import annotations

import argparse
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro import (
    CompatibilityMatrix,
    PackedSequenceStore,
    Pattern,
    PatternConstraints,
)
from repro.core.match import symbol_matches_and_sample
from repro.core.sequence import FileSequenceDatabase, SequenceDatabase
from repro.datagen.noise import corrupt_uniform
from repro.engine import VectorizedBatchEngine
from repro.mining.counting import count_matches_batched

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
SAMPLE_SEED = 17
#: Overhead floor: a packed pass that matches the in-memory time to
#: within timer noise is credited this much storage cost (0.1 ms).
EPS_SECONDS = 1e-4
#: Sequences used for the six-miner bit-identity gate (full workloads
#: would take minutes per miner on the level-wise algorithms).
MINER_GATE_ROWS = 60

MINER_GATE_ALGORITHMS = (
    "border-collapsing", "levelwise", "maxminer",
    "toivonen", "pincer", "depthfirst",
)


@dataclass(frozen=True)
class IOScale:
    """One scan-throughput workload."""

    scale: BenchScale
    protein: bool       # protein composition (m=20) vs uniform m=12
    gate: float         # minimum overhead_text / overhead_packed ratio


#: The two evaluation shapes that consume the most full passes: fig14
#: (the performance comparison, protein composition) and fig15 (the
#: alphabet-size sweep's uniform-background shape).  2000 rows make the
#: text-parse overhead (~5 us/row) comfortably larger than timer noise.
#: The gates are regression floors on the scan-layer ratio: fig14 is
#: the acceptance bar (measures ~10x, gated at 5x); fig15's shorter
#: parse rows give a structurally similar ratio, floored lower so
#: baseline noise cannot flap it.
WORKLOADS: Dict[str, IOScale] = {
    "fig14": IOScale(BenchScale(2000, 500, 30, (1,)), True, 5.0),
    "fig15": IOScale(BenchScale(2000, 500, 30, (1,)), False, 3.0),
}
SMOKE_WORKLOADS: Dict[str, IOScale] = {
    "smoke": IOScale(BenchScale(80, 20, 12, (1,)), False, 0.0),
}
MINER_GATE_CONSTRAINTS = PatternConstraints(
    max_weight=3, max_span=4, max_gap=1
)


def build_representations(spec: IOScale, workdir: Path):
    """The same noisy database three ways: memory, text file, packed."""
    std, _motifs, m = build_standard_database(
        spec.scale, protein=spec.protein
    )
    rng = np.random.default_rng(spec.scale.noise_seeds[0])
    memory = corrupt_uniform(std, m, ALPHA, rng)
    text_path = workdir / "db.txt"
    packed_path = workdir / "db.nmp"
    memory.save(text_path)
    PackedSequenceStore.from_database(memory, packed_path)
    reps = {
        "memory": memory,
        "text": FileSequenceDatabase(text_path),
        "packed": PackedSequenceStore.open(packed_path),
    }
    matrix = CompatibilityMatrix.uniform_noise(m, ALPHA)
    return reps, matrix, m, text_path, packed_path


def build_probe_batch(memory, matrix) -> List[Pattern]:
    """A deterministic stand-in for one Phase-3 probe round: chains of
    the strongest symbols at the weights border collapsing probes."""
    totals, _sample = symbol_matches_and_sample(
        memory, matrix, sample_size=1,
        rng=np.random.default_rng(SAMPLE_SEED),
    )
    memory.reset_scan_count()
    top = list(np.argsort(totals)[::-1][:4])
    probes: List[Pattern] = []
    for a in top:
        for b in top:
            probes.append(Pattern([int(a), int(b)]))
    for a, b, c in zip(top, top[1:], top[2:]):
        probes.append(Pattern([int(a), int(b), int(c)]))
    return probes


def phase1_task(database, matrix, sample_size):
    totals, sample = symbol_matches_and_sample(
        database, matrix, sample_size,
        rng=np.random.default_rng(SAMPLE_SEED),
    )
    return totals, sample.ids


def probe_task(database, matrix, probes):
    # A fresh engine per task holds no factor arrays: every round pays
    # the storage cost, exactly as a Phase-3 round over a cold store.
    engine = VectorizedBatchEngine()
    return count_matches_batched(probes, database, matrix, engine=engine)


def verify_representations(reps, matrix, probes, sample_size) -> Dict:
    """The bit-identity gate across memory / text / packed."""
    base_totals, base_ids = phase1_task(reps["memory"], matrix, sample_size)
    base_probe = probe_task(reps["memory"], matrix, probes)
    for name in ("text", "packed"):
        totals, ids = phase1_task(reps[name], matrix, sample_size)
        if not np.array_equal(totals, base_totals):
            raise AssertionError(
                f"phase-1 match vector differs on {name} storage"
            )
        if ids != base_ids:
            raise AssertionError(f"phase-1 sample differs on {name} storage")
        if probe_task(reps[name], matrix, probes) != base_probe:
            raise AssertionError(f"probe round differs on {name} storage")
    return {
        "phase1_bit_identical": True,
        "probe_bit_identical": True,
        "n_probes": len(probes),
    }


def verify_miners(reps, matrix, min_match: float) -> Dict:
    """All six miners, bit-identical output on a slice of each storage
    representation (full workloads are minutes per level-wise miner)."""
    from repro import (
        BorderCollapsingMiner,
        DepthFirstMiner,
        LevelwiseMiner,
        MaxMiner,
        PincerMiner,
        ToivonenMiner,
    )

    n = min(MINER_GATE_ROWS, len(reps["memory"]))
    rows = [seq for _sid, seq in reps["memory"].scan()][:n]
    reps["memory"].reset_scan_count()
    slice_memory = SequenceDatabase(rows)
    with tempfile.TemporaryDirectory() as tmp:
        text_path = Path(tmp) / "slice.txt"
        packed_path = Path(tmp) / "slice.nmp"
        slice_memory.save(text_path)
        PackedSequenceStore.from_database(slice_memory, packed_path)
        slices = {
            "memory": slice_memory,
            "text": FileSequenceDatabase(text_path),
            "packed": PackedSequenceStore.open(packed_path),
        }

        def mine(algorithm, database):
            kwargs = dict(
                constraints=MINER_GATE_CONSTRAINTS,
                engine=VectorizedBatchEngine(),
            )
            if algorithm in ("border-collapsing", "toivonen"):
                cls = {"border-collapsing": BorderCollapsingMiner,
                       "toivonen": ToivonenMiner}[algorithm]
                return cls(
                    matrix, min_match, sample_size=n // 2, delta=0.2,
                    rng=np.random.default_rng(3), **kwargs
                ).mine(database)
            if algorithm == "depthfirst":
                return DepthFirstMiner(
                    matrix, min_match, **kwargs
                ).mine(database)
            cls = {"levelwise": LevelwiseMiner, "maxminer": MaxMiner,
                   "pincer": PincerMiner}[algorithm]
            return cls(matrix, min_match, **kwargs).mine(database)

        for algorithm in MINER_GATE_ALGORITHMS:
            baseline = mine(algorithm, slices["memory"])
            for name in ("text", "packed"):
                result = mine(algorithm, slices[name])
                if result.frequent != baseline.frequent:
                    raise AssertionError(
                        f"{algorithm} output differs on {name} storage"
                    )
                if result.scans != baseline.scans:
                    raise AssertionError(
                        f"{algorithm} scan count differs on {name} storage"
                    )
    return {
        "miners_bit_identical": list(MINER_GATE_ALGORITHMS),
        "miner_gate_rows": n,
    }


def measure_workload(name: str, spec: IOScale, rounds: int,
                     gate: bool) -> Dict:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        reps, matrix, m, text_path, packed_path = build_representations(
            spec, workdir
        )
        sample_size = spec.scale.sample_size
        probes = build_probe_batch(reps["memory"], matrix)

        verify = verify_representations(reps, matrix, probes, sample_size)
        if gate:
            verify.update(verify_miners(reps, matrix, min_match=0.5))

        tasks = ("phase1", "probe")
        timings: Dict[str, Dict[str, List[float]]] = {
            task: {rep: [] for rep in reps} for task in tasks
        }
        for _ in range(rounds):
            for rep_name, database in reps.items():
                started = time.perf_counter()
                phase1_task(database, matrix, sample_size)
                timings["phase1"][rep_name].append(
                    time.perf_counter() - started
                )
                started = time.perf_counter()
                probe_task(database, matrix, probes)
                timings["probe"][rep_name].append(
                    time.perf_counter() - started
                )

        best = {
            task: {rep: min(values) for rep, values in per_rep.items()}
            for task, per_rep in timings.items()
        }
        total_symbols = reps["memory"].total_symbols()
        scan_layer = {}
        for rep_name in ("text", "packed"):
            overhead = sum(
                max(best[task][rep_name] - best[task]["memory"],
                    EPS_SECONDS)
                for task in tasks
            )
            scan_layer[rep_name] = {
                "overhead_seconds": overhead,
                # Two passes (phase1 + probe) over total_symbols each.
                "scan_throughput_symbols_per_sec":
                    len(tasks) * total_symbols / overhead,
            }
        ratio = (
            scan_layer["text"]["overhead_seconds"]
            / scan_layer["packed"]["overhead_seconds"]
        )
        return {
            "workload": {
                "name": name,
                "n_sequences": spec.scale.n_sequences,
                "mean_length": spec.scale.mean_length,
                "alphabet": m,
                "alpha": ALPHA,
                "sample_size": sample_size,
                "total_symbols": total_symbols,
                "rounds": rounds,
                "text_bytes": text_path.stat().st_size,
                "packed_bytes": packed_path.stat().st_size,
            },
            "verify": verify,
            "tasks": {
                task: {
                    f"{rep}_seconds": best[task][rep] for rep in reps
                }
                for task in tasks
            },
            "scan_layer": {
                **scan_layer,
                "overhead_ratio_text_over_packed": ratio,
            },
        }


def measure(smoke: bool = False) -> Dict:
    workloads = SMOKE_WORKLOADS if smoke else WORKLOADS
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    return {
        "benchmark": "scan io: packed store vs text streaming",
        "smoke": smoke,
        "ratio_gates": {
            name: (None if smoke else spec.gate)
            for name, spec in workloads.items()
        },
        "workloads": {
            name: measure_workload(name, spec, rounds, gate=not smoke)
            for name, spec in workloads.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload, two rounds, no throughput gate "
             "(CI correctness pass)",
    )
    add_output_argument(parser)
    args = parser.parse_args(argv)
    report = measure(smoke=args.smoke)
    write_report(report, "BENCH_io.json", args.out, args.smoke)
    failed = False
    for name, row in report["workloads"].items():
        layer = row["scan_layer"]
        ratio = layer["overhead_ratio_text_over_packed"]
        print(
            f"{name:8s} {row['workload']['total_symbols']:8d} symbols   "
            f"text +{layer['text']['overhead_seconds'] * 1e3:7.2f}ms   "
            f"packed +{layer['packed']['overhead_seconds'] * 1e3:7.2f}ms   "
            f"scan ratio {ratio:.1f}x"
        )
        gate = report["ratio_gates"][name]
        if not args.smoke and gate and ratio < gate:
            print(
                f"WARNING: {name} packed scan advantage {ratio:.1f}x is "
                f"below the {gate}x gate"
            )
            failed = True
    return 1 if failed else 0


def test_scan_io(benchmark):
    """pytest-benchmark entry point (smoke-sized, correctness-gated)."""
    spec = SMOKE_WORKLOADS["smoke"]
    report = run_once(
        benchmark,
        lambda: measure_workload("smoke", spec, rounds=SMOKE_ROUNDS,
                                 gate=True),
    )
    assert report["verify"]["phase1_bit_identical"]
    assert report["verify"]["probe_bit_identical"]
    assert len(report["verify"]["miners_bit_identical"]) == 6


if __name__ == "__main__":
    raise SystemExit(main())
