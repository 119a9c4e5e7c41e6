#!/usr/bin/env python
"""CI smoke pass for the observability layer.

Generates a tiny synthetic database, runs ``noisymine mine`` with
``--metrics-json`` for every algorithm (plus one ``--workers 2`` run,
on a wider generated store that spans several 256-row chunks, whose
patterns must equal a one-worker run's) and validates the resulting
RunReport files: required keys present,
the ``vectorized`` engine reported with the run's ``workers`` in its
context, the per-phase ``scans`` counters of the top-level phases
summing exactly to the reported total, every algorithm's Phase-1 span
counting its chunks through the counting engine's factor pin (so a
Phase-1 loop that bypasses the engine cannot come back unseen), every
``level-k`` span of the multi-worker run doing the same (so a parallel
path that bypasses the pin cannot either), that one-shot run on the
wider store keeping nothing in the pin (``factor_cache_hits`` 0: a CLI
run streams every pass), and the resident Phase-2
prefix-stack counters reaching the sampling miners' reports (the
border-collapsing run's ``resident_plane_bytes`` must be positive and
within the stack bound of its sample, so an unbounded plane cache
cannot come back unseen).
Finally every per-layer benchmark runs in ``--smoke`` mode (correctness gates only, no timing
assertions) and writes its ``BENCH_*.json`` into the output directory
— never into the repo root — so the CI workflow can upload it all as
an artifact.

Usage::

    PYTHONPATH=src python scripts/smoke_metrics.py [--output-dir DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path
from typing import Optional

from repro.cli import main as cli_main
from repro.config import ALGORITHMS
from repro.core.sequence import SequenceDatabase

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: (algorithm, workers) runs of the smoke pass: every algorithm once,
#: and two workers once.
COMBINATIONS = [(algorithm, 1) for algorithm in ALGORITHMS] + [
    ("levelwise", 2),
]

#: Rows of the store the multi-worker runs mine: three 256-row chunks,
#: so the thread pool really counts.
WIDE_SEQUENCES = 600

#: The smoke runs' Phase-2 sample size and pattern weight cap.
SAMPLE_SIZE = 80
MAX_WEIGHT = 4

#: min-match per algorithm (default 0.6).  Border-collapsing runs at
#: 0.4, low enough for its sample search to reach weight-3 candidates,
#: so the resident prefix stack holds planes to check against its bound.
MIN_MATCH = {"border-collapsing": "0.4"}

#: Counters the resident Phase-2 evaluator must surface in the
#: sampling miners' RunReports.
RESIDENT_COUNTERS = (
    "resident_plane_hits",
    "resident_plane_misses",
    "resident_plane_bytes",
)

#: Per-layer benchmarks run in smoke mode, by module and artifact.
BENCHMARKS = [
    ("bench_phase2_sample", "BENCH_phase2.json"),
    ("bench_scan_io", "BENCH_io.json"),
    ("bench_lattice", "BENCH_lattice.json"),
    ("bench_delta", "BENCH_delta.json"),
    ("bench_shards", "BENCH_shards.json"),
]

#: Name of each algorithm's Phase-1 span (default ``phase1-scan``).
PHASE1_SPAN = {"depthfirst": "materialize"}

REQUIRED_KEYS = {
    "algorithm", "engine", "scans", "elapsed_seconds",
    "phases", "counters", "context",
}


def validate_report(payload: dict, algorithm: str, workers: int) -> None:
    missing = REQUIRED_KEYS - set(payload)
    if missing:
        raise AssertionError(f"metrics JSON lacks keys: {sorted(missing)}")
    if payload["algorithm"] != algorithm:
        raise AssertionError(
            f"algorithm mismatch: {payload['algorithm']!r} != {algorithm!r}"
        )
    if payload["engine"] != "vectorized":
        raise AssertionError(f"unexpected engine {payload['engine']!r}")
    reported = payload["context"].get("workers")
    if reported != workers:
        raise AssertionError(
            f"context reports workers={reported!r}; expected {workers}"
        )
    phase_scans = sum(
        phase["counters"].get("scans", 0) for phase in payload["phases"]
    )
    if phase_scans != payload["scans"]:
        raise AssertionError(
            f"per-phase scans ({phase_scans}) != total ({payload['scans']})"
        )
    if payload["counters"].get("scans", 0) != payload["scans"]:
        raise AssertionError("run-wide scan counter != measured scan total")
    name = PHASE1_SPAN.get(algorithm, "phase1-scan")
    phase1 = [p for p in payload["phases"] if p["name"] == name]
    if len(phase1) != 1:
        raise AssertionError(f"expected one {name!r} phase, got {phase1}")
    counters = phase1[0]["counters"]
    chunks = sum(counters.get(key, 0)
                 for key in ("factor_cache_hits", "factor_cache_misses"))
    if chunks <= 0:
        raise AssertionError(
            f"{name!r} counted no chunk through the engine's factor pin: "
            f"Phase 1 bypassed the counting engine ({counters})"
        )


def validate_levels(payload: dict) -> None:
    """Every ``level-k`` span counted its chunks through the pin."""
    levels = [p for p in payload["phases"]
              if p["name"].startswith("level-")]
    if not levels:
        raise AssertionError("the multi-worker run reports no level span")
    for phase in levels:
        counters = phase["counters"]
        chunks = sum(counters.get(key, 0)
                     for key in ("factor_cache_hits", "factor_cache_misses"))
        if chunks <= 0:
            raise AssertionError(
                f"{phase['name']!r} counted no chunk through the engine's "
                f"factor pin: a parallel pass bypassed it ({counters})"
            )


def validate_streaming(payload: dict) -> None:
    """A one-shot run's engine keeps no factor rows: every chunk of
    every pass is keyed afresh, none served from the pin."""
    counters = payload["counters"]
    hits = counters.get("factor_cache_hits", 0)
    misses = counters.get("factor_cache_misses", 0)
    if hits != 0 or misses <= 0:
        raise AssertionError(
            f"a one-shot run should stream every pass (factor_cache_hits "
            f"{hits}, factor_cache_misses {misses})"
        )


def resident_stack_bound(db_path: Path) -> int:
    """Bytes the resident prefix stack may hold on a smoke run.

    One float64 ``(L, N)`` plane per chain depth of the deepest parent
    (weight ``MAX_WEIGHT - 1``), with ``L`` the longest sequence and
    ``N`` the sample size: the stack's bound, whatever the batches.
    """
    database = SequenceDatabase.load(db_path)
    lengths = [len(seq) for _sid, seq in database.scan()]
    sample = min(SAMPLE_SIZE, len(lengths))
    return (MAX_WEIGHT - 1) * sample * max(lengths) * 8


def validate_resident(
    payload: dict, stack_bound: Optional[int] = None
) -> None:
    missing = [n for n in RESIDENT_COUNTERS if n not in payload["counters"]]
    if missing:
        raise AssertionError(f"report lacks resident counters: {missing}")
    plane_bytes = payload["counters"]["resident_plane_bytes"]
    if stack_bound is not None and not 0 < plane_bytes <= stack_bound:
        raise AssertionError(
            f"resident_plane_bytes {plane_bytes} outside the prefix "
            f"stack bound (0, {stack_bound}]"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", default="metrics-artifacts")
    args = parser.parse_args(argv)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    db_path = out / "smoke_db.txt"
    wide_path = out / "smoke_wide_db.txt"
    for path, sequences in ((db_path, 80), (wide_path, WIDE_SEQUENCES)):
        rc = cli_main([
            "generate", str(path), "--sequences", str(sequences),
            "--length", "12", "--alphabet", "6", "--motif-weight", "3",
            "--motifs", "1", "--seed", "11",
        ])
        if rc != 0:
            print("database generation failed", file=sys.stderr)
            return rc

    def mine(path, algorithm, workers, metrics_path):
        """One ``mine --json`` run; its payload, or None on failure."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli_main([
                "mine", str(path), "--alphabet", "6",
                "--min-match", MIN_MATCH.get(algorithm, "0.6"),
                "--noise", "0.05",
                "--algorithm", algorithm, "--workers", str(workers),
                "--sample-size", str(SAMPLE_SIZE),
                "--max-weight", str(MAX_WEIGHT), "--max-span", "5",
                "--seed", "7", "--metrics-json", str(metrics_path),
                "--json",
            ])
        if rc != 0:
            print(f"mine failed for {algorithm} at {workers} worker(s)",
                  file=sys.stderr)
            return None
        return json.loads(stdout.getvalue())

    for algorithm, workers in COMBINATIONS:
        metrics_path = out / f"metrics_{algorithm}_w{workers}.json"
        path = wide_path if workers > 1 else db_path
        result = mine(path, algorithm, workers, metrics_path)
        if result is None:
            return 1
        payload = json.loads(metrics_path.read_text())
        validate_report(payload, algorithm, workers)
        if workers > 1:
            validate_levels(payload)
            validate_streaming(payload)
            one = mine(path, algorithm, 1,
                       out / f"metrics_{algorithm}_wide_w1.json")
            if one is None:
                return 1
            if result["patterns"] != one["patterns"]:
                raise AssertionError(
                    f"{algorithm} at {workers} workers mined other "
                    f"patterns than one worker on {path.name}"
                )
        if algorithm == "border-collapsing":
            validate_resident(payload, resident_stack_bound(db_path))
        elif algorithm == "toivonen":
            validate_resident(payload)
        phases = {
            phase["name"]: phase["counters"].get("scans", 0)
            for phase in payload["phases"]
        }
        print(f"{algorithm:18s} workers={workers} scans={payload['scans']} "
              f"phases={phases}")

    sys.path.insert(0, str(BENCHMARKS_DIR))
    for module_name, artifact in BENCHMARKS:
        bench = importlib.import_module(module_name)
        rc = bench.main(["--smoke", "--out", str(out / artifact)])
        if rc != 0:
            print(f"{module_name} smoke failed", file=sys.stderr)
            return rc

    print(f"all {len(COMBINATIONS)} metrics reports and "
          f"{len(BENCHMARKS)} benchmark smokes valid; artifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
