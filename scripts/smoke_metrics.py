#!/usr/bin/env python
"""CI smoke pass for the observability layer.

Generates a tiny synthetic database, runs ``noisymine mine`` with
``--metrics-json`` for every algorithm (plus one ``--workers 2`` run)
and validates the resulting RunReport files: required keys present,
the reported engine being the one :func:`repro.engine.select_engine`
picks, the per-phase ``scans`` counters of the top-level phases summing
exactly to the reported total, and the resident Phase-2 plane-store
counters reaching the sampling miners' reports
(``resident_native_calls`` must tick where numba imports and stay zero
where the numpy plane path runs).  Finally every per-layer benchmark
runs in ``--smoke`` mode (correctness gates only, no timing
assertions) and writes its ``BENCH_*.json`` into the output directory
— never into the repo root — so the CI workflow can upload it all as
an artifact.

Usage::

    PYTHONPATH=src python scripts/smoke_metrics.py [--output-dir DIR]
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from repro.cli import main as cli_main
from repro.engine import native_available, select_engine

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: (algorithm, workers) runs of the smoke pass: every algorithm once,
#: and the parallel engine once.
COMBINATIONS = [
    ("border-collapsing", 1),
    ("levelwise", 1),
    ("levelwise", 2),
    ("maxminer", 1),
    ("pincer", 1),
    ("toivonen", 1),
    ("depthfirst", 1),
]

#: Counters the resident Phase-2 evaluator must surface in the
#: sampling miners' RunReports.
RESIDENT_COUNTERS = (
    "resident_plane_hits",
    "resident_plane_misses",
    "resident_plane_bytes",
    "resident_native_calls",
)

#: Per-layer benchmarks run in smoke mode, by module and artifact.
BENCHMARKS = [
    ("bench_phase2_sample", "BENCH_phase2.json"),
    ("bench_scan_io", "BENCH_io.json"),
    ("bench_lattice", "BENCH_lattice.json"),
    ("bench_delta", "BENCH_delta.json"),
    ("bench_shards", "BENCH_shards.json"),
    ("bench_native", "BENCH_native.json"),
]

REQUIRED_KEYS = {
    "algorithm", "engine", "scans", "elapsed_seconds",
    "phases", "counters", "context",
}


def validate_report(payload: dict, algorithm: str, engine: str) -> None:
    missing = REQUIRED_KEYS - set(payload)
    if missing:
        raise AssertionError(f"metrics JSON lacks keys: {sorted(missing)}")
    if payload["algorithm"] != algorithm:
        raise AssertionError(
            f"algorithm mismatch: {payload['algorithm']!r} != {algorithm!r}"
        )
    if payload["engine"] != engine:
        raise AssertionError(
            f"engine mismatch: {payload['engine']!r} != {engine!r}"
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


def validate_resident(payload: dict) -> None:
    missing = [n for n in RESIDENT_COUNTERS if n not in payload["counters"]]
    if missing:
        raise AssertionError(f"report lacks resident counters: {missing}")
    native_calls = payload["counters"]["resident_native_calls"]
    if native_available and not native_calls:
        raise AssertionError(
            "numba is importable but the resident run recorded no "
            "compiled kernel calls"
        )
    if not native_available and native_calls:
        raise AssertionError(
            "numba is absent but resident_native_calls ticked"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", default="metrics-artifacts")
    args = parser.parse_args(argv)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    db_path = out / "smoke_db.txt"
    rc = cli_main([
        "generate", str(db_path), "--sequences", "80", "--length", "12",
        "--alphabet", "6", "--motif-weight", "3", "--motifs", "1",
        "--seed", "11",
    ])
    if rc != 0:
        print("database generation failed", file=sys.stderr)
        return rc

    for algorithm, workers in COMBINATIONS:
        engine = select_engine(workers).name
        metrics_path = out / f"metrics_{algorithm}_{engine}.json"
        rc = cli_main([
            "mine", str(db_path), "--alphabet", "6",
            "--min-match", "0.6", "--noise", "0.05",
            "--algorithm", algorithm, "--workers", str(workers),
            "--sample-size", "80", "--max-weight", "4", "--max-span", "5",
            "--seed", "7", "--metrics-json", str(metrics_path),
        ])
        if rc != 0:
            print(f"mine failed for {algorithm}/{engine}", file=sys.stderr)
            return rc
        payload = json.loads(metrics_path.read_text())
        validate_report(payload, algorithm, engine)
        if algorithm in ("border-collapsing", "toivonen"):
            validate_resident(payload)
        if engine == "native" and not payload["counters"].get(
            "native_kernel_calls"
        ):
            raise AssertionError("native run lacks native_kernel_calls")
        phases = {
            phase["name"]: phase["counters"].get("scans", 0)
            for phase in payload["phases"]
        }
        print(f"{algorithm:18s} {engine:10s} scans={payload['scans']} "
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
