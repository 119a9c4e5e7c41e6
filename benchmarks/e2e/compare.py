#!/usr/bin/env python3
"""Compare two results files of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

A and B are ``results.json`` files written by ``run.py`` (lists of run
records): A the parent, B the change.  For each (workload, end-to-end
metric) it prints both medians and quartiles, the fraction of ordered
A/B pairs B wins, and a verdict:

* ``unresolved`` -- either side's quartile spread exceeds the metric's
  bound, unless every B run beats every A run;
* ``regression`` -- B's median is worse than A's by more than the bound;
* ``gain`` -- B wins at least 9/10 of the pairs and the medians differ by
  more than A's own quartile spread;
* ``same`` -- otherwise.

``scans`` (traced runs of workloads whose scan count repeats) and the
failed fraction are compared exactly.
Files from machines with a different fingerprint (core count, Python,
numpy, numba present or absent) are refused.  Exit status: 0 when
nothing regressed, 1 on a regression or an exact mismatch, 2 when the
files cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Fingerprint fields that make timings incomparable when they differ.
COMPARABLE = ("nproc", "python", "numpy", "numba")


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def win_fraction(a: List[float], b: List[float], lower: bool) -> float:
    """Share of the ordered (a_i, b_i) pairs B wins; ties win nothing."""
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    return wins / len(pairs) if pairs else 0.0


def verdict(a: List[float], b: List[float], lower: bool,
            bound: float) -> Tuple[str, Dict[str, float]]:
    qa, qb = quartiles(a), quartiles(b)
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    worse = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
    wins = win_fraction(a, b, lower)
    stats = {"a": qa[1], "b": qb[1], "spread_a": spread_a,
             "spread_b": spread_b, "worse": worse, "wins": wins}
    b_always_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if max(spread_a, spread_b) > bound and not b_always_better:
        return "unresolved", stats
    if worse > bound:
        return "regression", stats
    if wins >= 0.9 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "gain", stats
    return "same", stats


def load(path: str) -> List[dict]:
    records = json.loads(Path(path).read_text())
    if not isinstance(records, list) or not records:
        raise ValueError(f"{path}: expected a non-empty list of run records")
    return records


def check_fingerprints(a: List[dict], b: List[dict]) -> List[str]:
    """Mismatched fingerprint fields across all records of both files."""
    seen = {}
    problems = []
    for record in a + b:
        for key in COMPARABLE:
            value = record["fingerprint"][key]
            if seen.setdefault(key, value) != value:
                problems.append(f"{key}: {seen[key]!r} vs {value!r}")
    return sorted(set(problems))


def by_workload(records: List[dict], trace: int) -> Dict[str, List[dict]]:
    groups: Dict[str, List[dict]] = {}
    for record in records:
        if record["trace"] == trace:
            groups.setdefault(record["workload"], []).append(record)
    return groups


def scans_by_seed(records: List[dict]) -> Dict[int, set]:
    """Full-store scans per operation of traced runs, by seed."""
    scans: Dict[int, set] = {}
    for record in records:
        scans.setdefault(record["seed"], set()).add(
            record["metrics"]["scans"]["value"])
    return scans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results of the parent (A)")
    parser.add_argument("b", help="results of the change (B)")
    args = parser.parse_args(argv)
    try:
        a, b = load(args.a), load(args.b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mismatched = check_fingerprints(a, b)
    if mismatched:
        print("error: results come from different machines: "
              + "; ".join(mismatched), file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    timed_a, timed_b = by_workload(a, 0), by_workload(b, 0)
    status = 0
    print(f"{'workload':14s} {'metric':13s} {'A p50':>10s} {'B p50':>10s} "
          f"{'worse':>7s} {'bound':>6s} {'sprA':>6s} {'sprB':>6s} "
          f"{'wins':>5s}  verdict")
    for workload in sorted(set(timed_a) | set(timed_b)):
        runs_a, runs_b = timed_a.get(workload), timed_b.get(workload)
        if not runs_a or not runs_b:
            print(f"{workload:14s} missing from {'A' if not runs_a else 'B'}")
            status = 1
            continue
        for metric in metrics:
            name = metric["name"]
            lower = metric["better"] == "lower"
            values_a = [r["metrics"][name]["value"] for r in runs_a]
            values_b = [r["metrics"][name]["value"] for r in runs_b]
            result, s = verdict(values_a, values_b, lower, metric["bound"])
            if result == "regression":
                status = 1
            print(f"{workload:14s} {name:13s} {s['a']:10.4g} {s['b']:10.4g} "
                  f"{s['worse']:+7.1%} {metric['bound']:6.0%} "
                  f"{s['spread_a']:6.1%} {s['spread_b']:6.1%} "
                  f"{s['wins']:5.0%}  {result}")
        failed_a = sum(r["failed"] for r in runs_a) / sum(
            r["attempted"] for r in runs_a)
        failed_b = sum(r["failed"] for r in runs_b) / sum(
            r["attempted"] for r in runs_b)
        if failed_b > failed_a:
            status = 1
        print(f"{workload:14s} {'failed_frac':13s} {failed_a:10.4g} "
              f"{failed_b:10.4g}  {'rose' if failed_b > failed_a else 'ok'}")
    traced_a, traced_b = by_workload(a, 1), by_workload(b, 1)
    for workload in sorted(set(traced_a) & set(traced_b)):
        if not all(r["exact_scans"]
                   for r in traced_a[workload] + traced_b[workload]):
            continue
        scans_a, scans_b = scans_by_seed(traced_a[workload]), scans_by_seed(
            traced_b[workload])
        seeds = sorted(set(scans_a) & set(scans_b))
        if any(len(scans_a[s]) > 1 for s in seeds):
            result = "not exact (varies within A)"
        elif all(scans_a[s] == scans_b[s] for s in seeds):
            result = "identical"
        else:
            result = "differ"
            status = 1
        print(f"{workload:14s} {'scans':13s} "
              f"{[sorted(scans_a[s]) for s in seeds]} "
              f"{[sorted(scans_b[s]) for s in seeds]}  {result}")
    for name, runs in (("A", a), ("B", b)):
        calib = statistics.median(r["calib_s"] for r in runs)
        print(f"{name}: {len(runs)} runs, calib_s median {calib:.4f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
