#!/usr/bin/env python3
"""Exact answers for every (input, threshold) the workloads mine.

An answer is the exact frequent-pattern set, from the deterministic
level-wise miner over the whole input.  It is recorded as its size and
the sha256 of its sorted pattern strings.  Timed runs look a seed's
answers up in ``goldens.json`` (committed), then in the work-dir cache,
and compute them into the cache when neither has them.

The appended stores of ``append-remine`` are not mined one by one.
Match is a mean over sequences, so a pattern frequent at threshold t on
any grown store has match >= t * N0 / N_final on the final store.  One
level-wise run at that lowered threshold therefore yields every
candidate with its exact final sum, and subtracting the exact sums of
the later batches gives each round's sums.

Usage::

    python3 benchmarks/e2e/golden.py [--seed 7] [--workload NAME]
        [--scale full|smoke] [--write | --cache DIR]

prints the answers of the workloads for a seed; ``--write`` records
them in ``goldens.json``, ``--cache`` in a ``run.py`` answer cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import workloads as wl

COMMITTED = Path(__file__).resolve().parent / "goldens.json"


def digest(patterns: Iterable[str]) -> Dict[str, object]:
    """Size and sha256 of a pattern-string set."""
    items = sorted(set(patterns))
    text = "\n".join(items).encode()
    return {"count": len(items), "sha256": hashlib.sha256(text).hexdigest()}


def _matrix():
    from repro.core.compatibility import CompatibilityMatrix

    return CompatibilityMatrix.uniform_noise(wl.ALPHABET, wl.NOISE)


def exact_frequent(rows: Sequence, min_match: float) -> Dict:
    """``{Pattern: exact match}`` of every pattern at or above
    *min_match*, by level-wise mining over all *rows*."""
    from repro.core.lattice import PatternConstraints
    from repro.core.sequence import SequenceDatabase
    from repro.mining.levelwise import LevelwiseMiner

    miner = LevelwiseMiner(
        _matrix(), min_match,
        constraints=PatternConstraints(
            max_weight=wl.MAX_WEIGHT, max_span=wl.MAX_SPAN,
            max_gap=wl.MAX_GAP,
        ),
    )
    return miner.mine(SequenceDatabase(list(rows))).frequent


def maximal(patterns: Sequence) -> List:
    """The border: patterns that are no other pattern's subpattern."""
    return [
        p for p in patterns
        if not any(p != q and p.is_subpattern_of(q) for q in patterns)
    ]


def _strings(patterns) -> List[str]:
    return [p.to_string() for p in patterns]


def compute(workload: str, scale: wl.Scale, seed: int) -> Dict[str, dict]:
    """Every answer a workload checks, by answer key."""
    parts = wl.inputs(workload, scale, seed)
    if workload.startswith("bc-"):
        found = exact_frequent(parts["store"], scale.bc_min_match)
        return {"frequent": digest(_strings(found))}
    if workload == "daemon-mix":
        answers = {}
        for name in ("store1", "store2"):
            found = exact_frequent(parts[name], min(scale.daemon_thresholds))
            for t in scale.daemon_thresholds:
                answers[f"{name}@{t}"] = digest(
                    _strings(p for p, v in found.items() if v >= t)
                )
        return answers
    if workload == "append-remine":
        return _remine_answers(parts, scale)
    raise ValueError(f"unknown workload {workload!r}")


def _remine_answers(parts, scale: wl.Scale) -> Dict[str, dict]:
    from repro.core.match import database_matches
    from repro.core.sequence import SequenceDatabase

    t = scale.remine_min_match
    rounds = scale.remine_rounds
    deltas = [parts[f"delta{k}"] for k in range(1, rounds + 1)]
    rows = list(parts["store"]) + [r for delta in deltas for r in delta]
    n0, n_final = len(parts["store"]), len(rows)
    final = exact_frequent(rows, t * n0 / n_final)
    candidates = sorted(final)
    sums = {p: final[p] * n_final for p in candidates}
    matrix = _matrix()
    answers = {}
    for k in range(rounds, -1, -1):
        size = n0 + k * scale.remine_delta_rows
        frequent = [p for p in candidates if sums[p] >= t * size]
        if k == 0:
            # `mine --checkpoint` prints the whole frequent set.
            answers["round0"] = digest(_strings(frequent))
        else:
            # `remine` prints the refreshed border.
            answers[f"round{k}"] = digest(_strings(maximal(frequent)))
            means = database_matches(
                candidates, SequenceDatabase(deltas[k - 1]), matrix
            )
            for p in candidates:
                sums[p] -= means[p] * len(deltas[k - 1])
    return answers


def _key(workload: str, scale_name: str, seed: int) -> str:
    scale = wl.SCALES[scale_name]
    return f"{workload}/{wl.spec_digest(workload, scale)}/{seed}"


def _cache_file(cache_dir: Path, key: str) -> Path:
    return cache_dir / (key.replace("/", "_") + ".json")


def load(workload: str, scale_name: str, seed: int,
         cache_dir: Path) -> Dict[str, dict]:
    """A seed's answers: committed, else cached, else computed now by a
    child process (so the mining run's memory is returned to the system
    before anything is timed)."""
    key = _key(workload, scale_name, seed)
    if COMMITTED.is_file():
        committed = json.loads(COMMITTED.read_text())
        if key in committed:
            return committed[key]
    cached = _cache_file(cache_dir, key)
    if not cached.is_file():
        subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--scale", scale_name,
             "--cache", str(cache_dir)],
            check=True, stdout=subprocess.DEVNULL,
            env=wl.scrubbed_env(os.environ, wl.SRC),
        )
    return json.loads(cached.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", choices=sorted(wl.SCALES), default="full")
    parser.add_argument("--workload", choices=("all", *wl.WORKLOAD_NAMES),
                        default="all")
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--write", action="store_true",
                        help="record the answers in goldens.json")
    target.add_argument("--cache", metavar="DIR",
                        help="write the answers into a run.py answer cache")
    args = parser.parse_args(argv)
    wl.use_execution_env()
    names = wl.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    committed = (
        json.loads(COMMITTED.read_text()) if COMMITTED.is_file() else {}
    )
    for workload in names:
        answers = compute(workload, wl.SCALES[args.scale], args.seed)
        for name, answer in sorted(answers.items()):
            print(f"{workload:14s} {name:14s} {answer['count']:4d} "
                  f"{answer['sha256'][:16]}")
        key = _key(workload, args.scale, args.seed)
        committed[key] = answers
        if args.cache:
            cached = _cache_file(Path(args.cache), key)
            cached.parent.mkdir(parents=True, exist_ok=True)
            cached.write_text(json.dumps(answers, indent=1, sort_keys=True)
                              + "\n")
    if args.write:
        COMMITTED.write_text(
            json.dumps(committed, indent=1, sort_keys=True) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
