"""Workload parameters and seeded inputs of the end-to-end benchmark.

Every input is a pure function of (workload, scale, seed): one seed
always yields the same rows, so exact answers can be cached per seed.
The generator is the Section 5.1 one -- m = 20 symbols, lengths
100 +- 25%, three weight-6 motifs each planted in half the sequences,
uniform noise alpha = 0.1 -- written with whole-array numpy so that
making inputs stays small next to the measurement (the library's
per-sequence ``corrupt_uniform`` takes ~50 s at 100k rows).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: The checkout root and the library sources the benchmark measures.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

ALPHABET = 20
NOISE = 0.1
MEAN_LENGTH = 100
N_MOTIFS = 3
MOTIF_WEIGHT = 6
MOTIF_FREQUENCY = 0.5

#: The CLI's own constraint defaults, passed explicitly to every mining
#: command and to the golden miner so both search the same lattice.
MAX_WEIGHT, MAX_SPAN, MAX_GAP = 8, 10, 0

#: Probe budget per Phase-3 scan in every mining command.
MEMORY_CAPACITY = 256

#: Sampling seed of every border-collapsing command (the data seed is
#: the benchmark's ``--seed``).
MINING_SEED = 1

WORKLOAD_NAMES = ("bc-sample-5k", "bc-scan-20k", "daemon-mix", "append-remine")

#: Execution config of every measured process: today's fastest
#: bit-identical numba-free path.  Set through the environment, not
#: flags, so the commands stay valid if these knobs are removed.
EXECUTION_ENV = {"NOISYMINE_ENGINE": "vectorized", "NOISYMINE_RESIDENT": "1"}


def scrubbed_env(environ, src: Path) -> Dict[str, str]:
    """*environ* without any inherited ``NOISYMINE_*`` variable, plus
    :data:`EXECUTION_ENV` and ``PYTHONPATH`` pointing at *src* only."""
    env = {k: v for k, v in environ.items() if not k.startswith("NOISYMINE_")}
    env.update(EXECUTION_ENV)
    env["PYTHONPATH"] = str(src)
    return env


def use_execution_env() -> None:
    """Give this process the children's environment and import path,
    so in-process library calls (answers, appends) run the same config."""
    env = scrubbed_env(os.environ, SRC)
    os.environ.clear()
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale."""

    bc_sample_rows: int
    bc_sample_size: int
    bc_scan_rows: int
    bc_scan_sample_size: int
    bc_min_match: float
    daemon_rows: int
    daemon_sample_size: int
    daemon_thresholds: Tuple[float, ...]
    remine_rows: int
    remine_delta_rows: int
    remine_rounds: int
    remine_sample_size: int
    remine_min_match: float
    setup_reps: int


SCALES: Dict[str, Scale] = {
    "full": Scale(
        bc_sample_rows=5000, bc_sample_size=2000,
        bc_scan_rows=20000, bc_scan_sample_size=500,
        bc_min_match=0.2,
        daemon_rows=3000, daemon_sample_size=1000,
        daemon_thresholds=(0.25, 0.3, 0.35, 0.4),
        remine_rows=8000, remine_delta_rows=80, remine_rounds=10,
        remine_sample_size=1000, remine_min_match=0.22,
        setup_reps=3,
    ),
    # Seconds-long inputs for the self-test; same code paths.
    "smoke": Scale(
        bc_sample_rows=600, bc_sample_size=300,
        bc_scan_rows=1500, bc_scan_sample_size=150,
        bc_min_match=0.2,
        daemon_rows=300, daemon_sample_size=150,
        daemon_thresholds=(0.25, 0.3),
        remine_rows=800, remine_delta_rows=8, remine_rounds=3,
        remine_sample_size=200, remine_min_match=0.22,
        setup_reps=1,
    ),
}

#: Stream ids keep every input of one seed independent of the others.
_STREAMS = {
    "bc-sample-5k": 1, "bc-scan-20k": 2, "daemon-mix": 3, "append-remine": 4,
}


def spec_digest(workload: str, scale: Scale) -> str:
    """Short digest of everything that shapes a workload's inputs and
    answers; cached and committed goldens are keyed by it."""
    payload = json.dumps(
        {
            "workload": workload,
            "scale": asdict(scale),
            "generator": [ALPHABET, NOISE, MEAN_LENGTH, N_MOTIFS,
                          MOTIF_WEIGHT, MOTIF_FREQUENCY],
            "constraints": [MAX_WEIGHT, MAX_SPAN, MAX_GAP],
            "mining": [MEMORY_CAPACITY, MINING_SEED],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def generate_rows(n: int, rng: np.random.Generator) -> List[np.ndarray]:
    """*n* noisy sequences from the Section 5.1 generator.

    The motifs are drawn first, so every call with a fresh generator of
    the same seed plants the same motifs.
    """
    motifs = rng.integers(0, ALPHABET, (N_MOTIFS, MOTIF_WEIGHT))
    low = int(MEAN_LENGTH * 0.75)
    high = int(MEAN_LENGTH * 1.25) + 1
    lengths = rng.integers(low, high, n)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    symbols = rng.integers(0, ALPHABET, int(offsets[-1]))
    for motif in motifs:
        rows = np.flatnonzero(rng.random(n) < MOTIF_FREQUENCY)
        room = lengths[rows] - MOTIF_WEIGHT + 1
        starts = offsets[rows] + (rng.random(rows.size) * room).astype(int)
        symbols[starts[:, None] + np.arange(MOTIF_WEIGHT)] = motif
    flips = np.flatnonzero(rng.random(symbols.size) < NOISE)
    # A flipped symbol becomes a uniformly chosen *different* symbol.
    symbols[flips] = (
        symbols[flips] + rng.integers(1, ALPHABET, flips.size)
    ) % ALPHABET
    symbols = symbols.astype(np.int32)
    return [symbols[offsets[i]:offsets[i + 1]] for i in range(n)]


def inputs(workload: str, scale: Scale, seed: int) -> Dict[str, List]:
    """The rows a workload mines, by input name.

    ``bc-*`` return ``{"store": rows}``, ``daemon-mix`` one store per
    client (``store1``, ``store2``), and ``append-remine`` the base store
    plus ``remine_rounds`` appended batches (``delta1`` ...).
    """
    stream = _STREAMS[workload]
    if workload == "bc-sample-5k":
        rng = np.random.default_rng([seed, stream])
        return {"store": generate_rows(scale.bc_sample_rows, rng)}
    if workload == "bc-scan-20k":
        rng = np.random.default_rng([seed, stream])
        return {"store": generate_rows(scale.bc_scan_rows, rng)}
    if workload == "daemon-mix":
        return {
            f"store{k}": generate_rows(
                scale.daemon_rows, np.random.default_rng([seed, stream, k])
            )
            for k in (1, 2)
        }
    if workload == "append-remine":
        rng = np.random.default_rng([seed, stream])
        delta = scale.remine_delta_rows
        rows = generate_rows(
            scale.remine_rows + delta * scale.remine_rounds, rng
        )
        base = scale.remine_rows
        parts: Dict[str, List] = {"store": rows[:base]}
        for k in range(1, scale.remine_rounds + 1):
            parts[f"delta{k}"] = rows[base + (k - 1) * delta:base + k * delta]
        return parts
    raise ValueError(f"unknown workload {workload!r}")


def write_text(path: Path, rows: Sequence[np.ndarray]) -> None:
    """Write *rows* in the library's ``<id> TAB <symbols>`` text format."""
    with open(path, "w", encoding="ascii") as handle:
        for sid, row in enumerate(rows):
            handle.write(f"{sid}\t{' '.join(map(str, row.tolist()))}\n")


def mine_flags(min_match: float, sample_size: int) -> List[str]:
    """The full flag set of one border-collapsing command."""
    return [
        "--alphabet", str(ALPHABET), "--noise", str(NOISE),
        "--algorithm", "border-collapsing", "--min-match", str(min_match),
        "--sample-size", str(sample_size),
        "--memory-capacity", str(MEMORY_CAPACITY),
        "--seed", str(MINING_SEED),
        "--max-weight", str(MAX_WEIGHT), "--max-span", str(MAX_SPAN),
        "--max-gap", str(MAX_GAP),
    ]


#: One block of a daemon-mix client's job stream, shuffled per block:
#: border-collapsing at each threshold with a fresh sampling seed
#: (always computed; re-pins the resident sample), level-wise at two
#: thresholds, and exact resubmits of earlier jobs (memo hits).
DAEMON_BLOCK = ("bc",) * 4 + ("levelwise",) * 2 + ("resubmit",) * 2


def daemon_jobs(scale: Scale, seed: int, client: int):
    """Endless seeded job stream of one daemon-mix client; each job is
    ``(config, min_match)``.

    Every block of eight has the same mix of algorithms and thresholds,
    so a run's cost does not depend on the seed or on how many jobs it
    completes.  A level-wise job's probe budget is above any lattice
    level's size, so it always costs one scan per level, and unique, so
    the job is computed rather than served from the memo.
    """
    rng = np.random.default_rng([seed, 100 + client])
    history: List[Tuple[dict, float]] = []
    base = {
        "alphabet": ALPHABET, "noise": NOISE, "max_weight": MAX_WEIGHT,
        "max_span": MAX_SPAN, "max_gap": MAX_GAP,
    }
    thresholds = [float(t) for t in scale.daemon_thresholds]
    n_bc = DAEMON_BLOCK.count("bc")
    index = block = 0
    while True:
        bc_thresholds = [float(t) for t in rng.permutation(
            [thresholds[i % len(thresholds)] for i in range(n_bc)])]
        lw_thresholds = [thresholds[(2 * block + i) % len(thresholds)]
                         for i in (0, 1)]
        block += 1
        for kind in rng.permutation(DAEMON_BLOCK):
            index += 1
            if kind == "resubmit" and history:
                job = history[int(rng.integers(len(history)))]
            elif kind == "levelwise":
                t = lw_thresholds.pop()
                job = (dict(base, algorithm="levelwise", min_match=t,
                            memory_capacity=512 + index), t)
            else:
                t = (bc_thresholds.pop() if bc_thresholds
                     else thresholds[index % len(thresholds)])
                job = (dict(base, algorithm="border-collapsing",
                            min_match=t,
                            sample_size=scale.daemon_sample_size,
                            memory_capacity=MEMORY_CAPACITY,
                            seed=1000 * client + index), t)
            history.append(job)
            yield job
