"""Shared benchmark workloads and scale definitions.

Imported by every ``bench_*`` module (the benchmarks directory is not a
package; pytest puts it on ``sys.path``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import Pattern, PatternConstraints
from repro.datagen.motifs import Motif
from repro.datagen.synthetic import generate_database, protein_like_database

#: The repository root: committed full-mode ``BENCH_*.json`` artifacts
#: live here, and ``tests.oracles`` imports from here.
ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def add_output_argument(parser: argparse.ArgumentParser) -> None:
    """The ``--out PATH`` option every per-layer benchmark takes."""
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report here; without it a full run "
             "refreshes the committed artifact in the repo root and a "
             "--smoke run writes nothing",
    )


def write_report(report: Dict, artifact: str, out: Optional[str],
                 smoke: bool) -> Optional[Path]:
    """Write *report* to *out*, or to the committed *artifact* in the
    repo root for a full-mode run; a smoke run without *out* writes
    nothing, so it can never overwrite a committed measurement."""
    if out is not None:
        path = Path(out)
    elif smoke:
        return None
    else:
        path = ROOT / artifact
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return path


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes for one benchmark scale."""

    n_sequences: int
    sample_size: int
    mean_length: int
    noise_seeds: Tuple[int, ...]


SCALES: Dict[str, BenchScale] = {
    "small": BenchScale(
        n_sequences=400, sample_size=200, mean_length=30,
        noise_seeds=(1, 2),
    ),
    "medium": BenchScale(
        n_sequences=1500, sample_size=600, mean_length=40,
        noise_seeds=(1, 2, 3),
    ),
    "large": BenchScale(
        n_sequences=6000, sample_size=2000, mean_length=60,
        noise_seeds=(1, 2, 3, 4),
    ),
}


def current_scale() -> BenchScale:
    """The scale selected by the NOISYMINE_BENCH_SCALE env variable."""
    name = os.environ.get("NOISYMINE_BENCH_SCALE", "small")
    if name not in SCALES:
        raise ValueError(
            f"NOISYMINE_BENCH_SCALE must be one of {sorted(SCALES)}, "
            f"got {name!r}"
        )
    return SCALES[name]


#: Structural bounds shared by the quality benchmarks.
BENCH_CONSTRAINTS = PatternConstraints(max_weight=8, max_span=8, max_gap=0)

#: Ground-truth motif shapes (weight, carrier fraction) for the
#: robustness workloads; each motif is planted ~3 times per carrier so
#: long sequences behave like the paper's repeat-rich protein data.
MOTIF_SHAPES: Tuple[Tuple[int, float], ...] = ((3, 0.7), (5, 0.65), (7, 0.6))

#: Threshold used by the robustness workloads (scaled so that planted
#: motifs sit above it and chance patterns below).
ROBUSTNESS_THRESHOLD = 0.3


def build_standard_database(scale: BenchScale, alphabet_size: int = 12,
                            protein: bool = False, seed: int = 5):
    """The *standard database* of Section 5.1: planted motifs over a
    background; ``protein=True`` switches to the skewed amino-acid
    composition (m = 20), which is what lets noise *create* spurious
    patterns and degrade the support model's accuracy, as in the paper.
    """
    rng = np.random.default_rng(seed)
    m = 20 if protein else alphabet_size
    motifs: List[Motif] = []
    for weight, freq in MOTIF_SHAPES:
        pattern = Pattern(list(rng.integers(0, m, size=weight)))
        motifs.extend([Motif(pattern, freq)] * 3)
    if protein:
        db = protein_like_database(
            scale.n_sequences, scale.mean_length, motifs, rng=rng
        )
    else:
        db = generate_database(
            scale.n_sequences, scale.mean_length, m, motifs, rng=rng
        )
    return db, motifs, m


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing.

    The experiments are full mining runs; statistical repetition is
    provided by the noise seeds inside each experiment, not by
    re-running the whole sweep.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
