"""Match-execution engines: one counting engine, one sample evaluator.

Every ``M(P, D)`` evaluation runs through a
:class:`~repro.engine.base.MatchEngine`:

* :class:`~repro.engine.vectorized.VectorizedBatchEngine` counts full
  databases, every miner's Phase-1 scan and sample included — one
  numpy block kernel over one scan, its chunks counted on the scanning
  thread or, with ``workers > 1``, on a thread pool;
* :class:`~repro.engine.resident.ResidentSampleEvaluator` counts
  Phase 2 of the sampling miners: it pins the sample once.

Both count a batch with one kernel: the prefix-trie walk of
:func:`~repro.engine.kernels.walk_totals`, which derives each
candidate's score plane from its parent's.

Both keep a database's factor arrays across scans in one
:class:`~repro.engine.kernels.FactorPin` each: the counting engine when
they fit :data:`~repro.engine.vectorized.PIN_BYTES`, the sample
evaluator always.

Results are bit-identical across worker counts at equal
``chunk_rows`` in float64.  See ``docs/API.md`` ("Execution
engines").
"""

from __future__ import annotations

from .base import MatchEngine
from .kernels import SCORE_DTYPES, FactorPin, resolve_score_dtype
from .resident import PlaneStats, ResidentSampleEvaluator
from .vectorized import (
    PIN_BYTES,
    WORKERS_ENV_VAR,
    VectorizedBatchEngine,
    resolve_worker_count,
)

__all__ = [
    "FactorPin",
    "MatchEngine",
    "PIN_BYTES",
    "PlaneStats",
    "ResidentSampleEvaluator",
    "SCORE_DTYPES",
    "VectorizedBatchEngine",
    "WORKERS_ENV_VAR",
    "resolve_score_dtype",
    "resolve_worker_count",
]
