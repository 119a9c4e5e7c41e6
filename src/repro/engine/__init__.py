"""Match-execution engines: one counting engine, one sample evaluator.

Every ``M(P, D)`` evaluation runs through a
:class:`~repro.engine.base.MatchEngine`:

* :class:`~repro.engine.vectorized.VectorizedBatchEngine` counts full
  databases, every miner's Phase-1 scan and sample included — one
  numpy block kernel over one scan, its chunks counted on the scanning
  thread or, with ``workers > 1``, on a thread pool;
* :class:`~repro.engine.resident.ResidentSampleEvaluator` counts
  Phase 2 of the sampling miners: it is the same engine over the
  sample, optionally scoring in float32.

Every count is one scan through the engine's
:class:`~repro.engine.kernels.FactorPin`, and every batch is walked by
one kernel: the prefix-trie walk of
:func:`~repro.engine.kernels.walk_totals`, which derives each
candidate's score plane from its parent's.  The caller picks how much
of a database the pin keeps across scans (``pin_bytes``): nothing for
a one-shot run (the default), its Phase 2 included, all of a store
that fits :data:`~repro.engine.vectorized.PIN_BYTES` for the daemon,
and the whole sample for the daemon's warm Phase-2 evaluator.  A chunk
is kept as its symbol keys plus the factor rows walks have read.

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
