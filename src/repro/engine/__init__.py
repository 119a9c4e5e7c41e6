"""Match-execution engines: one counting engine, one sample evaluator.

Every ``M(P, D)`` evaluation runs through a
:class:`~repro.engine.base.MatchEngine`:

* :class:`~repro.engine.vectorized.VectorizedBatchEngine` counts full
  databases — one numpy block kernel plus a factor-row cache, run
  serially or, with
  ``workers > 1``, over block-aligned shards on a fork pool
  (:mod:`repro.engine.shards`);
* :class:`~repro.engine.resident.ResidentSampleEvaluator` counts
  Phase 2 of the sampling miners: it pins the sample once and extends
  candidate score planes incrementally.

Results are bit-identical across worker counts at equal
``chunk_rows`` in float64.  See ``docs/API.md`` ("Execution
engines").
"""

from __future__ import annotations

from .base import MatchEngine
from .kernels import SCORE_DTYPES, resolve_score_dtype
from .resident import PlaneStats, ResidentSampleEvaluator
from .shards import WORKERS_ENV_VAR, resolve_worker_count
from .vectorized import FactorCache, VectorizedBatchEngine

__all__ = [
    "FactorCache",
    "MatchEngine",
    "PlaneStats",
    "ResidentSampleEvaluator",
    "SCORE_DTYPES",
    "VectorizedBatchEngine",
    "WORKERS_ENV_VAR",
    "resolve_score_dtype",
    "resolve_worker_count",
]
