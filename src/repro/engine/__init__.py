"""Match-execution engines: one counting path per platform.

Every ``M(P, D)`` evaluation runs through a
:class:`~repro.engine.base.MatchEngine`.  A run does not choose one by
name; :func:`select_engine` picks it:

* :class:`~repro.engine.vectorized.VectorizedBatchEngine` — batched
  numpy chunk kernels plus a factor-row cache; the path of every
  install without numba;
* :class:`~repro.engine.native.NativeEngine` — numba JIT-compiled fused
  window-scoring kernels, bit-identical to the vectorized engine in
  float64; selected whenever numba imports, and the only engine that
  scores full-database passes in float32;
* :class:`~repro.engine.parallel.ParallelEngine` — scatter-gather
  counting over a shard manifest (:mod:`repro.engine.shards`) with
  work stealing; selected when the run asks for more than one worker.

Phase 2 of the sampling miners always counts with
:class:`~repro.engine.resident.ResidentSampleEvaluator`, which pins the
sample once and extends candidate score planes incrementally.

All engines agree bit for bit at equal ``chunk_rows``; they differ only
in throughput.  See ``docs/API.md`` ("Execution engines").
"""

from __future__ import annotations

from typing import Optional

from .base import MatchEngine
from .native import (
    NativeEngine,
    SCORE_DTYPES,
    native_available,
    native_unavailable_reason,
    resolve_score_dtype,
)
from .parallel import ParallelEngine, WORKERS_ENV_VAR, resolve_worker_count
from .resident import PlaneStore, ResidentSampleEvaluator, sibling_order
from .vectorized import FactorCache, VectorizedBatchEngine


def select_engine(workers: Optional[int] = None) -> MatchEngine:
    """A fresh counting engine for this platform and worker count.

    *workers* resolves through :func:`resolve_worker_count` (explicit
    value, else ``NOISYMINE_WORKERS``, else 1).  More than one worker
    selects :class:`ParallelEngine`; otherwise :class:`NativeEngine`
    when numba imports and :class:`VectorizedBatchEngine` when it does
    not.
    """
    n_workers = resolve_worker_count(workers)
    if n_workers > 1:
        return ParallelEngine(n_workers=n_workers)
    if native_available:
        return NativeEngine()
    return VectorizedBatchEngine()


__all__ = [
    "FactorCache",
    "MatchEngine",
    "NativeEngine",
    "ParallelEngine",
    "PlaneStore",
    "ResidentSampleEvaluator",
    "SCORE_DTYPES",
    "VectorizedBatchEngine",
    "WORKERS_ENV_VAR",
    "native_available",
    "native_unavailable_reason",
    "resolve_score_dtype",
    "resolve_worker_count",
    "select_engine",
    "sibling_order",
]
