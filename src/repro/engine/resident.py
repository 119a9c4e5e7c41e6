"""The Phase-2 sample evaluator: the counting engine on the sample.

Phase 2 of the paper's algorithm runs its whole breadth-first search
against one fixed in-memory sample.  :class:`ResidentSampleEvaluator`
is :class:`~repro.engine.vectorized.VectorizedBatchEngine` with Phase
2's observability.  A long-lived evaluator (the daemon's) keeps no pin
budget: the first level's scan keys every chunk of the sample, each
later level's mandatory scan reuses a chunk whose padded content
digest still matches, with the factor rows earlier levels gathered,
and a different sample (or matrix, or dtype) transparently re-pins.
The evaluator a miner builds for one run streams the sample instead
(``pin_bytes=0``), as one-shot runs stream the store: each level
keys and gathers one chunk at a time into its thread's buffers.
Every level is one counted scan of the engine, on its thread pool when
``workers > 1``, bit-identical to the engine at equal ``chunk_rows``
in float64, pinned or streamed.  ``score_dtype="float32"`` halves the
factor rows and stack planes while every cross-sequence accumulation
stays float64 (``benchmarks/bench_phase2_sample.py`` gates the
deviation).

The evaluator adds Phase 2's observability: :attr:`planes`
(prefix-stack traffic) and :attr:`repins` (scans that keyed a chunk
afresh).  Its pin traffic stays out of the ``factor_cache_*``
counters, which count full-database passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..obs import (
    RESIDENT_PLANE_BYTES,
    RESIDENT_PLANE_HITS,
    RESIDENT_PLANE_MISSES,
    Tracer,
)
from .kernels import (
    DATABASE_TOTALS,
    DEFAULT_CHUNK_ROWS,
    WalkPlan,
    resolve_score_dtype,
)
from .vectorized import VectorizedBatchEngine, _averages


@dataclass
class PlaneStats:
    """Lifetime counters of an evaluator's prefix stack.

    ``hits`` counts sibling groups whose (span >= 2) parent was
    already on the stack, ``misses`` the chain links derived, each
    once per call, and ``nbytes`` the stack bytes one counting thread
    held in the last call.
    """

    hits: int = 0
    misses: int = 0
    nbytes: int = 0


class ResidentSampleEvaluator(VectorizedBatchEngine):
    """The counting engine for Phase 2, by default with an unbudgeted
    pin.

    Parameters
    ----------
    chunk_rows:
        Sequences per pinned chunk.  Matching the full-database
        engine's ``chunk_rows`` makes float64 match values
        bit-identical to it (the sum over sequences accumulates per
        chunk, in chunk order).
    score_dtype:
        ``"float64"`` (default, bit-identical to the counting engine)
        or ``"float32"`` (planes and factors stored in float32, every
        cross-sequence accumulation in float64; error-bounded, and the
        stack buffers take half the bytes).  ``None`` resolves through
        ``NOISYMINE_SCORE_DTYPE``.
    workers:
        Counting threads, as for the counting engine.
    pin_bytes:
        Budget of the sample's pin, as for the counting engine:
        ``None`` (default) keeps the whole sample, the rows it gathered
        included, for a caller that counts many samples or runs;
        ``0`` streams it, for an evaluator that lives one Phase 2.

    ``planes`` (:class:`PlaneStats`) counts the prefix stack's traffic,
    ``cache`` holds the pinned keys and factor rows and ``repins``
    counts the scans that keyed any chunk afresh.
    """

    name = "resident"

    def __init__(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        score_dtype: Optional[str] = None,
        workers: Optional[int] = None,
        pin_bytes: Optional[int] = None,
    ):
        super().__init__(
            chunk_rows, workers, pin_bytes=pin_bytes,
            score_dtype=resolve_score_dtype(score_dtype),
        )
        self.planes = PlaneStats()
        self.repins = 0

    def set_score_dtype(self, score_dtype: str) -> None:
        """Switch the scoring dtype.

        The dtype is part of the pin key, so the next counting call
        transparently re-pins when the dtype actually changed.
        """
        self.score_dtype = resolve_score_dtype(score_dtype)

    def database_matches(
        self,
        patterns: Sequence[Pattern],
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer] = None,
    ) -> Dict[Pattern, float]:
        patterns = list(patterns)
        if not patterns:
            return {}
        plan = WalkPlan(patterns)
        misses = self.cache.misses
        totals, count, stack = self._count(
            DATABASE_TOTALS, database, matrix, None, len(patterns), plan,
        )
        if self.cache.misses != misses:
            self.repins += 1
        planes = self.planes
        bytes0 = planes.nbytes
        planes.hits += plan.hits
        planes.misses += plan.misses
        planes.nbytes = stack
        if tracer is not None and tracer.enabled:
            tracer.count(RESIDENT_PLANE_HITS, plan.hits)
            tracer.count(RESIDENT_PLANE_MISSES, plan.misses)
            tracer.count(RESIDENT_PLANE_BYTES, planes.nbytes - bytes0)
        return _averages(patterns, totals, count)

    def close(self) -> None:
        super().close()
        self.planes.nbytes = 0
