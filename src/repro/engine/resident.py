"""Resident-sample backend: the counting walk over a pinned sample.

Phase 2 of the paper's algorithm runs its whole breadth-first search
against one fixed in-memory sample.  :class:`ResidentSampleEvaluator`
counts it with the counting engine's own chunk kernel,
:func:`~repro.engine.kernels.walk_totals`, and keeps the sample's
factor arrays between calls:

* **Pin once.**  The mandatory scan of every call streams the rows
  through the evaluator's :class:`~repro.engine.kernels.FactorPin`
  (:attr:`~ResidentSampleEvaluator.cache`), the counting engine's own
  factor-array policy with no budget: the first call gathers every
  chunk, later calls reuse a chunk whose padded content digest still
  matches.  The protocol's one ``database.scan()`` per call doubles as
  the staleness check, so scan accounting is untouched and handing the
  evaluator a different database (or matrix, or dtype) transparently
  re-pins.
* **Walk the prefix trie.**  Each call builds one
  :class:`~repro.engine.kernels.WalkPlan` and walks it over every
  pinned chunk in chunk order: a child's ``(windows, N)`` score plane
  is its parent's plane times one shifted factor row, each distinct
  parent prefix is derived once per chunk onto a stack, and each
  sibling is reduced to its per-sequence maxima and discarded.  The
  evaluator's one :class:`~repro.engine.kernels.WalkBuffers` holds one
  ``(L, N)`` stack plane per chain depth for the largest pinned chunk,
  so the planes held never exceed ``(max parent weight - 1) × max L·N``
  elements, whatever the batch size or chunk count.

``score_dtype="float32"`` stores factors and planes in float32 —
halving both the pinned factor arrays and the stack buffers — while
every cross-sequence accumulation stays float64; the deviation is
error-bounded (``benchmarks/bench_phase2_sample.py`` gates it).

In float64 the walk is the counting engine's, so every match value is
bit-identical to :class:`~repro.engine.vectorized.VectorizedBatchEngine`
at equal ``chunk_rows``, and independent of batch order.  Phase 2
always counts through this evaluator, and it counts nothing else: the
Phase-1 scan and every full-database pass run on the counting engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..errors import MiningError
from ..obs import (
    RESIDENT_PLANE_BYTES,
    RESIDENT_PLANE_HITS,
    RESIDENT_PLANE_MISSES,
    Tracer,
)
from .base import MatchEngine, empty_database_guard, matrix_fingerprint
from .kernels import (
    DEFAULT_CHUNK_ROWS,
    FactorPin,
    WalkBuffers,
    WalkPlan,
    extended_matrix,
    resolve_score_dtype,
    walk_totals,
)


@dataclass
class PlaneStats:
    """Lifetime counters of an evaluator's prefix stack.

    ``hits`` counts sibling groups whose (span >= 2) parent was
    already on the stack, ``misses`` the chain links derived, each
    once per call, and ``nbytes`` the stack buffer bytes currently held.
    """

    hits: int = 0
    misses: int = 0
    nbytes: int = 0


class ResidentSampleEvaluator(MatchEngine):
    """Incremental ``M(P, D)`` evaluation over a pinned database.

    Parameters
    ----------
    chunk_rows:
        Sequences per pinned chunk.  Matching the vectorized backend's
        ``chunk_rows`` makes float64 match values bit-identical to it
        (the sum over sequences accumulates per chunk, in chunk order).
    score_dtype:
        ``"float64"`` (default, bit-identical to every other backend)
        or ``"float32"`` (planes and factors stored in float32, every
        cross-sequence accumulation in float64; error-bounded, and the
        stack buffers take half the bytes).  ``None`` resolves through
        ``NOISYMINE_SCORE_DTYPE``.

    ``planes`` (:class:`PlaneStats`) counts the prefix stack's traffic,
    ``cache`` (:class:`~repro.engine.kernels.FactorPin`) holds the
    pinned factor arrays and ``repins`` counts the pins built.
    """

    name = "resident"

    def __init__(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        score_dtype: Optional[str] = None,
    ):
        if chunk_rows < 1:
            raise MiningError(
                f"chunk_rows must be >= 1, got {chunk_rows}"
            )
        self.chunk_rows = chunk_rows
        self.planes = PlaneStats()
        self.cache = FactorPin()
        self.repins = 0
        # Chunks of the current pin (None before the first), and the
        # walk's buffers.
        self._chunks: Optional[int] = None
        self._buffers = WalkBuffers()
        self.score_dtype = resolve_score_dtype(score_dtype)

    def set_score_dtype(self, score_dtype: str) -> None:
        """Switch the scoring dtype.

        The dtype is part of the pin key, so the next counting call
        transparently re-pins (and reallocates the stack buffers) when
        the dtype actually changed.
        """
        self.score_dtype = resolve_score_dtype(score_dtype)

    # -- pinning --------------------------------------------------------------

    def _scan_and_pin(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
    ) -> Tuple[int, List[np.ndarray]]:
        """Consume exactly one scan; return the sequence count and the
        factor array of every chunk, reusing or rebuilding the pin.

        The factor pin checks every chunk the mandatory scan yields
        against its content digest, so a database whose content changed
        between calls is detected with no extra pass, and a different
        database object with equal content reuses the pin.  The walk
        buffers are dropped only when some chunk had to be gathered.
        """
        dtype = np.float32 if self.score_dtype == "float32" else np.float64
        c_ext = extended_matrix(matrix.array).astype(dtype, copy=False)
        misses = self.cache.misses
        count = 0
        gathered: List[np.ndarray] = []
        for chunk, slot in self.cache.scan(
            database, self.chunk_rows, c_ext, matrix_fingerprint(matrix)
        ):
            count += len(chunk)
            gathered.append(slot.factors())
        empty_database_guard(count)
        if self.cache.misses != misses or len(gathered) != self._chunks:
            self._buffers = WalkBuffers()
            self.repins += 1
        self._chunks = len(gathered)
        return count, gathered

    # -- batched --------------------------------------------------------------

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
        count, gathered = self._scan_and_pin(database, matrix)
        plan = WalkPlan(patterns)
        totals = np.zeros(len(patterns), dtype=np.float64)
        # Chunks add in scan order: the counting engine's summation.
        for factors in gathered:
            walk_totals(factors, plan, totals, self._buffers)
        planes = self.planes
        bytes0 = planes.nbytes
        planes.hits += plan.hits
        planes.misses += plan.misses
        planes.nbytes = self._buffers.stack_nbytes
        if tracer is not None and tracer.enabled:
            tracer.count(RESIDENT_PLANE_HITS, plan.hits)
            tracer.count(RESIDENT_PLANE_MISSES, plan.misses)
            tracer.count(RESIDENT_PLANE_BYTES, planes.nbytes - bytes0)
        # One C-level divide + tolist instead of a float() per pattern
        # (same IEEE division, so the values are unchanged).
        np.divide(totals, count, out=totals)
        return dict(zip(patterns, totals.tolist()))

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self._chunks = None
        self._buffers = WalkBuffers()
        self.cache.clear()
        self.planes.nbytes = 0

    def __repr__(self) -> str:
        return (
            f"ResidentSampleEvaluator(chunk_rows={self.chunk_rows}, "
            f"score_dtype={self.score_dtype!r}, "
            f"pinned_bytes={self.cache.nbytes}, planes={self.planes!r})"
        )
