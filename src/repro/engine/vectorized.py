"""The counting engine: one block kernel, serial or over a worker pool.

:class:`VectorizedBatchEngine` evaluates ``M(P, D)`` for a whole
memory-capacity batch of patterns in one database scan, a *chunk* of
``chunk_rows`` sequences at a time.  Each chunk is right-padded into
one ``(N, L)`` symbol matrix and handed to
:func:`repro.engine.kernels.block_totals`, which adds the chunk's
per-pattern sums of per-sequence maxima: the extended compatibility
matrix is gathered through the chunk **once**, producing the
``(m + 1, L, N)`` *factor array*, and each same-span pattern group is
reduced over sliding windows by row-wise multiplies of contiguous
``(windows, N)`` planes, sharing the partial products of common
pattern prefixes (see :func:`repro.engine.kernels.prefix_plan`).
Counting always scores in float64.

The factor array depends only on ``(compatibility matrix, sequences)``
— not on the patterns — so the serial scan streams every chunk through
the engine's :class:`~repro.engine.kernels.FactorPin` (:attr:`cache`),
which keeps the database's factor arrays when they fit
:data:`PIN_BYTES`.  Phase 3 of the paper's algorithm probes half-layers
of the ambiguous region with one scan per batch over the *same*
database, and the daemon's jobs re-scan the same store; with the pin
those repeat scans skip the gather and pay only the window reductions.
A database too large for the budget is gathered chunk by chunk and
nothing is kept.

With ``workers > 1`` a scan over at least two blocks is cut into
block-aligned shards (:mod:`repro.engine.shards`) and run by a fork
pool whose workers call the same block kernel; the per-block sums are
merged in block order, so results are bit-identical to one worker at
equal ``chunk_rows``.  Either way the engine consumes exactly one
``database.scan()`` per batch — the paper's cost model.

:meth:`VectorizedBatchEngine.symbol_matches` is every miner's Phase-1
scan.  Given a :class:`~repro.core.sequence.SequentialSampler` it
offers the sampler every ``(id, row)`` in scan order, so Algorithm
4.1's sample is drawn in the same pass; a sampler keeps the scan
serial, since this process must see every row.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase, SequentialSampler
from ..errors import MiningError
from ..obs import (
    FACTOR_CACHE_HITS,
    FACTOR_CACHE_MISSES,
    SHARD_IO_BYTES,
    SHARD_SCAN_SECONDS,
    SHARD_STEALS,
    SHARDS_DISPATCHED,
    Tracer,
)
from .base import MatchEngine, matrix_fingerprint
from .kernels import (
    DATABASE_TOTALS,
    DEFAULT_CHUNK_ROWS,
    SYMBOL_TOTALS,
    FactorPin,
    block_totals,
    extended_matrix,
    group_patterns_by_span,
    group_plans,
)
from .shards import (
    MIN_SHARD_ROWS,
    OVERSPLIT,
    Dispatch,
    ShardManifest,
    build_tasks,
    manifest_from_rows,
    manifest_from_store,
    open_pool,
    pool_execute_shard_task,
    resolve_worker_count,
    scatter_gather,
)

#: Byte budget of an engine's factor pin.  A database whose factor
#: arrays (``8 (m + 1)`` bytes per symbol, plus padding) exceed it is
#: not kept: the pin holds all of a database or none of it.
PIN_BYTES = 128 * 1024 * 1024


class VectorizedBatchEngine(MatchEngine):
    """Whole-batch, whole-chunk evaluation of ``M(P, D)``.

    Parameters
    ----------
    chunk_rows:
        Sequences per padded chunk — also the shard block-grid pitch.
        Larger chunks amortise Python overhead further but cost
        ``8 (m+1) N L`` bytes of factor array each.
    workers:
        Worker processes; ``None`` resolves through
        :func:`~repro.engine.shards.resolve_worker_count` (the
        ``NOISYMINE_WORKERS`` environment variable, else 1).  With more
        than one, scans over at least two shards run on a fork pool.

    :attr:`cache` is the serial scan's :class:`FactorPin`, holding at
    most :data:`PIN_BYTES`.  :attr:`dispatch` is the pool seam: ``None``
    runs shard tasks on the engine's own pool (``imap_unordered``);
    tests set any callable from tasks to results to reorder or fail the
    gather.  Of the lifetime counters :attr:`pools_created`,
    :attr:`shards_dispatched` and :attr:`shard_steals`, the last two
    are also reported per call on the tracer.
    """

    name = "vectorized"

    def __init__(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        workers: Optional[int] = None,
    ):
        if chunk_rows < 1:
            raise MiningError(
                f"chunk_rows must be >= 1, got {chunk_rows}"
            )
        self.chunk_rows = chunk_rows
        self.cache = FactorPin()
        self.workers = resolve_worker_count(workers)
        self.dispatch: Optional[Dispatch] = None
        self._pool = None
        self._pool_key: Optional[tuple] = None
        self.pools_created = 0
        self.shards_dispatched = 0
        self.shard_steals = 0

    def note_settings(self, tracer: Optional[Tracer]) -> None:
        """Note the run's ``workers`` on *tracer* (the report
        context), whether or not a scan runs."""
        if tracer is not None and tracer.enabled:
            tracer.note("workers", self.workers)

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
        groups, elements_by_span = group_patterns_by_span(
            patterns, matrix.size
        )
        totals, count = self._count(
            DATABASE_TOTALS, database, matrix, tracer, len(patterns),
            groups, elements_by_span,
        )
        return {p: float(t / count) for p, t in zip(patterns, totals)}

    def symbol_matches(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer] = None,
        sampler: Optional[SequentialSampler] = None,
    ) -> np.ndarray:
        totals, count = self._count(
            SYMBOL_TOTALS, database, matrix, tracer, matrix.size,
            sampler=sampler,
        )
        return totals / count

    # -- one counted scan -----------------------------------------------------

    def _count(
        self,
        kind: str,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer],
        width: int,
        groups: Optional[Dict[int, List[int]]] = None,
        elements_by_span: Optional[Dict[int, np.ndarray]] = None,
        sampler: Optional[SequentialSampler] = None,
    ) -> Tuple[np.ndarray, int]:
        """``(totals, sequence count)`` of one scan: over the pool when
        there are workers, at least two shards and no *sampler* (which
        must be offered every row here), serially otherwise."""
        c_ext = extended_matrix(matrix.array)
        traced = tracer is not None and tracer.enabled
        if traced:
            # Lifetime counters are snapshotted once per call; the
            # per-chunk hot path stays untouched.
            cache0 = (self.cache.hits, self.cache.misses)
        batch = (kind, groups, elements_by_span, width)
        result = None
        chunks = None
        if self.workers > 1 and sampler is None:
            manifest = manifest_from_store(
                database, self.chunk_rows, self.workers * OVERSPLIT,
                MIN_SHARD_ROWS,
            )
            rows = None
            if manifest is None:
                # No file for workers to map: take the one scan here
                # and ship the rows with the tasks.
                chunks = list(database.scan_chunks(self.chunk_rows))
                rows = [row for chunk in chunks for row in chunk.rows]
                if rows:
                    manifest = manifest_from_rows(
                        rows, self.chunk_rows, self.workers * OVERSPLIT,
                        MIN_SHARD_ROWS,
                    )
            if manifest is not None and len(manifest) >= 2:
                totals = self._scatter(
                    batch, manifest, rows, matrix, c_ext, tracer
                )
                if rows is None:
                    # Charged only after the gather succeeded, so a
                    # failed dispatch inflates no I/O accounting.
                    database.begin_external_pass()
                    database.io_chunks += manifest.n_blocks
                result = (totals, manifest.n_rows)
        if result is None:
            # Serially through the pin; when the pool declined, over
            # the scan it already took.
            factors = self.cache.scan(
                database, self.chunk_rows, c_ext,
                matrix_fingerprint(matrix), budget=PIN_BYTES, chunks=chunks,
            )
            result = self._serial(batch, factors, sampler)
        if traced:
            self.note_settings(tracer)
            tracer.count(FACTOR_CACHE_HITS, self.cache.hits - cache0[0])
            tracer.count(FACTOR_CACHE_MISSES, self.cache.misses - cache0[1])
        return result

    def _serial(
        self,
        batch: tuple,
        factors,
        sampler: Optional[SequentialSampler] = None,
    ) -> Tuple[np.ndarray, int]:
        """Add up *factors*' ``(chunk, factor array)`` blocks, offering
        every ``(id, row)`` to *sampler* in scan order."""
        kind, groups, elements_by_span, width = batch
        plans = (
            group_plans(elements_by_span) if kind == DATABASE_TOTALS
            else None
        )
        totals = np.zeros(width, dtype=np.float64)
        scratch: Dict[tuple, np.ndarray] = {}
        count = 0
        for chunk, gathered in factors:
            count += len(chunk)
            if sampler is not None:
                for sid, row in zip(chunk.ids, chunk.rows):
                    sampler.offer(sid, row)
            block_totals(
                gathered, kind, groups, elements_by_span, totals,
                plans=plans, scratch=scratch,
            )
        if count == 0:
            what = "symbol matches" if kind == SYMBOL_TOTALS else "matches"
            raise MiningError(
                f"cannot compute {what} over an empty database"
            )
        return totals, count

    # -- the worker pool ------------------------------------------------------

    def _scatter(
        self,
        batch: tuple,
        manifest: ShardManifest,
        rows: Optional[List[np.ndarray]],
        matrix: CompatibilityMatrix,
        c_ext: np.ndarray,
        tracer: Optional[Tracer],
    ) -> np.ndarray:
        kind, groups, elements_by_span, width = batch
        tasks = build_tasks(
            manifest, kind, groups, elements_by_span, width, rows=rows
        )
        dispatch = self.dispatch or self._pool_dispatch(matrix, c_ext)
        totals, stats = scatter_gather(tasks, dispatch, width, self.workers)
        self.shards_dispatched += stats.tasks
        self.shard_steals += stats.steals
        if tracer is not None and tracer.enabled:
            tracer.count(SHARDS_DISPATCHED, stats.tasks)
            if stats.steals:
                tracer.count(SHARD_STEALS, stats.steals)
            tracer.count(SHARD_SCAN_SECONDS, stats.scan_seconds)
            if stats.io_bytes:
                tracer.count(SHARD_IO_BYTES, stats.io_bytes)
        return totals

    def _pool_dispatch(
        self, matrix: CompatibilityMatrix, c_ext: np.ndarray
    ) -> Dispatch:
        """The pool's work-stealing dispatch; one pool per matrix,
        rebuilt when a call brings a different one."""
        key = matrix_fingerprint(matrix)
        if self._pool is not None and self._pool_key != key:
            self._close_pool()
        if self._pool is None:
            self._pool = open_pool(self.workers, c_ext)
            self._pool_key = key
            self.pools_created += 1
        return partial(
            self._pool.imap_unordered, pool_execute_shard_task, chunksize=1
        )

    def warm_pool(self, matrix: CompatibilityMatrix) -> None:
        """Create (or reuse) the worker pool for *matrix* ahead of time,
        moving the one-time fork cost out of the first measured scan.
        A no-op with one worker or a custom :attr:`dispatch`."""
        if self.workers > 1 and self.dispatch is None:
            self._pool_dispatch(matrix, extended_matrix(matrix.array))

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_key = None

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self._close_pool()
        self.cache.clear()

    def __del__(self) -> None:
        try:
            self._close_pool()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"VectorizedBatchEngine(chunk_rows={self.chunk_rows}, "
            f"workers={self.workers})"
        )
