"""The counting engine: one block kernel, serial or over a worker pool.

:class:`VectorizedBatchEngine` evaluates ``M(P, D)`` for a whole
memory-capacity batch of patterns in one database scan, a *chunk* of
``chunk_rows`` sequences at a time.  Each chunk is right-padded into
one ``(N, L)`` symbol matrix and handed to
:func:`repro.engine.kernels.block_totals`, which adds the chunk's
per-pattern sums of per-sequence maxima.  The kernel path is picked
once, at construction:

* **compiled** (numba imports): fused window kernels slide every
  pattern over every sequence in one compiled pass, without
  materialising the factor array; these also score in float32 on
  request;
* **numpy** (no numba): the extended compatibility matrix is gathered
  through the chunk **once**, producing the ``(m + 1, L, N)`` *factor
  array*, and each same-span pattern group is reduced over sliding
  windows by row-wise multiplies of contiguous ``(windows, N)`` planes,
  sharing the partial products of common pattern prefixes (see
  :func:`repro.engine.kernels.prefix_plan`).

The factor array depends only on ``(compatibility matrix, sequences)``
— not on the patterns — so the numpy path caches it across calls keyed
by ``(matrix fingerprint, padded-chunk content digest)``.  Phase 3 of
the paper's algorithm probes half-layers of the ambiguous region with
one scan per batch over the *same* database; with the cache those
repeat scans skip the gather and pay only the window reductions.

With ``workers > 1`` a scan over at least two blocks is cut into
block-aligned shards (:mod:`repro.engine.shards`) and run by a fork
pool whose workers call the same block kernel; the per-block sums are
merged in block order, so results are bit-identical to one worker at
equal ``chunk_rows``.  Either way the engine consumes exactly one
``database.scan()`` per batch — the paper's cost model.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..errors import MiningError
from ..obs import (
    FACTOR_CACHE_EVICTIONS,
    FACTOR_CACHE_HITS,
    FACTOR_CACHE_MISSES,
    NATIVE_KERNEL_CALLS,
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
    block_totals,
    charge_warmup,
    extended_matrix,
    gather_chunk,
    group_patterns_by_span,
    group_plans,
    pad_chunk,
    resolve_kernels,
    resolve_score_dtype,
    rows_symbol_totals,
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

#: Default factor-cache budget (bytes).  A cached chunk costs
#: ``8 * (m + 1) * N * L`` bytes; 128 MiB holds ~48 chunks of the
#: paper's protein workload (m=20, N=256, L=64).
DEFAULT_CACHE_BYTES = 128 * 1024 * 1024

_CacheKey = Tuple[tuple, Tuple[int, ...], bytes]


class FactorCache:
    """LRU cache of per-chunk factor arrays with a byte budget.

    Keys are ``(matrix fingerprint, padded shape, padded content
    digest)`` — both components are content-based, so two equal
    matrices share entries and neither a different matrix nor a
    different chunk of sequences can ever serve stale factors.  The
    digest is ``blake2b`` over the padded chunk's bytes: Python's
    salted 64-bit ``hash`` admits (however unlikely) collisions that
    would silently serve the factor array of a *different* chunk,
    whereas a 128-bit cryptographic digest makes that impossible in
    practice.  Digesting the ``(N, L)`` int chunk costs ``O(N L)``,
    negligible next to the ``O(m N L)`` gather it saves.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES):
        if max_bytes < 0:
            raise MiningError(
                f"cache budget must be >= 0 bytes, got {max_bytes}"
            )
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[_CacheKey, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: _CacheKey) -> Optional[np.ndarray]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: _CacheKey, value: np.ndarray) -> None:
        if value.nbytes > self.max_bytes:
            return  # larger than the whole budget; not worth keeping
        if key in self._entries:
            self._bytes -= self._entries.pop(key).nbytes
        self._entries[key] = value
        self._bytes += value.nbytes
        while self._bytes > self.max_bytes:
            _key, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    @property
    def nbytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"FactorCache(entries={len(self)}, bytes={self._bytes}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class VectorizedBatchEngine(MatchEngine):
    """Whole-batch, whole-chunk evaluation of ``M(P, D)``.

    Parameters
    ----------
    chunk_rows:
        Sequences per padded chunk — also the shard block-grid pitch.
        Larger chunks amortise Python overhead further but cost
        ``8 (m+1) N L`` bytes of factor array each on the numpy path.
    cache_bytes:
        Budget of the numpy path's factor-row cache; ``0`` disables
        caching.
    workers:
        Worker processes; ``None`` resolves through
        :func:`~repro.engine.shards.resolve_worker_count` (the
        ``NOISYMINE_WORKERS`` environment variable, else 1).  With more
        than one, scans over at least two shards run on a fork pool.
    score_dtype:
        ``"float64"`` (default, bit-identical across kernel paths) or
        ``"float32"`` (window products in float32, every accumulation
        in float64; error-bounded).  Only the compiled kernels and
        their twins score in float32 — the numpy path always scores in
        float64.  ``None`` resolves through ``NOISYMINE_SCORE_DTYPE``.
    kernels:
        ``"auto"`` (compiled when numba imports, numpy otherwise),
        ``"numpy"`` or ``"pure"`` (the interpreted twins of the
        compiled kernels); the latter two are for tests and
        benchmarks.  :attr:`kernels` holds the resolved path:
        ``"compiled"``, ``"numpy"`` or ``"pure"``.

    :attr:`dispatch` is the pool seam: ``None`` runs shard tasks on
    the engine's own pool (``imap_unordered``); tests set any callable
    from tasks to results to reorder or fail the gather.  The lifetime
    counters :attr:`pools_created`, :attr:`shards_dispatched`,
    :attr:`shard_steals` and :attr:`kernel_calls` are also reported per
    call on the tracer.
    """

    name = "vectorized"

    def __init__(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        workers: Optional[int] = None,
        score_dtype: Optional[str] = None,
        kernels: str = "auto",
    ):
        if chunk_rows < 1:
            raise MiningError(
                f"chunk_rows must be >= 1, got {chunk_rows}"
            )
        self.chunk_rows = chunk_rows
        self.cache = FactorCache(cache_bytes)
        self.workers = resolve_worker_count(workers)
        self.score_dtype = resolve_score_dtype(score_dtype)
        self.kernels = resolve_kernels(kernels)
        self.dispatch: Optional[Dispatch] = None
        self._pool = None
        self._pool_key: Optional[tuple] = None
        self.pools_created = 0
        self.shards_dispatched = 0
        self.shard_steals = 0
        self.kernel_calls = 0

    def set_score_dtype(self, score_dtype: str) -> None:
        """Switch the scoring dtype (the next pool dispatch rebuilds
        the pool when the cast matrix changes)."""
        self.score_dtype = resolve_score_dtype(score_dtype)

    def note_settings(self, tracer: Optional[Tracer]) -> None:
        """Note the run's ``workers`` and ``kernels`` on *tracer* (the
        report context), whether or not a scan runs."""
        if tracer is not None and tracer.enabled:
            tracer.note("workers", self.workers)
            tracer.note("kernels", self.kernels)

    def _matrix(self, matrix: CompatibilityMatrix) -> np.ndarray:
        c_ext = extended_matrix(matrix.array)
        if self.score_dtype == "float32" and self.kernels != "numpy":
            c_ext = c_ext.astype(np.float32)
        return c_ext

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
    ) -> np.ndarray:
        totals, count = self._count(
            SYMBOL_TOTALS, database, matrix, tracer, matrix.size
        )
        return totals / count

    def symbol_matches_rows(
        self,
        sequences: Sequence[np.ndarray],
        matrix: CompatibilityMatrix,
    ) -> np.ndarray:
        if not len(sequences):
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        if self.kernels == "compiled":
            charge_warmup(None)
        return rows_symbol_totals(
            sequences, self._matrix(matrix), self.chunk_rows, self.kernels
        ) / len(sequences)

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
    ) -> Tuple[np.ndarray, int]:
        """``(totals, sequence count)`` of one scan: over the pool when
        there are workers and at least two shards, serially otherwise."""
        c_ext = self._matrix(matrix)
        if self.kernels == "compiled":
            charge_warmup(tracer)
        traced = tracer is not None and tracer.enabled
        if traced:
            # Lifetime counters are snapshotted once per call; the
            # per-chunk hot path stays untouched.
            cache0 = (self.cache.hits, self.cache.misses,
                      self.cache.evictions)
            calls0 = self.kernel_calls
        batch = (kind, groups, elements_by_span, width)
        result = None
        chunks = None
        if self.workers > 1:
            manifest = manifest_from_store(
                database, self.chunk_rows, self.workers * OVERSPLIT,
                MIN_SHARD_ROWS,
            )
            rows = None
            if manifest is None:
                # No file for workers to map: take the one scan here
                # and ship the rows with the tasks.
                chunks = [
                    list(chunk.rows)
                    for chunk in database.scan_chunks(self.chunk_rows)
                ]
                rows = [row for chunk in chunks for row in chunk]
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
            if chunks is None:
                chunks = (
                    list(chunk.rows)
                    for chunk in database.scan_chunks(self.chunk_rows)
                )
            result = self._serial(batch, chunks, matrix, c_ext)
        if traced:
            self.note_settings(tracer)
            if self.kernels == "numpy":
                tracer.count(FACTOR_CACHE_HITS, self.cache.hits - cache0[0])
                tracer.count(
                    FACTOR_CACHE_MISSES, self.cache.misses - cache0[1]
                )
                tracer.count(
                    FACTOR_CACHE_EVICTIONS,
                    self.cache.evictions - cache0[2],
                )
            if self.kernel_calls != calls0:
                tracer.count(NATIVE_KERNEL_CALLS, self.kernel_calls - calls0)
        return result

    def _serial(
        self,
        batch: tuple,
        chunks,
        matrix: CompatibilityMatrix,
        c_ext: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        kind, groups, elements_by_span, width = batch
        m = matrix.size
        plans = factors = None
        if self.kernels == "numpy":
            factors = partial(
                self._factor_array, c_ext, matrix_fingerprint(matrix)
            )
            if kind == DATABASE_TOTALS:
                plans = group_plans(elements_by_span)
        totals = np.zeros(width, dtype=np.float64)
        scratch: Dict[tuple, np.ndarray] = {}
        count = 0
        for rows in chunks:
            count += len(rows)
            self.kernel_calls += block_totals(
                pad_chunk(rows, m), c_ext, kind, groups, elements_by_span,
                totals, self.kernels, plans=plans, scratch=scratch,
                factors=factors,
            )
        if count == 0:
            what = "symbol matches" if kind == SYMBOL_TOTALS else "matches"
            raise MiningError(
                f"cannot compute {what} over an empty database"
            )
        return totals, count

    def _factor_array(
        self, c_ext: np.ndarray, fingerprint: tuple, padded: np.ndarray
    ) -> np.ndarray:
        digest = hashlib.blake2b(padded.tobytes(), digest_size=16).digest()
        key: _CacheKey = (fingerprint, padded.shape, digest)
        gathered = self.cache.get(key)
        if gathered is None:
            gathered = gather_chunk(c_ext, padded)
            self.cache.put(key, gathered)
        return gathered

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
        self.kernel_calls += stats.kernel_calls
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
        """The pool's work-stealing dispatch; one pool per (matrix,
        dtype), rebuilt when a call brings a different one."""
        key = (matrix_fingerprint(matrix), c_ext.dtype.str)
        if self._pool is not None and self._pool_key != key:
            self._close_pool()
        if self._pool is None:
            self._pool = open_pool(self.workers, c_ext, self.kernels)
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
            self._pool_dispatch(matrix, self._matrix(matrix))

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
            f"workers={self.workers}, kernels={self.kernels!r}, "
            f"score_dtype={self.score_dtype!r})"
        )
