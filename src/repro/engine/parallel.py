"""Parallel backend: scatter-gather counting over a shard manifest.

:class:`ParallelEngine` consumes one logical database scan in the
parent (so the paper's scan accounting is untouched) and executes it as
a scatter-gather over a :class:`~repro.engine.shards.ShardManifest`:
the store is cut into digest-addressed, symbol-weighted shards on the
``chunk_rows`` block grid, oversplit into ~2-4x as many tasks as
workers, dispatched with work-stealing (``imap_unordered`` over a
shared queue), and merged **deterministically in block order** — so the
totals are bit-identical to the vectorized engine at equal
``chunk_rows``, for any shard count, worker count or completion order.

The worker protocol (:mod:`repro.engine.shards`) is transport-agnostic:
tasks and results are plain dataclasses run by a
:class:`~repro.engine.shards.ShardExecutor`, with the local
``multiprocessing`` pool as the default transport.  Pass ``executor=``
to run the same scatter-gather over any other transport (inline, a
shuffled test harness, a future socket executor) without touching the
engine or the miners.

Worker-local state
------------------
The extended compatibility matrix is shipped **once**, at pool
creation, through the pool initializer; tasks then reference it via a
module global instead of re-pickling ``8 m²`` bytes per batch.  When a
call arrives with a different matrix the pool is rebuilt (miners use
one matrix per run, so this is rare).

When the database is too small to be worth sharding (fewer than
``min_shard_rows`` sequences, or a single grid block) or the engine is
configured with a single worker, the evaluation runs inline in the
parent with identical semantics and no pool is ever created.

File-backed stores
------------------
Both disk backends produce manifests: the packed store as row-range
splits of its one file, the segmented store as one-or-more shards per
immutable segment.  Workers memory-map each referenced file once
(cached across tasks and passes, with a content-digest staleness
check) and receive only a :class:`~repro.engine.shards.ShardSpec` per
task, so per-pass IPC is a few hundred bytes per shard instead of the
database.  The pass is charged to the store (one scan, the symbol
payload, and the dispatched chunk count) only after the scatter-gather
completes — a failed dispatch inflates no I/O accounting.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..errors import MiningError
from ..obs import (
    INLINE_FALLBACKS,
    SHARD_IO_BYTES,
    SHARD_SCAN_SECONDS,
    SHARD_STEALS,
    SHARDS_DISPATCHED,
    Tracer,
)
from .base import (
    MatchEngine,
    empty_database_guard,
    matrix_fingerprint,
    scan_rows,
)
from .kernels import (
    DEFAULT_CHUNK_ROWS,
    extended_matrix,
    group_patterns_by_span,
    rows_database_totals,
    rows_symbol_totals,
)
from .shards import (
    LocalPoolExecutor,
    ShardExecutor,
    ShardManifest,
    ShardRunStats,
    ShardTask,
    TASK_DATABASE_TOTALS,
    TASK_SYMBOL_TOTALS,
    build_tasks,
    init_worker,
    manifest_from_rows,
    manifest_from_store,
    scatter_gather,
)

#: Below this many sequences, sharding costs more than it saves.
DEFAULT_MIN_SHARD_ROWS = 64

#: Environment variable setting the worker count of a run.
WORKERS_ENV_VAR = "NOISYMINE_WORKERS"

#: Work-stealing oversplit: tasks per worker.  Around 2-4x keeps the
#: steal queue deep enough to absorb a skewed shard without drowning
#: the pass in per-task dispatch overhead; merged totals are
#: bit-identical for any value.
DEFAULT_OVERSPLIT = 3


def resolve_worker_count(requested: Optional[int] = None) -> int:
    """Resolve the worker count of a run.

    An explicit *requested* value wins, then the ``NOISYMINE_WORKERS``
    environment variable, then ``1``: a single process unless the user
    asks for more.  Both sources must be ``>= 1``.
    """
    if requested is not None:
        if requested < 1:
            raise MiningError(f"n_workers must be >= 1, got {requested}")
        return requested
    env = os.environ.get(WORKERS_ENV_VAR)
    if not env:
        return 1
    try:
        value = int(env)
    except ValueError:
        raise MiningError(
            f"{WORKERS_ENV_VAR} must be a positive integer, got {env!r}"
        ) from None
    if value < 1:
        raise MiningError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
    return value


class ParallelEngine(MatchEngine):
    """Scatter-gather counted scans over a shard manifest.

    Parameters
    ----------
    n_workers:
        Worker processes; defaults to :func:`resolve_worker_count` —
        the ``NOISYMINE_WORKERS`` environment variable if set, else 1.
        ``1`` means always-inline evaluation.
    chunk_rows:
        Rows per padded chunk inside each worker — also the shard
        block-grid pitch: shard bounds always land on multiples of
        ``chunk_rows``, which is what keeps merged totals bit-identical
        to a single-process scan.
    min_shard_rows:
        Minimum total sequences before any dispatch happens at all.
    oversplit:
        Work-stealing depth: target tasks per worker (default
        :data:`DEFAULT_OVERSPLIT`).
    executor:
        Optional :class:`~repro.engine.shards.ShardExecutor` replacing
        the local pool transport; the engine then never creates a pool.

    Lifecycle counters — :attr:`pools_created`,
    :attr:`shards_dispatched`, :attr:`inline_fallbacks`,
    :attr:`shard_steals` — accumulate over the engine's lifetime and
    are also reported per call on the tracer passed to
    :meth:`database_matches` / :meth:`symbol_matches` (plus the float
    ``shard_scan_seconds`` and ``shard_io_bytes`` worker-side totals).
    """

    name = "parallel"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        min_shard_rows: int = DEFAULT_MIN_SHARD_ROWS,
        oversplit: int = DEFAULT_OVERSPLIT,
        executor: Optional[ShardExecutor] = None,
    ):
        if chunk_rows < 1:
            raise MiningError(f"chunk_rows must be >= 1, got {chunk_rows}")
        if min_shard_rows < 1:
            raise MiningError(
                f"min_shard_rows must be >= 1, got {min_shard_rows}"
            )
        if oversplit < 1:
            raise MiningError(f"oversplit must be >= 1, got {oversplit}")
        self.n_workers = resolve_worker_count(n_workers)
        self.chunk_rows = chunk_rows
        self.min_shard_rows = min_shard_rows
        self.oversplit = oversplit
        self._executor = executor
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_fingerprint: Optional[tuple] = None
        self.pools_created = 0
        self.shards_dispatched = 0
        self.inline_fallbacks = 0
        self.shard_steals = 0

    # -- pool management ------------------------------------------------------

    def _context(self) -> multiprocessing.context.BaseContext:
        # fork is cheapest and inherits the imported numpy state; fall
        # back to the platform default (spawn) elsewhere.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    def _ensure_pool(
        self, matrix: CompatibilityMatrix, c_ext: np.ndarray
    ) -> "multiprocessing.pool.Pool":
        fingerprint = matrix_fingerprint(matrix)
        if self._pool is not None and self._pool_fingerprint != fingerprint:
            self.close()
        if self._pool is None:
            self._pool = self._context().Pool(
                processes=self.n_workers,
                initializer=init_worker,
                initargs=(c_ext,),
            )
            self._pool_fingerprint = fingerprint
            self.pools_created += 1
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_fingerprint = None

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def warm_pool(self, matrix: CompatibilityMatrix) -> None:
        """Create (or reuse) the worker pool for *matrix* ahead of time.

        The pool persists across calls — one pool serves every phase of
        a mining run — so warming it moves the one-time fork cost out of
        the first measured scan.  A no-op when the pool for this matrix
        already exists, when a custom executor owns the transport, or
        when the engine would always run inline.
        """
        if self.n_workers > 1 and self._executor is None:
            self._ensure_pool(matrix, extended_matrix(matrix.array))

    # -- sharding -------------------------------------------------------------

    def _dispatch_enabled(self) -> bool:
        return self.n_workers > 1 or self._executor is not None

    def _target_tasks(self) -> int:
        return self.n_workers * self.oversplit

    def _store_manifest(
        self, database: AnySequenceDatabase
    ) -> Optional[ShardManifest]:
        """The dispatchable manifest of *database*, or ``None`` when
        the counting tier does not apply (inline engine, no
        ``shard_layout`` hook, pathless store, or too small to cut into
        two shards).  Pure metadata — nothing is charged until the
        scatter-gather actually completes.
        """
        if not self._dispatch_enabled():
            return None
        manifest = manifest_from_store(
            database, self.chunk_rows, self._target_tasks(),
            self.min_shard_rows,
        )
        if manifest is None or len(manifest) < 2:
            return None
        return manifest

    def _rows_manifest(
        self, rows: List[np.ndarray]
    ) -> Optional[ShardManifest]:
        if not self._dispatch_enabled() or not rows:
            return None
        manifest = manifest_from_rows(
            rows, self.chunk_rows, self._target_tasks(),
            self.min_shard_rows,
        )
        if len(manifest) < 2:
            return None
        return manifest

    def _executor_for(
        self, matrix: CompatibilityMatrix, c_ext: np.ndarray
    ) -> ShardExecutor:
        if self._executor is not None:
            return self._executor
        return LocalPoolExecutor(self._ensure_pool(matrix, c_ext))

    def _dispatch(
        self,
        tasks: List[ShardTask],
        matrix: CompatibilityMatrix,
        c_ext: np.ndarray,
        width: int,
        database: Optional[AnySequenceDatabase],
        tracer: Optional[Tracer],
    ) -> np.ndarray:
        """Run one scatter-gather pass and fold its counters.

        With *database* (the file-backed manifest path) the logical
        pass — one scan, the symbol payload, the dispatched chunk
        count — is charged to the store only **after** the gather
        completes, so a failed or aborted dispatch never inflates the
        I/O accounting.
        """
        executor = self._executor_for(matrix, c_ext)
        totals, stats = scatter_gather(
            tasks, executor, c_ext, width, n_workers=self.n_workers
        )
        if database is not None:
            database.begin_external_pass()
            database.io_chunks += stats.blocks
        self._record(stats, tracer)
        return totals

    def _record(
        self, stats: ShardRunStats, tracer: Optional[Tracer]
    ) -> None:
        self.shards_dispatched += stats.tasks
        self.shard_steals += stats.steals
        if tracer is not None and tracer.enabled:
            tracer.count(SHARDS_DISPATCHED, stats.tasks)
            if stats.steals:
                tracer.count(SHARD_STEALS, stats.steals)
            tracer.count(SHARD_SCAN_SECONDS, stats.scan_seconds)
            if stats.io_bytes:
                tracer.count(SHARD_IO_BYTES, stats.io_bytes)
            tracer.note("workers", self.n_workers)
            tracer.note("oversplit", self.oversplit)

    # -- batched hooks --------------------------------------------------------

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
        traced = tracer is not None and tracer.enabled
        groups, elements_by_span = group_patterns_by_span(
            patterns, matrix.size
        )
        c_ext = extended_matrix(matrix.array)
        manifest = self._store_manifest(database)
        if manifest is not None:
            tasks = build_tasks(
                manifest, TASK_DATABASE_TOTALS, groups, elements_by_span,
                len(patterns),
            )
            totals = self._dispatch(
                tasks, matrix, c_ext, len(patterns), database, tracer
            )
            count = len(database)
            return {p: float(t / count) for p, t in zip(patterns, totals)}
        _ids, rows = scan_rows(database)
        empty_database_guard(len(rows))
        manifest = self._rows_manifest(rows)
        if manifest is None:
            self.inline_fallbacks += 1
            if traced:
                tracer.count(INLINE_FALLBACKS, 1)
            totals = rows_database_totals(
                rows, c_ext, groups, elements_by_span, len(patterns),
                self.chunk_rows,
            )
        else:
            tasks = build_tasks(
                manifest, TASK_DATABASE_TOTALS, groups, elements_by_span,
                len(patterns), rows=rows,
            )
            totals = self._dispatch(
                tasks, matrix, c_ext, len(patterns), None, tracer
            )
        count = len(rows)
        return {p: float(t / count) for p, t in zip(patterns, totals)}

    def symbol_matches(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        traced = tracer is not None and tracer.enabled
        c_ext = extended_matrix(matrix.array)
        manifest = self._store_manifest(database)
        if manifest is not None:
            tasks = build_tasks(manifest, TASK_SYMBOL_TOTALS)
            totals = self._dispatch(
                tasks, matrix, c_ext, matrix.size, database, tracer
            )
            return totals / len(database)
        _ids, rows = scan_rows(database)
        if not rows:
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        manifest = self._rows_manifest(rows)
        if manifest is None:
            self.inline_fallbacks += 1
            if traced:
                tracer.count(INLINE_FALLBACKS, 1)
            totals = rows_symbol_totals(rows, c_ext, self.chunk_rows)
        else:
            tasks = build_tasks(manifest, TASK_SYMBOL_TOTALS, rows=rows)
            totals = self._dispatch(
                tasks, matrix, c_ext, matrix.size, None, tracer
            )
        return totals / len(rows)

    def symbol_matches_rows(
        self,
        sequences: Sequence[np.ndarray],
        matrix: CompatibilityMatrix,
    ) -> np.ndarray:
        if not len(sequences):
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        rows = [np.asarray(s) for s in sequences]
        return rows_symbol_totals(
            rows, extended_matrix(matrix.array), self.chunk_rows
        ) / len(rows)
