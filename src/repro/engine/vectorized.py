"""The counting engine: one block kernel, one scan, one or more threads.

:class:`VectorizedBatchEngine` evaluates ``M(P, D)`` for a whole
memory-capacity batch of patterns in one database scan, a *chunk* of
``chunk_rows`` sequences at a time.  Each chunk is right-padded into
one ``(N, L)`` symbol matrix, keyed into its ``(L, N)`` symbol keys
(a :class:`~repro.engine.kernels.PinSlot`) and handed to
:func:`repro.engine.kernels.block_totals`, which adds the chunk's
per-pattern sums of per-sequence maxima: the batch's prefix trie is
walked over the chunk (:func:`repro.engine.kernels.walk_totals`), each
pattern's window maxima derived from its parent's window products,
sibling groups at once in symbol space, and each *factor row* — one
symbol's row of the extended compatibility matrix gathered through
the chunk — gathered the first time the walk reads it.  The walk is
planned once per batch (:class:`~repro.engine.kernels.WalkPlan`) and
each counting thread keeps its own buffers.  Full-database passes
score in float64.

Keys and factor rows depend only on ``(compatibility matrix,
sequences)`` — not on the patterns — so every scan streams its chunks
through the engine's :class:`~repro.engine.kernels.FactorPin`
(:attr:`cache`), which keeps what its caller's byte budget
(``pin_bytes``) allows.  The default, ``0``, keeps nothing: a one-shot
run keys, counts and drops each chunk, its rows gathered into the
counting thread's buffers, as the paper's disk-resident passes do.
The daemon's per-store engine passes :data:`PIN_BYTES`, so repeat
scans of a store that fits reuse the keys and every row gathered
before; the daemon's warm Phase-2 evaluator
(:class:`~repro.engine.resident.ResidentSampleEvaluator`) passes
``None`` and keeps the whole sample, while a miner's own streams it.

With ``workers > 1`` the same scan counts its chunks on a thread pool:
the scanning thread pads, keys (and, when pinning, digests) each chunk
and offers its rows to a sampler, and each chunk's block kernel, row
gathers included — numpy releases the GIL in them — is one task,
adding into its own zeroed row.  At most ``2 × workers`` chunks are in flight, and the
rows are added to the totals in scan order: the same float additions
as one worker's running sum, so results are bit-identical at every
worker count.  Either way the engine consumes exactly one ``database.scan()``
per batch — the paper's cost model.

:meth:`VectorizedBatchEngine.symbol_matches` is every miner's Phase-1
scan, Algorithm 4.1's pass over each sequence's distinct symbols
(:func:`~repro.engine.kernels.symbol_totals`), which reads the keys
and gathers no factor row.  Given a
:class:`~repro.core.sequence.SequentialSampler` it offers the sampler
every chunk in scan order, so Algorithm 4.1's sample is drawn in the
same pass.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase, SequentialSampler
from ..errors import MiningError
from ..obs import (
    FACTOR_CACHE_HITS,
    FACTOR_CACHE_MISSES,
    FACTOR_ROWS_GATHERED,
    Tracer,
)
from .base import MatchEngine, matrix_fingerprint
from .kernels import (
    DATABASE_TOTALS,
    DEFAULT_CHUNK_ROWS,
    DEFAULT_SCORE_DTYPE,
    SYMBOL_TOTALS,
    FactorPin,
    PinSlot,
    WalkBuffers,
    WalkPlan,
    WalkTerms,
    block_totals,
    extended_matrix,
    resolve_score_dtype,
    symbol_terms,
)

#: Environment variable setting the worker count of a run.
WORKERS_ENV_VAR = "NOISYMINE_WORKERS"

#: Factor-pin budget of the daemon's per-store engines.  A database
#: whose symbol keys and factor rows, all of them gathered
#: (``8 (m + 1) + 4`` bytes per symbol, plus padding), would exceed it
#: is not kept: the pin holds all of a database or none of it.
PIN_BYTES = 128 * 1024 * 1024


def resolve_worker_count(requested: Optional[int] = None) -> int:
    """Resolve the worker count of a run.

    An explicit *requested* value wins, then the ``NOISYMINE_WORKERS``
    environment variable, then ``1``: one counting thread unless the
    user asks for more.  Both sources must be ``>= 1``.
    """
    if requested is not None:
        if requested < 1:
            raise MiningError(f"workers must be >= 1, got {requested}")
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


def _chunk_counter(
    kind: str, plan: Optional[WalkPlan], width: int, c_ext: np.ndarray
) -> Tuple[Callable[[PinSlot], np.ndarray], List[WalkBuffers]]:
    """The per-chunk task of one batch — :func:`block_totals` of a slot
    over the extended matrix *c_ext*, into a fresh zeroed row — and the
    list of walk buffers its threads create.

    The matrix rows the kernel reads, split at their floors
    (:func:`~repro.engine.kernels.symbol_terms`), are tabled here once
    per call: every real symbol for Phase 1, or a
    :class:`~repro.engine.kernels.WalkTerms` that splits each sibling
    group of *plan* on first use.  Thread-safe: each thread keeps its
    own walk buffers, which hold a streamed chunk's factor rows and
    count the rows gathered.
    """
    if kind == SYMBOL_TOTALS:
        terms = symbol_terms(c_ext, np.arange(c_ext.shape[0] - 1))
    else:
        terms = WalkTerms(c_ext)
    local = threading.local()
    made: List[WalkBuffers] = []

    def count_chunk(slot: PinSlot) -> np.ndarray:
        buffers = getattr(local, "buffers", None)
        if buffers is None:
            buffers = local.buffers = WalkBuffers()
            made.append(buffers)
        row = np.zeros(width, dtype=np.float64)
        block_totals(slot, c_ext, kind, plan, terms, row, buffers)
        return row

    return count_chunk, made


def _averages(
    patterns: List[Pattern], totals: np.ndarray, count: int
) -> Dict[Pattern, float]:
    """``M(P, D)`` per pattern: one C-level divide plus ``tolist``, the
    same IEEE division as a ``float(total / count)`` per pattern."""
    np.divide(totals, count, out=totals)
    return dict(zip(patterns, totals.tolist()))


class VectorizedBatchEngine(MatchEngine):
    """Whole-batch, whole-chunk evaluation of ``M(P, D)``.

    Parameters
    ----------
    chunk_rows:
        Sequences per padded chunk.  Larger chunks amortise Python
        overhead further but cost up to ``(8 (m+1) + 8) N L`` bytes of
        symbol keys and factor rows each.
    workers:
        Counting threads; ``None`` resolves through
        :func:`resolve_worker_count` (the ``NOISYMINE_WORKERS``
        environment variable, else 1).  With more than one, chunks are
        counted on a thread pool the engine keeps until :meth:`close`.
    pin_bytes:
        Byte budget of :attr:`cache`, the scan's :class:`FactorPin`:
        ``0`` (default) keeps nothing, so every pass streams;
        :data:`PIN_BYTES` keeps a database whose symbol keys and
        factor rows would fit it with every row gathered, all or
        nothing; ``None`` keeps every chunk.  A kept chunk holds its
        keys and the rows walks have read.
    score_dtype:
        dtype of the factor rows and walk planes, ``"float64"``
        (default) or ``"float32"``; totals accumulate in float64
        either way.  Only the Phase-2 sample evaluator scores in
        float32.
    """

    name = "vectorized"

    def __init__(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        workers: Optional[int] = None,
        pin_bytes: Optional[int] = 0,
        score_dtype: str = DEFAULT_SCORE_DTYPE,
    ):
        if chunk_rows < 1:
            raise MiningError(
                f"chunk_rows must be >= 1, got {chunk_rows}"
            )
        self.chunk_rows = chunk_rows
        self.pin_bytes = pin_bytes
        self.score_dtype = resolve_score_dtype(score_dtype)
        self.cache = FactorPin()
        self.workers = resolve_worker_count(workers)
        self._executor: Optional[ThreadPoolExecutor] = None

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
        totals, count, _stack = self._count(
            DATABASE_TOTALS, database, matrix, tracer, len(patterns),
            WalkPlan(patterns),
        )
        return _averages(patterns, totals, count)

    def symbol_matches(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer] = None,
        sampler: Optional[SequentialSampler] = None,
    ) -> np.ndarray:
        totals, count, _stack = self._count(
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
        plan: Optional[WalkPlan] = None,
        sampler: Optional[SequentialSampler] = None,
    ) -> Tuple[np.ndarray, int, int]:
        """``(totals, sequence count, stack bytes)`` of one scan through
        the pin, offering every chunk's rows to *sampler* in scan
        order; *stack bytes* are the largest prefix stack one counting
        thread held."""
        traced = tracer is not None and tracer.enabled
        if traced:
            # Lifetime counters are snapshotted once per call; the
            # per-chunk hot path stays untouched.
            cache0 = (self.cache.hits, self.cache.misses)
        c_ext = extended_matrix(matrix.array).astype(
            self.score_dtype, copy=False
        )
        count_chunk, made = _chunk_counter(kind, plan, width, c_ext)
        pool = self._pool() if self.workers > 1 else None
        totals = np.zeros(width, dtype=np.float64)
        count = 0
        pending: deque = deque()
        try:
            for chunk, slot in self.cache.scan(
                database, self.chunk_rows, c_ext,
                matrix_fingerprint(matrix), budget=self.pin_bytes,
            ):
                count += len(chunk)
                if sampler is not None:
                    sampler.offer_chunk(chunk.ids, chunk.rows)
                if pool is None:
                    totals += count_chunk(slot)
                    continue
                pending.append(pool.submit(count_chunk, slot))
                if len(pending) >= 2 * self.workers:
                    totals += pending.popleft().result()
            while pending:
                totals += pending.popleft().result()
        except BaseException:
            # Return only once no task of this call still runs.
            for future in pending:
                future.cancel()
            wait(pending)
            raise
        if count == 0:
            what = "symbol matches" if kind == SYMBOL_TOTALS else "matches"
            raise MiningError(
                f"cannot compute {what} over an empty database"
            )
        if traced:
            self.note_settings(tracer)
            tracer.count(FACTOR_CACHE_HITS, self.cache.hits - cache0[0])
            tracer.count(FACTOR_CACHE_MISSES, self.cache.misses - cache0[1])
            tracer.count(
                FACTOR_ROWS_GATHERED,
                sum(buffers.gathered for buffers in made),
            )
        return totals, count, max(
            (buffers.stack_nbytes for buffers in made), default=0
        )

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                self.workers, thread_name_prefix="noisymine-count"
            )
        return self._executor

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop the thread pool (a later call starts a new one) and
        drop the pin."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        self.cache.clear()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(chunk_rows={self.chunk_rows}, "
            f"workers={self.workers}, pin_bytes={self.pin_bytes}, "
            f"score_dtype={self.score_dtype!r})"
        )
