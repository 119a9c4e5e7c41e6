"""Batched match counting under a memory budget.

The paper's cost model charges one database pass per batch of pattern
counters that fits in memory.  :func:`count_matches_batched` is the one
place that model is enforced: every miner funnels its full-database
counting through it, so scan counts are comparable across algorithms.

It is also the single dispatch point into the match-execution layer
(:mod:`repro.engine`): the *engine* argument selects which backend
evaluates each batch, while the batching itself — and therefore the
observable ``scan_count`` semantics — stays identical across backends:
exactly ``ceil(n_unique / memory_capacity)`` scans per call, where
``n_unique`` is the number of patterns left after deduplication.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..engine import MatchEngine, VectorizedBatchEngine
from ..errors import MiningError
from ..obs import (
    PATTERNS_COUNTED,
    SCANS,
    Tracer,
    ensure_tracer,
    io_snapshot,
    record_io,
)


def validate_memory_capacity(memory_capacity: Optional[int]) -> None:
    """Reject non-positive memory budgets with one canonical message.

    A scan batch must hold at least one pattern counter;
    ``memory_capacity=0`` would make every counting call an infinite
    loop of empty scans, so it is rejected eagerly (miners call this
    from their constructors, before any scan is consumed).
    """
    if memory_capacity is not None and memory_capacity < 1:
        raise MiningError(
            f"memory_capacity must be >= 1, got {memory_capacity}: the "
            "memory budget is the number of pattern counters held during "
            "one scan, and a scan that can hold no counter can never "
            "make progress (use None for an unbounded budget)"
        )


def count_matches_batched(
    patterns: Iterable[Pattern],
    database: AnySequenceDatabase,
    matrix: CompatibilityMatrix,
    memory_capacity: Optional[int] = None,
    engine: Optional[MatchEngine] = None,
    tracer: Optional[Tracer] = None,
    scan_counter: str = SCANS,
    patterns_counter: str = PATTERNS_COUNTED,
) -> Dict[Pattern, float]:
    """Compute ``M(P, D)`` for every pattern, in as few scans as allowed.

    Parameters
    ----------
    memory_capacity:
        Maximum number of pattern counters held in memory during one
        pass.  ``None`` means unbounded (everything in one scan).
    engine:
        Match-execution engine; ``None`` builds one with
        :class:`~repro.engine.VectorizedBatchEngine`.
    tracer:
        Optional :class:`~repro.obs.Tracer`; each dispatched batch
        counts one *scan_counter* tick and ``len(batch)``
        *patterns_counter* ticks, and is forwarded to the engine for
        backend-level counters (cache traffic, shard dispatch).
    scan_counter / patterns_counter:
        Counter names used for the per-batch accounting.  Phase-2
        callers counting against the in-memory sample pass
        ``"sample_scans"`` / ``"sample_patterns_counted"`` so that the
        ``"scans"`` counter keeps meaning *full-database passes* —
        the paper's cost metric — exactly.

    The number of scans consumed is ``ceil(len(unique patterns) /
    memory_capacity)`` and is observable through the database's
    ``scan_count``; the engine choice never changes it.
    """
    unique = list(dict.fromkeys(patterns))
    if not unique:
        return {}
    validate_memory_capacity(memory_capacity)
    eng = engine if engine is not None else VectorizedBatchEngine()
    tracer = ensure_tracer(tracer)
    io_before = io_snapshot(database)
    batch_size = memory_capacity or len(unique)
    result: Dict[Pattern, float] = {}
    for start in range(0, len(unique), batch_size):
        # Engines consume the database through the chunked scan API
        # (iter_chunks / scan_chunks), so each batch streams row blocks
        # instead of materialising the database; the scan accounting
        # below is unchanged by that.
        batch = unique[start : start + batch_size]
        result.update(
            eng.database_matches(batch, database, matrix, tracer=tracer)
        )
        tracer.count(scan_counter, 1)
        tracer.count(patterns_counter, len(batch))
    # Disk-resident backends accumulate I/O counters during the scans;
    # record the delta on the current span stack (a Phase-3 probe round,
    # a levelwise level, ...), so every phase carries its own traffic.
    record_io(tracer, database, io_before)
    return result
