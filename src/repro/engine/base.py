"""The :class:`MatchEngine` protocol and the engine selector.

A match engine is the execution layer behind every ``M(P, D)``
evaluation in the repository: miners hand a batch of patterns to
:func:`repro.mining.counting.count_matches_batched`, which dispatches
each memory-capacity-sized batch to an engine.  The engine owns *how*
the batch is evaluated (batched vectorized kernels, compiled kernels,
a worker pool); the paper's observable cost model — exactly one
``database.scan()`` per dispatched batch — is part of the protocol
contract and is identical across engines.

Runs never pick an engine by name: :func:`repro.engine.select_engine`
chooses one from the platform (compiled kernels when numba imports)
and the worker count.  Miners still accept any :class:`MatchEngine`
instance, which is how tests substitute an oracle.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..core.compatibility import CompatibilityMatrix
from ..core.match import (
    segment_match as _core_segment_match,
    sequence_match as _core_sequence_match,
    symbol_sequence_matches,
)
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase, SequenceLike
from ..errors import MiningError
from ..obs import Tracer


class MatchEngine(abc.ABC):
    """Protocol for match-execution backends.

    Subclasses must implement :meth:`database_matches` and may override
    the other hooks; the defaults delegate to the reference code paths
    in :mod:`repro.core.match`, so a minimal backend only has to supply
    the batched database kernel.

    Contract
    --------
    * :meth:`database_matches` consumes **exactly one**
      ``database.scan()`` per call, whatever the backend does
      internally — the paper's scan accounting depends on it.
    * All engines agree with the per-sequence oracle in
      ``tests/oracles.py`` on every match value; the engines of this
      package are bit-identical to each other at equal ``chunk_rows``.
    """

    #: Name reported in run reports and ``mine --json`` (e.g.
    #: ``"vectorized"``).
    name: str = "abstract"

    # -- single pattern hooks (reference implementations) --------------------

    def segment_match(
        self,
        pattern: Pattern,
        segment: SequenceLike,
        matrix: CompatibilityMatrix,
    ) -> float:
        """``M(P, s)`` for a segment of exactly the pattern's span."""
        return _core_segment_match(pattern, segment, matrix)

    def sequence_match(
        self,
        pattern: Pattern,
        sequence: SequenceLike,
        matrix: CompatibilityMatrix,
    ) -> float:
        """``M(P, S)``: best sliding-window match in one sequence."""
        return _core_sequence_match(pattern, sequence, matrix)

    # -- batched hooks --------------------------------------------------------

    @abc.abstractmethod
    def database_matches(
        self,
        patterns: Sequence[Pattern],
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: "Optional[Tracer]" = None,
    ) -> Dict[Pattern, float]:
        """``M(P, D)`` for a batch of patterns in **one** database scan.

        *tracer* is optional observability: backends record their own
        counters on it (factor-cache hits/misses/evictions, shards
        dispatched, inline fallbacks).  It never changes results or
        scan accounting; passing ``None`` must be free.
        """

    def symbol_matches(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: "Optional[Tracer]" = None,
    ) -> np.ndarray:
        """Phase 1: the match of every 1-pattern, in one scan.

        *tracer* mirrors :meth:`database_matches`: backends with their
        own caches record their traffic on it (the vectorized backend
        reports factor-cache hits/misses), and passing ``None`` is
        free.
        """
        totals = np.zeros(matrix.size, dtype=np.float64)
        count = 0
        for _sid, seq in database.scan():
            totals += symbol_sequence_matches(seq, matrix)
            count += 1
        if count == 0:
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        return totals / count

    def symbol_matches_rows(
        self,
        sequences: Sequence[np.ndarray],
        matrix: CompatibilityMatrix,
    ) -> np.ndarray:
        """Per-symbol matches of already-materialised sequences.

        Used by memory-resident miners (e.g. the depth-first class)
        that hold the database as a list of rows; no scan accounting
        applies.
        """
        if not len(sequences):
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        totals = np.zeros(matrix.size, dtype=np.float64)
        for seq in sequences:
            totals += symbol_sequence_matches(seq, matrix)
        return totals / len(sequences)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker pools, caches).  Idempotent."""

    def __enter__(self) -> "MatchEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def unique_patterns(patterns: Iterable[Pattern]) -> List[Pattern]:
    """Order-preserving deduplication (shared by engines and counting)."""
    return list(dict.fromkeys(patterns))


def matrix_fingerprint(matrix: CompatibilityMatrix) -> "tuple":
    """A cheap, content-based cache key component for a matrix."""
    return (matrix.size, hash(matrix))


def scan_rows(
    database: AnySequenceDatabase,
) -> "tuple[List[int], List[np.ndarray]]":
    """Consume one full scan into ``(ids, rows)`` lists."""
    ids: List[int] = []
    rows: List[np.ndarray] = []
    for sid, seq in database.scan():
        ids.append(sid)
        rows.append(np.asarray(seq))
    return ids, rows


def empty_database_guard(count: int) -> None:
    """Raise the reference error message for zero scanned sequences."""
    if count == 0:
        raise MiningError("cannot compute matches over an empty database")


__all__ = [
    "MatchEngine",
    "matrix_fingerprint",
    "unique_patterns",
]
