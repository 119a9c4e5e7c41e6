"""The :class:`MatchEngine` protocol.

A match engine is the execution layer behind every ``M(P, D)``
evaluation in the repository: miners hand a batch of patterns to
:func:`repro.mining.counting.count_matches_batched`, which dispatches
each memory-capacity-sized batch to an engine.  The engine owns *how*
the batch is evaluated; the paper's observable cost model — exactly
one ``database.scan()`` per dispatched batch — is part of the protocol
contract.

Runs count full databases with
:class:`~repro.engine.vectorized.VectorizedBatchEngine` and Phase 2 of
the sampling miners with
:class:`~repro.engine.resident.ResidentSampleEvaluator`.  Miners accept
any :class:`MatchEngine` instance, which is how tests substitute an
oracle.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..errors import MiningError
from ..obs import Tracer


class MatchEngine(abc.ABC):
    """Protocol for match-execution backends.

    Contract
    --------
    * :meth:`database_matches` and :meth:`symbol_matches` consume
      **exactly one** ``database.scan()`` per call, whatever the
      backend does internally — the paper's scan accounting depends on
      it.
    * All engines agree with the per-sequence oracle in
      ``tests/oracles.py`` on every match value.
    """

    #: Name reported in run reports and ``mine --json`` (e.g.
    #: ``"vectorized"``).
    name: str = "abstract"

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
        counters on it (factor-cache traffic, shards dispatched).  It
        never changes results or scan accounting; passing ``None``
        must be free.
        """

    @abc.abstractmethod
    def symbol_matches(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: "Optional[Tracer]" = None,
    ) -> np.ndarray:
        """Phase 1: the match of every 1-pattern, in one scan."""

    @abc.abstractmethod
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

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker pools, caches).  Idempotent."""

    def __enter__(self) -> "MatchEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def matrix_fingerprint(matrix: CompatibilityMatrix) -> "tuple":
    """A cheap, content-based cache key component for a matrix."""
    return (matrix.size, hash(matrix))


def empty_database_guard(count: int) -> None:
    """Raise the reference error message for zero scanned sequences."""
    if count == 0:
        raise MiningError("cannot compute matches over an empty database")


__all__ = [
    "MatchEngine",
    "matrix_fingerprint",
]
