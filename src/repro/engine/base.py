"""The :class:`MatchEngine` protocol.

A match engine is the execution layer behind every ``M(P, D)``
evaluation in the repository: miners hand a batch of patterns to
:func:`repro.mining.counting.count_matches_batched`, which dispatches
each memory-capacity-sized batch to an engine.  The engine owns *how*
the batch is evaluated; the paper's observable cost model — exactly
one ``database.scan()`` per dispatched batch — is part of the protocol
contract.

Runs count full databases with
:class:`~repro.engine.vectorized.VectorizedBatchEngine` — every
miner's Phase-1 scan and sample included — and Phase 2 of the sampling
miners with :class:`~repro.engine.resident.ResidentSampleEvaluator`.
Miners accept any :class:`MatchEngine` instance, which is how tests
substitute an oracle.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase, SequentialSampler
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
        counters on it (factor-pin traffic).  It
        never changes results or scan accounting; passing ``None``
        must be free.
        """

    def symbol_matches(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: "Optional[Tracer]" = None,
        sampler: "Optional[SequentialSampler]" = None,
    ) -> np.ndarray:
        """Phase 1: the match of every 1-pattern, in **one** scan.

        A *sampler* is offered every ``(id, row)`` of that scan in scan
        order, so the same pass draws Algorithm 4.1's sample.  Only
        engines that count full databases implement it: the resident
        evaluator counts Phase 2 alone.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not count Phase 1"
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker pools, factor pins).
        Idempotent."""

    def __enter__(self) -> "MatchEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def matrix_fingerprint(matrix: CompatibilityMatrix) -> "tuple":
    """A cheap, content-based pin key component for a matrix."""
    return (matrix.size, hash(matrix))


__all__ = [
    "MatchEngine",
    "matrix_fingerprint",
]
