"""Depth-first, projection-based mining (the Section 2.2 class).

The paper surveys depth-first miners (FP-growth, FreeSpan, SPADE,
DepthProject) and observes that they "generally perform better than
breadth-first ones if the data is memory-resident, and the advantage
becomes more substantial when the pattern is long" — but rejects them
for its own setting because the data is disk-resident.  This module
implements the class faithfully so the trade-off can be measured.

The search walks the rightward-extension tree depth first.  At each
node the miner holds a **projection** of the database onto the current
pattern: for every sequence, the vector of window-start products of the
pattern against that sequence (zero rows dropped).  Extending the
pattern by one symbol only needs, per sequence, an elementwise multiply
of the retained window products with one gathered compatibility row —
no rescan of the raw data — which is exactly the projection reuse that
makes the depth-first class fast in memory.

Because the whole database must be materialised, the miner reports a
single scan (the one that loads the data); its costs are CPU and
memory, not passes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import PatternConstraints
from ..core.pattern import Pattern, WILDCARD
from ..core.sequence import AnySequenceDatabase
from ..engine import MatchEngine, VectorizedBatchEngine
from ..errors import MiningError
from ..obs import (
    CANDIDATES_GENERATED,
    SCANS,
    Tracer,
    ensure_tracer,
    io_snapshot,
    record_io,
)
from .result import MiningResult


class _Projection:
    """Per-sequence window products for one pattern.

    ``rows`` holds ``(sequence_index, start_positions, products)`` for
    every sequence with at least one non-zero window.
    """

    __slots__ = ("rows", "n_sequences")

    def __init__(
        self,
        rows: List[Tuple[int, np.ndarray, np.ndarray]],
        n_sequences: int,
    ):
        self.rows = rows
        self.n_sequences = n_sequences

    def match(self) -> float:
        """``M(P, D)`` from the retained window products."""
        total = 0.0
        for _index, _starts, products in self.rows:
            total += float(products.max())
        return total / self.n_sequences


class DepthFirstMiner:
    """Projection-based depth-first miner for memory-resident data.

    Produces exactly the same frequent set as
    :class:`~repro.mining.levelwise.LevelwiseMiner`; only the traversal
    and the cost profile differ.
    """

    algorithm = "depthfirst"

    def __init__(
        self,
        matrix: CompatibilityMatrix,
        min_match: float,
        constraints: Optional[PatternConstraints] = None,
        engine: Optional[MatchEngine] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not 0.0 < min_match <= 1.0:
            raise MiningError(f"min_match must lie in (0, 1], got {min_match}")
        self.matrix = matrix
        self.min_match = min_match
        self.constraints = constraints or PatternConstraints()
        self.engine = (
            engine if engine is not None else VectorizedBatchEngine()
        )
        self.tracer = ensure_tracer(tracer)

    def mine(self, database: AnySequenceDatabase) -> MiningResult:
        started = time.perf_counter()
        scans_before = database.scan_count
        tracer = self.tracer

        with tracer.phase("materialize"):
            # Materialise once: the defining assumption of this class.
            io_before = io_snapshot(database)
            sequences: List[np.ndarray] = [
                np.asarray(seq) for _sid, seq in database.scan()
            ]
            tracer.count(SCANS, 1)
            record_io(tracer, database, io_before)
            m = self.matrix.size
            symbol_match = self._symbol_matches(sequences)

        frequent_symbols = [
            d for d in range(m) if symbol_match[d] >= self.min_match
        ]
        frequent: Dict[Pattern, float] = {}
        self._nodes_visited = 0

        with tracer.phase("search"):
            for symbol in frequent_symbols:
                pattern = Pattern.single(symbol)
                projection = self._project_symbol(sequences, symbol)
                frequent[pattern] = float(symbol_match[symbol])
                self._extend(
                    pattern, projection, sequences, frequent_symbols, frequent
                )
            # Every visited tree node is one candidate evaluated against
            # the in-memory projections.
            tracer.count(CANDIDATES_GENERATED, self._nodes_visited)

        scans = database.scan_count - scans_before
        elapsed = time.perf_counter() - started
        return MiningResult(
            frequent=frequent,
            border=Border(frequent, tracer=tracer),
            scans=scans,
            elapsed_seconds=elapsed,
            extras={
                "symbol_match": symbol_match,
                "nodes_visited": self._nodes_visited,
            },
            report=tracer.report(
                algorithm=self.algorithm,
                engine=self.engine.name,
                scans=scans,
                elapsed_seconds=elapsed,
            ),
        )

    # -- internals -----------------------------------------------------------

    def _symbol_matches(self, sequences: List[np.ndarray]) -> np.ndarray:
        # The engine's in-memory Phase-1 kernel (chunked/batched for the
        # vectorized and parallel backends).
        return self.engine.symbol_matches_rows(sequences, self.matrix)

    def _project_symbol(
        self, sequences: List[np.ndarray], symbol: int
    ) -> _Projection:
        rows: List[Tuple[int, np.ndarray, np.ndarray]] = []
        row = self.matrix.array[symbol]
        for index, seq in enumerate(sequences):
            products = row.take(seq)
            starts = np.flatnonzero(products > 0.0)
            if starts.size:
                rows.append((index, starts, products[starts]))
        return _Projection(rows, len(sequences))

    def _extend(
        self,
        pattern: Pattern,
        projection: _Projection,
        sequences: List[np.ndarray],
        frequent_symbols: Sequence[int],
        frequent: Dict[Pattern, float],
    ) -> None:
        """Depth-first recursion over rightward extensions."""
        constraints = self.constraints
        if pattern.weight >= constraints.max_weight:
            return
        for gap in range(constraints.max_gap + 1):
            new_span = pattern.span + gap + 1
            if new_span > constraints.max_span:
                break
            offset = pattern.span + gap
            for symbol in frequent_symbols:
                child = Pattern(
                    list(pattern.elements) + [WILDCARD] * gap + [symbol]
                )
                self._nodes_visited += 1
                child_projection = self._project_extension(
                    projection, sequences, offset, symbol, new_span
                )
                value = child_projection.match()
                if value >= self.min_match:
                    frequent[child] = value
                    self._extend(
                        child,
                        child_projection,
                        sequences,
                        frequent_symbols,
                        frequent,
                    )

    def _project_extension(
        self,
        projection: _Projection,
        sequences: List[np.ndarray],
        offset: int,
        symbol: int,
        new_span: int,
    ) -> _Projection:
        """Multiply the retained window products by one more position."""
        row = self.matrix.array[symbol]
        rows: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for index, starts, products in projection.rows:
            seq = sequences[index]
            limit = len(seq) - new_span + 1
            if limit <= 0:
                continue
            keep = starts < limit
            if not keep.any():
                continue
            starts_kept = starts[keep]
            extended = products[keep] * row.take(seq[starts_kept + offset])
            positive = extended > 0.0
            if positive.any():
                rows.append(
                    (index, starts_kept[positive], extended[positive])
                )
        return _Projection(rows, projection.n_sequences)
