"""Breadth-first (Apriori-style) mining under the match metric.

This is the "direct generalisation of existing algorithms" the paper
uses as its conceptual starting point: the classical level-wise search
with match counters instead of support counters.  It is exact, simple,
and — as the paper argues — slow for long patterns on disk-resident
data, because every lattice level costs at least one full database scan.

It doubles as the exact reference miner in tests and as the engine that
produces the per-level candidate counts of Figure 9.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Set


from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import PatternConstraints, generate_candidates
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..engine import MatchEngine, select_engine
from ..errors import MiningError
from ..obs import (
    CANDIDATES_GENERATED,
    SCANS,
    Tracer,
    ensure_tracer,
    io_snapshot,
    record_io,
)
from .counting import count_matches_batched, validate_memory_capacity
from .result import LevelStats, MiningResult


class LevelwiseMiner:
    """Exact Apriori mining of all frequent patterns by match.

    Parameters
    ----------
    matrix:
        The compatibility matrix.  Pass
        :meth:`CompatibilityMatrix.identity` to obtain the classical
        support model (match degenerates to support).
    min_match:
        The frequency threshold in ``(0, 1]``.
    constraints:
        Structural bounds on enumerated patterns.
    memory_capacity:
        Maximum pattern counters per database pass (``None`` =
        unbounded, i.e. one scan per lattice level).
    engine:
        Match engine for every counting pass; ``None`` builds one with
        :func:`~repro.engine.select_engine`.
    tracer:
        Optional :class:`repro.obs.Tracer`; records one ``phase1-scan``
        span plus one ``level-k`` span per lattice level and attaches a
        :class:`repro.obs.RunReport` to the result.
    """

    algorithm = "levelwise"

    def __init__(
        self,
        matrix: CompatibilityMatrix,
        min_match: float,
        constraints: Optional[PatternConstraints] = None,
        memory_capacity: Optional[int] = None,
        engine: Optional[MatchEngine] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not 0.0 < min_match <= 1.0:
            raise MiningError(
                f"min_match must lie in (0, 1], got {min_match}"
            )
        validate_memory_capacity(memory_capacity)
        self.matrix = matrix
        self.min_match = min_match
        self.constraints = constraints or PatternConstraints()
        self.memory_capacity = memory_capacity
        self.engine = engine if engine is not None else select_engine()
        self.tracer = ensure_tracer(tracer)

    def mine(self, database: AnySequenceDatabase) -> MiningResult:
        """Run the full breadth-first search over *database*."""
        started = time.perf_counter()
        scans_before = database.scan_count
        tracer = self.tracer

        with tracer.phase("phase1-scan"):
            io_before = io_snapshot(database)
            symbol_match = self.engine.symbol_matches(
                database, self.matrix, tracer=tracer
            )  # one scan
            tracer.count(SCANS, 1)
            record_io(tracer, database, io_before)
        frequent_symbols = [
            d
            for d in range(self.matrix.size)
            if symbol_match[d] >= self.min_match
        ]
        frequent: Dict[Pattern, float] = {
            Pattern.single(d): float(symbol_match[d])
            for d in frequent_symbols
        }
        level_stats = [
            LevelStats(
                level=1,
                candidates=self.matrix.size,
                frequent=len(frequent_symbols),
            )
        ]

        current: Set[Pattern] = set(frequent)
        level = 1
        while current and level < self.constraints.max_weight:
            candidates = generate_candidates(
                current, frequent_symbols, self.constraints,
                tracer=tracer,
            )
            if not candidates:
                break
            level += 1
            with tracer.phase(f"level-{level}"):
                tracer.count(CANDIDATES_GENERATED, len(candidates))
                matches = count_matches_batched(
                    sorted(candidates),
                    database,
                    self.matrix,
                    self.memory_capacity,
                    engine=self.engine,
                    tracer=tracer,
                )
                survivors = {
                    p: v for p, v in matches.items() if v >= self.min_match
                }
            frequent.update(survivors)
            level_stats.append(
                LevelStats(
                    level=level,
                    candidates=len(candidates),
                    frequent=len(survivors),
                )
            )
            current = set(survivors)

        scans = database.scan_count - scans_before
        elapsed = time.perf_counter() - started
        return MiningResult(
            frequent=frequent,
            border=Border(frequent, tracer=tracer),
            scans=scans,
            elapsed_seconds=elapsed,
            level_stats=level_stats,
            extras={"symbol_match": symbol_match},
            report=tracer.report(
                algorithm=self.algorithm,
                engine=self.engine.name,
                scans=scans,
                elapsed_seconds=elapsed,
            ),
        )


def mine_support(
    database: AnySequenceDatabase,
    alphabet_size: int,
    min_support: float,
    constraints: Optional[PatternConstraints] = None,
    memory_capacity: Optional[int] = None,
    engine: Optional[MatchEngine] = None,
) -> MiningResult:
    """Classical exact-match support mining.

    Convenience wrapper: level-wise mining with the identity
    compatibility matrix, under which ``match == support`` (the paper's
    bridge property, Section 3 item 3).
    """
    miner = LevelwiseMiner(
        CompatibilityMatrix.identity(alphabet_size),
        min_support,
        constraints=constraints,
        memory_capacity=memory_capacity,
        engine=engine,
    )
    return miner.mine(database)
