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
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import PatternConstraints, generate_candidates
from ..core.pattern import Pattern
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
        :class:`~repro.engine.VectorizedBatchEngine`.
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
        self.engine = (
            engine if engine is not None else VectorizedBatchEngine()
        )
        self.tracer = ensure_tracer(tracer)

    def mine(self, database: AnySequenceDatabase) -> MiningResult:
        """Run Phase 1, then :meth:`_search`, over *database*."""
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
        frequent, level_stats, extras = self._search(database, symbol_match)

        scans = database.scan_count - scans_before
        elapsed = time.perf_counter() - started
        return MiningResult(
            frequent=frequent,
            border=Border(frequent, tracer=tracer),
            scans=scans,
            elapsed_seconds=elapsed,
            level_stats=level_stats,
            extras={"symbol_match": symbol_match, **extras},
            report=tracer.report(
                algorithm=self.algorithm,
                engine=self.engine.name,
                scans=scans,
                elapsed_seconds=elapsed,
            ),
        )

    def _search(
        self, database: AnySequenceDatabase, symbol_match: Sequence[float]
    ) -> Tuple[Dict[Pattern, float], List[LevelStats], Dict[str, object]]:
        """The search after Phase 1: here the Apriori level loop, one
        ``level-k`` span per level."""
        return (*level_search(self, database, symbol_match), {})


def level_one(
    symbol_match: Sequence[float], min_match: float
) -> Tuple[List[int], Dict[Pattern, float], LevelStats]:
    """Level 1 from Phase 1's symbol matches: the frequent symbols,
    their 1-patterns with matches, and the level's stats."""
    symbols = [
        d for d in range(len(symbol_match)) if symbol_match[d] >= min_match
    ]
    frequent = {Pattern.single(d): float(symbol_match[d]) for d in symbols}
    return symbols, frequent, LevelStats(1, len(symbol_match), len(symbols))


def level_search(
    miner,
    database: AnySequenceDatabase,
    symbol_match: Sequence[float],
    span: str = "level",
    seeds: Optional[Mapping[int, List[Pattern]]] = None,
) -> Tuple[Dict[Pattern, float], List[LevelStats]]:
    """The Apriori level loop after Phase 1, under *miner*'s ``matrix``,
    ``min_match``, ``constraints``, ``memory_capacity``, ``engine`` and
    ``tracer``: generate the next level from the last one's survivors,
    count it in one batched pass over *database* (a ``{span}-k`` span)
    and keep what reaches ``min_match``, until a level is empty.

    *seeds* maps a level to extra candidates counted with it (Toivonen's
    sample-labelled patterns); a seed is kept only when every admissible
    immediate subpattern is already frequent.  Returns ``(frequent,
    level_stats)``.
    """
    constraints, tracer = miner.constraints, miner.tracer
    symbols, frequent, first = level_one(symbol_match, miner.min_match)
    level_stats = [first]
    current: Set[Pattern] = set(frequent)
    level = 1
    while current and level < constraints.max_weight:
        level += 1
        candidates = generate_candidates(
            current, symbols, constraints, tracer=tracer
        )
        candidates.update(
            seed
            for seed in (seeds or {}).get(level, ())
            if all(
                sub in frequent
                for sub in seed.immediate_subpatterns()
                if constraints.admits(sub)
            )
        )
        if not candidates:
            break
        with tracer.phase(f"{span}-{level}"):
            tracer.count(CANDIDATES_GENERATED, len(candidates))
            matches = count_matches_batched(
                sorted(candidates, key=Pattern.sort_key),
                database,
                miner.matrix,
                miner.memory_capacity,
                engine=miner.engine,
                tracer=tracer,
            )
            survivors = {
                p: v for p, v in matches.items() if v >= miner.min_match
            }
        frequent.update(survivors)
        level_stats.append(LevelStats(level, len(candidates), len(survivors)))
        current = set(survivors)
    return frequent, level_stats


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
