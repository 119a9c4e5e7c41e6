"""Pincer-search adapted to the match metric.

Lin & Kedem's Pincer-search — cited by the paper alongside Max-Miner as
the look-ahead family — runs the classical bottom-up level-wise search
while simultaneously maintaining a top-down *maximum frequent candidate
set* (MFCS): a small antichain of long patterns believed frequent.
Each scan counts both the current level's candidates and the MFCS
elements; a frequent MFCS element certifies its whole downward closure
at once, and an infrequent one is split into maximal subpatterns that
avoid the newly found infrequent pattern.

Sequence adaptation.  Itemset Pincer-search initialises the MFCS with
the single set of all items; for sequential patterns there is no "top"
element, so the MFCS is seeded after the first counted level by
suffix-prefix chaining of the frequent patterns (the same join used by
our Max-Miner adaptation), and the split step replaces an infrequent
MFCS element with its maximal subpatterns that remain supersets of some
current frequent pattern.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set


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


class PincerMiner:
    """Bottom-up level-wise search with a top-down MFCS (look-ahead)."""

    algorithm = "pincer"

    def __init__(
        self,
        matrix: CompatibilityMatrix,
        min_match: float,
        constraints: Optional[PatternConstraints] = None,
        memory_capacity: Optional[int] = None,
        mfcs_limit: int = 12,
        collect_exact_matches: bool = True,
        engine: Optional[MatchEngine] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not 0.0 < min_match <= 1.0:
            raise MiningError(f"min_match must lie in (0, 1], got {min_match}")
        if mfcs_limit < 0:
            raise MiningError(f"mfcs_limit must be >= 0, got {mfcs_limit}")
        validate_memory_capacity(memory_capacity)
        self.matrix = matrix
        self.min_match = min_match
        self.constraints = constraints or PatternConstraints()
        self.memory_capacity = memory_capacity
        self.mfcs_limit = mfcs_limit
        self.collect_exact_matches = collect_exact_matches
        self.engine = (
            engine if engine is not None else VectorizedBatchEngine()
        )
        self.tracer = ensure_tracer(tracer)

    def mine(self, database: AnySequenceDatabase) -> MiningResult:
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
        maximal = Border(frequent, tracer=tracer)
        mfcs: Set[Pattern] = set()
        level_stats = [
            LevelStats(1, self.matrix.size, len(frequent_symbols))
        ]
        skipped: Set[Pattern] = set()
        current: Set[Pattern] = set(frequent)
        level = 1
        mfcs_hits = 0
        while current and level < self.constraints.max_weight:
            candidates = generate_candidates(
                current | skipped, frequent_symbols, self.constraints,
                tracer=tracer,
            )
            if not candidates:
                break
            level += 1
            with tracer.phase(f"level-{level}"):
                tracer.count(CANDIDATES_GENERATED, len(candidates))
                covered = {c for c in candidates if maximal.covers(c)}
                to_count = sorted(candidates - covered)
                probes = sorted(mfcs - set(to_count))
                matches = count_matches_batched(
                    to_count + probes,
                    database,
                    self.matrix,
                    self.memory_capacity,
                    engine=self.engine,
                    tracer=tracer,
                )
                survivors: Set[Pattern] = set()
                for pattern in to_count:
                    if matches[pattern] >= self.min_match:
                        frequent[pattern] = matches[pattern]
                        survivors.add(pattern)
                        maximal.add(pattern)
                for probe in probes:
                    if matches[probe] >= self.min_match:
                        mfcs_hits += 1
                        frequent[probe] = matches[probe]
                        maximal.add(probe)
                        mfcs.discard(probe)
                    else:
                        mfcs = self._split_mfcs(mfcs, probe, survivors)
            level_stats.append(
                LevelStats(
                    level, len(candidates), len(survivors) + len(covered)
                )
            )
            mfcs = self._refresh_mfcs(mfcs, survivors, frequent)
            skipped = covered
            current = survivors

        if self.collect_exact_matches:
            missing = [
                pattern
                for pattern in maximal.downward_closure()
                if pattern not in frequent
                and self.constraints.admits(pattern)
            ]
            if missing:
                with tracer.phase("fill-matches"):
                    frequent.update(
                        count_matches_batched(
                            sorted(missing),
                            database,
                            self.matrix,
                            self.memory_capacity,
                            engine=self.engine,
                            tracer=tracer,
                        )
                    )

        scans = database.scan_count - scans_before
        elapsed = time.perf_counter() - started
        return MiningResult(
            frequent=frequent,
            border=Border(frequent, tracer=tracer),
            scans=scans,
            elapsed_seconds=elapsed,
            level_stats=level_stats,
            extras={
                "symbol_match": symbol_match,
                "mfcs_hits": mfcs_hits,
            },
            report=tracer.report(
                algorithm=self.algorithm,
                engine=self.engine.name,
                scans=scans,
                elapsed_seconds=elapsed,
            ),
        )

    # -- MFCS maintenance --------------------------------------------------------

    def _refresh_mfcs(
        self,
        mfcs: Set[Pattern],
        survivors: Set[Pattern],
        frequent: Dict[Pattern, float],
    ) -> Set[Pattern]:
        """Re-seed the MFCS by chaining the current level's survivors."""
        if not survivors or self.mfcs_limit == 0:
            return set()
        successors: Dict[tuple, List[Pattern]] = {}
        for pattern in survivors:
            successors.setdefault(pattern.elements[:-1], []).append(pattern)
        for options in successors.values():
            options.sort(key=lambda p: -frequent.get(p, 0.0))
        ranked = sorted(survivors, key=lambda p: -frequent.get(p, 0.0))
        fresh: Set[Pattern] = set()
        for pattern in ranked[: self.mfcs_limit]:
            chained = self._chain(pattern, successors)
            if chained.weight > pattern.weight:
                fresh.add(chained)
        # Keep surviving old elements that are still meaningful.
        fresh |= {p for p in mfcs if p.weight > max(
            s.weight for s in survivors
        )}
        return set(sorted(fresh)[: self.mfcs_limit])

    def _chain(
        self, pattern: Pattern, successors: Dict[tuple, List[Pattern]]
    ) -> Pattern:
        elements = list(pattern.elements)
        overlap = len(elements) - 1
        weight = pattern.weight
        seen = {tuple(elements)}
        while (
            weight < self.constraints.max_weight
            and len(elements) < self.constraints.max_span
        ):
            key = tuple(elements[len(elements) - overlap :])
            options = successors.get(key)
            if not options:
                break
            extended = None
            for option in options:
                candidate = tuple(elements) + (option.elements[-1],)
                if candidate not in seen:
                    extended = candidate
                    break
            if extended is None:
                break
            seen.add(extended)
            elements = list(extended)
            weight += 1
        return Pattern(elements)

    def _split_mfcs(
        self,
        mfcs: Set[Pattern],
        infrequent: Pattern,
        survivors: Set[Pattern],
    ) -> Set[Pattern]:
        """Pincer split: replace an infrequent MFCS element with its
        maximal subpatterns that still extend a current survivor."""
        result = set(mfcs)
        result.discard(infrequent)
        if infrequent.weight <= 2:
            return result
        for sub in infrequent.immediate_subpatterns():
            if not self.constraints.admits(sub):
                continue
            if any(s.is_subpattern_of(sub) for s in survivors):
                result.add(sub)
        return set(sorted(result)[: self.mfcs_limit])
