"""Max-Miner adapted to the match metric (the paper's deterministic
baseline, Figure 14).

Bayardo's Max-Miner accelerates long-pattern mining by *look-ahead*:
alongside the candidates of the current level it also counts, for each
candidate group, the longest pattern in the group's subtree; when that
long pattern turns out frequent, the whole subtree is known frequent
without examining it level by level.

Adaptation to sequential patterns.  Our candidate tree is rightward
extension (a node's children append one symbol after an optional
wildcard gap), so a "candidate group" is a pattern plus its viable
extensions.  The look-ahead probe for a node is the *longest pattern
consistent with the current frequent level under the Apriori property*:
survivors of level ``k`` that overlap by ``k-1`` elements are chained
(suffix-prefix join, the sequence analogue of counting
``head(g) ∪ tail(g)``), greedily following the highest-match successor.
When a probe is frequent, all its subpatterns are frequent by the
Apriori property, so entire levels of candidates are skipped; that is
where the scan savings come from.

As in the original, look-ahead discovers the *maximal* frequent patterns
cheaply; per-pattern match values for the skipped interior are filled in
by one final batched pass when ``collect_exact_matches`` is set (the
default, so results are directly comparable with the exact level-wise
miner in tests).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set


from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import (
    PatternConstraints,
    generate_candidates,
)
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


class MaxMiner:
    """Look-ahead mining of frequent patterns under the match metric.

    Parameters mirror :class:`~repro.mining.levelwise.LevelwiseMiner`;
    ``lookahead_per_level`` bounds how many greedy probes are counted
    per level (each probe is one extra counter in the scan batch).
    """

    algorithm = "maxminer"

    def __init__(
        self,
        matrix: CompatibilityMatrix,
        min_match: float,
        constraints: Optional[PatternConstraints] = None,
        memory_capacity: Optional[int] = None,
        lookahead_per_level: int = 16,
        collect_exact_matches: bool = True,
        engine: Optional[MatchEngine] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not 0.0 < min_match <= 1.0:
            raise MiningError(f"min_match must lie in (0, 1], got {min_match}")
        if lookahead_per_level < 0:
            raise MiningError(
                f"lookahead_per_level must be >= 0, got {lookahead_per_level}"
            )
        validate_memory_capacity(memory_capacity)
        self.matrix = matrix
        self.min_match = min_match
        self.constraints = constraints or PatternConstraints()
        self.memory_capacity = memory_capacity
        self.lookahead_per_level = lookahead_per_level
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
        skipped: Set[Pattern] = set()  # frequent via look-ahead, not counted
        level_stats = [
            LevelStats(1, self.matrix.size, len(frequent_symbols))
        ]

        current: Set[Pattern] = set(frequent)
        level = 1
        probes_hit = 0
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
                # Look-ahead savings: candidates already covered by a
                # frequent probe need no counter this round.
                covered = {c for c in candidates if maximal.covers(c)}
                to_count = sorted(candidates - covered, key=Pattern.sort_key)
                probes = self._lookahead_probes(current, frequent, maximal)
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
                    value = matches[pattern]
                    if value >= self.min_match:
                        frequent[pattern] = value
                        survivors.add(pattern)
                        maximal.add(pattern)
                for probe in probes:
                    value = matches[probe]
                    if value >= self.min_match:
                        probes_hit += 1
                        frequent[probe] = value
                        maximal.add(probe)
            level_stats.append(
                LevelStats(level, len(candidates), len(survivors) + len(covered))
            )
            skipped = covered
            current = survivors

        if self.collect_exact_matches:
            with tracer.phase("fill-matches"):
                frequent.update(
                    self._fill_covered_matches(
                        database, maximal, frequent, tracer
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
                "lookahead_hits": probes_hit,
            },
            report=tracer.report(
                algorithm=self.algorithm,
                engine=self.engine.name,
                scans=scans,
                elapsed_seconds=elapsed,
            ),
        )

    # -- internals --------------------------------------------------------------

    def _lookahead_probes(
        self,
        current: Set[Pattern],
        frequent: Dict[Pattern, float],
        maximal: Border,
    ) -> List[Pattern]:
        """Chain overlapping survivors into long probes.

        A survivor ``Q`` continues ``P`` when ``Q``'s first ``k-1``
        elements equal ``P``'s last ``k-1`` elements; following the
        highest-match continuation from each of the best survivors
        yields the longest patterns the current level could support.
        """
        if self.lookahead_per_level == 0 or not current:
            return []
        successors: Dict[tuple, List[Pattern]] = {}
        for pattern in current:
            successors.setdefault(pattern.elements[:-1], []).append(pattern)
        for options in successors.values():
            options.sort(key=lambda p: -frequent.get(p, 0.0))
        ranked = sorted(current, key=lambda p: -frequent.get(p, 0.0))
        probes: List[Pattern] = []
        for pattern in ranked[: self.lookahead_per_level]:
            probe = self._chain_extend(pattern, successors)
            if probe.weight > pattern.weight and not maximal.covers(probe):
                probes.append(probe)
        return list(dict.fromkeys(probes))

    def _chain_extend(
        self,
        pattern: Pattern,
        successors: Dict[tuple, List[Pattern]],
    ) -> Pattern:
        """Follow suffix-prefix joins greedily to the structural bounds."""
        elements = list(pattern.elements)
        overlap = len(pattern.elements) - 1
        weight = pattern.weight
        visited = {tuple(elements)}
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
                if candidate not in visited:
                    extended = candidate
                    break
            if extended is None:
                break
            visited.add(extended)
            elements = list(extended)
            weight += 1
        return Pattern(elements)

    def _fill_covered_matches(
        self,
        database: AnySequenceDatabase,
        maximal: Border,
        known: Dict[Pattern, float],
        tracer: Tracer,
    ) -> Dict[Pattern, float]:
        """One batched pass for patterns frequent-by-coverage but never
        individually counted (so results match the exact miner)."""
        missing = [
            pattern
            for pattern in maximal.downward_closure()
            if pattern not in known and self.constraints.admits(pattern)
        ]
        if not missing:
            return {}
        return count_matches_batched(
            sorted(missing, key=Pattern.sort_key), database, self.matrix, self.memory_capacity,
            engine=self.engine, tracer=tracer,
        )
