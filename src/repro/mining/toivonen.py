"""Sampling-based level-wise search (the Toivonen-style baseline).

This is the second comparison algorithm of Figure 14: like the paper's
miner it samples first, but it finalises the result with a **level-wise**
verification against the full database — one lattice level per pass
(more when the level exceeds the memory budget) — instead of border
collapsing.  When the true border lies far from the border estimated on
the sample, many passes are needed; Figure 14(c) measures exactly that
distance.

The implementation shares Phases 1-2 with the paper's algorithm so the
two differ only in the finalisation strategy, which keeps the
comparison honest.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import PatternConstraints, generate_candidates
from ..core.match import symbol_matches_and_sample
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..engine import (
    MatchEngine,
    ResidentSampleEvaluator,
    VectorizedBatchEngine,
)
from ..errors import MiningError
from ..obs import (
    CANDIDATES_GENERATED,
    SCANS,
    Tracer,
    ensure_tracer,
    io_snapshot,
    record_io,
)
from .ambiguous import classify_on_sample, sample_evaluator
from .chernoff import INFREQUENT
from .counting import count_matches_batched, validate_memory_capacity
from .result import LevelStats, MiningResult

import numpy as np


class ToivonenMiner:
    """Sample, then verify level by level against the full database."""

    algorithm = "toivonen"

    def __init__(
        self,
        matrix: CompatibilityMatrix,
        min_match: float,
        sample_size: int,
        delta: float = 1e-4,
        constraints: Optional[PatternConstraints] = None,
        memory_capacity: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        engine: Optional[MatchEngine] = None,
        tracer: Optional[Tracer] = None,
        sample_engine: Optional[MatchEngine] = None,
        score_dtype: Optional[str] = None,
    ):
        if not 0.0 < min_match <= 1.0:
            raise MiningError(f"min_match must lie in (0, 1], got {min_match}")
        validate_memory_capacity(memory_capacity)
        self.matrix = matrix
        self.min_match = min_match
        self.sample_size = sample_size
        self.delta = delta
        self.constraints = constraints or PatternConstraints()
        self.memory_capacity = memory_capacity
        self.rng = rng or np.random.default_rng()
        self.engine = (
            engine if engine is not None else VectorizedBatchEngine()
        )
        self.tracer = ensure_tracer(tracer)
        # Phase 2's engine: a caller's warm evaluator, else one of our
        # own at the run's worker count that streams the sample, closed
        # after each Phase 2.
        self._owns_sample_engine = sample_engine is None
        self.sample_engine = sample_engine or ResidentSampleEvaluator(
            score_dtype=score_dtype,
            workers=getattr(self.engine, "workers", None), pin_bytes=0,
        )

    def mine(self, database: AnySequenceDatabase) -> MiningResult:
        started = time.perf_counter()
        scans_before = database.scan_count
        tracer = self.tracer
        tracer.note("requested_sample_size", self.sample_size)
        tracer.note(
            "effective_sample_size", min(self.sample_size, len(database))
        )

        # Phase 1 (shared): symbol matches + sample in one pass.
        with tracer.phase("phase1-scan"):
            io_before = io_snapshot(database)
            symbol_match, sample = symbol_matches_and_sample(
                database, self.matrix, self.sample_size, self.rng,
                engine=self.engine, tracer=tracer,
            )
            tracer.count(SCANS, 1)
            record_io(tracer, database, io_before)
        # Phase 2 (shared): classify candidates on the sample; every
        # pattern that is not clearly infrequent must be verified.
        with tracer.phase("phase2-sample-mining"), sample_evaluator(
            self.sample_engine, self._owns_sample_engine
        ) as sample_engine:
            classification = classify_on_sample(
                sample,
                self.matrix,
                self.min_match,
                self.delta,
                symbol_match,
                self.constraints,
                engine=sample_engine,
                tracer=tracer,
            )
        to_verify: Dict[int, List[Pattern]] = {}
        for pattern, label in classification.labels.items():
            if label != INFREQUENT and pattern.weight >= 2:
                to_verify.setdefault(pattern.weight, []).append(pattern)

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
            LevelStats(1, self.matrix.size, len(frequent_symbols))
        ]

        # Level-wise finalisation: verify the sampled candidates level by
        # level, then keep extending past the sampled border if the real
        # border turns out to lie beyond it.
        current: Set[Pattern] = set(frequent)
        level = 1
        while current and level < self.constraints.max_weight:
            level += 1
            candidates = set(to_verify.get(level, []))
            # Apriori extension from the verified previous level, in case
            # the sample under-estimated the border.
            candidates |= generate_candidates(
                current, frequent_symbols, self.constraints,
                tracer=tracer,
            )
            candidates = {
                c
                for c in candidates
                if all(
                    sub in frequent
                    for sub in c.immediate_subpatterns()
                    if self.constraints.admits(sub)
                )
            }
            if not candidates:
                break
            with tracer.phase(f"verify-level-{level}"):
                tracer.count(CANDIDATES_GENERATED, len(candidates))
                matches = count_matches_batched(
                    sorted(candidates, key=Pattern.sort_key),
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
                LevelStats(level, len(candidates), len(survivors))
            )
            current = set(survivors)

        border = Border(frequent, tracer=tracer)
        estimated_border = classification.fqt
        scans = database.scan_count - scans_before
        elapsed = time.perf_counter() - started
        return MiningResult(
            frequent=frequent,
            border=border,
            scans=scans,
            elapsed_seconds=elapsed,
            level_stats=level_stats,
            extras={
                "symbol_match": symbol_match,
                "estimated_border": estimated_border,
                "border_distance": border.level_distance(estimated_border),
                "ambiguous_patterns": classification.ambiguous_count(),
            },
            report=tracer.report(
                algorithm=self.algorithm,
                engine=self.engine.name,
                scans=scans,
                elapsed_seconds=elapsed,
            ),
        )
