"""Sampling-based level-wise search (the Toivonen-style baseline).

This is the second comparison algorithm of Figure 14: like the paper's
miner it samples first, but it finalises the result with a **level-wise**
verification against the full database — one lattice level per pass
(more when the level exceeds the memory budget) — instead of border
collapsing.  When the true border lies far from the border estimated on
the sample, many passes are needed; Figure 14(c) measures exactly that
distance.

It is the paper's miner with that last step swapped for the level-wise
miner's loop, so the two differ only in the finalisation strategy,
which keeps the comparison honest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import PatternConstraints
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..engine import MatchEngine
from ..obs import Tracer
from .chernoff import INFREQUENT
from .levelwise import level_search
from .miner import BorderCollapsingMiner
from .result import LevelStats, SampleClassification


class ToivonenMiner(BorderCollapsingMiner):
    """Sample, then verify level by level against the full database.

    Parameters are :class:`~repro.mining.miner.BorderCollapsingMiner`'s
    without ``use_restricted_spread`` (Phase 2 always applies it).
    """

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
        super().__init__(
            matrix, min_match, sample_size, delta, constraints,
            memory_capacity, rng=rng, engine=engine, tracer=tracer,
            sample_engine=sample_engine, score_dtype=score_dtype,
        )

    def _finalize(
        self, database: AnySequenceDatabase, symbol_match: np.ndarray,
        classification: SampleClassification,
    ) -> Tuple[Dict[Pattern, float], Border, List[LevelStats],
               Dict[str, object]]:
        """Verify level by level: every pattern the sample did not rule
        out seeds its level, and the Apriori extension of each verified
        level keeps going past the sampled border when the sample
        under-estimated it (``verify-level-k`` spans)."""
        seeds: Dict[int, List[Pattern]] = {}
        for pattern, label in classification.labels.items():
            if label != INFREQUENT and pattern.weight >= 2:
                seeds.setdefault(pattern.weight, []).append(pattern)
        frequent, level_stats = level_search(
            self, database, symbol_match, span="verify-level", seeds=seeds
        )
        border = Border(frequent, tracer=self.tracer)
        return frequent, border, level_stats, {
            "estimated_border": classification.fqt,
            "border_distance": border.level_distance(classification.fqt),
        }
