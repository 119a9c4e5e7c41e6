"""The paper's end-to-end algorithm: sampling + border collapsing.

:class:`BorderCollapsingMiner` chains the three phases of Section 4:

1. one database scan computes the match of every individual symbol and
   draws a uniform random sample (Algorithm 4.1);
2. an in-memory breadth-first pass over the sample classifies patterns
   as frequent / ambiguous / infrequent with the Chernoff band and the
   restricted spread (Claims 4.1/4.2), producing the FQT and INFQT
   borders;
3. border collapsing probes halfway layers of the ambiguous region
   against the full database until no ambiguity remains
   (Algorithms 4.3/4.4).

The total number of database passes is ``1 + (Phase-3 scans)`` — the
paper's headline result is that this stays at 2-4 where level-wise
verification needs 5-10+.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import PatternConstraints
from ..core.match import symbol_matches_and_sample
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..engine import (
    MatchEngine,
    ResidentSampleEvaluator,
    VectorizedBatchEngine,
)
from ..errors import MiningError
from ..obs import SCANS, Tracer, ensure_tracer, io_snapshot, record_io
from .ambiguous import classify_on_sample, sample_evaluator
from .collapsing import collapse_borders
from .counting import validate_memory_capacity
from .result import MiningResult, SampleClassification


class BorderCollapsingMiner:
    """Probabilistic mining of long noisy patterns in few scans.

    Parameters
    ----------
    matrix:
        Compatibility matrix ``C(true | observed)``.
    min_match:
        Match threshold qualifying frequent patterns.
    sample_size:
        Number of sequences held in memory for Phase 2 (the paper's
        ``n``, bounded by memory capacity).
    delta:
        Chernoff failure probability; the paper uses ``1 - δ = 0.9999``
        by default.
    constraints:
        Structural bounds for candidate enumeration.
    memory_capacity:
        Maximum pattern counters per Phase-3 scan (``None`` =
        unbounded).
    use_restricted_spread:
        Apply Claim 4.2's tightened spread (on by default; Figure 11
        measures the effect of turning it off).
    engine:
        Match engine for every full-database counting pass; ``None``
        builds a :class:`~repro.engine.VectorizedBatchEngine`.  The
        engine never changes results or scan counts, only throughput.
    tracer:
        Optional :class:`repro.obs.Tracer` recording per-phase spans
        and counters; when given, :meth:`mine` attaches a
        :class:`repro.obs.RunReport` to the result.  A tracer records
        one run — create a fresh one per ``mine()`` call.
    sample_engine:
        Engine counting Phase 2 on the sample; ``None`` builds a
        :class:`~repro.engine.resident.ResidentSampleEvaluator` at
        *engine*'s worker count, which streams the sample
        (``pin_bytes=0``) and is closed after each Phase 2.  A
        long-lived caller passes a warm evaluator, which stays open so
        its pin survives across runs.
    score_dtype:
        Scoring dtype of that built evaluator (``None`` resolves
        ``NOISYMINE_SCORE_DTYPE``); a caller's *sample_engine* keeps
        its own.
    """

    algorithm = "border-collapsing"

    def __init__(
        self,
        matrix: CompatibilityMatrix,
        min_match: float,
        sample_size: int,
        delta: float = 1e-4,
        constraints: Optional[PatternConstraints] = None,
        memory_capacity: Optional[int] = None,
        use_restricted_spread: bool = True,
        rng: Optional[np.random.Generator] = None,
        engine: Optional[MatchEngine] = None,
        tracer: Optional[Tracer] = None,
        sample_engine: Optional[MatchEngine] = None,
        score_dtype: Optional[str] = None,
    ):
        if not 0.0 < min_match <= 1.0:
            raise MiningError(f"min_match must lie in (0, 1], got {min_match}")
        if sample_size < 1:
            raise MiningError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        validate_memory_capacity(memory_capacity)
        self.matrix = matrix
        self.min_match = min_match
        self.sample_size = sample_size
        self.delta = delta
        self.constraints = constraints or PatternConstraints()
        self.memory_capacity = memory_capacity
        self.use_restricted_spread = use_restricted_spread
        self.rng = rng or np.random.default_rng()
        self.engine = (
            engine if engine is not None else VectorizedBatchEngine()
        )
        self.tracer = ensure_tracer(tracer)
        self._owns_sample_engine = sample_engine is None
        self.sample_engine = sample_engine or ResidentSampleEvaluator(
            score_dtype=score_dtype,
            workers=getattr(self.engine, "workers", None), pin_bytes=0,
        )

    def mine(self, database: AnySequenceDatabase) -> MiningResult:
        """Run all three phases and return the discovered patterns.

        Match values in the result are exact (full-database) for every
        pattern probed during border collapsing and sample estimates for
        patterns decided by the Chernoff bound alone; the ``extras``
        entry ``"verified"`` lists the exactly-measured ones.
        """
        started = time.perf_counter()
        scans_before = database.scan_count
        tracer = self.tracer
        sample_size = min(self.sample_size, len(database))
        tracer.note("requested_sample_size", self.sample_size)
        tracer.note("effective_sample_size", sample_size)

        # Phase 1 — one scan: per-symbol matches + in-memory sample.
        with tracer.phase("phase1-scan"):
            io_before = io_snapshot(database)
            symbol_match, sample = symbol_matches_and_sample(
                database, self.matrix, sample_size, self.rng,
                engine=self.engine, tracer=tracer,
            )
            tracer.count(SCANS, 1)
            record_io(tracer, database, io_before)

        # Phase 2 — in-memory classification (no database passes).  When
        # the sample is the entire database the estimates are exact and
        # the Chernoff band collapses to zero.
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
                use_restricted_spread=self.use_restricted_spread,
                exact=sample_size >= len(database),
                engine=sample_engine,
                tracer=tracer,
            )

        # Phase 3 — border collapsing over the ambiguous band.
        with tracer.phase("phase3-collapse"):
            outcome = collapse_borders(
                database,
                self.matrix,
                self.min_match,
                classification,
                self.memory_capacity,
                engine=self.engine,
                tracer=tracer,
            )

        frequent = self._assemble_frequent(classification, outcome.verified,
                                           outcome.border)
        scans = database.scan_count - scans_before
        elapsed = time.perf_counter() - started
        return MiningResult(
            frequent=frequent,
            border=outcome.border,
            scans=scans,
            elapsed_seconds=elapsed,
            extras={
                "symbol_match": symbol_match,
                "classification": classification,
                "ambiguous_patterns": classification.ambiguous_count(),
                "verified": dict(outcome.verified),
                "probe_rounds": outcome.probe_rounds,
                "phase3_scans": outcome.scans,
                "sample_size": sample_size,
            },
            report=tracer.report(
                algorithm=self.algorithm,
                engine=self.engine.name,
                scans=scans,
                elapsed_seconds=elapsed,
            ),
        )

    def _assemble_frequent(
        self,
        classification: SampleClassification,
        verified: Dict[Pattern, float],
        border: Border,
    ) -> Dict[Pattern, float]:
        """Attach the best known match value to every frequent pattern.

        Every pattern in the downward closure of the final border was
        evaluated during Phase 2 (candidates only extend surviving
        patterns), so a sample estimate always exists; exact Phase-3
        values take precedence.
        """
        frequent: Dict[Pattern, float] = {}
        for pattern in border.downward_closure():
            if not self.constraints.admits(pattern):
                continue
            if pattern in verified:
                frequent[pattern] = verified[pattern]
            else:
                # Candidates only extend surviving patterns, so every
                # closure member was evaluated during Phase 2.
                frequent[pattern] = classification.sample_matches[pattern]
        return frequent


def mine_noisy_patterns(
    database: AnySequenceDatabase,
    matrix: CompatibilityMatrix,
    min_match: float,
    sample_size: Optional[int] = None,
    **kwargs,
) -> MiningResult:
    """One-call convenience API for the paper's algorithm.

    ``sample_size`` defaults to a quarter of the database (at least one
    sequence), a reasonable stand-in for "whatever fits in memory".

    >>> # doctest-style sketch; see examples/quickstart.py for a runnable
    >>> # end-to-end version.
    """
    if sample_size is None:
        sample_size = max(1, len(database) // 4)
    miner = BorderCollapsingMiner(
        matrix, min_match, sample_size=sample_size, **kwargs
    )
    return miner.mine(database)
