"""Phase 2: three-way pattern classification on the in-memory sample.

Given the Phase-1 outputs (exact per-symbol matches over the full
database and a uniform random sample), this module runs a breadth-first
search **on the sample only** and labels every candidate pattern:

* ``frequent``   — sample match above ``min_match + ε``,
* ``ambiguous``  — sample match within the ``±ε`` band,
* ``infrequent`` — sample match below ``min_match - ε``,

where ``ε`` is the Chernoff band for the pattern's restricted spread
(Claims 4.1/4.2).  Candidates are extended as long as they are not
infrequent: by the Apriori property a pattern is worth examining iff
every subpattern is frequent-or-ambiguous.

The output is the pair of borders the paper calls FQT and INFQT,
together with per-pattern labels, sample matches and band widths.
Sample scans are free in the paper's cost model (the sample lives in
memory), so this phase contributes no database passes.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional, Sequence, Set

import numpy as np

from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import PatternConstraints, generate_candidates
from ..core.latticekernels import batch_restricted_spread
from ..core.pattern import Pattern
from ..core.sequence import SequenceDatabase
from ..errors import MiningError
from .chernoff import (
    AMBIGUOUS,
    FREQUENT,
    INFREQUENT,
    chernoff_epsilon,
    classify_value,
)
from ..engine import MatchEngine, ResidentSampleEvaluator, sibling_order
from ..obs import (
    CANDIDATES_GENERATED,
    SAMPLE_PATTERNS_COUNTED,
    SAMPLE_SCANS,
    Tracer,
    ensure_tracer,
)
from .counting import count_matches_batched
from .result import SampleClassification


def classify_on_sample(
    sample: SequenceDatabase,
    matrix: CompatibilityMatrix,
    min_match: float,
    delta: float,
    symbol_match: Sequence[float],
    constraints: Optional[PatternConstraints] = None,
    use_restricted_spread: bool = True,
    exact: bool = False,
    engine: Optional[MatchEngine] = None,
    tracer: Optional[Tracer] = None,
) -> SampleClassification:
    """Run the Phase-2 breadth-first classification.

    Parameters
    ----------
    sample:
        The in-memory sample drawn during Phase 1.
    symbol_match:
        Exact per-symbol matches over the **full** database (Phase 1);
        symbols are decided exactly, and the per-pattern restricted
        spread is derived from these values.
    use_restricted_spread:
        When ``False``, the default spread ``R = 1`` is used for every
        pattern — the configuration Figure 11(b) compares against.
    delta:
        Chernoff failure probability; confidence is ``1 - delta``.
    exact:
        The sample *is* the full database: matches are exact, the band
        collapses to zero and no pattern stays ambiguous.  A pattern is
        then frequent iff its (exact) match reaches ``min_match`` — the
        zero-width band must not leave threshold-exact patterns
        ambiguous.  Used by the miner when the database fits in memory.
    engine:
        Engine counting the BFS levels on the sample.  ``None`` runs a
        fresh :class:`~repro.engine.resident.ResidentSampleEvaluator`
        that pins the sample on the first level's scan and extends each
        candidate's score plane incrementally from its parent's; the
        plane store dies with the phase.  A long-lived caller (the
        mining daemon) passes a warm evaluator instead: its pin
        survives across runs, and the content-digest pin check makes
        reuse safe — a different sample transparently re-pins.
    tracer:
        Optional :class:`repro.obs.Tracer`; records candidate counts
        and in-memory sample scans (under the ``sample_scans`` counter,
        kept apart from full-database ``scans``).
    """
    constraints = constraints or PatternConstraints()
    tracer = ensure_tracer(tracer)
    if engine is None:
        engine = ResidentSampleEvaluator()
    if not 0.0 < min_match <= 1.0:
        raise MiningError(f"min_match must lie in (0, 1], got {min_match}")
    n = len(sample)

    symbol_match = np.asarray(symbol_match, dtype=np.float64)
    if symbol_match.shape != (matrix.size,):
        raise MiningError(
            f"symbol_match must have shape ({matrix.size},), "
            f"got {symbol_match.shape}"
        )

    # Level 1: symbols are decided exactly by the Phase-1 full scan.
    frequent_symbols = [
        d for d in range(matrix.size) if symbol_match[d] >= min_match
    ]
    # Degenerate-band check: when the Chernoff half-width reaches the
    # threshold, the lower band edge hits zero, no pattern can ever be
    # labelled infrequent, and the candidate space explodes.  The fix is
    # a larger sample, a larger delta, or a higher threshold.
    worst_spread = (
        max((float(symbol_match[d]) for d in frequent_symbols), default=1.0)
        if use_restricted_spread
        else 1.0
    )
    worst_epsilon = chernoff_epsilon(worst_spread, delta, n)
    if not exact and worst_epsilon >= min_match:
        warnings.warn(
            f"Chernoff band half-width ({worst_epsilon:.3f}) reaches the "
            f"min_match threshold ({min_match}); no pattern can be ruled "
            "out on this sample and candidate enumeration may explode. "
            "Increase sample_size, increase delta, or raise min_match.",
            RuntimeWarning,
            stacklevel=2,
        )
    labels: Dict[Pattern, str] = {}
    sample_matches: Dict[Pattern, float] = {}
    epsilons: Dict[Pattern, float] = {}
    fqt = Border(tracer=tracer)
    infqt = Border(tracer=tracer)
    survivors: Set[Pattern] = set()
    for d in range(matrix.size):
        pattern = Pattern.single(d)
        value = float(symbol_match[d])
        sample_matches[pattern] = value
        epsilons[pattern] = 0.0  # exact, no band
        if value >= min_match:
            labels[pattern] = FREQUENT
            fqt.add(pattern)
            infqt.add(pattern)
            survivors.add(pattern)
        else:
            labels[pattern] = INFREQUENT

    # Memoized Chernoff half-widths: *delta* and *n* are fixed for the
    # whole run and the distinct restricted spreads per level number in
    # the handful (one per minimum symbol match), so the per-candidate
    # sqrt+log collapses to a dict lookup.
    epsilon_cache: Dict[float, float] = {}

    def banded_epsilon(spread: float) -> float:
        epsilon = epsilon_cache.get(spread)
        if epsilon is None:
            epsilon = epsilon_cache[spread] = chernoff_epsilon(
                spread, delta, n
            )
        return epsilon

    level = 1
    while survivors and level < constraints.max_weight:
        candidates = generate_candidates(
            survivors, frequent_symbols, constraints, tracer=tracer,
        )
        if not candidates:
            break
        level += 1
        tracer.count(CANDIDATES_GENERATED, len(candidates))
        ordered = sorted(candidates)
        # The restricted spread of the whole level in one batched
        # gather; each pattern's spread is consumed twice below (zero
        # shortcut + Chernoff band).
        if use_restricted_spread:
            spread_of = dict(
                zip(ordered, batch_restricted_spread(ordered, symbol_match))
            )
        else:
            spread_of = {}
        # A zero restricted spread means some symbol of the pattern has
        # match 0 over the full database, so the pattern's match is
        # provably 0 (Claim 4.2): classify it infrequent immediately.
        # Without this, the zero-width Chernoff band could leave such a
        # pattern ambiguous and Phase 3 would burn probe scans on it.
        countable = []
        for pattern in ordered:
            if use_restricted_spread and spread_of[pattern] == 0.0:
                labels[pattern] = INFREQUENT
                sample_matches[pattern] = 0.0
                epsilons[pattern] = 0.0
            else:
                countable.append(pattern)
        if isinstance(engine, ResidentSampleEvaluator):
            # Hand the level over in sibling order: same-parent groups
            # stay contiguous, so a memory budget splitting the batch
            # cuts through at most one sibling group per scan boundary
            # and each parent plane is derived once.  Per-pattern match
            # values are order-independent, so labels are unchanged.
            countable = sibling_order(countable)
        matches = count_matches_batched(
            countable, sample, matrix, engine=engine, tracer=tracer,
            scan_counter=SAMPLE_SCANS,
            patterns_counter=SAMPLE_PATTERNS_COUNTED,
        )
        next_survivors: Set[Pattern] = set()
        for pattern, value in matches.items():
            if exact:
                # Exact matches need no band; value == min_match is
                # frequent (the same >= rule that decides symbols), not
                # ambiguous as the zero-width classify_value band would
                # label it.
                epsilon = 0.0
                label = FREQUENT if value >= min_match else INFREQUENT
            else:
                spread = (
                    spread_of[pattern] if use_restricted_spread else 1.0
                )
                epsilon = banded_epsilon(spread)
                label = classify_value(value, min_match, epsilon)
            labels[pattern] = label
            sample_matches[pattern] = value
            epsilons[pattern] = epsilon
            if label == FREQUENT:
                fqt.add(pattern)
            if label != INFREQUENT:
                infqt.add(pattern)
                next_survivors.add(pattern)
        survivors = next_survivors

    return SampleClassification(
        fqt=fqt,
        infqt=infqt,
        labels=labels,
        sample_matches=sample_matches,
        epsilons=epsilons,
        symbol_match={d: float(v) for d, v in enumerate(symbol_match)},
    )


def ambiguous_count(classification: SampleClassification) -> int:
    """Number of patterns labelled ambiguous (Figures 10-12 metric)."""
    return sum(
        1 for label in classification.labels.values() if label == AMBIGUOUS
    )
