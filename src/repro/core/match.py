"""The match metric (Definitions 3.5-3.7) and its vectorised evaluation.

Three levels of aggregation, exactly as in the paper:

* ``M(P, s)`` — the match of pattern ``P`` against an equal-length
  segment ``s`` is the conditional probability that ``s`` is a (noisy)
  occurrence of ``P``:  the product of ``C(p_i, s_i)`` over the
  non-wildcard positions (wildcards contribute factor 1).
* ``M(P, S)`` — the match of ``P`` in a sequence ``S`` is the maximum of
  ``M(P, s)`` over all sliding-window segments of ``S``.
* ``M(P, D)`` — the match of ``P`` in a database ``D`` is the average of
  ``M(P, S)`` over the sequences of ``D``.

The sliding-window evaluation is vectorised: for each fixed pattern
position we gather one row of the compatibility matrix through the whole
sequence and multiply the shifted row slices, giving ``O(k · |S|)`` numpy
work for a weight-``k`` pattern.  :func:`symbol_sequence_matches` is the
per-sequence definition of the Phase-1 symbol match;
:func:`symbol_matches_and_sample` runs Algorithm 4.1's one pass on the
counting engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MiningError
from ..obs import Tracer
from .compatibility import CompatibilityMatrix
from .pattern import Pattern, WILDCARD
from .sequence import (
    AnySequenceDatabase,
    SequenceDatabase,
    SequenceLike,
    SequentialSampler,
    as_sequence_array,
)

if TYPE_CHECKING:  # engine.base imports this package
    from ..engine.base import MatchEngine


def segment_match(
    pattern: Pattern, segment: SequenceLike, matrix: CompatibilityMatrix
) -> float:
    """``M(P, s)`` for a segment of exactly the pattern's span.

    >>> from repro.core.pattern import Pattern, WILDCARD
    >>> from repro.core.compatibility import CompatibilityMatrix
    >>> C = CompatibilityMatrix.identity(3)
    >>> segment_match(Pattern([0, WILDCARD, 2]), [0, 1, 2], C)
    1.0
    """
    seg = as_sequence_array(segment)
    if len(seg) != pattern.span:
        raise MiningError(
            f"segment length {len(seg)} != pattern span {pattern.span}"
        )
    value = 1.0
    c = matrix.array
    for offset, symbol in pattern.fixed_positions:
        value *= c[symbol, seg[offset]]
        if value == 0.0:
            return 0.0
    return float(value)


def sequence_match(
    pattern: Pattern, sequence: SequenceLike, matrix: CompatibilityMatrix
) -> float:
    """``M(P, S)``: max window match of the pattern in the sequence.

    Returns 0.0 when the sequence is shorter than the pattern's span
    (no segment exists).
    """
    seq = as_sequence_array(sequence)
    return _sequence_match_array(pattern, seq, matrix.array)


def _sequence_match_array(
    pattern: Pattern, seq: np.ndarray, c: np.ndarray
) -> float:
    windows = len(seq) - pattern.span + 1
    if windows <= 0:
        return 0.0
    product: Optional[np.ndarray] = None
    for offset, symbol in pattern.fixed_positions:
        factors = c[symbol].take(seq[offset : offset + windows])
        if product is None:
            product = factors.copy()
        else:
            product *= factors
    assert product is not None  # patterns have at least one fixed position
    return float(product.max())


def window_matches(
    pattern: Pattern, sequence: SequenceLike, matrix: CompatibilityMatrix
) -> np.ndarray:
    """Match of the pattern against every sliding-window segment.

    Useful for locating *where* a pattern (approximately) occurs: the
    argmax of the returned vector is the best-aligned segment start.
    Returns an empty array when the sequence is shorter than the span.
    """
    seq = as_sequence_array(sequence)
    windows = len(seq) - pattern.span + 1
    if windows <= 0:
        return np.empty(0, dtype=np.float64)
    c = matrix.array
    product = np.ones(windows, dtype=np.float64)
    for offset, symbol in pattern.fixed_positions:
        product *= c[symbol].take(seq[offset : offset + windows])
    return product


def best_alignment(
    pattern: Pattern, sequence: SequenceLike, matrix: CompatibilityMatrix
) -> Tuple[int, float]:
    """``(start_position, match)`` of the best-aligned segment.

    Raises :class:`MiningError` when the sequence is shorter than the
    pattern's span.
    """
    scores = window_matches(pattern, sequence, matrix)
    if scores.size == 0:
        raise MiningError(
            "sequence is shorter than the pattern span; no alignment exists"
        )
    start = int(scores.argmax())
    return start, float(scores[start])


def database_match(
    pattern: Pattern,
    database: AnySequenceDatabase,
    matrix: CompatibilityMatrix,
) -> float:
    """``M(P, D)``: average sequence match over the database (one scan
    of :func:`database_matches`)."""
    return database_matches([pattern], database, matrix)[pattern]


def database_matches(
    patterns: Sequence[Pattern],
    database: AnySequenceDatabase,
    matrix: CompatibilityMatrix,
) -> Dict[Pattern, float]:
    """Matches of many patterns computed in a **single** database scan.

    This is the primitive every miner uses: the number of calls to this
    function is exactly the number of passes over the data.

    Patterns are grouped by span and each group is evaluated with one
    vectorised pass per pattern position — ``O(span)`` numpy operations
    per group per sequence, regardless of the group's size — which is
    what makes large candidate levels affordable.
    """
    patterns = list(patterns)
    if not patterns:
        return {}
    groups: Dict[int, List[int]] = {}
    for index, pattern in enumerate(patterns):
        groups.setdefault(pattern.span, []).append(index)
    m = matrix.size
    # Element matrix per group: WILDCARD (-1) is remapped to a virtual
    # symbol m whose compatibility with everything is 1.
    group_elements = {
        span: np.array(
            [
                [e if e != WILDCARD else m for e in patterns[i].elements]
                for i in indices
            ],
            dtype=np.int64,
        )
        for span, indices in groups.items()
    }
    c_ext = np.vstack([matrix.array, np.ones((1, m))])

    totals = np.zeros(len(patterns), dtype=np.float64)
    count = 0
    for chunk in database.scan_chunks():
        for seq in chunk.rows:
            count += 1
            gathered = c_ext[:, seq]  # (m + 1, |S|)
            length = len(seq)
            for span, indices in groups.items():
                windows = length - span + 1
                if windows <= 0:
                    continue
                elements = group_elements[span]  # (k, span)
                scores = gathered[elements[:, 0], 0:windows]
                if span > 1:
                    scores = scores.copy()
                    for offset in range(1, span):
                        scores *= gathered[
                            elements[:, offset], offset : offset + windows
                        ]
                totals[indices] += scores.max(axis=1)
    if count == 0:
        raise MiningError("cannot compute matches over an empty database")
    return {p: float(t / count) for p, t in zip(patterns, totals)}


def clean_occurrence_match(
    pattern: Pattern, matrix: CompatibilityMatrix
) -> float:
    """The match a *noise-free* occurrence of the pattern scores.

    Even an exact occurrence is discounted by the matrix diagonal
    (``C(d, d) < 1`` means an observed ``d`` is not certainly a true
    ``d``), so match values live on a deflated scale relative to
    support.  This ceiling — ``Π C(p_i, p_i)`` over fixed positions —
    is the natural calibration factor between the two scales.
    """
    value = 1.0
    for _offset, symbol in pattern.fixed_positions:
        value *= matrix.prob(symbol, symbol)
    return value


def calibrated_min_match(
    support_threshold: float,
    matrix: CompatibilityMatrix,
    weight: int,
) -> float:
    """A match threshold equivalent to *support_threshold* for patterns
    of the given weight.

    Multiplies the support-scale threshold by the typical clean-
    occurrence match of a weight-``weight`` pattern (the mean matrix
    diagonal raised to the weight).  Use this to pick ``min_match`` when
    you think in support terms; the paper's very low thresholds (0.001
    for patterns of dozens of symbols) are this deflation at work.
    """
    if weight < 1:
        raise MiningError(f"weight must be >= 1, got {weight}")
    mean_diagonal = float(np.mean(np.diag(matrix.array)))
    return support_threshold * mean_diagonal**weight


def symbol_sequence_matches(
    sequence: SequenceLike, matrix: CompatibilityMatrix
) -> np.ndarray:
    """Per-symbol match within one sequence (Algorithm 4.1 inner loop).

    ``result[d] = max over observed symbols d' in the sequence of
    C(d, d')``.  Uses the paper's optimisation: only the *distinct*
    observed symbols matter, so the cost is ``O(|S| + m · u)`` where
    ``u`` is the number of distinct symbols present.
    """
    seq = as_sequence_array(sequence)
    distinct = np.unique(seq)
    if int(distinct[-1]) >= matrix.size:
        raise MiningError(
            f"sequence contains symbol {int(distinct[-1])} but the "
            f"compatibility matrix only covers {matrix.size} symbols"
        )
    return matrix.array[:, distinct].max(axis=1)


def symbol_matches_and_sample(
    database: AnySequenceDatabase,
    matrix: CompatibilityMatrix,
    sample_size: int,
    rng: Optional[np.random.Generator] = None,
    engine: Optional[MatchEngine] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[np.ndarray, SequenceDatabase]:
    """Algorithm 4.1 in full: one pass computing per-symbol matches
    **and** drawing a uniform random sample.

    The paper stresses that sampling is a free by-product of the Phase-1
    scan.  The pass is *engine*'s own
    :meth:`~repro.engine.base.MatchEngine.symbol_matches` (a fresh
    :class:`~repro.engine.VectorizedBatchEngine` when ``None``), which
    offers every row it scans to a
    :class:`~repro.core.sequence.SequentialSampler` — the selector of
    :meth:`~repro.core.sequence.CountedScanDatabase.sample`, fed the
    same rows in the same order — so the values are the engine's
    Phase-1 values and the sample holds the ids ``database.sample``
    selects for the same *rng* state.  *tracer* records the engine's
    counters.

    ``sample_size >= len(database)`` is clamped to the database size:
    the sample is the whole database, selected deterministically in
    scan order without consuming the random stream.  ``sample_size < 1``
    is rejected.
    """
    if sample_size < 1:
        raise MiningError(
            f"cannot sample {sample_size} sequences from {len(database)}"
        )
    if engine is None:
        from ..engine import VectorizedBatchEngine  # imports this module

        engine = VectorizedBatchEngine()
    sampler = SequentialSampler(
        sample_size, len(database), rng or np.random.default_rng()
    )
    values = engine.symbol_matches(
        database, matrix, tracer=tracer, sampler=sampler
    )
    return values, sampler.database()
